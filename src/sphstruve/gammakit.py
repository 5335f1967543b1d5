"""Gamma-function family and two-variable Hermite polynomials.

This is the arithmetic substrate for every series in the package: the
gamma function on the real line, its reciprocal as a total function
(exactly zero at the poles, which is what makes negative-integer-order
series start at the right term), and the coefficients of the
two-variable Hermite polynomials that encode derivatives of Gaussians.
"""

import math
from collections import namedtuple

from .errors import DomainError, PoleError

__all__ = [
    "gamma",
    "rgamma",
    "hermite2_coeffs",
    "Hermite2Coeffs",
    "GAMMA_OVERFLOW_X",
]

SQRT_PI = 1.7724538509055160273
SQRT_TWO_PI = 2.5066282746310005024

# Gamma overflows binary64 just above this argument.
GAMMA_OVERFLOW_X = 171.624376956302725

# Lanczos approximation, g = 607/128, 15 terms.  Gives ~1e-15 relative
# accuracy on the positive real axis, comfortably inside the 1e-13
# contract after reflection.
_LANCZOS_G = 607.0 / 128.0


def _is_nonpositive_integer(x):
    return x <= 0.0 and x == math.floor(x)


def _lanczos_sum(x):
    # c0 + c1/(x + 1) + ... + c14/(x + 14), added left to right
    return (
        0.99999999999999709182
        + 57.156235665862923517 / (x + 1.0)
        - 59.597960355475491248 / (x + 2.0)
        + 14.136097974741747174 / (x + 3.0)
        - 0.49191381609762019978 / (x + 4.0)
        + 0.33994649984811888699e-4 / (x + 5.0)
        + 0.46523628927048575665e-4 / (x + 6.0)
        - 0.98374475304879564677e-4 / (x + 7.0)
        + 0.15808870322491248884e-3 / (x + 8.0)
        - 0.21026444172410488319e-3 / (x + 9.0)
        + 0.21743961811521264320e-3 / (x + 10.0)
        - 0.16431810653676389022e-3 / (x + 11.0)
        + 0.84418223983852743293e-4 / (x + 12.0)
        - 0.26190838401581408670e-4 / (x + 13.0)
        + 0.36899182659531622704e-5 / (x + 14.0)
    )


def _gamma_positive(x):
    """Gamma for x >= 0.5 via the Lanczos approximation."""
    g = _LANCZOS_G
    t = x + g + 0.5 - 1.0
    s = _lanczos_sum(x - 1.0)
    # Split the power to keep intermediates representable near overflow.
    half = 0.5 * (x - 0.5)
    p = t**half
    return SQRT_TWO_PI * s * p * math.exp(-t) * p


def gamma(x):
    """Gamma(x) for real x, relative error <= 1e-13 for |x| <= 170.

    Raises PoleError at nonpositive integers and OverflowError where the
    result exceeds the binary64 range.
    """
    x = float(x)
    if not x > -math.inf:  # NaN, or -inf, where Gamma has no limit
        raise DomainError(f"gamma: argument {x!r} is NaN or -inf")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma: pole at x={x!r}")
    if x > GAMMA_OVERFLOW_X:
        raise OverflowError(f"gamma({x!r}) exceeds binary64 range")
    if x >= 0.5:
        return _gamma_positive(x)
    # Reflection: Gamma(x) = pi / (sin(pi x) Gamma(1 - x)).
    if 1.0 - x > GAMMA_OVERFLOW_X:
        # |Gamma(x)| underflows; the sign still alternates between poles.
        s = _sin_pi(x)
        return math.copysign(0.0, s)
    return math.pi / (_sin_pi(x) * _gamma_positive(1.0 - x))


def _sin_pi(x):
    """sin(pi x) reduced about the nearest integer, so accuracy survives
    arbitrarily close to the zeros."""
    n = round(x)
    r = x - n  # exact in binary64
    s = math.sin(math.pi * r)
    return s if n % 2 == 0 else -s


def rgamma(x):
    """1/Gamma(x), entire on the usable range; exactly 0 at 0, -1, -2, ...

    This is the term-killing reciprocal every negative-index series relies
    on, so the zeros are produced exactly rather than through division by
    a huge Gamma value.
    """
    x = float(x)
    if not x > -math.inf:  # NaN, or -inf, where Gamma has no limit
        raise DomainError(f"rgamma: argument {x!r} is NaN or -inf")
    if _is_nonpositive_integer(x):
        return 0.0
    if x >= 0.5:
        if x > GAMMA_OVERFLOW_X:
            return 0.0  # 1/Gamma underflows
        return 1.0 / _gamma_positive(x)
    # 1/Gamma(x) = sin(pi x) Gamma(1 - x) / pi
    if 1.0 - x > GAMMA_OVERFLOW_X:
        # magnitude exceeds binary64; keep IEEE totality with a signed inf
        return math.copysign(math.inf, _sin_pi(x))
    return _sin_pi(x) * _gamma_positive(1.0 - x) / math.pi


_HERMITE2_MAX_DEGREE = 200


Hermite2Coeffs = namedtuple("Hermite2Coeffs", "degree coefficients")
Hermite2Coeffs.__doc__ = """Coefficient table of the finite two-variable Hermite sum.

Entry k multiplies y**(n-2k) z**k and equals n!/(k!(n-2k)!).
"""


def hermite2_coeffs(n):
    """Coefficients n!/(k!(n-2k)!) for k = 0..floor(n/2)."""
    if n < 0 or n != int(n):
        raise DomainError("hermite2_coeffs: degree must be a nonnegative integer")
    n = int(n)
    if n > _HERMITE2_MAX_DEGREE:
        raise DomainError(f"hermite2_coeffs: degree {n} exceeds limit {_HERMITE2_MAX_DEGREE}")
    coeffs = [1.0]
    c = 1.0
    for k in range(n // 2):
        # ratio c_{k+1}/c_k = (n-2k)(n-2k-1)/(k+1)
        c *= (n - 2 * k) * (n - 2 * k - 1) / (k + 1)
        coeffs.append(c)
    return Hermite2Coeffs(degree=n, coefficients=tuple(coeffs))
