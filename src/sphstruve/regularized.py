"""Regularized semi-infinite integrals of the two-index Bessel-like family.

The integrals over [0, inf) of x**(a-1) J_{mu,nu}(x) and over the real
line of J_{mu,nu}(x**2) do not converge classically: the function carries
an oscillatory component whose envelope grows like exp(1.5 z**(1/3)).
Their closed-form values are the Mellin/Abel-regularized ones, and that
is what this module computes, to a few ulps of the returned float:

1. substitute x = t**3 (or x**2 = t**3), which makes the asymptotic
   phase linear in t;
2. integrate [0, T], T = 24, term by term: J_{mu,nu}(t**3) is an entire
   series, so the finite part is the closed series
   sum_k (-1)**k T**(gam+1+3k) / ((gam+1+3k) k! Gamma(k+mu+1) Gamma(k+nu+1)),
   about 90 terms summed in fixed 60-digit decimal arithmetic (its terms
   reach ~1e30 while the answer is O(1), so binary64 cannot hold the
   cancellation);
3. replace the tail by the Abel-regularized antiderivative of the
   function's large-argument expansion, extracted from the ODE
   recurrence with the closed-form saddle amplitude
   omega**q / (2 pi sqrt(3)), omega = exp(i pi/3), q = -(1 + mu + nu).
   The antiderivative's coefficients come from one recurrence over the
   expansion's, and the series is summed once, to its smallest term.

The expansion's coefficients are built once per (mu, nu) and cached.  The
recurrence's constants lie in Q(omega), so each coefficient is carried as
X + Y omega, X and Y real 60-digit numbers: multiplying by omega or
omega**2 is additions only, and for half-integer indices every polynomial
factor of the recurrence is an exact integer, converted once.  So each
step rounds only its four products, four sums and two divisions, and
each coefficient is rounded twice more when (X + Y/2, Y sqrt(3)/2) is
formed; no complex division is left in the build.

The expansion, the amplitude and the tail are all validated against the
60-digit series in the test suite.

ln T and e^{3 omega T} are computed once per cut T, and each power of T
from a single exp per call: the finite part steps T**(gam+1) by -T**3
from term to term, and the tail steps T**(q+gam) by 1/T.
"""

import math
from decimal import Decimal as D, localcontext
from functools import lru_cache, wraps

from .errors import ConvergenceError, DomainError

__all__ = [
    "humbert2_phase_integral",
    "real_line_squared_integral",
    "power_moment_integral",
    "humbert2_decimal",
    "stokes_amplitude",
]

_PREC = 60
_PI = D("3.14159265358979323846264338327950288419716939937510582097494459")
_TAIL_CUT = D(24)
_SERIES_EPS = D("1e-55")
_SINCOS_EPS = D("1e-58")
_SADDLE_TERMS = 100  # correction coefficients a_1.. of each saddle table


def _with_precision(fn):
    """Run a public entry under a scoped 60-digit context, leaving the
    caller's decimal context untouched."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        with localcontext() as ctx:
            ctx.prec = _PREC
            return fn(*args, **kwargs)

    return wrapper


def _sincos(x):
    """sin and cos of a Decimal by reduction mod 2*pi plus Taylor."""
    two_pi = 2 * _PI
    k = int(x / two_pi)
    r = x - k * two_pi
    if r > _PI:
        r -= two_pi
    elif r < -_PI:
        r += two_pi
    s = D(0)
    term = r
    n = 1
    while True:
        s += term
        nxt = term * r * r / ((2 * n) * (2 * n + 1))
        if abs(nxt) < _SINCOS_EPS:
            break
        term = -nxt
        n += 1
    c = D(0)
    term = D(1)
    n = 1
    while True:
        c += term
        nxt = term * r * r / ((2 * n - 1) * (2 * n))
        if abs(nxt) < _SINCOS_EPS:
            break
        term = -nxt
        n += 1
    return s, c


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _cexp(a):
    m = a[0].exp()
    s, c = _sincos(a[1])
    return (m * c, m * s)


@_with_precision
def _saddle_constants():
    sqrt3 = D(3).sqrt()
    omega = (D("0.5"), sqrt3 / 2)  # exp(i pi/3)
    p = (3 * omega[0], 3 * omega[1])  # exponent rate 3*omega
    return sqrt3, omega, p, _cdiv((D(1), D(0)), p)


_SQRT3, _OMEGA, _P_RATE, _INV_P_RATE = _saddle_constants()


@lru_cache(maxsize=4)
@_with_precision
def _cut_constants(T):
    """ln T and e^{pT}, p = 3 omega: the constants of a tail cut T."""
    return T.ln(), _cexp((_P_RATE[0] * T, _P_RATE[1] * T))


def _halfint(x):
    return 2.0 * x == math.floor(2.0 * x)


def _gamma_decimal(x):
    """Gamma for positive integer or half-integer Decimal-compatible x."""
    if x <= 0 or not _halfint(float(x)):
        raise DomainError("decimal gamma implemented for positive half-integers only")
    x = D(str(x))
    if x == int(x):
        v = D(1)
        for i in range(2, int(x)):
            v *= i
        return v
    n = int(x - D("0.5"))
    v = _PI.sqrt()
    for i in range(n):
        v *= D(2 * i + 1) / 2
    return v


def _series_prefactor(mu, nu):
    """Leading series term 1/(Gamma(mu+1) Gamma(nu+1))."""
    return 1 / (_gamma_decimal(mu + 1.0) * _gamma_decimal(nu + 1.0))


@_with_precision
def humbert2_decimal(mu, nu, z):
    """J_{mu,nu}(z) by direct series in 60-digit decimal; mu, nu must be
    nonnegative integers or half-integers (the catalog windows)."""
    mu_d = D(str(mu))
    nu_d = D(str(nu))
    t = _series_prefactor(mu, nu)
    z = D(z) if not isinstance(z, D) else z
    neg_z = -z
    s = D(0)
    k = 0
    while True:
        s += t
        t = t * neg_z / ((k + 1) * (k + 1 + mu_d) * (k + 1 + nu_d))
        k += 1
        if k > 8 and abs(t) < _SERIES_EPS * (abs(s) + 1):
            return s
        if k > 4000:
            raise DomainError("humbert2_decimal: series failed to converge")


def _asym_coeffs(mu, nu):
    """`_saddle_coeffs` of the unordered pair {mu, nu}: its table is
    symmetric in the two indices bit for bit (q, C and every integer
    factor of the recurrence are), so both orders share one cache entry."""
    return _saddle_coeffs(nu, mu) if nu < mu else _saddle_coeffs(mu, nu)


@lru_cache(maxsize=64)
@_with_precision
def _saddle_coeffs(mu, nu):
    """(q, a, C) of the saddle expansion
    f(t^3) ~ 2 Re[C e^{3 omega t} t^q sum_i a_i t^-i], q = -(1+mu+nu):
    the correction coefficients a_i from the third-order recurrence the
    defining ODE imposes, and the amplitude C = `stokes_amplitude(mu, nu)`,
    all at the pipeline's 60 digits.  2 mu and 2 nu must be integers
    (`DomainError` otherwise), as for every caller.

    The recurrence is a_j = (omega^2 B1 a_{j-1} + omega B0 a_{j-2}) / B2,
    with 1/omega^2 = -omega folded in and B2 = -j.  Its constants lie in
    Q(omega), so a_j is carried as X_j + Y_j omega, X and Y real:
    multiplying by omega is (X, Y) -> (-Y, X + Y) and by omega^2 is
    (X, Y) -> (-X - Y, X), additions only, since omega^2 = omega - 1.  For
    half-integer indices 216 B1 and 216 B0 are exact integers, each
    converted once, so a step rounds only its four products, four sums
    and two divisions by 216 j.  Each a_j is formed once as
    (X + Y/2, Y sqrt(3)/2), rounding twice more."""
    m2, n2 = 2.0 * mu, 2.0 * nu
    if not (m2.is_integer() and n2.is_integer()):
        raise DomainError("saddle expansion: indices restricted to half-integers")
    M, N = int(m2), int(n2)
    s = M + N
    q = -(1 + D(str(mu)) + D(str(nu)))
    w0, w1 = _OMEGA
    x1, y1 = D(1), D(0)  # a_{j-1}
    x2 = y2 = D(0)  # a_{j-2}
    a = [(x1, y1)]
    for j in range(1, _SADDLE_TERMS + 1):
        m = -s - 2 * j  # twice B1's argument q - j + 1
        b1 = D(6 * ((m + 2) * (2 * m + 2 + 3 * s) + (m + 3 * M) * (m + 3 * N)))
        m += 2  # twice B0's argument q - j + 2
        b0 = D(m * (m + 3 * M) * (m + 3 * N))
        den = 216 * j
        x = (b1 * (x1 + y1) + b0 * y2) / den
        y = (b1 * x1 + b0 * (x2 + y2)) / -den
        a.append((x + y * w0, y * w1))
        x2, y2, x1, y1 = x1, y1, x, y
    return q, tuple(a), stokes_amplitude(mu, nu)


def _sum_to_min(terms):
    """Sum a complex asymptotic term list through its smallest-magnitude
    entry (inclusive), the optimal truncation.  A series whose smallest
    term is its last computed one has not turned, so its truncation error
    is unknown, unless that term is already negligible (below _SERIES_EPS
    of the first)."""
    mags = [abs(t[0]) + abs(t[1]) for t in terms]
    imin = mags.index(min(mags))
    if imin == len(terms) - 1 and mags[imin] >= _SERIES_EPS * mags[0]:
        raise ConvergenceError(
            f"asymptotic series still decreasing at its last computed term ({imin})"
        )
    re = D(0)
    im = D(0)
    for t in terms[: imin + 1]:
        re += t[0]
        im += t[1]
    return (re, im)


@_with_precision
def stokes_amplitude(mu, nu):
    """Closed-form saddle amplitude C = omega**q / (2 pi sqrt(3)), q = -(1+mu+nu)."""
    q = -(1 + D(str(mu)) + D(str(nu)))
    s, c = _sincos(q * _PI / 3)
    mag = 1 / (2 * _PI * _SQRT3)
    return (mag * c, mag * s)


def _tail_regularized(T, gam, mu, nu):
    """Abel-regularized integral over [T, inf) of t**gam J_{mu,nu}(t**3) dt.

    The saddle part of the integrand is 2 Re[C e^{pt} sum_n a_n t^{b-n}],
    p = 3 omega, b = q + gam.  Its antiderivative is e^{pt} sum_n c_n t^{b-n}
    with (p + d/dt) sum_n c_n t^{b-n} = sum_n a_n t^{b-n}, so
    c_0 = a_0/p and p c_n = a_n - (b-n+1) c_{n-1}.  The series is summed
    once, to its smallest term: at T = 24 that is n = 68..74 of 101 over
    the catalog windows, and the term stays below 5e-17 of the result.
    Each step multiplies by 1/p inline, with the operations of `_cmul`,
    and C is read from the coefficients' cached entry.
    Under Abel regularization only the lower boundary survives, so the
    tail is minus the antiderivative at T.  The decaying real saddle,
    about e^{-3t} t^q / (pi sqrt(3)) in J_{mu,nu}(t**3), integrates to
    below e^{-3T} T^b / (3 pi sqrt(3)) <= 5e-32 at T = 24 (b <= 0.85 over
    the windows) and is dropped.
    """
    q, acoef, C = _asym_coeffs(mu, nu)
    wr, wi = _INV_P_RATE  # 1/p
    ln_T, exp_pT = _cut_constants(T)
    b = q + D(str(gam))
    inv_T = 1 / T
    tb = (b * ln_T).exp()
    cr = ci = D(0)
    terms = []
    for n, (ar, ai) in enumerate(acoef):
        step = b - n + 1
        xr = ar - step * cr
        xi = ai - step * ci
        cr = xr * wr - xi * wi
        ci = xr * wi + xi * wr
        terms.append((cr * tb, ci * tb))
        tb *= inv_T
    v = _cmul(C, _cmul(exp_pT, _sum_to_min(terms)))
    return -2 * v[0]


def _finite_part(T, gam, mu, nu):
    """integral over [0, T] of t**gam J_{mu,nu}(t**3) dt, term by term:
    sum_k (-1)**k T**(gam+1+3k) / ((gam+1+3k) k! Gamma(k+mu+1) Gamma(k+nu+1))."""
    mu_d = D(str(mu))
    nu_d = D(str(nu))
    e = D(str(gam)) + 1
    t = _series_prefactor(mu, nu) * (e * _cut_constants(T)[0]).exp()
    neg_T3 = -(T**3)
    s = D(0)
    k = 0
    while True:
        s += t / (e + 3 * k)
        t = t * neg_T3 / ((k + 1) * (k + 1 + mu_d) * (k + 1 + nu_d))
        k += 1
        if k > 8 and abs(t) < _SERIES_EPS * (abs(s) + 1):
            return s


@_with_precision
def humbert2_phase_integral(gam, mu, nu):
    """Regularized integral over [0, inf) of t**gam J_{mu,nu}(t**3) dt."""
    if not gam > -1.0:
        raise DomainError("humbert2_phase_integral: requires power > -1")
    if mu < 0 or nu < 0 or not (_halfint(mu) and _halfint(nu)):
        raise DomainError(
            "humbert2_phase_integral: indices restricted to nonnegative half-integers"
        )
    T = _TAIL_CUT
    fp = _finite_part(T, gam, mu, nu)
    tl = _tail_regularized(T, gam, mu, nu)
    return float(fp + tl)


def real_line_squared_integral(mu, nu):
    """Regularized integral over the real line of J_{mu,nu}(x**2) dx,
    evaluated as 3 * integral t**(1/2) J(t**3) dt (x = t**(3/2))."""
    return 3.0 * humbert2_phase_integral(0.5, mu, nu)


def power_moment_integral(alpha, mu, nu):
    """Regularized integral over [0, inf) of x**(alpha-1) J_{mu,nu}(x) dx,
    evaluated as 3 * integral t**(3 alpha - 1) J(t**3) dt (x = t**3)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("power_moment_integral: alpha restricted to (0, 1)")
    return 3.0 * humbert2_phase_integral(3.0 * alpha - 1.0, mu, nu)
