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

The expansion's coefficients are built once per unordered pair
{mu, nu} and cached.  The recurrence's constants lie in Q(omega), so each
coefficient is kept as X + Y omega, X and Y real 60-digit numbers:
multiplying by omega or omega**2 is additions only, and for half-integer
indices every polynomial factor of the recurrence is an exact integer,
converted once.  So each step rounds only its four products, four sums
and two divisions, and the build forms no complex number.

The tail's recurrence runs in the same basis, on a table cached per cut
and pair that holds a_n T**-n / 3 and n / (3T): its divisor p = 3 omega
enters as 1/p = -omega**2 / 3, additions only, so a step takes two
products and one more to size its term.  The table also folds in
C e^{3 omega T} and T**(q-1), an integer power of sqrt(T).  So a call
takes one exp, T**(gam+1): it starts the finite part, whose terms then
step by -4 T**3 over exact integers, and it scales the tail's sum.

The expansion, the amplitude and the tail are all validated against the
60-digit series in the test suite.
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


def _cexp(a):
    m = a[0].exp()
    s, c = _sincos(a[1])
    return (m * c, m * s)


@_with_precision
def _saddle_constants():
    sqrt3 = D(3).sqrt()
    omega = (D("0.5"), sqrt3 / 2)  # exp(i pi/3)
    # the exponent rate p = 3 omega, and _SERIES_EPS times the size
    # 2 (|Re| + |Im|) of the tail's first term c_0 = 1/p: a last term
    # below it certifies a tail that has not turned
    return sqrt3, omega, (3 * omega[0], 3 * omega[1]), _SERIES_EPS * (1 + sqrt3) / 3


_SQRT3, _OMEGA, _P_RATE, _TAIL_FLOOR = _saddle_constants()


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


@lru_cache(maxsize=64)
@_with_precision
def _series_prefactor(mu, nu):
    """Leading series term 1/(Gamma(mu+1) Gamma(nu+1)) at the pipeline's 60
    digits, formed once per pair: the product is symmetric bit for bit, so
    its callers key it on mu <= nu."""
    return 1 / (_gamma_decimal(mu + 1.0) * _gamma_decimal(nu + 1.0))


@_with_precision
def humbert2_decimal(mu, nu, z):
    """J_{mu,nu}(z) by direct series in 60-digit decimal; mu, nu must be
    nonnegative integers or half-integers (the catalog windows)."""
    mu_d = D(str(mu))
    nu_d = D(str(nu))
    t = _series_prefactor(min(mu, nu), max(mu, nu))
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


@_with_precision
def _saddle_coeffs(mu, nu):
    """(q, a, C) of the saddle expansion
    f(t^3) ~ 2 Re[C e^{3 omega t} t^q sum_i a_i t^-i], q = -(1+mu+nu):
    the correction coefficients a_i from the third-order recurrence the
    defining ODE imposes, and the amplitude C = `stokes_amplitude(mu, nu)`,
    all at the pipeline's 60 digits.  2 mu and 2 nu must be integers
    (`DomainError` otherwise), as for every caller.  The table is symmetric
    in the two indices bit for bit (q, C and every integer factor of the
    recurrence are), so its caller keys it on mu <= nu.

    The recurrence is a_j = (omega^2 B1 a_{j-1} + omega B0 a_{j-2}) / B2,
    with 1/omega^2 = -omega folded in and B2 = -j.  Its constants lie in
    Q(omega), so a_j is carried as X_j + Y_j omega, X and Y real:
    multiplying by omega is (X, Y) -> (-Y, X + Y) and by omega^2 is
    (X, Y) -> (-X - Y, X), additions only, since omega^2 = omega - 1.  For
    half-integer indices 216 B1 and 216 B0 are exact integers, each
    converted once, so a step rounds only its four products, four sums
    and two divisions by 216 j.  Each a_j is returned as the pair (X, Y):
    its value is (X + Y/2) + i Y sqrt(3)/2."""
    m2, n2 = 2.0 * mu, 2.0 * nu
    if not (m2.is_integer() and n2.is_integer()):
        raise DomainError("saddle expansion: indices restricted to half-integers")
    M, N = int(m2), int(n2)
    s = M + N
    q = -(1 + D(str(mu)) + D(str(nu)))
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
        a.append((x, y))
        x2, y2, x1, y1 = x1, y1, x, y
    return q, tuple(a), stokes_amplitude(mu, nu)


@_with_precision
def stokes_amplitude(mu, nu):
    """Closed-form saddle amplitude C = omega**q / (2 pi sqrt(3)), q = -(1+mu+nu)."""
    q = -(1 + D(str(mu)) + D(str(nu)))
    s, c = _sincos(q * _PI / 3)
    mag = 1 / (2 * _PI * _SQRT3)
    return (mag * c, mag * s)


@lru_cache(maxsize=64)
@_with_precision
def _tail_table(T, mu, nu):
    """(q, k1, k2, rows) of the tail at cut T, for mu <= nu: row n holds
    a_n T**-n / 3 in the basis {1, omega} and n / (3T).  With K = C e^{pT},
    k1 = -2 T**(q-1) Re K and k2 = -2 T**(q-1) Re(K omega), so a sum
    Sx + Sy omega of the terms c_n T**-n makes the tail
    T**(gam+1) (k1 Sx + k2 Sy); q - 1 = -(2 + mu + nu), so T**(q-1) is an
    integer power of sqrt(T)."""
    q, a, C = _saddle_coeffs(mu, nu)
    kr, ki = _cmul(C, _cut_constants(T)[1])
    scale = -2 * T.sqrt() ** int(2 * (q - 1))
    three_tn, three_t = D(3), 3 * T
    rows = []
    for n, (x, y) in enumerate(a):
        rows.append((x / three_tn, y / three_tn, n / three_t))
        three_tn *= T
    return q, scale * kr, scale * (kr * _OMEGA[0] - ki * _OMEGA[1]), tuple(rows)


def _tail_regularized(T, gam, mu, nu, t_e):
    """Abel-regularized integral over [T, inf) of t**gam J_{mu,nu}(t**3) dt,
    given t_e = T**(gam+1).

    The saddle part of the integrand is 2 Re[C e^{pt} sum_n a_n t^{b-n}],
    p = 3 omega, b = q + gam.  Its antiderivative is e^{pt} sum_n c_n t^{b-n}
    with (p + d/dt) sum_n c_n t^{b-n} = sum_n a_n t^{b-n}, so
    c_0 = a_0/p and p c_n = a_n - (b-n+1) c_{n-1}.  The loop runs this on
    the rows of `_tail_table`, for g_n = c_n T**-n:
    g_n = -omega**2 (a_n T**-n / 3 - ((b+1)/(3T) - n/(3T)) g_{n-1}), and
    -omega**2 (x + y omega) = (x + y) - x omega.  The series is summed
    once, to its smallest term, a term X + Y omega sized as
    2 (|Re| + |Im|) = |2X + Y| + sqrt(3) |Y|: at T = 24 that is n = 68..74
    of 101 over the catalog windows, and the term stays below 5e-17 of
    the result.  A series whose smallest term is its last has not turned,
    so it raises unless that term is below _SERIES_EPS of the first.
    Under Abel regularization only the lower boundary survives, so the
    tail is minus the antiderivative at T.  The decaying real saddle,
    about e^{-3t} t^q / (pi sqrt(3)) in J_{mu,nu}(t**3), integrates to
    below e^{-3T} T^b / (3 pi sqrt(3)) <= 5e-32 at T = 24 (b <= 0.85 over
    the windows) and is dropped.
    """
    q, k1, k2, rows = _tail_table(T, min(mu, nu), max(mu, nu))
    beta = (q + D(str(gam)) + 1) / (3 * T)
    gx = x = sx = sy = D(0)  # g_{n-1} = gx - x omega
    lo = D("Infinity")
    for n, (ax, ay, r) in enumerate(rows):
        s = beta - r
        x, y = ax - s * gx, ay + s * x
        gx = x + y
        sx += gx
        sy += x
        size = abs(gx + gx - x) + _SQRT3 * abs(x)
        if size < lo:
            lo, n_lo, sx_lo, sy_lo = size, n, sx, sy
    if n_lo == len(rows) - 1 and lo >= _TAIL_FLOOR:
        raise ConvergenceError(f"asymptotic series still decreasing at its last computed term ({n_lo})")
    return t_e * (k1 * sx_lo - k2 * sy_lo)


def _finite_part(T, gam, mu, nu, t_e):
    """integral over [0, T] of t**gam J_{mu,nu}(t**3) dt, given
    t_e = T**(gam+1), term by term:
    sum_k (-1)**k T**(gam+1+3k) / ((gam+1+3k) k! Gamma(k+mu+1) Gamma(k+nu+1)).
    Each term is the last times -4 T**3 over the exact integer
    (k+1)(2k+2+2mu)(2k+2+2nu)."""
    m2, n2 = int(2 * mu), int(2 * nu)
    e = D(str(gam)) + 1
    t = _series_prefactor(min(mu, nu), max(mu, nu)) * t_e
    neg_4T3 = -4 * T**3
    s = D(0)
    k = 0
    while True:
        s += t / (e + 3 * k)
        k += 1
        t = t * neg_4T3 / (k * (2 * k + m2) * (2 * k + n2))
        if k > 8 and abs(t) < _SERIES_EPS * (abs(s) + 1):
            return s


@_with_precision
def humbert2_phase_integral(gam, mu, nu):
    """Regularized integral over [0, inf) of t**gam J_{mu,nu}(t**3) dt.
    The power is read through str(): a float as its shortest repr, a
    Decimal exactly."""
    if not gam > -1.0:
        raise DomainError("humbert2_phase_integral: requires power > -1")
    if mu < 0 or nu < 0 or not (_halfint(mu) and _halfint(nu)):
        raise DomainError(
            "humbert2_phase_integral: indices restricted to nonnegative half-integers"
        )
    T = _TAIL_CUT
    t_e = ((D(str(gam)) + 1) * _cut_constants(T)[0]).exp()  # the call's one exp
    return float(_finite_part(T, gam, mu, nu, t_e) + _tail_regularized(T, gam, mu, nu, t_e))


def real_line_squared_integral(mu, nu):
    """Regularized integral over the real line of J_{mu,nu}(x**2) dx,
    evaluated as 3 * integral t**(1/2) J(t**3) dt (x = t**(3/2))."""
    return 3.0 * humbert2_phase_integral(0.5, mu, nu)


@_with_precision
def power_moment_integral(alpha, mu, nu):
    """Regularized integral over [0, inf) of x**(alpha-1) J_{mu,nu}(x) dx,
    evaluated as 3 * integral t**(3 alpha - 1) J(t**3) dt (x = t**3).  The
    power 3 alpha - 1 is formed in Decimal from alpha's exact binary value,
    exactly for alpha >= 2^-7: rounded to binary64 it moved the closed form
    by up to 3.7e-15, and read from str(alpha) by 1.8e-15 (alpha = 0.95,
    mu = nu = 0, where Gamma(1 - alpha) magnifies a change of alpha 40-fold)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("power_moment_integral: alpha restricted to (0, 1)")
    return 3.0 * humbert2_phase_integral(3 * D(alpha) - 1, mu, nu)
