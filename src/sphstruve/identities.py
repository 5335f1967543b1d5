"""Machine-checkable catalog of the closed-form identities.

Each catalog entry binds a left-side evaluator (series, quadrature or
umbral pipeline) and a right-side closed form, a parameter window with a
default sample grid, and tolerances matched to the evaluator class:

* 1e-10 .. 1e-12 for pure series/umbral identities, and 1e-12 for the
  real-line integrals, whose heads and closed-form tails carry bounds,
* 1e-8 for absolutely convergent quadrature,
* 1e-6 for finite-difference relations and conditionally convergent or
  regularized integrals.

The two sides of every identity are evaluated independently: bindings
carry the set of library operations they touch, and the audit (see the
test suite) checks that the sides share nothing above the gamma kernel.
For the handful of within-family relations (recursions, shift-operator
relations) the same function family necessarily appears on both sides;
those entries are flagged `shared_family` and the audit instead requires
the two strategies to differ.
"""

import cmath
import math
import os
import time
from collections import namedtuple

from .errors import DomainError, ConvergenceError, UnknownIdentityError
from .gammakit import SQRT_PI, gamma, rgamma
from . import fd
from .ddouble import two_prod
from .functions import (
    DEFAULT_POLICY,
    _humbert_family,
    _integrate_ratio_series_dd,
    _rayleigh_tables,
    _s_terms,
    _struve_terms,
    anger,
    cyl_j,
    delta_fn,
    hankel_amplitude_coeffs,
    mod_i0,
    sinc_sqrt,
    sph_j,
    sph_j_deriv,
    struve_h,
    watson_parity_coeffs,
    weber,
)
from .quadrature import _exp_power_tail, integrate_finite, integrate_laguerre
from .regularized import power_moment_integral, real_line_squared_integral
from .umbral import laplace_reduce, reduce_shifts

__all__ = [
    "Identity",
    "EvaluatorBinding",
    "VerificationReport",
    "list_identities",
    "get_identity",
    "verify",
    "verify_all",
    "catalog_json",
]

# where the heads integrated term by term hand over to the closed-form
# tails: the product series of I19 cancels like e^{2x}, the others like e^x
_TAIL_SPLIT = 30.0
_PRODUCT_SPLIT = 20.0
# I06/I07's GK15 head ends at 40, where the tail's floor is 1e-17, not 1e-13
_SQUARE_SPLIT = 40.0


EvaluatorBinding = namedtuple("EvaluatorBinding", "fn operations strategy")
EvaluatorBinding.__doc__ = """One side of an identity: callable plus audit metadata."""


# reference states the verified claim; params maps each name to
# ("range", lo, hi) or ("choice", values); grid is a tuple of param dicts
class Identity(namedtuple("Identity", "id description reference params grid lhs rhs tol_abs tol_rel "
                                      "window_note shared_family", defaults=("", False))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.tol_abs <= 0 or self.tol_rel <= 0:
            raise DomainError(f"{self.id}: tolerances must be positive")
        for pt in self.grid:
            self.check_params(pt)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def check_params(self, params):
        for name, spec in self.params.items():
            if name not in params:
                raise DomainError(f"{self.id}: missing parameter {name!r}")
            v = params[name]
            if spec[0] == "range":
                if not spec[1] <= v <= spec[2]:
                    raise DomainError(
                        f"{self.id}: {name}={v!r} outside window [{spec[1]}, {spec[2]}]"
                    )
            else:
                if v not in spec[1]:
                    raise DomainError(f"{self.id}: {name}={v!r} not among {spec[1]!r}")
        for name in params:
            if name not in self.params:
                raise DomainError(f"{self.id}: unknown parameter {name!r}")


# status is one of pass | fail | skipped
VerificationReport = namedtuple(
    "VerificationReport", "identity_id params lhs rhs abs_err rel_err status seconds reason", defaults=("",)
)


# ---------------------------------------------------------------------------
# Shared evaluator helpers.


def _sinc(x):
    return math.sin(x) / x if x != 0.0 else 1.0


def _struve_source(alpha, x):
    """(x/2)**alpha / (sqrt(pi) Gamma(alpha + 3/2))."""
    return (x / 2.0) ** alpha * rgamma(alpha + 1.5) / SQRT_PI


def _hankel_tail(nu, T, phase, extra_power):
    """(value, floor) of the integral over [T, inf) of sqrt(2/pi)
    e^{i(x - phase)} (P + iQ)(nu, x) x^(-1/2-extra_power), with P + iQ
    the Hankel amplitude of order nu."""
    lead = math.sqrt(2.0 / math.pi) * cmath.exp(-1j * phase)
    return _exp_power_tail([lead * c for c in hankel_amplitude_coeffs(nu)], -0.5 - extra_power, 1j, T)


def _struve_line_integral(alpha, policy):
    """(value, bound) of the integral over [0, inf) of H_alpha, for alpha
    in (-2, 0): the ascending series integrated term by term over [0, T]
    plus the closed-form tails of Y_alpha and of the algebraic part
    H_alpha - Y_alpha ~ (1/pi) sum_k Gamma(k+1/2) (x/2)^(alpha-2k-1)
    / Gamma(alpha+1/2-k).  The bound adds the head's to the tails' floors."""
    T = _TAIL_SPLIT
    z = two_prod(-T / 2.0, T / 2.0)
    head, bound = _integrate_ratio_series_dd(*_struve_terms(alpha, T), alpha + 2.0, T, z, policy)
    y_tail, y_floor = _hankel_tail(alpha, T, (0.5 * alpha + 0.25) * math.pi, 0.0)
    # coefficients of x^(alpha-1-n): the k-th term at n = 2k, zeros between
    alg = [0.0] * 120
    c = SQRT_PI * rgamma(alpha + 0.5) * 2.0 ** (1.0 - alpha) / math.pi
    for k in range(60):
        alg[2 * k] = c
        c *= 4.0 * (k + 0.5) * (alpha - 0.5 - k)
    alg_tail, alg_floor = _exp_power_tail(alg, alpha - 1.0, 0.0, T)
    return head + y_tail.imag + alg_tail, bound + y_floor + alg_floor


def _s_line_integral(nu, kind, extra_power, policy):
    """(value, bound) of the integral over [0, inf) of S_kind(nu, x)/x**extra_power:
    the series integrated term by term up to T, its large-argument parts past T."""
    T = _TAIL_SPLIT
    t0, dens, k0 = _s_terms(kind, nu, T)
    # term k is proportional to x^(2k+kind-1-extra_power); T**0 is exactly 1.0
    z = two_prod(-T / 2.0, T / 2.0)
    head, bound = _integrate_ratio_series_dd(t0 / T**extra_power, dens, k0, kind - extra_power, T, z, policy)
    # with c + is = e^{i nu pi/2}, (c + is)(J_nu + i Y_nu) = (cJ - sY) + i(sJ + cY)
    # holds the oscillatory parts of S1 and S2, and its phase no longer nu
    w, w_floor = _hankel_tail(nu, T, 0.25 * math.pi, extra_power)
    if kind == 1:
        tail_osc, scale = w.real, math.sin(0.5 * nu * math.pi)
    else:
        tail_osc, scale = w.imag, math.cos(0.5 * nu * math.pi)
    # the Watson part scale * (A_nu -/+ A_-nu) of S1/S2: (2 scale/pi)
    # sum_k a_k x^(-1-k-extra_power) over odd k for S1, even k for S2
    a = [2.0 * scale / math.pi * c for c in watson_parity_coeffs(nu, odd=kind == 1)]
    tail_alg, alg_floor = _exp_power_tail(a, -1.0 - extra_power, 0.0, T)
    return head + tail_osc + tail_alg, bound + w_floor + alg_floor


def _j_product_integral(mu, nu, policy):
    """(value, bound) of the integral over [0, inf) of
    (x/2)^{-(mu+nu)} J_mu(x) J_nu(x) dx.

    Up to the split the integrand is the product series (DLMF 10.8.3), from
    1/(Gamma(mu+1) Gamma(nu+1)) in ratios -x^2 (k + (s+1)/2)(k + (s+2)/2)
    / ((k+1)(k+mu+1)(k+nu+1)(k+s+1)), s = mu + nu.  Past the split, with
    A = P + iQ the Hankel amplitudes, the integrand is 2^{mu+nu}/pi
    x^{-(mu+nu)-1} Re[e^{i(2x - (mu+nu+1) pi/2)} A_mu A_nu
    + e^{i(nu-mu) pi/2} A_mu conj(A_nu)]: a fast and a constant-phase part."""
    T = _PRODUCT_SPLIT
    s = mu + nu
    head, bound = _integrate_ratio_series_dd(
        rgamma(mu + 1.0) * rgamma(nu + 1.0), (1.0, mu + 1.0, nu + 1.0, s + 1.0), 0, 1.0, T, two_prod(-T, T), policy,
        num_offsets=(0.5 * (s + 1.0), 0.5 * (s + 2.0)),
    )
    am, an = hankel_amplitude_coeffs(mu, 20), hankel_amplitude_coeffs(nu, 20)
    scale = 2.0 ** (mu + nu) / math.pi

    def product(b, phase):
        # coefficients of lead * A_mu * B, cut where the factors are
        lead = scale * cmath.exp(1j * phase)
        return [lead * sum(am[i] * b[m - i] for i in range(m + 1)) for m in range(len(am))]

    beta0 = -(mu + nu) - 1.0
    fast = product(an, -0.5 * (mu + nu + 1.0) * math.pi)
    slow = product([c.conjugate() for c in an], 0.5 * (nu - mu) * math.pi)
    tail_fast, fast_floor = _exp_power_tail(fast, beta0, 2j, T)
    tail_slow, slow_floor = _exp_power_tail(slow, beta0, 0.0, T)
    return head + (tail_fast + tail_slow).real, bound + fast_floor + slow_floor


def _j_line_integral(m, policy):
    """(value, bound) of the integral over R of j_m: 0.0 for odd m, by
    parity; for even m twice the series (sqrt(pi)/2) (x/2)^m sum_k
    (-x^2/4)^k / (k! Gamma(k+m+3/2)) integrated term by term over [0, T]
    plus the closed-form tail of j_m = Im[e^{ix} sum_i (S_i + i C_i) x^(m-i)]."""
    if m % 2:
        return 0.0, 0.0
    T = _TAIL_SPLIT
    t0 = 0.5 * SQRT_PI * (T / 2.0) ** m * rgamma(m + 1.5)
    head, bound = _integrate_ratio_series_dd(t0, (1.0, m + 1.5), 0, m + 1.0, T, two_prod(-T / 2.0, T / 2.0), policy)
    S, C = _rayleigh_tables(m)
    # x^(-1-n) takes i = m + 1 + n (C is one shorter for m = 0); the exact
    # list is zero-padded past the tail's turn near n = T
    a = [complex(s, c) for s, c in zip(S[m + 1:], C[m + 1:] + (0.0,))]
    tail, floor = _exp_power_tail(a + [0.0] * (int(T) + 10 - len(a)), -1.0, 1j, T)
    return 2.0 * (head + tail.imag), 2.0 * (bound + floor)


def _quadratic_line_integral(a, b):
    """(value, bound) of the integral over R of j_0(sqrt(a x^2 + b x)), a > 0:
    with y = sqrt(a) (x + b/(2a)), a^(-1/2) times that of the even
    f(y) = sinc_sqrt(y^2 - c), c = b^2/(4a), which is twice GK15 over [0, T]
    plus the closed-form tail of e^{iw}/w, w = sqrt(y^2 - c).  The bound adds
    16 u T f(0) for the rounding of samples and cell sums (f(0) is the
    largest |f|); a head that does not converge raises ConvergenceError."""
    T = _SQUARE_SPLIT
    c = b * b / (4.0 * a)
    f = lambda y: sinc_sqrt(y * y - c)
    head = integrate_finite(f, 0.0, T, tol=1e-15)
    if head.status != "converged":
        raise ConvergenceError(f"integrate_finite: {head.status}, error {head.error_estimate:.3g}")
    # g = e^{iw}/w solves y (y^2 - c) g'' + (2y^2 + c) g' + y^3 g = 0, the
    # order-0 spherical Bessel equation in w; so g = e^{iy} sum_n i^n r_n
    # y^(-1-n), 2n r_n = -(n(n-1) + c) r_{n-1} - c(2n-1) r_{n-2} - cn(n-2) r_{n-3}
    r = [0.0, 0.0, 1.0]
    for n in range(1, int(T) + 10):
        r.append(-((n * (n - 1) + c) * r[-1] + c * (2 * n - 1) * r[-2] + c * n * (n - 2) * r[-3]) / (2 * n))
    tail, floor = _exp_power_tail([(1, 1j, -1, -1j)[n % 4] * v for n, v in enumerate(r[2:])], -1.0, 1j, T)
    bound = head.error_estimate + floor + 16.0 * 2.0**-53 * T * f(0.0)
    return 2.0 / math.sqrt(a) * (head.value + tail.imag), 2.0 / math.sqrt(a) * bound


def _generating_sum(x, t, policy, nmax=25):
    total = 0.0
    coeff = 1.0
    for n in range(nmax + 1):
        if n > 0:
            coeff *= t / n
        total += coeff * sph_j(n, x, policy).value
    return total


def _humbert_laguerre(indices, z_of_s, sigma, policy):
    """integral over [0, inf) of s**sigma exp(-s) J_indices(z_of_s(s)) ds by
    `integrate_laguerre`; the multi-index series is prepared once and
    serves every node of every rule.  The integrands are entire, so most
    checks stop at the first 8/16 pair.  An uncertified result raises
    ConvergenceError, so the check is skipped, not passed."""
    series = _humbert_family(indices, policy)
    res = integrate_laguerre(lambda s: series(z_of_s(s))[0], sigma)
    # an uncertified rule pair raises, so the check is skipped, not passed
    if res.status != "converged":
        raise ConvergenceError(f"integrate_laguerre: {res.status}, error {res.error_estimate:.3g}")
    return res.value


def _symmetric_double_sum(u, v, m_cut, evaluate):
    """sum over m, n in [-m_cut, m_cut] of u**m v**n F(m, n), F symmetric:
    `evaluate(pairs)` returns F at the pairs with n >= m, in their order,
    which fill both halves of a table.  The terms are added m by m, then
    n by n, each as (u**m * v**n) * F(m, n)."""
    orders = range(-m_cut, m_cut + 1)
    pairs = [(m, n) for m in orders for n in orders if n >= m]
    table = [[0.0] * len(orders) for _ in orders]
    for (m, n), f in zip(pairs, evaluate(pairs)):
        table[m + m_cut][n + m_cut] = table[n + m_cut][m + m_cut] = f
    v_powers = [v**n for n in orders]
    total = 0.0
    for m, row in zip(orders, table):
        pm = u**m
        for pn, f in zip(v_powers, row):
            total += pm * pn * f
    return total


def _i16_lhs(u, v, x, policy, m_cut=14):
    # J_{m,n} = c1**m c2**n e^{-x c1 c2}: a shift of an index is a shift of
    # a gamma argument, so one rgamma table serves every (m, n) pair, and
    # each value keeps the bits of humbert2(m, n, x).  Those bits are
    # symmetric (the denominators are exact integers, and at most two
    # first-term gammas differ from 1), so only n >= m is evaluated
    x = float(x)
    rgammas = {}

    def values(pairs):
        return [_humbert_family((float(m), float(n)), policy, rgammas)(x)[0] for m, n in pairs]

    return _symmetric_double_sum(u, v, m_cut, values)


def _i17_lhs(u, v, x, gamma_p, policy, m_cut=14):
    # Delta_{m,n,g} is the Laplace image times c1**m c2**n: one expansion,
    # reduced at every shift with n >= m (the image is symmetric in its two
    # symbols).  A shift's terms start at its kill start, at most m_cut, so
    # order m_cut + 16 leaves each shift at least 16 surviving terms, and
    # the tail check certifies every shift's cut: a shift whose last two
    # terms are not below 2^-60 of its sum raises
    image = laplace_reduce(gamma_p, (x / 2.0) ** 2, 0.0, 0.0, order=m_cut + 16)

    def values(pairs):
        return reduce_shifts(image, [(float(m), float(n)) for m, n in pairs], check_tail_rel=2.0**-60)

    return _symmetric_double_sum(u, v, m_cut, values)


def _spherical_ode_residual(n, x, policy):
    f = lambda t: sph_j(n, t, policy).value
    d2 = fd.deriv2(f, x)
    d1 = fd.deriv1(f, x)
    j = f(x)
    residual = x * x * d2 + 2.0 * x * d1 + (x * x - n * (n + 1.0)) * j
    scale = abs(x * x * d2)
    return residual / scale


def _shift_operator(family, direction, order, x, policy):
    """Lhs of the order shift relations: (order/x -/+ d/dx) applied
    numerically to the family member of the given order."""
    fn = cyl_j if family == "bessel" else struve_h
    f = lambda t: fn(order, t, policy).value
    return order / x * f(x) - direction * fd.deriv1(f, x)


def _shifted_member(family, direction, order, x, policy):
    """Rhs of the order shift relations: the shifted member, plus the
    power source term for the raising Struve relation."""
    if family == "bessel":
        return cyl_j(order + direction, x, policy).value
    if direction == 1:
        return struve_h(order + 1, x, policy).value - _struve_source(order, x)
    return struve_h(order - 1, x, policy).value


def _deriv_n_sinc(n, x):
    f = _sinc
    if n == 1:
        return fd.deriv1(f, x)
    if n == 2:
        return fd.deriv2(f, x)
    if n == 3:
        return fd.deriv3(f, x)
    raise DomainError("derivative order limited to 3 in the default grid")


# ---------------------------------------------------------------------------
# Catalog construction.


def _binding(fn, ops, strategy):
    return EvaluatorBinding(fn=fn, operations=frozenset(ops), strategy=strategy)


def _grid(names, *rows):
    """One parameter dict per row of values for the space-separated names."""
    return tuple(dict(zip(names.split(), row)) for row in rows)


def _product_grid(**axes):
    names = list(axes)
    pts = [{}]
    for name in names:
        pts = [dict(p, **{name: v}) for p in pts for v in axes[name]]
    return tuple(pts)


def _build_catalog():
    ids = []

    ids.append(Identity(
        id="I01",
        description="Real-line integral of the zeroth spherical function equals pi",
        reference="integral over R of j_0(x) dx = pi",
        params={},
        grid=_grid("", ()),
        lhs=_binding(
            lambda p, pol: _j_line_integral(0, pol)[0],
            {"integrate_ratio_series", "exp_power_tail", "rayleigh_jn"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(lambda p, pol: math.pi, set(), "constant"),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="series integrated term by term to x=30, tail in closed form",
    ))

    ids.append(Identity(
        id="I02",
        description="Exponential generating function of the spherical family collapses to a shifted j_0",
        reference="sum_n t^n/n! j_n(x) = j_0(sqrt(x^2 - 2xt))",
        params={"t": ("range", -1.0, 1.0), "x": ("range", 0.25, 8.0)},
        grid=_product_grid(t=(-0.75, -0.25, 0.25, 0.75), x=(0.5, 2.0, 5.0)),
        lhs=_binding(
            lambda p, pol: _generating_sum(p["x"], p["t"], pol),
            {"sph_j"},
            "series-sum",
        ),
        rhs=_binding(
            lambda p, pol: sinc_sqrt(p["x"] ** 2 - 2.0 * p["x"] * p["t"]),
            set(),
            "closed-form",
        ),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="points with x^2 < 2xt use the even continuation (sinh branch)",
    ))

    ids.append(Identity(
        id="I03",
        description="Iterated (x^-1 d/dx) applied to j_0 reproduces j_n",
        reference="j_n(x) = (-x)^n (x^{-1} d/dx)^n j_0(x)",
        params={"n": ("choice", (1, 2, 3)), "x": ("range", 0.5, 8.0)},
        grid=_product_grid(n=(1, 2, 3), x=(0.8, 1.6, 3.0, 6.4)),
        lhs=_binding(
            lambda p, pol: (-p["x"]) ** p["n"] * fd.inv_x_d_dx_n(_sinc, p["x"], p["n"]),
            {"fd"},
            "fd-operator",
        ),
        rhs=_binding(lambda p, pol: sph_j(p["n"], p["x"], pol).value, {"sph_j"}, "series"),
        tol_abs=1e-6,
        tol_rel=1e-6,
    ))

    ids.append(Identity(
        id="I04",
        description="Closed finite sum for the n-th derivative of j_0",
        reference="d^n/dx^n j_0 = n! sum_k (-1)^(n+k) (2x)^-k/(k!(n-2k)!) j_{n-k}(x)",
        params={"n": ("choice", (1, 2, 3)), "x": ("range", 0.5, 8.0)},
        grid=_product_grid(n=(1, 2, 3), x=(0.8, 1.6, 3.0, 6.4)),
        lhs=_binding(
            lambda p, pol: _deriv_n_sinc(p["n"], p["x"]),
            {"fd"},
            "fd-derivative",
        ),
        rhs=_binding(lambda p, pol: sph_j_deriv(p["n"], p["x"], pol), {"sph_j_deriv", "sph_j"}, "closed-sum"),
        tol_abs=1e-6,
        tol_rel=1e-6,
    ))

    ids.append(Identity(
        id="I05",
        description="Real-line moments of the spherical family: even orders hit the gamma ratio, odd orders vanish",
        reference="integral over R of j_{2n} dx = sqrt(pi) Gamma(n+1/2)/n!, odd orders integrate to zero",
        params={"m": ("choice", (0, 1, 2, 3, 4, 5, 6, 7))},
        grid=_product_grid(m=(0, 1, 2, 3, 4, 5, 6, 7)),
        lhs=_binding(
            lambda p, pol: _j_line_integral(p["m"], pol)[0],
            {"integrate_ratio_series", "exp_power_tail", "rayleigh_jn"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p, pol: SQRT_PI * gamma(p["m"] // 2 + 0.5) / math.factorial(p["m"] // 2)
            if p["m"] % 2 == 0
            else 0.0,
            {"gamma"},
            "closed-form",
        ),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="odd orders vanish by parity; even: series integrated term by term to x=30, closed-form tail",
    ))

    ids.append(Identity(
        id="I06",
        description="Moment generating function of the real-line integrals equals pi times the modified order-0 function",
        reference="integral over R of j_0(sqrt(x^2-2xt)) dx = pi I_0(t)",
        params={"t": ("range", 0.0, 3.0)},
        grid=_product_grid(t=(0.5, 1.0, 2.0)),
        lhs=_binding(
            lambda p, pol: _quadratic_line_integral(1.0, -2.0 * p["t"])[0],
            {"integrate_finite", "sinc_sqrt", "exp_power_tail"},
            "finite-head-closed-tail",
        ),
        rhs=_binding(lambda p, pol: math.pi * mod_i0(p["t"], pol), {"mod_i0"}, "series"),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="square completed, y = x - t; GK15 head to y=40, tail in closed form",
    ))

    ids.append(Identity(
        id="I07",
        description="Quadratic-argument real-line integral as a modified-function image",
        reference="integral over R of j_0(sqrt(a x^2 + b x)) dx = (pi/sqrt(a)) I_0(b/(2 sqrt(a)))",
        params={"a": ("range", 0.25, 4.0), "b": ("range", 0.0, 4.0)},
        grid=_grid("a b", (1.0, 0.5), (0.5, 1.0), (2.0, 1.5), (1.0, 2.0), (1.5, 0.8)),
        lhs=_binding(
            lambda p, pol: _quadratic_line_integral(p["a"], p["b"])[0],
            {"integrate_finite", "sinc_sqrt", "exp_power_tail"},
            "finite-head-closed-tail",
        ),
        rhs=_binding(
            lambda p, pol: math.pi / math.sqrt(p["a"]) * mod_i0(p["b"] / (2.0 * math.sqrt(p["a"])), pol),
            {"mod_i0"},
            "series",
        ),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="square completed, y = sqrt(a) (x + b/(2a)); GK15 head to y=40, tail in closed form",
    ))

    struve_axes = dict(alpha=(0.5, 1.0, 1.7), x=(0.8, 2.0, 5.0))
    ids.append(Identity(
        id="I08",
        description="Differentiation formula of the Struve family",
        reference="dH_a/dx = (H_{a-1} - H_{a+1} + (x/2)^a/(sqrt(pi)Gamma(a+3/2)))/2",
        params={"alpha": ("range", 0.0, 3.0), "x": ("range", 0.5, 10.0)},
        grid=_product_grid(**struve_axes),
        lhs=_binding(
            lambda p, pol: fd.deriv1(lambda t: struve_h(p["alpha"], t, pol).value, p["x"]),
            {"struve_h", "fd"},
            "fd-derivative",
        ),
        rhs=_binding(
            lambda p, pol: 0.5
            * (
                struve_h(p["alpha"] - 1.0, p["x"], pol).value
                - struve_h(p["alpha"] + 1.0, p["x"], pol).value
                + _struve_source(p["alpha"], p["x"])
            ),
            {"struve_h", "gamma"},
            "order-shift-combination",
        ),
        tol_abs=1e-6,
        tol_rel=1e-6,
        shared_family=True,
    ))

    ids.append(Identity(
        id="I09",
        description="Three-term recursion of the Struve family",
        reference="H_{a+1} + H_{a-1} = (2a/x) H_a + (x/2)^a/(sqrt(pi)Gamma(a+3/2))",
        params={"alpha": ("range", 0.0, 3.0), "x": ("range", 0.25, 15.0)},
        grid=_product_grid(alpha=(0.5, 1.0, 1.7), x=(0.5, 2.0, 10.0)),
        lhs=_binding(
            lambda p, pol: struve_h(p["alpha"] + 1.0, p["x"], pol).value
            + struve_h(p["alpha"] - 1.0, p["x"], pol).value,
            {"struve_h"},
            "order-shift-sum",
        ),
        rhs=_binding(
            lambda p, pol: 2.0 * p["alpha"] / p["x"] * struve_h(p["alpha"], p["x"], pol).value
            + _struve_source(p["alpha"], p["x"]),
            {"struve_h", "gamma"},
            "weighted-value-plus-source",
        ),
        tol_abs=1e-6,
        tol_rel=1e-6,
        shared_family=True,
    ))

    ids.append(Identity(
        id="I10",
        description="Non-homogeneous second-order equation satisfied by the Struve family",
        reference="(x d/dx)^2 H_a + (x^2 - a^2) H_a = 4 (x/2)^(a+1)/(sqrt(pi) Gamma(a+1/2))",
        params={"alpha": ("range", 0.0, 3.0), "x": ("range", 0.5, 10.0)},
        grid=_product_grid(**struve_axes),
        lhs=_binding(
            lambda p, pol: (
                p["x"] ** 2 * fd.deriv2(lambda t: struve_h(p["alpha"], t, pol).value, p["x"])
                + p["x"] * fd.deriv1(lambda t: struve_h(p["alpha"], t, pol).value, p["x"])
                + (p["x"] ** 2 - p["alpha"] ** 2) * struve_h(p["alpha"], p["x"], pol).value
            ),
            {"struve_h", "fd"},
            "fd-ode-lhs",
        ),
        rhs=_binding(
            lambda p, pol: 4.0 * (p["x"] / 2.0) ** (p["alpha"] + 1.0) * rgamma(p["alpha"] + 0.5) / SQRT_PI,
            {"gamma"},
            "closed-form",
        ),
        tol_abs=1e-5,
        tol_rel=1e-6,
    ))

    ids.append(Identity(
        id="I11",
        description="Exponential-weight integral representation of the Struve family via the two-index series",
        reference="H_a(x) = (x/2)^(a+1) integral_0^inf e^-s J_{1/2, a+1/2}(s (x/2)^2) ds",
        params={"alpha": ("range", -0.5, 2.0), "x": ("range", 0.25, 6.0)},
        grid=_product_grid(alpha=(0.0, 0.5, 1.0), x=(0.5, 1.0, 2.0, 5.0)),
        lhs=_binding(
            lambda p, pol: (p["x"] / 2.0) ** (p["alpha"] + 1.0)
            * _humbert_laguerre((0.5, p["alpha"] + 0.5), lambda s, w=(p["x"] / 2.0) ** 2: s * w, 0.0, pol),
            {"integrate_laguerre", "humbert2"},
            "laguerre-quadrature",
        ),
        rhs=_binding(lambda p, pol: struve_h(p["alpha"], p["x"], pol).value, {"struve_h"}, "series"),
        tol_abs=1e-8,
        tol_rel=1e-8,
    ))

    ids.append(Identity(
        id="I12",
        description="Real-line integral of the squared-argument two-index series",
        reference="integral over R of J_{mu,nu}(x^2) dx = sqrt(pi)/(Gamma(mu+1/2)Gamma(nu+1/2))",
        params={"mu": ("choice", (0.0, 0.5, 1.0, 1.5, 2.0)), "nu": ("choice", (0.0, 0.5, 1.0, 1.5, 2.0))},
        grid=_grid("mu nu", (0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (0.5, 0.5), (2.0, 1.0)),
        lhs=_binding(
            lambda p, pol: real_line_squared_integral(p["mu"], p["nu"]),
            {"regularized"},
            "regularized-phase-integral",
        ),
        rhs=_binding(
            lambda p, pol: SQRT_PI * rgamma(p["mu"] + 0.5) * rgamma(p["nu"] + 0.5),
            {"gamma"},
            "closed-form",
        ),
        tol_abs=1e-8,
        tol_rel=1e-8,
        window_note=(
            "integrand envelope grows ~exp(1.5 x^(2/3)); value is the Abel/Mellin-"
            "regularized one, computed by phase substitution + asymptotic tail"
        ),
    ))

    ids.append(Identity(
        id="I13",
        description="Power moments of the two-index series reduce to a gamma ratio",
        reference="integral_0^inf x^(a-1) J_{mu,nu}(x) dx = Gamma(a)/(Gamma(mu-a+1)Gamma(nu-a+1))",
        params={
            "alpha": ("range", 0.05, 0.95),
            "mu": ("choice", (0.0, 0.5, 1.0, 1.5, 2.0)),
            "nu": ("choice", (0.0, 0.5, 1.0, 1.5, 2.0)),
        },
        grid=_grid(
            "alpha mu nu", (0.5, 0.0, 0.0), (0.25, 1.0, 0.5), (0.75, 2.0, 1.0), (0.5, 1.0, 1.0), (0.25, 0.5, 0.5)
        ),
        lhs=_binding(
            lambda p, pol: power_moment_integral(p["alpha"], p["mu"], p["nu"]),
            {"regularized"},
            "regularized-phase-integral",
        ),
        rhs=_binding(
            lambda p, pol: gamma(p["alpha"]) * rgamma(p["mu"] - p["alpha"] + 1.0) * rgamma(p["nu"] - p["alpha"] + 1.0),
            {"gamma"},
            "closed-form",
        ),
        tol_abs=1e-6,
        tol_rel=1e-6,
        window_note="window alpha in (0,1), mu,nu in [0,2]; regularized as in I12",
    ))

    ids.append(Identity(
        id="I14",
        description="Half-line integral of the Struve family equals a negative cotangent",
        reference="integral_0^inf H_a(x) dx = -cot(a pi/2), -2 < a < 0",
        params={"alpha": ("range", -1.9, -0.1)},
        grid=_product_grid(alpha=(-1.5, -1.0, -0.5)),
        lhs=_binding(
            lambda p, pol: _struve_line_integral(p["alpha"], pol)[0],
            {"struve_h", "integrate_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p, pol: -math.cos(0.5 * p["alpha"] * math.pi) / math.sin(0.5 * p["alpha"] * math.pi),
            set(),
            "closed-form",
        ),
        tol_abs=1e-6,
        tol_rel=1e-6,
        window_note="conditionally convergent; series integrated term by term to x=30, tail in closed form",
    ))

    ids.append(Identity(
        id="I15",
        description="Weighted exponential integral of the two-index series equals its hypergeometric closed form",
        reference="Delta_{a,b,g}(x) = Gamma(g)/(Gamma(1+a)Gamma(1+b)) 1F2(g; 1+a, 1+b; -x^2/4)",
        params={
            "alpha": ("choice", (0.0, 0.5, 1.0)),
            "beta": ("choice", (0.0, 0.5, 1.0)),
            "gamma_p": ("choice", (0.5, 1.0)),
            "x": ("range", 0.25, 6.0),
        },
        grid=_product_grid(alpha=(0.0, 0.5, 1.0), beta=(0.0, 0.5, 1.0), gamma_p=(0.5, 1.0), x=(0.5, 1.0, 2.0, 5.0)),
        lhs=_binding(
            lambda p, pol: _humbert_laguerre(
                (p["alpha"], p["beta"]), lambda s, w=(p["x"] / 2.0) ** 2: s * w, p["gamma_p"] - 1.0, pol
            ),
            {"integrate_laguerre", "humbert2"},
            "laguerre-quadrature",
        ),
        rhs=_binding(
            lambda p, pol: delta_fn(p["alpha"], p["beta"], p["gamma_p"], p["x"], pol),
            {"delta_fn", "hyp1f2", "gamma"},
            "hypergeometric-series",
        ),
        tol_abs=1e-12,
        tol_rel=1e-9,
    ))

    ids.append(Identity(
        id="I16",
        description="Bilateral double generating function of the two-index family",
        reference="sum_{m,n in Z} u^m v^n J_{m,n}(x) = exp(u + v - x/(uv))",
        params={"u": ("range", 0.5, 1.5), "v": ("range", 0.5, 1.5), "x": ("range", 0.1, 1.0)},
        grid=_grid("u v x", (1.0, 1.0, 0.5), (0.8, 1.2, 0.6), (1.1, 0.9, 0.3)),
        lhs=_binding(
            lambda p, pol: _i16_lhs(p["u"], p["v"], p["x"], pol),
            {"humbert2"},
            "truncated-double-sum",
        ),
        rhs=_binding(
            lambda p, pol: math.exp(p["u"] + p["v"] - p["x"] / (p["u"] * p["v"])),
            set(),
            "closed-form",
        ),
        tol_abs=1e-12,
        tol_rel=1e-10,
        window_note="double sum truncated at |m|,|n| <= 14",
    ))

    ids.append(Identity(
        id="I17",
        description="Double generating function of the weighted-integral family via the umbral pipeline",
        reference="sum_{m,n} u^m v^n Delta_{m,n,g}(x) = e^(u+v) Gamma(g)/(1 + (x/2)^2/(uv))^g",
        params={
            "u": ("range", 0.5, 1.5),
            "v": ("range", 0.5, 1.5),
            "x": ("range", 0.1, 1.0),
            "gamma_p": ("choice", (1.0, 2.0)),
        },
        grid=_grid(
            "u v x gamma_p", (1.0, 1.0, 0.5, 1.0), (1.0, 1.0, 0.5, 2.0), (0.8, 1.2, 0.6, 1.0), (0.8, 1.2, 0.6, 2.0)
        ),
        lhs=_binding(
            lambda p, pol: _i17_lhs(p["u"], p["v"], p["x"], p["gamma_p"], pol),
            {"laplace_reduce", "reduce_shifts"},
            "umbral-pipeline",
        ),
        rhs=_binding(
            lambda p, pol: math.exp(p["u"] + p["v"])
            * gamma(p["gamma_p"])
            / (1.0 + (p["x"] / 2.0) ** 2 / (p["u"] * p["v"])) ** p["gamma_p"],
            {"gamma"},
            "closed-form",
        ),
        tol_abs=1e-12,
        tol_rel=1e-10,
        window_note="requires (x/2)^2 < |uv|; double sum truncated at |m|,|n| <= 14",
    ))

    ids.append(Identity(
        id="I18",
        description="Product of two first-kind cylindrical functions as an exponential-weight image of the three-index series",
        reference="J_mu(x) J_nu(x) = (x/2)^(mu+nu) integral_0^inf e^-s s^(mu+nu) J_{mu,nu,mu+nu}(s^2 x^2/4) ds",
        params={
            "mu": ("choice", (0.0, 0.5, 1.0)),
            "nu": ("choice", (0.0, 0.5, 2.0)),
            "x": ("range", 0.25, 4.0),
        },
        grid=_grid("mu nu x", *((m, n, x) for m, n in ((0.0, 0.0), (0.5, 0.5), (1.0, 2.0)) for x in (0.5, 1.0, 3.0))),
        lhs=_binding(
            lambda p, pol: cyl_j(p["mu"], p["x"], pol).value * cyl_j(p["nu"], p["x"], pol).value,
            {"cyl_j"},
            "series-product",
        ),
        rhs=_binding(
            lambda p, pol: (p["x"] / 2.0) ** (p["mu"] + p["nu"])
            * _humbert_laguerre(
                (p["mu"], p["nu"], p["mu"] + p["nu"]),
                lambda s, xx=p["x"] * p["x"]: (s * s) * xx / 4.0,
                p["mu"] + p["nu"],
                pol,
            ),
            {"integrate_laguerre", "humbert3"},
            "laguerre-quadrature",
        ),
        tol_abs=1e-12,
        tol_rel=1e-8,
    ))

    ids.append(Identity(
        id="I19",
        description="Weighted half-line integral of a product of two first-kind cylindrical functions",
        reference="integral_0^inf (x/2)^(-mu-nu) J_mu J_nu dx = sqrt(pi) Gamma(mu+nu)/(Gamma(mu+1/2)Gamma(nu+1/2)Gamma(mu+nu+1/2))",
        params={"mu": ("range", 0.1, 2.0), "nu": ("range", 0.1, 2.0)},
        grid=_grid("mu nu", (0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (0.25, 0.75), (1.0, 2.0)),
        lhs=_binding(
            lambda p, pol: _j_product_integral(p["mu"], p["nu"], pol)[0],
            {"integrate_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p, pol: SQRT_PI
            * gamma(p["mu"] + p["nu"])
            * rgamma(p["mu"] + 0.5)
            * rgamma(p["nu"] + 0.5)
            * rgamma(p["mu"] + p["nu"] + 0.5),
            {"gamma"},
            "closed-form",
        ),
        tol_abs=1e-6,
        tol_rel=1e-6,
        window_note="window mu+nu in (0.5, 3); series integrated term by term to x=20, tail in closed form",
    ))

    ids.append(Identity(
        id="I20",
        description="Trigonometric-matrix decomposition consistency: integer orders collapse to the cylindrical function, the zero-order second component to the negative Struve value",
        reference="A_n(x) = J_n(x) for integer n; E_0(x) = -H_0(x)",
        params={
            "mode": ("choice", ("anger", "weber")),
            "n": ("choice", (0, 1, 2, 3)),
            "x": ("range", 0.05, 24.0),
        },
        grid=_product_grid(mode=("anger",), n=(0, 1, 2, 3), x=(0.5, 1.0, 5.0, 20.0))
        + _product_grid(mode=("weber",), n=(0,), x=(0.1, 1.0, 5.0, 20.0)),
        lhs=_binding(
            lambda p, pol: anger(float(p["n"]), p["x"], pol) if p["mode"] == "anger" else weber(0.0, p["x"], pol),
            {"s1", "s2"},
            "auxiliary-series-matrix",
        ),
        rhs=_binding(
            lambda p, pol: cyl_j(float(p["n"]), p["x"], pol).value
            if p["mode"] == "anger"
            else -struve_h(0.0, p["x"], pol).value,
            {"cyl_j", "struve_h"},
            "series",
        ),
        tol_abs=1e-10,
        tol_rel=1e-10,
    ))

    ids.append(Identity(
        id="I21",
        description="Half-line integral of the first auxiliary series equals a cosine",
        reference="integral_0^inf S_1(nu, x) dx = cos(nu pi/2)",
        params={"nu": ("range", 0.0, 1.5)},
        grid=_product_grid(nu=(0.0, 0.5, 1.0, 1.5)),
        lhs=_binding(
            lambda p, pol: _s_line_integral(p["nu"], 1, 0, pol)[0],
            {"s1", "integrate_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(lambda p, pol: math.cos(0.5 * p["nu"] * math.pi), set(), "closed-form"),
        tol_abs=1e-6,
        tol_rel=1e-6,
        window_note="window |nu| <= 1.5; series integrated term by term to x=30, tail in closed form",
    ))

    ids.append(Identity(
        id="I22",
        description="Weighted half-line integral of the second auxiliary series equals a sinc of the order",
        reference="integral_0^inf S_2(nu, x)/x dx = sin(nu pi/2)/nu",
        params={"nu": ("range", 0.1, 1.5)},
        grid=_product_grid(nu=(0.5, 1.0, 1.5)),
        lhs=_binding(
            lambda p, pol: _s_line_integral(p["nu"], 2, 1, pol)[0],
            {"s2", "integrate_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p, pol: math.sin(0.5 * p["nu"] * math.pi) / p["nu"],
            set(),
            "closed-form",
        ),
        tol_abs=1e-6,
        tol_rel=1e-6,
        window_note="window 0 < |nu| <= 1.5; series integrated term by term to x=30, tail in closed form",
    ))

    ids.append(Identity(
        id="I23",
        description="Second-order equation satisfied by the spherical family (scaled residual)",
        reference="x^2 j_n'' + 2x j_n' + (x^2 - n(n+1)) j_n = 0",
        params={"n": ("choice", (0, 1, 2, 3, 5)), "x": ("range", 0.5, 10.0)},
        grid=_product_grid(n=(0, 1, 2, 3, 5), x=(0.9, 1.7, 3.3, 7.1)),
        lhs=_binding(
            lambda p, pol: _spherical_ode_residual(p["n"], p["x"], pol),
            {"sph_j", "fd"},
            "fd-ode-residual",
        ),
        rhs=_binding(lambda p, pol: 0.0, set(), "constant"),
        tol_abs=1e-6,
        tol_rel=1e-6,
        window_note="residual scaled by x^2 |j_n''|",
    ))

    ids.append(Identity(
        id="I24",
        description="Raising/lowering shift relations for the cylindrical and Struve families",
        reference="(nu/x -/+ d/dx) F_nu = F_{nu +/- 1} (with the power source term on the raising Struve side)",
        params={
            "family": ("choice", ("bessel", "struve")),
            "direction": ("choice", (1, -1)),
            "order": ("choice", (0.5, 1.7)),
            "x": ("range", 0.5, 10.0),
        },
        grid=_product_grid(family=("bessel", "struve"), direction=(1, -1), order=(0.5, 1.7), x=(0.8, 2.0, 5.0)),
        lhs=_binding(
            lambda p, pol: _shift_operator(p["family"], p["direction"], p["order"], p["x"], pol),
            {"cyl_j", "struve_h", "fd"},
            "fd-shift-operator",
        ),
        rhs=_binding(
            lambda p, pol: _shifted_member(p["family"], p["direction"], p["order"], p["x"], pol),
            {"cyl_j", "struve_h", "gamma"},
            "order-shift",
        ),
        tol_abs=1e-6,
        tol_rel=1e-6,
        shared_family=True,
    ))

    return {iden.id: iden for iden in ids}


_CATALOG = None


def _catalog():
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def list_identities():
    """The fixed catalog I01..I24, in id order."""
    cat = _catalog()
    return [cat[k] for k in sorted(cat)]


def get_identity(identity_id):
    cat = _catalog()
    try:
        return cat[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def verify(identity_id, params=None, policy=None):
    """Evaluate both sides of one identity at one parameter point."""
    iden = get_identity(identity_id)
    policy = policy or DEFAULT_POLICY
    if params is None:
        params = dict(iden.grid[0]) if iden.grid else {}
    iden.check_params(params)
    start = time.perf_counter()
    try:
        lhs = iden.lhs.fn(params, policy)
        rhs = iden.rhs.fn(params, policy)
    except (DomainError, ConvergenceError, OverflowError) as exc:
        return VerificationReport(
            identity_id=iden.id,
            params=dict(params),
            lhs=math.nan,
            rhs=math.nan,
            abs_err=math.nan,
            rel_err=math.nan,
            status="skipped",
            seconds=time.perf_counter() - start,
            reason=f"{type(exc).__name__}: {exc}",
        )
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0.0 else math.inf
    status = "pass" if (abs_err <= iden.tol_abs or rel_err <= iden.tol_rel) else "fail"
    return VerificationReport(
        identity_id=iden.id,
        params=dict(params),
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        status=status,
        seconds=time.perf_counter() - start,
    )


def _jittered_grid(iden, rng):
    pts = []
    for pt in iden.grid:
        q = dict(pt)
        for name, spec in iden.params.items():
            if spec[0] != "range":
                continue
            lo, hi = spec[1], spec[2]
            width = hi - lo
            v = q[name] + rng.uniform(-0.02, 0.02) * width
            margin = 0.01 * width
            q[name] = min(max(v, lo + margin), hi - margin)
        pts.append(q)
    return pts


def verify_all(policy=None, parallelism=1, ids=None, seed=0):
    """Run every identity over its default grid.

    Reports come back ordered by (identity id, grid index) regardless of
    the execution schedule.  With parallelism > 1 the checks split into
    `workers` interleaved shares, at most one per CPU available to this
    process (`forkmap.fork_map`): this process runs one share, and a child
    made by `os.fork()` runs each other share and sends its reports back
    through a pipe.  Every process fills its own lazy caches, so the
    reports are bit for bit those of a serial run.  An exception raised
    in a child is raised here; a child that ends without sending its
    result raises `ChildProcessError`; no child outlives the call.
    Where `os.fork` does not exist the run is serial.  A nonzero seed
    jitters every range-valued grid coordinate by up to +/-2% of its
    window width (clipped to the interior), which is how the catalog
    windows get exercised off their default points.
    """
    policy = policy or DEFAULT_POLICY
    identities = list_identities() if ids is None else [get_identity(i) for i in ids]
    jobs = []
    if seed:
        import random

        rng = random.Random(seed)
        for iden in identities:
            for pt in _jittered_grid(iden, rng):
                jobs.append((iden.id, pt))
    else:
        for iden in identities:
            for pt in iden.grid:
                jobs.append((iden.id, dict(pt)))
    workers = min(parallelism, len(jobs), _available_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [verify(i, p, policy) for i, p in jobs]
    # processes, not threads: the checks are CPU-bound Python under the
    # GIL.  Imported here, so that `import sphstruve` does not compile it.
    from .forkmap import fork_map

    return fork_map(lambda job: verify(*job, policy), jobs, workers)


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def catalog_json():
    """Catalog export: id, description, reference, params, grid, tolerances."""
    out = []
    for iden in list_identities():
        out.append(
            {
                "id": iden.id,
                "description": iden.description,
                "reference": iden.reference,
                "params": {
                    k: {"kind": v[0], "window": list(v[1:]) if v[0] == "range" else list(v[1])}
                    for k, v in iden.params.items()
                },
                "grid": [dict(p) for p in iden.grid],
                "tol_abs": iden.tol_abs,
                "tol_rel": iden.tol_rel,
                "window_note": iden.window_note,
                "shared_family": iden.shared_family,
                "lhs": {"operations": sorted(iden.lhs.operations), "strategy": iden.lhs.strategy},
                "rhs": {"operations": sorted(iden.rhs.operations), "strategy": iden.rhs.strategy},
            }
        )
    return out
