"""Machine-checkable catalog of the closed-form identities.

Each catalog entry binds a left-side evaluator (series, quadrature or
umbral pipeline) and a right-side closed form, a parameter window with a
default sample grid, and tolerances matched to the evaluator class:

* 1e-9 .. 1e-12 for pure series/umbral identities and the derivative
  relations, whose derivatives are the series differentiated term by
  term, and 1e-12 for the real-line integrals, whose heads and
  closed-form tails carry bounds,
* 1e-8 for absolutely convergent quadrature,
* 1e-6 for conditionally convergent or regularized integrals.

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
from .functions import (
    DEFAULT_POLICY,
    _cyl_j_terms,
    _humbert_terms,
    _rayleigh_tables,
    _s_terms,
    _struve_terms,
    _termwise_ratio_series,
    anger,
    cyl_j,
    delta_fn,
    hankel_amplitude_coeffs,
    sinc_sqrt,
    sph_j,
    sph_j_deriv,
    struve_h,
    watson_parity_coeffs,
    weber,
)
from .quadrature import _LAGUERRE_TOL, _UNIT_ROUNDOFF, _WGL, _XGL, _exp_power_tail, gauss_laguerre_nodes
from .regularized import power_moment_integral, real_line_squared_integral
from .umbral import UmbralExpSeries, expand, gaussian_reduce, laplace_reduce, reduce_expr, reduce_weighted

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
# I06/I07's Gauss-Legendre head ends at 40, where the tail's floor is 1e-17, not 1e-13
_SQUARE_SPLIT = 40.0
# the most Gauss-Laguerre nodes a multi-index image may take, and the
# rule's Golub-Welsch rounding charged in units of n^2 u for its weights
# and of n u for its nodes (measured at most 1.52 and 1.46)
_LAGUERRE_MAX_NODES = 128
_WEIGHT_CHARGE, _NODE_CHARGE = 2.0, 2.0


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


# the policy of a termwise head: its sum stops at a term below 2^-60 of it
_HEAD_POLICY = DEFAULT_POLICY._replace(rel_tol=2.0**-60)


def _sph_j_terms(n, x):
    """(t0, den_offsets, k0) of j_n(x)'s series (sqrt(pi)/2) (x/2)^n sum_k
    (-x^2/4)^k / (k! Gamma(k+n+3/2)), term k proportional to x^(2k+n): the
    image of j_0's series under (-x)^n (x^-1 d/dx)^n, each x^-1 d/dx moving
    the gamma offset up by one with a factor -1/2."""
    return 0.5 * SQRT_PI * (x / 2.0) ** n * rgamma(n + 1.5), (1.0, n + 1.5), 0


def _x_derivative(terms, times, x):
    """The operator taking x^(2k+p) to prod_{c in times} (2k + c) x^(2k+p), at x
    on the series in z = -(x/2)^2 with `terms` (t0, den_offsets, k0): x d/dx
    is `times` (p,), x^n d^n/dx^n (p, p-1, ..., p-n+1), (x d/dx)^2 (p, p)."""
    return _termwise_ratio_series(*terms, x / 2.0, DEFAULT_POLICY, times=times)[0]


def _struve_source(alpha, x):
    """(x/2)**alpha / (sqrt(pi) Gamma(alpha + 3/2))."""
    return (x / 2.0) ** alpha * rgamma(alpha + 1.5) / SQRT_PI


def _hankel_tail(nu, T, phase, extra_power):
    """(value, floor) of the integral over [T, inf) of sqrt(2/pi)
    e^{i(x - phase)} (P + iQ)(nu, x) x^(-1/2-extra_power), with P + iQ
    the Hankel amplitude of order nu."""
    lead = math.sqrt(2.0 / math.pi) * cmath.exp(-1j * phase)
    return _exp_power_tail([lead * c for c in hankel_amplitude_coeffs(nu)], -0.5 - extra_power, 1j, T)


def _struve_line_integral(alpha):
    """(value, bound) of the integral over [0, inf) of H_alpha, for alpha
    in (-2, 0): the ascending series integrated term by term over [0, T]
    plus the closed-form tails of Y_alpha and of the algebraic part
    H_alpha - Y_alpha ~ (1/pi) sum_k Gamma(k+1/2) (x/2)^(alpha-2k-1)
    / Gamma(alpha+1/2-k).  The bound adds the head's to the tails' floors."""
    T = _TAIL_SPLIT
    head, bound = _termwise_ratio_series(*_struve_terms(alpha, T), T / 2.0, _HEAD_POLICY, over=(alpha + 2.0,),
                                         scale=T)
    y_tail, y_floor = _hankel_tail(alpha, T, (0.5 * alpha + 0.25) * math.pi, 0.0)
    # coefficients of x^(alpha-1-n): the k-th term at n = 2k, zeros between
    alg = [0.0] * 120
    c = SQRT_PI * rgamma(alpha + 0.5) * 2.0 ** (1.0 - alpha) / math.pi
    for k in range(60):
        alg[2 * k] = c
        c *= 4.0 * (k + 0.5) * (alpha - 0.5 - k)
    alg_tail, alg_floor = _exp_power_tail(alg, alpha - 1.0, 0.0, T)
    return head + y_tail.imag + alg_tail, bound + y_floor + alg_floor


def _s_line_integral(nu, kind, extra_power):
    """(value, bound) of the integral over [0, inf) of S_kind(nu, x)/x**extra_power:
    the series integrated term by term up to T, its large-argument parts past T."""
    T = _TAIL_SPLIT
    t0, dens, k0 = _s_terms(kind, nu, T)
    # term k is proportional to x^(2k+kind-1-extra_power); T**0 is exactly 1.0
    head, bound = _termwise_ratio_series(t0 / T**extra_power, dens, k0, T / 2.0, _HEAD_POLICY,
                                         over=(kind - extra_power,), scale=T)
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


def _j_product_integral(mu, nu):
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
    head, bound = _termwise_ratio_series(
        rgamma(mu + 1.0) * rgamma(nu + 1.0), (1.0, mu + 1.0, nu + 1.0, s + 1.0), 0, T, _HEAD_POLICY,
        over=(1.0,), scale=T, num_offsets=(0.5 * (s + 1.0), 0.5 * (s + 2.0)),
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


def _j_line_integral(m):
    """(value, bound) of the integral over R of j_m: 0.0 for odd m, by
    parity; for even m twice the series (sqrt(pi)/2) (x/2)^m sum_k
    (-x^2/4)^k / (k! Gamma(k+m+3/2)) integrated term by term over [0, T]
    plus the closed-form tail of j_m = Im[e^{ix} sum_i (S_i + i C_i) x^(m-i)]."""
    if m % 2:
        return 0.0, 0.0
    T = _TAIL_SPLIT
    head, bound = _termwise_ratio_series(*_sph_j_terms(m, T), T / 2.0, _HEAD_POLICY, over=(m + 1.0,), scale=T)
    S, C = _rayleigh_tables(m)
    # x^(-1-n) takes entry n; the exact list is zero-padded past the
    # tail's turn near n = T
    a = [complex(s, c) for s, c in zip(S, C)]
    tail, floor = _exp_power_tail(a + [0.0] * (int(T) + 10 - len(a)), -1.0, 1j, T)
    return 2.0 * (head + tail.imag), 2.0 * (bound + floor)


def _square_head(T, c):
    """(value, bound) of the integral over [0, T] of the even
    f(y) = sinc_sqrt(y^2 - c), c >= 0: half the N = 48 point
    Gauss-Legendre rule on [-T, T], taken at its 24 positive nodes.

    The truncation is bounded a priori (Trefethen, SIAM Rev. 50 (2008),
    Thm 4.5, with n + 1 = N nodes) by (T/2)(64/15) M rho^(2-2N)/(rho^2 - 1),
    M the largest |f| on the Bernstein ellipse E_rho of [-T, T], rho = 3.
    There |Im y| <= eta = T (rho - 1/rho)/2 and, with w = sqrt(y^2 - c),
    |Im w| <= sqrt(eta^2 + c); |sin w / w| is at most sinh|w|/|w| <= sinh 1
    for |w| < 1 and cosh(Im w) otherwise, so M = max(sinh 1,
    cosh sqrt(eta^2 + c)), and the truncation is about 1e-21 at T = 40,
    c <= 16.  A truncation above u |value| raises ConvergenceError.

    The rounding adds (16 + sqrt(c) + c) u T F, F = f(0), the largest |f|
    on R.  The stored node, T x and y^2 - c move the argument s = y^2 - c
    by at most 6u|s| + 5uc; sinc_sqrt' is at most 1/6 and 1/s for s > 0
    and at most F/6 for s < 0, so the sample moves by at most
    (6 + 5c/6) u F.  Its sqrt, sin or sinh and division add
    (5 + sqrt(c)) u F, and the stored weights, the products, the fsum and
    the product by T add 4 u T F: 15 + sqrt(c) + 5c/6 in all, rounded up
    for the second-order terms."""
    terms = []
    for x, w in zip(_XGL, _WGL):
        y = T * x
        terms.append(w * sinc_sqrt(y * y - c))
    value = T * math.fsum(terms)
    n_nodes, rho = 2 * len(_XGL), 3.0
    eta = 0.5 * T * (rho - 1.0 / rho)
    M = max(math.sinh(1.0), math.cosh(math.sqrt(eta * eta + c)))
    cut = T * 32.0 / 15.0 * M * rho ** (2 - 2 * n_nodes) / (rho * rho - 1.0)
    if not cut <= _UNIT_ROUNDOFF * abs(value):
        raise ConvergenceError(f"gauss_legendre: {n_nodes}-point head bound {cut:.3g} exceeds u |head|")
    return value, cut + (16.0 + math.sqrt(c) + c) * _UNIT_ROUNDOFF * T * sinc_sqrt(-c)


def _quadratic_line_integral(a, b):
    """(value, bound) of the integral over R of j_0(sqrt(a x^2 + b x)), a > 0:
    with y = sqrt(a) (x + b/(2a)), a^(-1/2) times that of the even
    f(y) = sinc_sqrt(y^2 - c), c = b^2/(4a), which is twice the
    Gauss-Legendre head over [0, T] plus the closed-form tail of e^{iw}/w,
    w = sqrt(y^2 - c)."""
    T = _SQUARE_SPLIT
    c = b * b / (4.0 * a)
    head, head_bound = _square_head(T, c)
    # g = e^{iw}/w solves y (y^2 - c) g'' + (2y^2 + c) g' + y^3 g = 0, the
    # order-0 spherical Bessel equation in w; so g = e^{iy} sum_n i^n r_n
    # y^(-1-n), 2n r_n = -(n(n-1) + c) r_{n-1} - c(2n-1) r_{n-2} - cn(n-2) r_{n-3}
    r1, r2, r3 = 1.0, 0.0, 0.0
    coeffs = [1.0]
    for n in range(1, int(T) + 10):
        r1, r2, r3 = -((n * (n - 1) + c) * r1 + c * (2 * n - 1) * r2 + c * n * (n - 2) * r3) / (2 * n), r1, r2
        coeffs.append((1, 1j, -1, -1j)[n % 4] * r1)
    tail, floor = _exp_power_tail(coeffs, -1.0, 1j, T)
    return 2.0 / math.sqrt(a) * (head + tail.imag), 2.0 / math.sqrt(a) * (head_bound + floor)


def _gaussian_line_integral(a, b):
    """(value, bound) of the integral over R of j_0(sqrt(a x^2 + b x)),
    a > 0, by the paper's Gaussian rule: j_0(sqrt(w)) = (sqrt(pi)/2)
    c^(1/2) e^(-c w/4) with c^s -> 1/Gamma(1+s), so the integrand is a
    Gaussian image with q = a/4 and p = -b/4, and the integral is
    (sqrt(pi)/2) sqrt(4 pi/a) times its reduction, (pi/sqrt(a))
    I_0(b/(2 sqrt(a))) = (pi/sqrt(a)) sum_k s^k/(k!)^2, s = b^2/(16a).

    The order K is the least at which the reduced terms s^(K-1)/((K-1)!)^2
    and s^K/(K!)^2 are at most 2^-61 of their partial sum, so that the
    reduction's tail check at 2^-60 passes, and the ratio s/(K+1)^2 of
    the next term is at most 1/2.  The ratios fall with k, so the tail
    past K is at most twice the first neglected term, hence at most the
    last kept one.  The rounding adds, per term k, 4k u for its
    coefficient (s rounds twice, and each step of `expand` twice more),
    20.2 u for rgamma's 10.1 ulps at an integer and u for the product;
    then u for the fsum and 4u for the factor pi/sqrt(a) and its
    product."""
    series = gaussian_reduce(0.5, a / 4.0, -b / 4.0, order=0)
    s = series.scale
    term, partial, rounding = 1.0, 1.0, 21.2
    for k in range(1, 501):  # `expand` takes orders up to 500
        last = term
        term *= s / (k * k)
        partial += term
        rounding += (4.0 * k + 21.2) * term
        if max(last, term) <= 2.0**-61 * partial and s <= 0.5 * (k + 1) ** 2:
            break
    else:
        raise ConvergenceError(f"_gaussian_line_integral: no order up to 500 meets its tail bound at s={s!r}")
    value = reduce_expr(expand(series._replace(order=k)), check_tail_rel=2.0**-60)
    scale = math.pi / math.sqrt(a)
    return scale * value, scale * (term + _UNIT_ROUNDOFF * (rounding + 5.0 * partial))


def _generating_sum(x, t):
    """(value, bound) of I02's lhs, sum_n t^n/n! j_n(x), to the least
    order N whose a-priori tail is at most u sum_(n<=N) |t^n/n! j_n(x)|.

    |j_n(x)| <= x^n/(2n+1)!! (DLMF 10.14.4 at nu = n + 1/2), so the tail
    past N is at most sum_(n>N) b_n, b_n = (|t| x)^n/(n! (2n+1)!!), whose
    ratios |t| x/((n+1)(2n+3)) fall with n: once the next one, r, is
    below 1, that sum is at most b_(N+1)/(1 - r).  The stop rule reads
    only the terms summed, never the rhs.  The bound adds that tail,
    each term's |t^n/n!| times `sph_j`'s tail estimate, and the rounding
    of the terms (2n u for t^n/n!, u for the product) and of their plain
    sum (N u on the sum of their sizes).  `sph_j`'s plain series reports
    no rounding term of its own, so neither does this bound."""
    total, coeff, size, estimates, rounding = 0.0, 1.0, 0.0, 0.0, 0.0
    tx, b = abs(t) * x, 1.0
    for n in range(101):  # sph_j takes orders up to 100
        j = sph_j(n, x)
        term = coeff * j.value
        total += term
        size += abs(term)
        estimates += abs(coeff) * j.tail_estimate
        rounding += (2 * n + 1) * abs(term)
        b *= tx / ((n + 1) * (2 * n + 3))  # b_(n+1)
        r = tx / ((n + 2) * (2 * n + 5))
        tail = b / (1.0 - r) if r < 1.0 else math.inf
        if tail <= _UNIT_ROUNDOFF * size:
            return total, tail + estimates + _UNIT_ROUNDOFF * (rounding + n * size)
        coeff *= t / (n + 1)
    raise ConvergenceError(f"_generating_sum: no order up to 100 meets u |terms| at x={x!r}, t={t!r}")


def _laguerre_moments(gamma_args, w, power, sigma, max_terms):
    """(terms, rest, steps, coeffs) of the positive series r_k = |a_k|
    Gamma(sigma + power k + 1) over its first term, where a_k is the
    coefficient of s^(power k) in sum_k (-w s^power)^k / prod_g Gamma(k + g),
    every g >= 1 and power 1 or 2: its terms r_0, ..., r_(K-1), a bound
    `rest` on the sum past them, the sum of k r_k with its own rest, and
    the signed coefficients c_0 = 1, c_(k+1) = -c_k / prod_g (k + g) of
    the same series in y = w s^power over its first term, k < K.  The
    ratio r_(k+1)/r_k is w prod_(j=1..power) (sigma + power k + j) over
    that denominator.  Past K the j-th numerator factor over k + g_(j-1)
    is monotone toward `power`, so at most max(power, its value at K), and
    every other 1/(k + g) falls: their product bounds each later ratio,
    and once it is at most 1/2 the rest is at most 2 r_K.  The terms stop
    below 2^-60 of the sum."""
    terms, coeffs, steps, total, r, coeff = [], [], 0.0, 0.0, 1.0, 1.0
    c = sigma + 1.0
    k = 0.0
    for i in range(max_terms):
        terms.append(r)
        coeffs.append(coeff)
        total += r
        steps += i * r
        den = 1.0
        for g in gamma_args:
            den *= k + g
        coeff = -coeff / den
        num = k + c if power == 1 else (2.0 * k + c) * (2.0 * k + c + 1.0)
        r *= w * num / den
        k += 1.0
        if r <= 2.0**-60 * total:
            rho = w
            for j, g in enumerate(gamma_args):
                rho *= max(power, (sigma + power * k + j + 1.0) / (k + g)) if j < power else 1.0 / (k + g)
            if rho <= 0.5:
                return terms, 2.0 * r, steps + 2.0 * r * (i + 2.0), coeffs
    raise ConvergenceError(f"_laguerre_moments: the moment series did not fall within {max_terms} terms")


def _humbert_laguerre(indices, w, power, sigma):
    """(value, bound) of the integral over [0, inf) of s**sigma exp(-s)
    J_indices(w s**power) ds, power 1 or 2, by one generalized
    Gauss-Laguerre rule chosen a priori.  Every gamma argument index + 1
    (and the 1 of k!) must be at least 1 (DomainError otherwise), as over
    the catalog windows.

    The integrand is f(s) = sum_k a_k s^(power k), and an n-point rule is
    exact below degree 2n.  For m >= 2n the (2n)-th derivative of s^m is
    nonnegative, so 0 <= mu_m - G_n(s^m) <= mu_m, mu_m = Gamma(sigma+m+1),
    and the rule errs by at most the suffix over power k >= 2n of the
    positive series r_k = |a_k| mu_(power k) (`_laguerre_moments`) with
    sum A (Davis & Rabinowitz 1984, 2.7).  One scan from the far end of
    the terms finds the least k* whose suffix is at most u A (u = 2^-53),
    and the rule taken is the least n with 2n > power (k* - 1), so
    n = ceil(power k* / 2), at most `_LAGUERRE_MAX_NODES`.  Every node
    evaluates the cut f_K = first sum_(k<K) c_k y^k, y = w s^power, of the
    K moment terms by Horner's rule on the one coefficient table of
    `_laguerre_moments`.  The integral of |f - f_K| is at most the moment
    sum past K, and the rule errs on f_K by at most the terms from
    kn = ceil(2n / power) to K, so the suffix from kn covers both.

    Since every G_n(s^m) <= mu_m, a sum over the nodes of w_i |a_k|
    x_i^(power k) times any factor is at most the same series times that
    factor.  So the bound adds to the suffix:
    * the rule's Golub-Welsch rounding: 2 n^2 u sum_i |w_i f_i| for its
      weights, and for its nodes 2 n u sum_k power k r_k, as f moves by
      |s f'(s)| <= sum_k power k |a_k| s^(power k) times a node's relative
      error.  Against 40-digit roots at every n from 1 to 32 (and
      60-digit ones at n = 8..128), at every sigma of the catalog, each
      weight is within 1.52 n^2 u of its own size, and the node errors
      averaged with the weights w_i x_i^m, m >= 1, are within 1.46 n u
      (at n = 3; 1.15 n u at n = 4, at most 0.98 n u from n = 5);
    * the table's rounding, sized by the series weighted by its step
      count: `first` takes 12 d u, for its d reciprocal gammas (each good
      to 11 u), their products and the product first * (Horner's sum),
      and each c_(k+1) 2d u more than c_k for its d sums, d - 1 products
      and quotient, plus up to 2 u on y^k per k for y's power roundings
      and room for the second-order terms: (2d + 4) u a step.  Each gamma
      argument g may be an ulp off (an index rounds once before its + 1):
      that moves `first` by |psi(g)| ulp(g) <= (0.58 + ln g) ulp(g), and
      each step by at most ulp(g)/g;
    * Horner's rounding on the table, of degree K - 1: at most
      gamma_(2K-2) sum_k |c_k| y^k (Higham 2002, eq. 5.3), which the
      weights and `first` turn into at most gamma_(2K-2) A <= 2 K u A;
    * the products w_i f_i and the final `fsum`, u (sum_i |w_i f_i| + |value|).
    A bound above _LAGUERRE_TOL max(1, |value|), or no rule up to
    `_LAGUERRE_MAX_NODES` nodes meeting u A, raises ConvergenceError, so the check is
    skipped, not passed."""
    first, gamma_args, _ = _humbert_terms(indices, w)
    if min(gamma_args) < 1.0:
        raise DomainError(f"_humbert_laguerre: a gamma argument of indices {indices!r} falls below 1")
    terms, rest, steps, coeffs = _laguerre_moments(gamma_args, abs(w), power, sigma, DEFAULT_POLICY.max_terms)
    total = math.fsum(terms) + rest
    # the least k* = i whose suffix is at most u A, scanned from the far end
    i, far, limit = len(terms), rest, _UNIT_ROUNDOFF * total
    while i and far + terms[i - 1] <= limit:
        i -= 1
        far += terms[i]
    n = -(-power * i // 2)  # the least rule exact on every power k below power k*
    if n > _LAGUERRE_MAX_NODES:
        raise ConvergenceError(f"_humbert_laguerre: no rule up to {_LAGUERRE_MAX_NODES} nodes meets u A ({n} would)")
    kn = -(-2 * n // power)  # the least k with power k >= 2n, at least k*
    suffix = math.fsum(terms[kn:]) + rest
    xs, ws = gauss_laguerre_nodes(sigma, n)
    table = coeffs[::-1]
    parts = []
    for s, weight in zip(xs, ws):
        y = w * s if power == 1 else w * (s * s)
        h = 0.0
        for c in table:
            h = h * y + c
        parts.append(weight * (first * h))
    value, absum = math.fsum(parts), math.fsum(map(abs, parts))
    u, d = _UNIT_ROUNDOFF, len(gamma_args)
    scale = abs(first) * gamma(sigma + 1.0)  # r_0
    a, a_steps = total * scale, steps * scale
    per_term, per_step = 12 * d * u, (2 * d + 4) * u
    for g in gamma_args:
        per_term += (0.58 + math.log(g)) * math.ulp(g)
        per_step += math.ulp(g) / g
    rule = n * u * (_WEIGHT_CHARGE * n * absum + _NODE_CHARGE * power * a_steps)
    horner = 2 * len(table) * u * a
    bound = suffix * scale + rule + per_term * a + per_step * a_steps + horner + u * (absum + abs(value))
    if not bound <= _LAGUERRE_TOL * max(1.0, abs(value)):
        raise ConvergenceError(f"_humbert_laguerre: bound {bound:.3g} at {n} nodes exceeds the tolerance")
    return value, bound


def _bilateral_sum(image, u, v, m_cut):
    # the double sum over |m|, |n| <= m_cut of u**m v**n times the image
    # shifted by c1**m c2**n is the image times (sum_m (u c1)**m)
    # (sum_n (v c2)**n), reduced in one pass: each term's gamma factor is
    # summed against the weights u**m and v**n once per symbol.  Shift m
    # kills the terms below -m, so an image of order m_cut + 16 leaves the
    # lowest shift 16 surviving terms, and the tail check certifies the
    # cut: if the last two terms are not below 2^-60 of the sum it raises
    orders = range(-m_cut, m_cut + 1)
    factors = ((float(-m_cut), [u**m for m in orders]), (float(-m_cut), [v**n for n in orders]))
    return reduce_weighted(image, factors, check_tail_rel=2.0**-60)


def _i16_lhs(u, v, x, m_cut=14):
    # J_{m,n}(x) = c1**m c2**n e^{-x c1 c2}
    image = expand(UmbralExpSeries((0.0, 0.0), (1, 1), -float(x), m_cut + 16))
    return _bilateral_sum(image, u, v, m_cut)


def _i17_lhs(u, v, x, gamma_p, m_cut=14):
    # Delta_{m,n,g} is the Laplace image times c1**m c2**n
    image = laplace_reduce(gamma_p, (x / 2.0) ** 2, 0.0, 0.0, order=m_cut + 16)
    return _bilateral_sum(image, u, v, m_cut)


def _spherical_ode_residual(n, x):
    """(x^2 j_n')' + (x^2 - n(n+1)) j_n over |(x^2 j_n')'| + |(x^2 - n(n+1))
    j_n| + 2x |j_n'|, a scale that no zero of j_n or j_n' makes small:
    (x^2 j_n')' = x^2 j_n'' + 2x j_n' is one transform of j_n's series, j_n
    is `sph_j`'s, and x j_n' = n j_n - x j_{n+1} (DLMF 10.51.2) only sizes
    the scale."""
    j = sph_j(n, x).value
    flux = _x_derivative(_sph_j_terms(n, x), (n, n + 1), x)  # (x^2 j_n')'
    rest = (x * x - n * (n + 1.0)) * j
    return (flux + rest) / (abs(flux) + abs(rest) + 2.0 * abs(n * j - x * sph_j(n + 1, x).value))


def _shift_operator(family, direction, order, x):
    """Lhs of the order shift relations: (order/x -/+ d/dx) F_order, the
    derivative term by term on the ascending series of J_order (term k
    proportional to x^(2k+order)) or H_order (x^(2k+order+1)), and the
    value from the family's evaluator."""
    if family == "bessel":
        fn, terms, p = cyl_j, _cyl_j_terms(order, x), order
    else:
        fn, terms, p = struve_h, _struve_terms(order, x), order + 1.0
    return order / x * fn(order, x).value - direction * _x_derivative(terms, (p,), x) / x


def _shifted_member(family, direction, order, x):
    """Rhs of the order shift relations: the shifted member, plus the
    power source term for the raising Struve relation."""
    if family == "bessel":
        return cyl_j(order + direction, x).value
    if direction == 1:
        return struve_h(order + 1, x).value - _struve_source(order, x)
    return struve_h(order - 1, x).value


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
            lambda p: _j_line_integral(0)[0],
            {"termwise_ratio_series", "exp_power_tail", "rayleigh_tables"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(lambda p: math.pi, set(), "constant"),
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
            lambda p: _generating_sum(p["x"], p["t"])[0],
            {"sph_j"},
            "series-sum",
        ),
        rhs=_binding(
            lambda p: sinc_sqrt(p["x"] ** 2 - 2.0 * p["x"] * p["t"]),
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
            lambda p: _termwise_ratio_series(*_sph_j_terms(p["n"], p["x"]), p["x"] / 2.0, DEFAULT_POLICY)[0],
            {"termwise_ratio_series"},
            "gamma-offset-shift",
        ),
        rhs=_binding(lambda p: sph_j(p["n"], p["x"]).value, {"sph_j"}, "series"),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="the operator shifts the gamma offset of j_0's series, summed in exact fixed point",
    ))

    ids.append(Identity(
        id="I04",
        description="Closed finite sum for the n-th derivative of j_0",
        reference="d^n/dx^n j_0 = n! sum_k (-1)^(n+k) (2x)^-k/(k!(n-2k)!) j_{n-k}(x)",
        params={"n": ("choice", (1, 2, 3)), "x": ("range", 0.5, 8.0)},
        grid=_product_grid(n=(1, 2, 3), x=(0.8, 1.6, 3.0, 6.4)),
        lhs=_binding(
            lambda p: _x_derivative(_sph_j_terms(0, p["x"]), tuple(range(0, -p["n"], -1)), p["x"])
            / p["x"] ** p["n"],
            {"termwise_ratio_series"},
            "termwise-derivative",
        ),
        rhs=_binding(lambda p: sph_j_deriv(p["n"], p["x"]), {"sph_j_deriv", "sph_j"}, "closed-sum"),
        tol_abs=1e-12,
        tol_rel=1e-12,
    ))

    ids.append(Identity(
        id="I05",
        description="Real-line moments of the spherical family: even orders hit the gamma ratio, odd orders vanish",
        reference="integral over R of j_{2n} dx = sqrt(pi) Gamma(n+1/2)/n!, odd orders integrate to zero",
        params={"m": ("choice", (0, 1, 2, 3, 4, 5, 6, 7))},
        grid=_product_grid(m=(0, 1, 2, 3, 4, 5, 6, 7)),
        lhs=_binding(
            lambda p: _j_line_integral(p["m"])[0],
            {"termwise_ratio_series", "exp_power_tail", "rayleigh_tables"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p: SQRT_PI * gamma(p["m"] // 2 + 0.5) / math.factorial(p["m"] // 2)
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
            lambda p: _quadratic_line_integral(1.0, -2.0 * p["t"])[0],
            {"gauss_legendre", "sinc_sqrt", "exp_power_tail"},
            "finite-head-closed-tail",
        ),
        rhs=_binding(
            lambda p: _gaussian_line_integral(1.0, -2.0 * p["t"])[0],
            {"gaussian_reduce", "expand", "reduce_expr"},
            "umbral-gaussian",
        ),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="square completed, y = x - t; 48-point Gauss-Legendre head to y=40, tail in closed form",
    ))

    ids.append(Identity(
        id="I07",
        description="Quadratic-argument real-line integral as a modified-function image",
        reference="integral over R of j_0(sqrt(a x^2 + b x)) dx = (pi/sqrt(a)) I_0(b/(2 sqrt(a)))",
        params={"a": ("range", 0.25, 4.0), "b": ("range", 0.0, 4.0)},
        grid=_grid("a b", (1.0, 0.5), (0.5, 1.0), (2.0, 1.5), (1.0, 2.0), (1.5, 0.8)),
        lhs=_binding(
            lambda p: _quadratic_line_integral(p["a"], p["b"])[0],
            {"gauss_legendre", "sinc_sqrt", "exp_power_tail"},
            "finite-head-closed-tail",
        ),
        rhs=_binding(
            lambda p: _gaussian_line_integral(p["a"], p["b"])[0],
            {"gaussian_reduce", "expand", "reduce_expr"},
            "umbral-gaussian",
        ),
        tol_abs=1e-12,
        tol_rel=1e-12,
        window_note="square completed, y = sqrt(a) (x + b/(2a)); 48-point Gauss-Legendre head to y=40, tail in closed form",
    ))

    struve_axes = dict(alpha=(0.5, 1.0, 1.7), x=(0.8, 2.0, 5.0))
    ids.append(Identity(
        id="I08",
        description="Differentiation formula of the Struve family",
        reference="dH_a/dx = (H_{a-1} - H_{a+1} + (x/2)^a/(sqrt(pi)Gamma(a+3/2)))/2",
        params={"alpha": ("range", 0.0, 3.0), "x": ("range", 0.5, 10.0)},
        grid=_product_grid(**struve_axes),
        lhs=_binding(
            lambda p: _x_derivative(_struve_terms(p["alpha"], p["x"]), (p["alpha"] + 1.0,), p["x"]) / p["x"],
            {"termwise_ratio_series"},
            "termwise-derivative",
        ),
        rhs=_binding(
            lambda p: 0.5
            * (
                struve_h(p["alpha"] - 1.0, p["x"]).value
                - struve_h(p["alpha"] + 1.0, p["x"]).value
                + _struve_source(p["alpha"], p["x"])
            ),
            {"struve_h", "gamma"},
            "order-shift-combination",
        ),
        tol_abs=1e-11,
        tol_rel=1e-11,
        shared_family=True,
    ))

    ids.append(Identity(
        id="I09",
        description="Three-term recursion of the Struve family",
        reference="H_{a+1} + H_{a-1} = (2a/x) H_a + (x/2)^a/(sqrt(pi)Gamma(a+3/2))",
        params={"alpha": ("range", 0.0, 3.0), "x": ("range", 0.25, 15.0)},
        grid=_product_grid(alpha=(0.5, 1.0, 1.7), x=(0.5, 2.0, 10.0)),
        lhs=_binding(
            lambda p: struve_h(p["alpha"] + 1.0, p["x"]).value
            + struve_h(p["alpha"] - 1.0, p["x"]).value,
            {"struve_h"},
            "order-shift-sum",
        ),
        rhs=_binding(
            lambda p: 2.0 * p["alpha"] / p["x"] * struve_h(p["alpha"], p["x"]).value
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
            lambda p: (
                _x_derivative(_struve_terms(p["alpha"], p["x"]), (p["alpha"] + 1.0,) * 2, p["x"])
                + (p["x"] ** 2 - p["alpha"] ** 2) * struve_h(p["alpha"], p["x"]).value
            ),
            {"termwise_ratio_series", "struve_h"},
            "termwise-ode-lhs",
        ),
        rhs=_binding(
            lambda p: 4.0 * (p["x"] / 2.0) ** (p["alpha"] + 1.0) * rgamma(p["alpha"] + 0.5) / SQRT_PI,
            {"gamma"},
            "closed-form",
        ),
        tol_abs=1e-10,
        tol_rel=1e-10,
    ))

    ids.append(Identity(
        id="I11",
        description="Exponential-weight integral representation of the Struve family via the two-index series",
        reference="H_a(x) = (x/2)^(a+1) integral_0^inf e^-s J_{1/2, a+1/2}(s (x/2)^2) ds",
        params={"alpha": ("range", -0.5, 2.0), "x": ("range", 0.25, 6.0)},
        grid=_product_grid(alpha=(0.0, 0.5, 1.0), x=(0.5, 1.0, 2.0, 5.0)),
        lhs=_binding(
            lambda p: (p["x"] / 2.0) ** (p["alpha"] + 1.0)
            * _humbert_laguerre((0.5, p["alpha"] + 0.5), (p["x"] / 2.0) ** 2, 1, 0.0)[0],
            {"gauss_laguerre_nodes", "laguerre_moments"},
            "laguerre-quadrature",
        ),
        rhs=_binding(lambda p: struve_h(p["alpha"], p["x"]).value, {"struve_h"}, "series"),
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
            lambda p: real_line_squared_integral(p["mu"], p["nu"]),
            {"regularized"},
            "regularized-phase-integral",
        ),
        rhs=_binding(
            lambda p: SQRT_PI * rgamma(p["mu"] + 0.5) * rgamma(p["nu"] + 0.5),
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
            lambda p: power_moment_integral(p["alpha"], p["mu"], p["nu"]),
            {"regularized"},
            "regularized-phase-integral",
        ),
        rhs=_binding(
            lambda p: gamma(p["alpha"]) * rgamma(p["mu"] - p["alpha"] + 1.0) * rgamma(p["nu"] - p["alpha"] + 1.0),
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
            lambda p: _struve_line_integral(p["alpha"])[0],
            {"struve_h", "termwise_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p: -math.cos(0.5 * p["alpha"] * math.pi) / math.sin(0.5 * p["alpha"] * math.pi),
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
            lambda p: _humbert_laguerre(
                (p["alpha"], p["beta"]), (p["x"] / 2.0) ** 2, 1, p["gamma_p"] - 1.0
            )[0],
            {"gauss_laguerre_nodes", "laguerre_moments"},
            "laguerre-quadrature",
        ),
        rhs=_binding(
            lambda p: delta_fn(p["alpha"], p["beta"], p["gamma_p"], p["x"]),
            {"delta_fn", "gamma"},
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
            lambda p: _i16_lhs(p["u"], p["v"], p["x"]),
            {"expand", "reduce_weighted"},
            "truncated-double-sum",
        ),
        rhs=_binding(
            lambda p: math.exp(p["u"] + p["v"] - p["x"] / (p["u"] * p["v"])),
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
            lambda p: _i17_lhs(p["u"], p["v"], p["x"], p["gamma_p"]),
            {"laplace_reduce", "reduce_weighted"},
            "umbral-pipeline",
        ),
        rhs=_binding(
            lambda p: math.exp(p["u"] + p["v"])
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
            lambda p: cyl_j(p["mu"], p["x"]).value * cyl_j(p["nu"], p["x"]).value,
            {"cyl_j"},
            "series-product",
        ),
        rhs=_binding(
            lambda p: (p["x"] / 2.0) ** (p["mu"] + p["nu"])
            * _humbert_laguerre(
                (p["mu"], p["nu"], p["mu"] + p["nu"]), p["x"] * p["x"] / 4.0, 2, p["mu"] + p["nu"]
            )[0],
            {"gauss_laguerre_nodes", "laguerre_moments"},
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
            lambda p: _j_product_integral(p["mu"], p["nu"])[0],
            {"termwise_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p: SQRT_PI
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
            lambda p: anger(float(p["n"]), p["x"]).value
            if p["mode"] == "anger"
            else weber(0.0, p["x"]).value,
            {"s1", "s2"},
            "auxiliary-series-matrix",
        ),
        rhs=_binding(
            lambda p: cyl_j(float(p["n"]), p["x"]).value
            if p["mode"] == "anger"
            else -struve_h(0.0, p["x"]).value,
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
            lambda p: _s_line_integral(p["nu"], 1, 0)[0],
            {"s1", "termwise_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(lambda p: math.cos(0.5 * p["nu"] * math.pi), set(), "closed-form"),
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
            lambda p: _s_line_integral(p["nu"], 2, 1)[0],
            {"s2", "termwise_ratio_series", "exp_power_tail", "hankel"},
            "termwise-head-closed-tail",
        ),
        rhs=_binding(
            lambda p: math.sin(0.5 * p["nu"] * math.pi) / p["nu"],
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
            lambda p: _spherical_ode_residual(p["n"], p["x"]),
            {"termwise_ratio_series", "sph_j"},
            "termwise-ode-residual",
        ),
        rhs=_binding(lambda p: 0.0, set(), "constant"),
        tol_abs=1e-10,
        tol_rel=1e-10,
        window_note="residual over |(x^2 j_n')'| + |(x^2 - n(n+1)) j_n| + 2x |j_n'|",
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
            lambda p: _shift_operator(p["family"], p["direction"], p["order"], p["x"]),
            {"termwise_ratio_series", "cyl_j", "struve_h"},
            "termwise-shift-operator",
        ),
        rhs=_binding(
            lambda p: _shifted_member(p["family"], p["direction"], p["order"], p["x"]),
            {"cyl_j", "struve_h", "gamma"},
            "order-shift",
        ),
        tol_abs=1e-11,
        tol_rel=1e-11,
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


def verify(identity_id, params=None):
    """Evaluate both sides of one identity at one parameter point, with
    every evaluator at DEFAULT_POLICY, the policy the catalog's tolerances
    are set for."""
    iden = get_identity(identity_id)
    if params is None:
        params = dict(iden.grid[0]) if iden.grid else {}
    iden.check_params(params)
    start = time.perf_counter()
    try:
        lhs = iden.lhs.fn(params)
        rhs = iden.rhs.fn(params)
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


def verify_all(parallelism=1, ids=None, seed=0):
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
        return [verify(i, p) for i, p in jobs]
    # processes, not threads: the checks are CPU-bound Python under the
    # GIL.  Imported here, so that `import sphstruve` does not compile it.
    from .forkmap import fork_map

    return fork_map(lambda job: verify(*job), jobs, workers)


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
