"""Direct numerical evaluators for the function families.

`cyl_j`, `struve_h` and the Anger/Weber auxiliaries S1/S2 follow one
three-path scheme, decided in one place, `_route`:

* plain power series up to `_CROSSOVER_X` (alternating series lose about
  x/ln10 digits to cancellation, so plain binary64 is only trusted there),
* large-argument asymptotics (Hankel phase/amplitude pairs for the
  cylindrical kinds, plus the algebraic correction series for Struve and
  one parity of the Watson expansion for each Anger/Weber auxiliary)
  past `_CROSSOVER_X` wherever their certified floor (first neglected
  terms past the hump of a large order, plus the rounding) meets
  rel_tol against the envelope sqrt(2/(pi x)), and beyond `_EXTENDED_X`
  wherever it meets the looser absolute `_ASYM_FLOOR`,
* otherwise the power series summed exactly in fixed-point integers
  (`_sum_ratio_series_fixed`): up to `_EXTENDED_X` (large orders, whose
  Hankel terms grow), and beyond it while its cancellation exponent
  stays within `_EXTENDED_LOSS_LIMIT`.  It reports its tail plus its floor
  divisions, the rounding of its first term and value, and that of each
  offset that feeds rgamma (`_input_rounding`).

`anger` and `weber` read one (S1, S2) evaluation, in which both kinds
share one Hankel pair past the crossover and each takes its own path.

Series are certified by a tail bound: a result counts as converged only
when the first neglected term is below rel_tol * |partial sum| twice in
a row, which guards against even/odd-term flatlines in alternating sums.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .gammakit import GAMMA_OVERFLOW_X, SQRT_PI, _is_nonpositive_integer, gamma, hermite2_coeffs, rgamma

__all__ = [
    "EvalPolicy",
    "SeriesResult",
    "DEFAULT_POLICY",
    "sph_j",
    "cyl_j",
    "mod_i0",
    "struve_h",
    "humbert2",
    "humbert3",
    "hyp1f2",
    "delta_fn",
    "s1",
    "s2",
    "anger",
    "weber",
    "sph_j_deriv",
    "rayleigh_jn",
    "sinc_sqrt",
    "bessel_j_asym",
    "bessel_y_asym",
    "hankel_pq",
    "hankel_amplitude_coeffs",
    "struve_algebraic",
    "watson_parity_coeffs",
    "watson_parity",
]


class EvalPolicy(namedtuple("EvalPolicy", "rel_tol abs_tol max_terms", defaults=(1e-12, 1e-300, 500))):
    """Tolerances and the term limit shared by all series."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("EvalPolicy: rel_tol must lie in (0, 1)")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


DEFAULT_POLICY = EvalPolicy()

PATH_SERIES = "series"
PATH_EXTENDED = "extended-precision-series"
PATH_ASYMPTOTIC = "asymptotic"
PATH_CLOSED_FORM = "closed-form"


class SeriesResult(namedtuple("SeriesResult", "value terms_used tail_estimate path")):
    """Value plus convergence metadata for one evaluation."""

    __slots__ = ()

    def __float__(self):
        return self.value


def _closed(value):
    return SeriesResult(value=value, terms_used=0, tail_estimate=0.0, path=PATH_CLOSED_FORM)


def _not_finite(fn, values):
    """The DomainError for a call with an infinite or NaN index, parameter
    or argument: such an index has no integer part to kill terms at, and
    any of them sums max_terms terms to no certificate."""
    return DomainError(f"{fn}: every index, parameter and argument must be finite, got {values!r}")


def _kill_start(gamma_args):
    """First surviving index of a series whose term k carries
    rgamma(k + g) factors: terms vanish while any integer g makes
    k + g a nonpositive integer."""
    k0 = 0
    for g in gamma_args:
        if g <= 0.0 and g == math.floor(g) and 1.0 - g > k0:
            k0 = int(1.0 - g)
    return k0


# number of denominator offsets -> (zero padding to four, and whether the
# second, third and fourth offsets are there)
_DEN_SHAPES = {
    1: ((0.0, 0.0, 0.0), False, False, False),
    2: ((0.0, 0.0), True, False, False),
    3: ((0.0,), True, True, False),
    4: ((), True, True, True),
}


def _sum_ratio_series(t0, z, num_offsets, den_offsets, policy, k0=0):
    """Sum t0 * prod ratios, term_{k+1} = term_k * z * prod(k+num)/prod(k+den).

    The shape is a tuple of one to four denominator offsets and one of at
    most one numerator offset, which covers every series of the module;
    any other raises ValueError.  Each step multiplies the term by z or
    z * (k + n0) and divides it by (k + d0)(k + d1)... taken in offset
    order: the operations of a product over the offsets started at 1.0,
    since 1.0 * y = y exactly.

    Returns (value, terms_used, tail_estimate); certified when the first
    neglected term is below rel_tol*|sum| twice in a row.
    """
    try:
        pad, two, three, four = _DEN_SHAPES[len(den_offsets)]
        (n0,) = num_offsets or (0.0,)
    except (KeyError, ValueError):
        raise ValueError(f"ratio series: needs 1-4 denominator offsets and at most 1 numerator offset, got "
                         f"{den_offsets!r} and {num_offsets!r}") from None
    d0, d1, d2, d3 = den_offsets + pad
    has_num = num_offsets != ()
    rel_tol = policy.rel_tol
    abs_tol = policy.abs_tol
    total = 0.0
    comp = 0.0
    term = t0
    small = 0
    k = float(k0)  # k + a has the bits it has with an int k, and costs less
    for i in range(policy.max_terms):
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        den = k + d0
        if two:
            den *= k + d1
            if three:
                den *= k + d2
                if four:
                    den *= k + d3
        term = term * (z * (k + n0) if has_num else z) / den
        k += 1.0
        # rel_tol * |total|, at least abs_tol, without an abs call
        bound = rel_tol * total
        if bound < abs_tol:
            bound = -bound if bound < -abs_tol else abs_tol
        if -bound <= term <= bound:
            small += 1
            if small >= 2:
                return total, i + 1, abs(term)
        else:
            small = 0
    raise ConvergenceError(
        f"series did not certify within {policy.max_terms} terms (last={term!r})"
    )


# bits of `_sum_ratio_series_fixed` below its first term: 2^-160 n sum|term|,
# its floor-division term, stays below u|value| for a cancellation of up
# to e^62 over 500 terms
_FIX_BITS = 160


@lru_cache(maxsize=128)
def _difference_table(offsets, k0, size):
    """((f(k0), D f(k0), D^2 f(k0), ...), b): the forward-difference table,
    zero-padded to `size`, of the integer polynomial f(k) = prod (q k + p)
    over the binary64 `offsets` p/q, and b = log2 prod q, every q a power of
    two.  D is the forward difference, so adding each entry its successor
    steps k by one.  The table is built in place, one linear factor
    g(k) = q k + p at a time, by Leibniz's rule for differences:
    D^i (f g)(k0) = g(k0 + i) D^i f(k0) + i q D^(i-1) f(k0).  Cached per
    shape, so the table is returned as a tuple."""
    t = [1] + [0] * (size - 1)
    b = 0
    for n, offset in enumerate(offsets, 1):
        p, q = offset.as_integer_ratio()
        b += q.bit_length() - 1
        g0 = q * k0 + p
        for i in range(n, 0, -1):
            qi = q * i
            t[i] = (g0 + qi) * t[i] + qi * t[i - 1]
        t[0] *= g0
    return tuple(t), b


def _ratio_tables(w, num_offsets, den_offsets, k0):
    """The difference tables (4 and 6 entries) of two exact integer
    polynomials with N(k)/D(k) = -w^2 prod(k + num)/prod(k + den), for 0-3
    numerator and 1-5 denominator binary64 offsets.  The power of two that
    clears every q goes on whichever side needs it, so the other keeps
    its least size."""
    if not (1 <= len(den_offsets) <= 5 and len(num_offsets) <= 3):
        raise ValueError(f"fixed-point series: shape {num_offsets!r} over {den_offsets!r} is not 0-3 over 1-5")
    pw, qw = w.as_integer_ratio()
    num, num_bits = _difference_table(tuple(num_offsets), k0, 4)
    num = [-pw * pw * v for v in num]
    den, den_bits = _difference_table(tuple(den_offsets), k0, 6)
    # log2 of prod(q_den) / (prod(q_num) qw^2)
    shift = den_bits - num_bits - 2 * (qw.bit_length() - 1)
    if shift > 0:
        num = [v << shift for v in num]
    elif shift < 0:
        den = [v << -shift for v in den]
    return num, list(den)


def _sum_ratio_series_fixed(t0, w, num_offsets, den_offsets, policy, k0=0):
    """Sum t0 * prod ratios, term_{k+1} = term_k * (-w^2) prod(k+num)/prod(k+den),
    for 1-5 denominator and 0-3 numerator offsets, in Python ints in fixed
    point at 2^-_FIX_BITS of the binary64 first term.  Each input is p/q, q
    a power of two, so the ratio is N(k)/D(k), two exact integer
    polynomials stepped by forward differences; a term costs one multiply
    and one floor division, T_{k+1} = floor(T_k N/D), the sum is exact and
    rounds once.  Stop rule: `_sum_ratio_series`', or two terms of one unit.

    Floor-division term: with e_k = T_k - tau_k, tau_k the exact terms,
    e_{k+1} = rho_k e_k - d_{k+1}, d in [0, 1), so an error made at term i
    reaches term n >= i as |tau_n / tau_i| d_i: a relative 1/|T_i|.  Pairs
    i <= n with |T_n| <= |T_i| add at most a unit each, n(n+1)/2 in all; a
    term above the least earlier one adds at most n |T_n| / lo, lo that
    least term at the last such rise, so n sum|T| / lo over all of them.
    Twice that (T for tau) bounds the error in units of 2^-_FIX_BITS t0.

    Returns (value, terms_used, tail_estimate, floor-division bound, sum
    of |term| over the terms used)."""
    if t0 == 0.0:
        return 0.0, 2, 0.0, 0.0, 0.0
    m, e = math.frexp(t0)
    e -= _FIX_BITS  # a unit of the fixed point is 2^e
    t = int(math.ldexp(m, 53)) << (_FIX_BITS - 53)
    (num, n1, n2, n3), (den, d1, d2, d3, d4, d5) = _ratio_tables(w, num_offsets, den_offsets, k0)
    nn, nd = len(num_offsets), len(den_offsets)
    rel_tol = policy.rel_tol
    try:
        abs_lim = max(math.ldexp(policy.abs_tol, -e), 1.0)
    except OverflowError:
        abs_lim = math.inf
    lo = lo_up = mag = abs(t)
    s = small = 0
    for i in range(policy.max_terms):
        s += t
        t = t * num // den
        if nn:
            num += n1
            if nn > 1:
                n1 += n2
                if nn > 2:
                    n2 += n3
        den += d1
        if nd > 1:
            d1 += d2
            if nd > 2:
                d2 += d3
                if nd > 3:
                    d3 += d4
                    if nd > 4:
                        d4 += d5
        at = -t if t < 0 else t
        mag += at
        if at <= lo:
            lo = at
        else:
            lo_up = lo
        lim = rel_tol * s
        if lim < 0.0:
            lim = -lim
        if at <= lim or at <= abs_lim:
            small += 1
            if small >= 2:
                n = i + 1
                floor_err = 2.0 * (0.5 * n * (n + 1) + n * (mag / lo_up))
                return (math.ldexp(float(s), e), n, math.ldexp(float(at), e), math.ldexp(floor_err, e),
                        math.ldexp(float(mag), e))
        else:
            small = 0
    raise ConvergenceError(f"extended-precision series did not certify within {policy.max_terms} terms")


def _psi_bound(a):
    """A bound on |digamma(a)|, a not a pole: ln a + 1/a for a >= 1, by
    psi(a) = psi(a+1) - 1/a below 1 and psi(a) = psi(1-a) - pi cot(pi a) below 0."""
    if a >= 1.0:
        return math.log(a) + 1.0 / a
    if a > 0.0:
        return _psi_bound(a + 1.0) + 1.0 / a
    return _psi_bound(1.0 - a) + math.pi / abs(math.tan(math.pi * a))


def _input_rounding(den_offsets, k0, n):
    """Relative input term of an n-term ratio series whose term k carries
    rgamma(k + d) for each denominator offset d, good to ulp(d)/2: moving d
    by h moves the sum by h sum_k psi(k + d) term_k, |psi| at most its
    bound at the first or the last k."""
    return sum(max(_psi_bound(k0 + d), _psi_bound(k0 + d + n)) * 0.5 * math.ulp(d) for d in den_offsets)


def _termwise_ratio_series(t0, den_offsets, k0, w, policy, times=(), over=(), scale=1.0, num_offsets=()):
    """(value, bound) of sum_k scale term_k prod_{c in times} (2k + c) /
    prod_{c in over} (2k + c), term k0 of the ratio series in z = -w^2
    being t0, by the fixed-point kernel.  For term k proportional to
    x^(2k+p), x^n d^n/dx^n is `times` (p, p-1, ..., p-n+1); for t0 at
    x = T and term k proportional to x^(2k+a-1), the integral over [0, T]
    is `over` (a,) and `scale` T.  A factor (2k + c) in `times` adds the
    numerator offset c/2 + 1 and the denominator offset c/2, one in
    `over` the same two the other way round.  The sum starts past the
    terms a factor in `times` makes zero, t0 stepped there by the ratio.
    The bound is twice the first neglected term, plus the kernel's
    floor-division term, n 2^-1074, (32.5 + 8 steps + 2 len(times)) u
    |value| for rounding t0 and the value (u = 2^-53), and the offsets'
    `_input_rounding`."""
    k = k0
    while 0.0 in [2 * k + c for c in times]:
        t0 *= -w * w * math.prod([k + c for c in num_offsets]) / math.prod([k + d for d in den_offsets])
        k += 1
    first, nums, dens = t0 * scale, [*num_offsets], [*den_offsets]
    for c in times:
        first *= 2 * k + c
        nums.append(0.5 * c + 1.0)
        dens.append(0.5 * c)
    for c in over:
        first /= 2 * k + c
        nums.append(0.5 * c)
        dens.append(0.5 * c + 1.0)
    for c in [*nums]:  # an offset on both sides is a common factor: no floor division moves
        if c in dens:
            nums.remove(c)
            dens.remove(c)
    v, n, tail, floor_err, _ = _sum_ratio_series_fixed(first, w, nums, dens, policy, k)
    rounding = (32.5 + 8 * (k - k0) + 2 * len(times)) * 2.0**-53
    inputs = (rounding + _input_rounding(den_offsets, k, n)) * abs(v)
    return v, 2.0 * tail + floor_err + n * 2.0**-1074 + inputs


# ---------------------------------------------------------------------------
# Hankel-type large-argument machinery for the cylindrical kinds.


# the path crossovers (fixed: the plain series' estimate carries no
# rounding term, ROADMAP item 3), the absolute accuracy demanded of a
# certified asymptotic truncation beyond _EXTENDED_X, and the largest
# cancellation exponent for which the series takes the extended path
# there, up to which `_FIX_BITS` keeps the kernel's floor-division term below u|value|
_CROSSOVER_X = 25.0
_EXTENDED_X = 60.0
_ASYM_FLOOR = 1e-9
_EXTENDED_LOSS_LIMIT = 62.0
# a term below this fraction of a binary64 sum is under half its ulp
_NEGLIGIBLE = 2.0**-55
# `not lo <= v < _INF` turns away +inf and NaN along with v below lo
_INF = math.inf
# (k, (2k - 1)^2, 8k) for the Hankel terms k = 1..59, every entry exact
_HANKEL_STEPS = tuple((k, float((2 * k - 1) ** 2), 8.0 * k) for k in range(1, 60))


def hankel_amplitude_coeffs(nu, kmax=30):
    """Coefficients c_0..c_kmax of P + iQ = sum_m c_m x**-m, the amplitude in
    J_nu + i Y_nu = sqrt(2/(pi x)) e^{i(x - (nu/2 + 1/4) pi)} (P + iQ):
    c_m = i**m prod_{k<=m} (4 nu^2 - (2k-1)^2)/(8k), the terms of `hankel_pq`,
    for kmax in [0, 59] (`_HANKEL_STEPS`)."""
    if not 0 <= kmax <= len(_HANKEL_STEPS):
        raise DomainError(f"hankel_amplitude_coeffs: kmax must lie in [0, {len(_HANKEL_STEPS)}], got {kmax!r}")
    mu4 = 4.0 * nu * nu
    c = 1.0 + 0.0j
    cs = [c]
    for _, sq, k8 in _HANKEL_STEPS[:kmax]:
        c *= 1j * ((mu4 - sq) / k8)
        cs.append(c)
    return cs


def hankel_pq(nu, x):
    """Evaluate the amplitude sums P(nu,x), Q(nu,x) at the smallest-term
    truncation.

    Returns (P, Q, floor) where `floor` is the magnitude of the first
    neglected term plus the rounding of the sums: the expansion's
    certified absolute accuracy.  The truncation part is exactly zero for
    half-integer orders (the expansion terminates), and the floor grows
    useless once the order is large compared to sqrt(x).

    A growing term ends the sum only past k = max(2, |nu| + 1): until
    4nu^2 < 8kx the terms of a large order rise before they fall, and a
    term before the hump bounds nothing.  Term k carries about 4k
    roundings of its k ratio steps, and each addition one, so the
    rounding part is 4ku times the sum of |term| past the exact first
    term; it matters only where the hump is high.

    The sum stops early at the first term, past k = |nu| - 1/2 (where
    the terms start to fall; DLMF 10.17(iii)), below 2**-55 of both |P|
    and |Q|: it and every later term up to the smallest one are under
    half an ulp of their sum, so P and Q keep the bits of the full
    smallest-term truncation."""
    mu4 = 4.0 * nu * nu
    k_bound = abs(nu) - 0.5
    hump = max(2.0, abs(nu) + 1.0)
    negligible = _NEGLIGIBLE
    # term 0 is exactly 1.0 and joins P; it never ends the sum
    P = 1.0
    Q = 0.0
    term = 1.0
    prev = 1.0
    floor = 1.0
    absum = 0.0  # sum of |term| past the exact term 0
    for k, sq, k8 in _HANKEL_STEPS:
        term *= (mu4 - sq) / (k8 * x)
        mag = abs(term)
        if mag == 0.0:
            floor = 0.0
            break
        if mag > prev and k > hump:
            floor = prev
            break
        if k >= k_bound and mag < negligible * abs(P) and mag < negligible * abs(Q):
            floor = mag
            break
        prev = mag
        floor = mag
        absum += mag
        # term k joins P (even k) or Q (odd k) with sign (-1)^(k // 2)
        if k & 1:
            Q += -term if k & 2 else term
        else:
            P += -term if k & 2 else term
    return P, Q, floor + 4.0 * k * 2.0**-53 * absum


def _chi(nu, x):
    return x - (0.5 * nu + 0.25) * math.pi


def _envelope(x):
    """sqrt(2/(pi x)): the size of the oscillatory large-argument terms."""
    return math.sqrt(2.0 / (math.pi * x))


def _jy_asym(nu, x):
    """(J_nu, Y_nu, floor) from one phase/amplitude pair."""
    P, Q, floor = hankel_pq(nu, x)
    c = _chi(nu, x)
    cc = math.cos(c)
    sc = math.sin(c)
    a = _envelope(x)
    return a * (P * cc - Q * sc), a * (P * sc + Q * cc), floor


def bessel_j_asym(nu, x):
    """Large-argument first-kind cylindrical value via the phase/amplitude pair."""
    return _jy_asym(nu, x)[0]


def bessel_y_asym(nu, x):
    """Large-argument second-kind cylindrical value via the phase/amplitude pair."""
    return _jy_asym(nu, x)[1]


def _series_loss(nu, x):
    """Natural log of the ascending series' largest-term-to-envelope ratio:
    sqrt(x^2 + nu^2) - nu asinh(nu/x) - ln(pi x).  This is what multiplies
    the working precision's ulp to give the cancellation floor; it decays
    to zero once the order dominates the argument (forward-peaked sums)."""
    nu = abs(nu)
    L = math.sqrt(x * x + nu * nu)
    if nu > 0.0:
        L -= nu * math.asinh(nu / x)
    return max(L - math.log(math.pi * max(x, 1.0)), 0.0)


def _route(x, order, policy, terms, asym, *args):
    """Evaluate a family on the first path of the module's scheme that
    certifies at x.  `terms(*args)` gives the (t0, den_offsets, k0) of
    its ascending series, `asym(*args)` its large-argument (value,
    floor, envelope sqrt(2/(pi x)) of its oscillatory part, size of its
    algebraic part), and `order` the order in its cancellation exponent
    `_series_loss(order, x)`.  u = 2^-53 below."""
    if x <= _CROSSOVER_X:
        t0, dens, k0 = terms(*args)
        v, n, tail = _sum_ratio_series(t0, -((x / 2.0) ** 2), (), dens, policy, k0=k0)
        return SeriesResult(v, n, tail, PATH_SERIES)
    v, floor, osc, alg = asym(*args)
    # the value must meet rel_tol against the larger size up to _EXTENDED_X,
    # _ASYM_FLOOR max(1, alg) beyond.  The phase, rounded at ulp(x), reaches
    # only the oscillatory part; u alg covers the algebraic part's addition
    env = alg if alg > osc else osc
    phase = 4.0 * 2.0**-53 * (1.0 + x) * osc
    if x <= _EXTENDED_X:
        certified = floor + 4.0 * 2.0**-53 * (1.0 + x) * env <= policy.rel_tol * env
    else:
        certified = floor + phase <= _ASYM_FLOOR * (alg if alg > 1.0 else 1.0)
    if certified:
        return SeriesResult(v, 0, floor + phase + 2.0**-53 * alg, PATH_ASYMPTOTIC)
    if x <= _EXTENDED_X or _series_loss(order, x) <= _EXTENDED_LOSS_LIMIT:
        t0, dens, k0 = terms(*args)
        v, n, tail, floor_err, mag = _sum_ratio_series_fixed(t0, x / 2.0, (), dens, policy, k0)
        # floor divisions, n 2^-1074 for a subnormal t0 or value, 32.5u|v|
        # for rounding t0 and v, and the offsets' input term: a move of the
        # order moves v by about |v| where the order exceeds x and by about
        # sqrt(2/(pi x)) where it oscillates, by sum|term| at most
        bound = tail + floor_err + n * 2.0**-1074 + 32.5 * 2.0**-53 * abs(v)
        bound += _input_rounding(dens, k0, n) * min(mag, abs(v) if order >= x else max(abs(v), osc))
        return SeriesResult(v, n, bound, PATH_EXTENDED)
    raise ConvergenceError(f"no certified path for arguments {args}: the asymptotics diverge and "
                           "the series cancellation exceeds the extended budget")


# ---------------------------------------------------------------------------
# Cylindrical Bessel of the first kind.


def cyl_j(nu, x, policy=None):
    """J_nu(x) for nu >= -50, x >= 0."""
    policy = policy or DEFAULT_POLICY
    nu = float(nu)
    x = float(x)
    if not (-50.0 <= nu < _INF and 0.0 <= x < _INF):
        raise DomainError(f"cyl_j: requires finite nu >= -50 and x >= 0, got {(nu, x)!r}")
    if nu < 0.0 and nu == math.floor(nu):
        inner = cyl_j(-nu, x, policy)
        sign = 1.0 if int(-nu) % 2 == 0 else -1.0
        return SeriesResult(sign * inner.value, inner.terms_used, inner.tail_estimate, inner.path)
    if x == 0.0:
        if nu == 0.0:
            return _closed(1.0)
        if nu > 0.0:
            return _closed(0.0)
        raise DomainError("cyl_j: x=0 is singular for negative order")
    return _route(x, nu, policy, _cyl_j_terms, _cyl_j_asym, nu, x)


def _cyl_j_terms(nu, x):
    """(t0, den_offsets, k0) of the ascending series of J_nu(x)."""
    try:
        t0 = (x / 2.0) ** nu * rgamma(nu + 1.0)
    except OverflowError:
        t0 = 0.0
    if t0 == 0.0:  # the power overflowed or underflowed, or rgamma(nu + 1) underflowed
        t0 = _power_rgamma(x / 2.0, nu, nu + 1.0)
    return t0, (1.0, nu + 1.0), 0


def _cyl_j_asym(nu, x):
    v, _, floor = _jy_asym(nu, x)
    return v, floor, _envelope(x), 0.0


def mod_i0(t, policy=None):
    """Modified cylindrical function of order 0; even entire series."""
    policy = policy or DEFAULT_POLICY
    t = float(t)
    if not abs(t) <= 300.0:
        if t != t:
            raise _not_finite("mod_i0", (t,))
        raise OverflowError("mod_i0: |t| > 300 exceeds the supported range")
    v, _, _ = _sum_ratio_series(1.0, (t / 2.0) ** 2, (), (1.0, 1.0), policy)
    return v


# ---------------------------------------------------------------------------
# Struve functions.


def struve_h(alpha, x, policy=None):
    """Struve function H_alpha(x) for alpha >= -5, x >= 0 (x > 0 if alpha < -1)."""
    policy = policy or DEFAULT_POLICY
    alpha = float(alpha)
    x = float(x)
    if not (-5.0 <= alpha < _INF and 0.0 <= x < _INF):
        raise DomainError(f"struve_h: requires finite alpha >= -5 and x >= 0, got {(alpha, x)!r}")
    if x == 0.0:
        if alpha > -1.0:
            return _closed(0.0)
        if alpha == -1.0:
            return _closed(2.0 / math.pi)
        raise DomainError("struve_h: x=0 is singular for alpha < -1")
    return _route(x, alpha, policy, _struve_terms, _struve_asym, alpha, x)


def _struve_terms(alpha, x):
    """(t0, den_offsets, k0) of the ascending series of H_alpha(x), whose
    term k is proportional to x^(2k+alpha+1), with term-killing applied."""
    g = alpha + 1.5
    k0 = _kill_start((g,))
    sign = -1.0 if k0 % 2 else 1.0
    p = 2 * k0 + alpha + 1.0
    try:
        t0 = sign * (x / 2.0) ** p * rgamma(k0 + 1.5) * rgamma(k0 + g)
    except OverflowError:
        t0 = 0.0
    if t0 == 0.0:  # the power overflowed or underflowed, or rgamma(k0 + g) underflowed
        t0 = sign * rgamma(k0 + 1.5) * _power_rgamma(x / 2.0, p, k0 + g)
    return t0, (1.5, g), k0


def _power_rgamma(base, p, a):
    """base**p / Gamma(a), a not a pole, where base**p overflows or 1/Gamma(a)
    underflows, as a product of factors that each stay in range.  The power
    is taken in n = 2, 4, 8, ... equal factors base**(p/n), halving being
    exact in binary64; past GAMMA_OVERFLOW_X every argument t of Gamma is
    split by Gamma(t) = Gamma(t/2) Gamma(t/2 + 1/2) 2**(t-1) / sqrt(pi) until
    all are in range.  The running product is kept as a mantissa and a binary
    exponent, which changes no rounding: where the plain product in the same
    order stays in range, this has its bits.  Each of its F factors is good
    to a few ulps, so the product is good to about F times that (F = 14 at
    a = 400); past 64 power or gamma factors it raises OverflowError."""
    log_power = p * math.log(base) if base else -math.inf  # x = 5e-324 halves to 0
    if log_power - math.lgamma(a) < -760.0:
        return 0.0  # below the least subnormal, e^-744.4
    n = 2
    while log_power / n > 709.78:  # ln of the largest binary64 is 709.7827
        n *= 2
    if n > 64 or a > 64 * GAMMA_OVERFLOW_X:
        raise OverflowError(f"base**p / Gamma(a) at p = {p!r}, a = {a!r} exceeds the supported range")
    h = base ** (p / n)
    args, scales, e = [a], [], 0
    while max(args) > GAMMA_OVERFLOW_X:
        for t in args:
            k = 1000 * int(t // 1000)  # keeps 2**(1 - t + k) normal; k = 0 below t = 1000
            scales.append(2.0 ** (1.0 - t + k))
            e -= k
        args = [s for t in args for s in (0.5 * t, 0.5 * t + 0.5)]
    rs = [rgamma(t) for t in args]
    m = 1.0
    for f in [h, *scales, rs[0], *[h] * (n - 1), *rs[1:], *[SQRT_PI] * len(scales)]:
        f, fe = math.frexp(f)
        m, me = math.frexp(m * f)
        e += fe + me
    return math.ldexp(m, e)


def _struve_asym(alpha, x):
    """Y_alpha plus the algebraic part: (value, floor, sqrt(2/(pi x)), the
    size of the algebraic part)."""
    _, y, floor = _jy_asym(alpha, x)
    alg, alg_floor = struve_algebraic(alpha, x)
    return y + alg, floor + alg_floor, _envelope(x), abs(alg)


def struve_algebraic(alpha, x):
    """Algebraic part of the large-argument Struve expansion.

    H_alpha(x) - Y_alpha(x) ~ (1/pi) sum_k Gamma(k+1/2) (x/2)**(alpha-2k-1)
    / Gamma(alpha+1/2-k); returns (value, floor), the floor being the
    magnitude of the first neglected term plus the rounding of the sum.

    A growing term ends the sum only past k = max(1, alpha - 1/2): up to
    there the ratio (k + 1/2)(alpha - 1/2 - k)(2/x)^2 of a large order
    may rise above 1, and a term before that hump bounds nothing.  As in
    `hankel_pq`, term k carries about 4k roundings, so the rounding part
    is 4ku times the sum of |term| over the terms kept (u = 2^-53).

    Past the hump the sum also stops at the first term below 2**-55 of
    it: that term and every later one up to the smallest are under half
    an ulp of the sum, so the value keeps the bits of the full
    smallest-term truncation.
    """
    try:
        term = SQRT_PI * rgamma(alpha + 0.5) * (x / 2.0) ** (alpha - 1.0) / math.pi
    except OverflowError:
        term = 0.0
    if term == 0.0 and alpha + 0.5 > 0.0:  # the power overflowed, or the rgamma underflowed
        term = _power_rgamma(x / 2.0, alpha - 1.0, alpha + 0.5) / SQRT_PI
    total = absum = 0.0
    prev = math.inf
    a = alpha - 0.5
    hump = max(1.0, a)
    w = (2.0 / x) ** 2
    negligible = _NEGLIGIBLE
    for k in range(0, 60):
        mag = abs(term)
        if mag == 0.0 or (k > hump and (mag > prev or mag < negligible * abs(total))):
            break
        total += term
        absum += mag
        prev = mag
        term *= (k + 0.5) * (a - k) * w
    return total, abs(term) + 4.0 * k * 2.0**-53 * absum


# ---------------------------------------------------------------------------
# Humbert-type multi-index families.


def _humbert_terms(indices, z):
    """(t0, den_offsets, k0) of sum_k (-z)^k / (k! prod_i Gamma(k + index_i + 1)),
    the series of `humbert2` and `humbert3`, summed by `_sum_ratio_series`
    at ratio -z.  The first surviving term is (-z)^k0 times the reciprocal
    gammas at k0, multiplied on in order (1.0 where k0 = 0).
    """
    gamma_args = (1.0, *[i + 1.0 for i in indices])
    k0 = _kill_start(gamma_args)
    t0 = (-z) ** k0 if k0 else 1.0
    for g in gamma_args:
        t0 *= rgamma(k0 + g)
    return t0, gamma_args, k0


def humbert2(mu, nu, z, policy=None):
    """Two-index Bessel-like series sum_k (-z)^k/(k! Gamma(k+mu+1) Gamma(k+nu+1)).

    Negative integer indices start the sum past the reciprocal-gamma zeros.
    """
    if not (math.isfinite(mu) and math.isfinite(nu) and math.isfinite(z)):
        raise _not_finite("humbert2", (mu, nu, z))
    z = float(z)
    t0, offsets, k0 = _humbert_terms((mu, nu), z)
    return SeriesResult(*_sum_ratio_series(t0, -z, (), offsets, policy or DEFAULT_POLICY, k0), PATH_SERIES)


def humbert3(mu, nu, rho, z, policy=None):
    """Three-index Bessel-like series with four reciprocal-gamma factors per term."""
    if not (math.isfinite(mu) and math.isfinite(nu) and math.isfinite(rho) and math.isfinite(z)):
        raise _not_finite("humbert3", (mu, nu, rho, z))
    z = float(z)
    t0, offsets, k0 = _humbert_terms((mu, nu, rho), z)
    return SeriesResult(*_sum_ratio_series(t0, -z, (), offsets, policy or DEFAULT_POLICY, k0), PATH_SERIES)


def hyp1f2(gamma_p, a, b, z, policy=None):
    """Generalized hypergeometric 1F2(gamma_p; a, b; z) by its defining series."""
    policy = policy or DEFAULT_POLICY
    if not (math.isfinite(gamma_p) and math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise _not_finite("hyp1f2", (gamma_p, a, b, z))
    # gamma_p = -m ends the series after m + 1 terms, which divide only by
    # c, ..., c + m - 1: a pole at c + k matters only for k < m
    m = int(-gamma_p) if _is_nonpositive_integer(gamma_p) else None
    for name, c in (("a", a), ("b", b)):
        if _is_nonpositive_integer(c) and (m is None or -c < m):
            raise DomainError(f"hyp1f2: denominator parameter {name}={c} is a pole")
    if m is not None:
        total = term = 1.0
        for k in range(m):
            term *= (gamma_p + k) * z / ((a + k) * (b + k) * (k + 1.0))
            total += term
        return SeriesResult(total, m + 1, 0.0, PATH_SERIES)
    v, n, tail = _sum_ratio_series(1.0, z, (gamma_p,), (1.0, a, b), policy)
    return SeriesResult(v, n, tail, PATH_SERIES)


def delta_fn(alpha, beta, gamma_p, x, policy=None):
    """Struve-like auxiliary Delta_{alpha,beta,gamma}(x).

    Evaluated through its hypergeometric closed form
    Gamma(g)/(Gamma(1+a)Gamma(1+b)) 1F2(g; 1+a, 1+b; -x^2/4), summed in the
    combined form that stays finite at negative integer indices.
    """
    policy = policy or DEFAULT_POLICY
    if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(gamma_p) and math.isfinite(x)):
        raise _not_finite("delta_fn", (alpha, beta, gamma_p, x))
    if not gamma_p > 0:
        raise DomainError("delta_fn: exponent parameter must be positive")
    w = (x / 2.0) ** 2
    ga = (1.0, alpha + 1.0, beta + 1.0)
    k0 = _kill_start(ga)
    t0 = (-w) ** k0 if k0 else 1.0
    t0 *= gamma(gamma_p + k0)
    for g in ga:
        t0 *= rgamma(k0 + g)
    v, _, _ = _sum_ratio_series(t0, -w, (gamma_p,), ga, policy, k0=k0)
    return v


# ---------------------------------------------------------------------------
# Anger/Weber auxiliaries S1, S2 and their combinations.


def watson_parity_coeffs(nu, odd):
    """Watson coefficients a_0..a_26 of one parity, zeros on the other.

    (1/pi) int_0^inf e^{-nu t - x sinh t} dt = A_nu(x) ~ (1/pi) sum_k a_k
    / x^(k+1), with a_k = k! [u^k] e^{-nu asinh u}/sqrt(1 + u^2).  That
    function solves (1 + u^2) f'' + u f' - nu^2 f = 0, so a_0 = 1,
    a_1 = -nu and a_{k+2} = (nu - k - 1)(nu + k + 1) a_k, the factored
    form keeping near-integer orders accurate.  Since a_k(-nu) =
    (-1)^k a_k(nu), A_nu - A_{-nu} is twice the odd part (odd=True) and
    A_nu + A_{-nu} twice the even part."""
    a = [0.0] * 27
    c = -nu if odd else 1.0
    for k in range(1 if odd else 0, 27, 2):
        a[k] = c
        c *= (nu - (k + 1)) * (nu + (k + 1))
    return a


def watson_parity(nu, x, odd):
    """A_nu(x) - A_{-nu}(x) (odd=True) or A_nu(x) + A_{-nu}(x) (odd=False):
    (2/pi) sum of a_k / x^(k+1) over k of that parity (see
    `watson_parity_coeffs`).

    The sum runs to its smallest term past k = |nu| + 1 (up to there
    |a_{k+2}/a_k| = |nu^2 - (k+1)^2| shrinks with k, so the terms of a
    large order may rise before they fall), or stops at a term below
    _NEGLIGIBLE of the sum.  Returns (value, floor), `floor` being the
    first term dropped (times 2/pi).  An exactly zero term ends the sum
    with floor 0: at integer orders one parity terminates."""
    x2 = x * x
    k = 1.0 if odd else 0.0  # k + 1.0 has the bits of an int k + 1
    term = -nu / x2 if odd else 1.0 / x
    hump = abs(nu) + 1.0
    negligible = _NEGLIGIBLE
    total = 0.0
    prev = math.inf
    while True:
        mag = abs(term)
        if mag <= negligible * abs(total) or (k > hump and not mag < prev):
            return 2.0 / math.pi * total, 2.0 / math.pi * mag
        total += term
        prev = mag
        term *= (nu - (k + 1.0)) * (nu + (k + 1.0)) / x2
        k += 2.0


def _s_terms(kind, nu, x, shared=None):
    """(t0, den_offsets, k0) of the series of S1 (kind=1) or S2 (kind=2),
    whose term k is proportional to x^(2k+kind-1).  `shared` is the
    argument of `_s_asym`, which the series does not read."""
    h = 0.0 if kind == 1 else 0.5
    ga = (1.0 + h + nu / 2.0, 1.0 + h - nu / 2.0)
    k0 = _kill_start(ga)
    sign = -1.0 if k0 % 2 else 1.0
    return sign * (x / 2.0) ** (2 * k0 + 2 * h) * rgamma(k0 + ga[0]) * rgamma(k0 + ga[1]), ga, k0


def _s_asym(kind, nu, x, shared):
    """S1 (kind=1) or S2 (kind=2) from the large-argument decomposition
    S1 = c*J_nu - s*Y_nu + s*(A_nu - A_{-nu}),
    S2 = s*J_nu + c*Y_nu + c*(A_nu + A_{-nu}),
    with c = cos(nu pi/2), s = sin(nu pi/2): (value, truncation floor,
    sqrt(2/(pi x)), 0.0).  `shared` is the (c, s, J_nu, Y_nu, floor) that
    both kinds read.  S1 sums the odd part of the Watson expansion, S2
    the even part."""
    c, s, J, Y, floor = shared
    a, a_floor = watson_parity(nu, x, odd=kind == 1)
    if kind == 1:
        return c * J - s * Y + s * a, floor + abs(s) * a_floor, _envelope(x), 0.0
    return s * J + c * Y + c * a, floor + abs(c) * a_floor, _envelope(x), 0.0


def _s_eval(kinds, nu, x, policy):
    """(nu pi/2, c, s, S1, S2) with c = cos(nu pi/2), s = sin(nu pi/2),
    and S1, S2 as SeriesResults; for x > 0, one whose kind (1 or 2) is
    not in `kinds` is None.  Past the crossover the kinds read one
    `_jy_asym`, and each still takes its own path in `_route`."""
    nu = float(nu)
    x = float(x)
    if not (abs(nu) <= 20.0 and 0.0 <= x < _INF):
        raise DomainError(f"S-series: requires |nu| <= 20 and finite x >= 0, got {(nu, x)!r}")
    half_turn = 0.5 * nu * math.pi
    c = math.cos(half_turn)
    s = math.sin(half_turn)
    if x == 0.0:
        return half_turn, c, s, _closed(rgamma(1.0 + nu / 2.0) * rgamma(1.0 - nu / 2.0)), _closed(0.0)
    shared = None if x <= _CROSSOVER_X else (c, s, *_jy_asym(nu, x))
    # the auxiliary series cancels like exp(x) whatever the order
    r1 = _route(x, 0.0, policy, _s_terms, _s_asym, 1, nu, x, shared) if 1 in kinds else None
    r2 = _route(x, 0.0, policy, _s_terms, _s_asym, 2, nu, x, shared) if 2 in kinds else None
    return half_turn, c, s, r1, r2


def s1(nu, x, policy=None):
    """Even Anger/Weber auxiliary series S1(nu, x)."""
    return _s_eval((1,), nu, x, policy or DEFAULT_POLICY)[3]


def s2(nu, x, policy=None):
    """Odd Anger/Weber auxiliary series S2(nu, x)."""
    return _s_eval((2,), nu, x, policy or DEFAULT_POLICY)[4]


def _s_matrix_row(weber_row, nu, x, policy):
    """w1*S1 + w2*S2 for the Anger row (w1, w2) = (c, s) or the Weber row
    (s, -c) of the trigonometric matrix, c = cos(nu pi/2), s = sin(nu pi/2),
    as a SeriesResult over one (S1, S2) evaluation.

    It uses the terms of both series, and their path where they agree,
    `PATH_EXTENDED` where one kind certifies asymptotically and the other
    does not.  The tail estimate is |w1| t1 + |w2| t2 over the S tails,
    plus (ulp(nu pi/2) + 2u)(|S1| + |S2|) for c and s (their argument is
    rounded once and times a rounded pi, and the libm result is good to an
    ulp), plus 2u(|w1 S1| + |w2 S2|) for the two products and the sum,
    u = 2^-53.  On the plain series path the S tails carry no rounding
    term, so neither does this estimate there (ROADMAP item 3)."""
    half_turn, c, s, (v1, n1, t1, path1), (v2, n2, t2, path2) = _s_eval((1, 2), nu, x, policy or DEFAULT_POLICY)
    w1, w2 = (s, -c) if weber_row else (c, s)
    a = w1 * v1
    b = w2 * v2
    u = 2.0**-53
    tail = (
        abs(w1) * t1
        + abs(w2) * t2
        + (math.ulp(half_turn) + 2.0 * u) * (abs(v1) + abs(v2))
        + 2.0 * u * (abs(a) + abs(b))
    )
    return SeriesResult(a + b, n1 + n2, tail, path1 if path1 == path2 else PATH_EXTENDED)


def anger(nu, x, policy=None):
    """Anger function: cos(nu pi/2) S1 + sin(nu pi/2) S2, as a SeriesResult
    (see `_s_matrix_row`).

    The matrix angle is the half-pi multiple of the order; that choice is
    the one consistent with the auxiliary series' half-line integrals and
    with the integer-order collapse onto the first cylindrical kind."""
    return _s_matrix_row(False, nu, x, policy)


def weber(nu, x, policy=None):
    """Weber function: sin(nu pi/2) S1 - cos(nu pi/2) S2, as a SeriesResult
    (see `_s_matrix_row`)."""
    return _s_matrix_row(True, nu, x, policy)


# ---------------------------------------------------------------------------
# Spherical Bessel functions.


def sph_j(n, x, policy=None):
    """Spherical Bessel j_n(x) for |n| <= 100.

    Positive orders ride the cylindrical evaluator at order n+1/2 (where
    the asymptotic pair terminates exactly); negative orders use the
    downward trigonometric recurrence, which is stable in that direction.
    Negative x is served by parity, j_n(-x) = (-1)^n j_n(x).
    """
    policy = policy or DEFAULT_POLICY
    if not abs(n) <= 100 or n != int(n):
        raise DomainError(f"sph_j: order must be an integer with |n| <= 100, got {n!r}")
    n = int(n)
    x = float(x)
    if not 0.0 <= x < _INF:
        if not -_INF < x:  # NaN or -inf
            raise DomainError(f"sph_j: requires finite x, got {x!r}")
        inner = sph_j(n, -x, policy)
        sign = 1.0 if n % 2 == 0 else -1.0
        return SeriesResult(sign * inner.value, inner.terms_used, inner.tail_estimate, inner.path)
    if x == 0.0:
        if n == 0:
            return _closed(1.0)
        if n > 0:
            return _closed(0.0)
        raise DomainError("sph_j: x=0 is singular for negative order")
    if n >= 0:
        if x > _EXTENDED_X and x > n + 1.0:
            # oscillatory regime: the upward trigonometric recurrence is
            # stable and exact up to rounding, and beats both the extended
            # series (cancellation floor) and the phase/amplitude pair
            # (which needs x well above n^2/2)
            below = math.sin(x) / x  # j_0
            here = below / x - math.cos(x) / x  # j_1
            if n == 0:
                return _closed(below)
            for m in range(1, n):
                below, here = here, (2 * m + 1) / x * here - below
            return _closed(here)
        res = cyl_j(n + 0.5, x, policy)
        scale = math.sqrt(math.pi / (2.0 * x))
        return SeriesResult(scale * res.value, res.terms_used, scale * res.tail_estimate, res.path)
    # downward recurrence from j_0 = sin x / x and j_{-1} = cos x / x;
    # stable towards negative orders, where the family grows
    above = math.sin(x) / x  # j_{m+1}
    here = math.cos(x) / x  # j_m
    m = -1
    while m > n:
        above, here = here, (2 * m + 1) / x * here - above
        m -= 1
    return _closed(here)


@lru_cache(maxsize=64)
def _rayleigh_tables(n):
    """Coefficient tuples (S, C) of equal length n + 1 over u = 1/x with
    (u d/dx applied n times to sin x / x)
    = u^(n+1) (sin x * sum_i S_i u^i + cos x * sum_i C_i u^i).
    Each application raises the lowest power of u by one, so the
    expansion starts at u^(n+1), which is factored out."""
    S = [0.0, 1.0]
    C = [0.0, 0.0]
    for _ in range(n):
        nS = [0.0] * (len(S) + 2)
        nC = [0.0] * (len(S) + 2)
        for i, c in enumerate(S):
            if c:
                nS[i + 2] += -i * c
                nC[i + 1] += c
        for i, c in enumerate(C):
            if c:
                nC[i + 2] += -i * c
                nS[i + 1] -= c
        S, C = nS, nC
    return tuple(S[n + 1:]), tuple(C[n + 1:])


def rayleigh_jn(n, x):
    """j_n(x) through the symbolically pre-applied derivative operator:
    j_n = (-x)^n (x^{-1} d/dx)^n (sin x / x) = (-1)^n u P(u), u = 1/x, P
    the degree-n polynomial part of `_rayleigh_tables`, so no power of x
    is formed and no large x overflows or underflows it.

    Exact trigonometric closed form; serves as the independent oracle for
    the series evaluator.  Below x ~ 2n its terms cancel like x^(-2n):
    where the worst-case bound on their rounding, (5n + 9) u sum |term|,
    exceeds the default rel_tol times the envelope min(x^n/(2n+1)!!, 1/x)
    of |j_n|, it raises ConvergenceError.  The envelope, unlike |j_n|,
    does not vanish at the zeros of j_n, so points near a zero still
    return."""
    x = float(x)
    # range tests first, so that int() never sees an infinite or NaN order
    if not (0 <= n <= 30 and 0.0 < x < _INF) or n != int(n):
        raise DomainError(f"rayleigh_jn: requires an integer n in [0, 30] and finite x > 0, got {(n, x)!r}")
    n = int(n)
    S, C = _rayleigh_tables(n)
    u = 1.0 / x
    spart = smag = 0.0
    for c in reversed(S):
        spart = spart * u + c
        smag = smag * u + abs(c)
    cpart = cmag = 0.0
    for c in reversed(C):
        cpart = cpart * u + c
        cmag = cmag * u + abs(c)
    sin_x, cos_x = math.sin(x), math.cos(x)
    try:
        envelope = min(u ** (-n) / math.prod(range(1, 2 * n + 2, 2)), u)
    except OverflowError:  # x^n overflows only where the minimum is u
        envelope = u
    # worst-case roundings per term: 2 per Horner step, up to n from
    # carrying the rounded 1/x into its powers, and a few for the products
    # and libm calls that follow, about 3n + 6.  The larger 5n + 9 keeps
    # the check raising exactly where a degree 2n + 1 form in 1/x would
    # (the same raise or return at 200,000 random points, n <= 30,
    # x in [1e-3, 316])
    unit = (5 * n + 9) * 2.0**-53
    # written so that a nan bound (0 * inf at tiny x) raises too
    if not unit * u * (smag * abs(sin_x) + cmag * abs(cos_x)) <= DEFAULT_POLICY.rel_tol * envelope:
        raise ConvergenceError(f"rayleigh_jn: the closed form cancels at n={n}, x={x!r}")
    sign = 1.0 if n % 2 == 0 else -1.0
    return sign * u * (spart * sin_x + cpart * cos_x)


def sph_j_deriv(n, x, policy=None):
    """n-th derivative of j_0 via the closed finite sum
    n! sum_k (-1)^(n+k) (2x)^(-k) / (k!(n-2k)!) j_{n-k}(x)."""
    policy = policy or DEFAULT_POLICY
    x = float(x)
    if not (0 <= n <= 30 and 0.0 < x < _INF) or n != int(n):
        raise DomainError(f"sph_j_deriv: requires an integer n in [0, 30] and finite x > 0, got {(n, x)!r}")
    n = int(n)
    table = hermite2_coeffs(n).coefficients
    total = 0.0
    for k, c in enumerate(table):
        sign = -1.0 if (n + k) % 2 else 1.0
        total += sign * c * (2.0 * x) ** (-k) * sph_j(n - k, x, policy).value
    return total


def sinc_sqrt(u):
    """sin(sqrt(u))/sqrt(u) continued evenly through u <= 0
    (sinh branch for negative arguments, 1 at zero)."""
    if abs(u) < 1e-6:
        # series in u; three terms reach ~1e-40 here
        return 1.0 - u / 6.0 + u * u / 120.0
    if u > 0.0:
        r = math.sqrt(u)
        return math.sin(r) / r
    r = math.sqrt(-u)
    return math.sinh(r) / r
