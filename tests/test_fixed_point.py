"""The exact fixed-point ratio-series kernel of the extended-precision path.

`_sum_ratio_series_fixed` sums the series of its binary64 inputs exactly
in integers, up to its floor divisions, and rounds once: its value is
checked against the same series summed at 60 digits from the same
binary64 inputs.  The routed results it serves are checked against
40-digit mpmath.
"""

import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sphstruve.errors import ConvergenceError
from sphstruve.functions import (
    PATH_EXTENDED,
    EvalPolicy,
    _ratio_tables,
    _sum_ratio_series,
    _sum_ratio_series_fixed,
    cyl_j,
    struve_h,
)

U = 2.0**-53


def _sum_at_60_digits(mp, t0, w, nums, dens, k0, n):
    """(sum, sum of |term|) of the first n terms of the kernel's series at
    60 digits, from the exact binary64 inputs."""
    with mp.workdps(60):
        t, z = mp.mpf(t0), -mp.mpf(w) ** 2
        s = mag = mp.mpf(0)
        for k in range(k0, k0 + n):
            s += t
            mag += abs(t)
            r = z
            for a in nums:
                r *= k + mp.mpf(a)
            for b in dens:
                r /= k + mp.mpf(b)
            t *= r
        return s, mag


@st.composite
def series(draw):
    """(t0, w, nums, dens, k0) of a series that converges within 500 terms:
    one to five denominator offsets, fewer numerator ones, at most three."""
    nd = draw(st.integers(1, 5))
    nn = draw(st.integers(0, min(3, nd - 1)))
    offset = st.floats(0.25, 40.0)
    dens = tuple(draw(st.lists(offset, min_size=nd, max_size=nd)))
    nums = tuple(draw(st.lists(st.floats(0.25, 20.0), min_size=nn, max_size=nn)))
    t0 = draw(st.floats(1e-5, 1e5)) * draw(st.sampled_from((1.0, -1.0)))
    return t0, draw(st.floats(0.5, 8.0)), nums, dens, draw(st.integers(0, 3))


@given(series())
@settings(max_examples=120, deadline=None)
def test_value_is_the_rounded_exact_sum(case):
    # within half an ulp plus the floor-division term of the exact sum of
    # the same n terms; 60 digits leave ~1e-50 of sum|term| of slack
    mp = pytest.importorskip("mpmath")
    t0, w, nums, dens, k0 = case
    v, n, tail, floor_err, mag = _sum_ratio_series_fixed(t0, w, nums, dens, EvalPolicy(), k0)
    want, want_mag = _sum_at_60_digits(mp, t0, w, nums, dens, k0, n)
    with mp.workdps(60):
        err = abs(mp.mpf(v) - want)
        assert err <= 0.5 * math.ulp(v) + floor_err + 1e-50 * want_mag, (case, v, float(err), floor_err)
        assert abs(mp.mpf(mag) - want_mag) <= 1e-12 * want_mag
    assert floor_err <= U * mag
    assert tail >= 0.0


def _tables_by_values(w, num_offsets, den_offsets, k0):
    """The kernel's two difference tables built the direct way: the scale
    fixed first, each polynomial evaluated at one point more than its
    degree, then differenced until one entry is left."""
    pw, qw = w.as_integer_ratio()
    nums = [a.as_integer_ratio() for a in num_offsets]
    dens = [a.as_integer_ratio() for a in den_offsets]
    shift = sum(q.bit_length() - 1 for _, q in dens) - sum(q.bit_length() - 1 for _, q in nums)
    shift -= 2 * qw.bit_length() - 2

    def table(c, offsets, size):
        values = []
        for k in range(k0, k0 + len(offsets) + 1):
            v = c
            for p, q in offsets:
                v *= q * k + p
            values.append(v)
        out = []
        while values:
            out.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        return out + [0] * (size - len(out))

    return table(-pw * pw << max(shift, 0), nums, 4), table(1 << max(-shift, 0), dens, 6)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(
    st.floats(1e-6, 1e6),
    st.lists(_finite, min_size=0, max_size=3),
    st.lists(_finite, min_size=1, max_size=5),
    st.integers(0, 1000),
)
@example(59.9 / 2.0, [], [1.0, 31.7], 0)
@example(0.75, [0.5], [1.0, 1.5, 2.25], 3)
@settings(max_examples=300, deadline=None)
def test_difference_tables_equal_the_construction_by_values(w, nums, dens, k0):
    # exact integers: the in-place Leibniz build must give the same ones
    assert _ratio_tables(w, tuple(nums), tuple(dens), k0) == _tables_by_values(w, nums, dens, k0)


def test_cancellation_heavy_sum():
    # exp(-w^2), w^2 within an ulp of 20, by its alternating series: the
    # binary64 kernel loses ~17 digits here, the exact kernel none
    w = math.sqrt(20.0)
    policy = EvalPolicy(rel_tol=1e-20)
    with localcontext() as ctx:
        ctx.prec = 50
        want = (-(Decimal(w) ** 2)).exp()
        got, _, _, floor_err, mag = _sum_ratio_series_fixed(1.0, w, (), (1.0,), policy)
        assert abs(Decimal(got) - want) <= abs(want) * Decimal("1e-15")
        # the sum of |term| is e^(w^2), and the floor divisions cost
        # far less than an ulp of the value
        assert abs(Decimal(mag) - (Decimal(w) ** 2).exp()) <= Decimal(mag) * Decimal("1e-14")
        assert floor_err <= 1e-10 * U * got
        plain, _, _ = _sum_ratio_series(1.0, -(w * w), (), (1.0,), policy)
        assert abs(Decimal(plain) - want) > abs(want) * Decimal("1e-15")


def test_shapes_outside_the_kernel_raise():
    with pytest.raises(ValueError):
        _sum_ratio_series_fixed(1.0, 2.0, (), (), EvalPolicy())
    with pytest.raises(ValueError):
        _sum_ratio_series_fixed(1.0, 2.0, (1.0,) * 4, (1.0,) * 5, EvalPolicy())
    assert _sum_ratio_series_fixed(0.0, 2.0, (), (1.0,), EvalPolicy())[0] == 0.0


@given(st.floats(10.0, 60.0), st.floats(25.0, 60.0, exclude_min=True))
@example(30.7, 55.0)
@example(30.7, 59.9)
@settings(max_examples=60, deadline=None)
def test_extended_cyl_j_within_its_estimate(nu, x):
    # the points where the double-double kernel was 3.1e-12 and 1.4e-14
    # off, against 40-digit mpmath; away from the zeros of J, where the
    # offsets' rounding keeps its size while the value vanishes, the
    # estimate is also within 1e3 of the error
    mp = pytest.importorskip("mpmath")
    try:
        r = cyl_j(nu, x)
    except ConvergenceError:
        assume(False)
    assume(r.path == PATH_EXTENDED)
    with mp.workdps(40):
        err = float(abs(mp.mpf(r.value) - mp.besselj(nu, x)))
    assert err <= r.tail_estimate, (nu, x, err, r)
    if abs(r.value) >= 0.1 * math.sqrt(2.0 / (math.pi * x)):
        assert r.tail_estimate <= 1e3 * max(err, U * abs(r.value)), (nu, x, err, r)


def test_extended_band_scan_within_the_estimate():
    # the parent double-double kernel missed 7 of the 1,856 extended
    # cyl_j points here and 1 of the 925 struve_h ones
    mp = pytest.importorskip("mpmath")
    rng = random.Random(11)
    points = [(rng.uniform(0.0, 60.0), rng.uniform(25.0, 60.0)) for _ in range(2500)]
    counts = {}
    with mp.workdps(40):
        for f, oracle in ((cyl_j, mp.besselj), (struve_h, mp.struveh)):
            for nu, x in points:
                if x == 25.0:
                    continue
                try:
                    r = f(nu, x)
                except ConvergenceError:
                    continue
                if r.path != PATH_EXTENDED:
                    continue
                counts[f.__name__] = counts.get(f.__name__, 0) + 1
                err = abs(mp.mpf(r.value) - oracle(nu, x))
                assert err <= r.tail_estimate, (f.__name__, nu, x, float(err), r)
    assert counts == {"cyl_j": 1856, "struve_h": 925}


class TestTermwiseTransform:
    """`_termwise_ratio_series` as a derivative: x^n d^n/dx^n of j_0, J_nu
    and H_alpha, term by term on their ascending series, against 40-digit
    mpmath; each error must lie within the returned bound.  As an integral
    it gives the heads' pinned value and bound bits."""

    @staticmethod
    def _series(family, order, x):
        """(terms, p, mpmath function): term k of the series is
        proportional to x^(2k+p)."""
        from sphstruve.functions import _cyl_j_terms, _struve_terms
        from sphstruve.identities import _sph_j_terms

        if family == "j0":
            return _sph_j_terms(0, x), 0, lambda mp, t: mp.sin(t) / t
        if family == "J":
            return _cyl_j_terms(order, x), order, lambda mp, t: mp.besselj(order, t)
        return _struve_terms(order, x), order + 1.0, lambda mp, t: mp.struveh(order, t)

    @pytest.mark.parametrize("family,order,orders", [
        ("j0", 0.0, (1, 2, 3)), ("J", 0.5, (1, 2)), ("J", 1.7, (1, 2)), ("J", 2.3, (1, 2)),
        ("H", 0.0, (1, 2)), ("H", 0.5, (1, 2)), ("H", 1.7, (1, 2)),
    ])
    def test_derivatives_within_their_bound(self, family, order, orders):
        from sphstruve.functions import DEFAULT_POLICY, _termwise_ratio_series

        mp = pytest.importorskip("mpmath")
        rng = random.Random(5)
        for x in [0.1, 10.0] + [rng.uniform(0.1, 10.0) for _ in range(20)]:
            terms, p, f = self._series(family, order, x)
            for n in orders:
                falling = tuple(p - i for i in range(n))  # x^n d^n/dx^n
                value, bound = _termwise_ratio_series(*terms, x / 2.0, DEFAULT_POLICY, times=falling)
                with mp.workdps(40):
                    want = mp.mpf(x) ** n * mp.diff(lambda t: f(mp, t), x, n)
                    err = float(abs(mp.mpf(value) - want))
                assert err <= bound, (family, order, n, x, err, bound)
                assert bound <= 1e-11 * max(abs(value), 1e-3), (family, order, n, x, bound)

    def test_heads_keep_their_bits(self):
        from sphstruve import identities
        from sphstruve.functions import DEFAULT_POLICY

        heads = {
            "0x1.921fb54442cabp+1 0x1.cf5ae1b795eb6p-44": identities._j_line_integral(0, DEFAULT_POLICY),
            "0x1.cf9286ea1d337p-1 0x1.03092e197c523p-47": identities._j_product_integral(1.0, 2.0, DEFAULT_POLICY),
        }
        for bits, (value, bound) in heads.items():
            assert f"{value.hex()} {bound.hex()}" == bits

    @pytest.mark.parametrize("shape", ["I04", (0.5, 0.5), (1.0, 2.0)])
    def test_shared_offsets_cancel_bit_for_bit(self, shape, monkeypatch):
        # an offset on both sides of the ratio is a factor (qk + p) of both
        # integer polynomials, so the kernel run on every offset the
        # transform adds gives the same value and bound bits: I04's
        # x^3 d^3/dx^3 on j_0's series, and I19's product series
        from sphstruve import functions
        from sphstruve.gammakit import rgamma
        from sphstruve.identities import _PRODUCT_SPLIT, _sph_j_terms

        policy = functions.DEFAULT_POLICY
        if shape == "I04":
            x, times, over, num_offsets = 3.0, (0, -1, -2), (), ()
            t0, den_offsets, _ = _sph_j_terms(0, x)
            args, kw = (t0, den_offsets, 0, x / 2.0, policy), {"times": times}
        else:
            (mu, nu), T = shape, _PRODUCT_SPLIT
            times, over, num_offsets = (), (1.0,), (0.5 * (mu + nu + 1.0), 0.5 * (mu + nu + 2.0))
            den_offsets = (1.0, mu + 1.0, nu + 1.0, mu + nu + 1.0)
            args = (rgamma(mu + 1.0) * rgamma(nu + 1.0), den_offsets, 0, T, policy)
            kw = {"over": over, "scale": T, "num_offsets": num_offsets}
        nums = [*num_offsets, *(0.5 * c + 1.0 for c in times), *(0.5 * c for c in over)]
        dens = [*den_offsets, *(0.5 * c for c in times), *(0.5 * c + 1.0 for c in over)]
        kernel, shapes = functions._sum_ratio_series_fixed, []

        def uncancelled(t0, w, num_offsets, den_offsets, policy, k0):
            shapes.append((len(num_offsets), len(den_offsets)))
            return kernel(t0, w, nums, dens, policy, k0)

        value, bound = functions._termwise_ratio_series(*args, **kw)
        monkeypatch.setattr(functions, "_sum_ratio_series_fixed", uncancelled)
        want, want_bound = functions._termwise_ratio_series(*args, **kw)
        assert (value.hex(), bound.hex()) == (want.hex(), want_bound.hex())
        # the cancelled kernel ran on fewer offsets on both sides
        (nn, nd), = shapes
        assert nn < len(nums) and nd < len(dens)
