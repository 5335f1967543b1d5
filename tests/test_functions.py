import math
import random

import pytest

from sphstruve import functions
from sphstruve.errors import ConvergenceError, DomainError
from sphstruve.functions import (
    DEFAULT_POLICY,
    PATH_ASYMPTOTIC,
    PATH_EXTENDED,
    PATH_SERIES,
    EvalPolicy,
    anger,
    bessel_j_asym,
    bessel_y_asym,
    cyl_j,
    delta_fn,
    humbert2,
    humbert3,
    hyp1f2,
    mod_i0,
    rayleigh_jn,
    s1,
    s2,
    sinc_sqrt,
    sph_j,
    sph_j_deriv,
    struve_h,
    struve_algebraic,
    watson_parity,
    watson_parity_coeffs,
    weber,
    _ASYM_FLOOR,
    _CROSSOVER_X,
    _EXTENDED_X,
    _sum_ratio_series_fixed,
    _cyl_j_terms,
    _humbert_terms,
    _jy_asym,
    _rayleigh_tables,
    _s_terms,
    _struve_terms,
    _sum_ratio_series,
    hankel_amplitude_coeffs,
    hankel_pq,
)
from sphstruve.gammakit import SQRT_PI, _is_nonpositive_integer, gamma, rgamma
from sphstruve.quadrature import integrate_finite


@pytest.fixture
def forced_asym(monkeypatch):
    """Crossovers moved to 0.4 and 0.5 for consistency checks: past
    x = 0.5 the evaluators take the asymptotic value wherever it meets
    `_ASYM_FLOOR`.  The fixed-point series is reached through `_extended`,
    since inside the band the evaluators take the asymptotic value
    wherever it meets rel_tol."""
    monkeypatch.setattr(functions, "_CROSSOVER_X", 0.4)
    monkeypatch.setattr(functions, "_EXTENDED_X", 0.5)


def _extended(terms, x, policy):
    """The fixed-point value of the ascending series in -(x/2)^2 whose
    (t0, den_offsets, k0) are `terms`, as `_route` sums it."""
    t0, dens, k0 = terms
    return _sum_ratio_series_fixed(t0, x / 2.0, (), dens, policy, k0)[0]


class TestSphericalBessel:
    def test_origin_limits(self):
        assert sph_j(0, 0.0).value == 1.0
        assert sph_j(3, 0.0).value == 0.0

    def test_zero_of_sine(self):
        assert abs(sph_j(0, math.pi).value) < 1e-14

    def test_order_two(self):
        assert sph_j(2, 1.0).value == pytest.approx(0.06203505201137386, rel=1e-12)

    def test_negative_order_closed_forms(self):
        x = 1.0
        assert sph_j(-1, x).value == pytest.approx(math.cos(x) / x, rel=1e-14)
        assert sph_j(-2, x).value == pytest.approx(-math.cos(x) / x**2 - math.sin(x) / x, rel=1e-13)

    def test_negative_order_at_zero_is_singular(self):
        with pytest.raises(DomainError):
            sph_j(-1, 0.0)

    def test_order_limit(self):
        with pytest.raises(DomainError):
            sph_j(101, 1.0)

    def test_parity_is_bitwise(self):
        for n in (0, 1, 2, 5):
            for x in (0.3, 2.0, 11.0):
                sign = 1.0 if n % 2 == 0 else -1.0
                assert sph_j(n, -x).value == sign * sph_j(n, x).value

    def test_matches_rayleigh_oracle(self):
        # complementary conditioning: the trigonometric form cancels badly
        # for x below ~2n, the series carries a floor of about
        # eps * exp(x)/(2 pi x); compare where both are healthy
        for n in range(0, 12):
            for x in (0.25, 1.0, 3.0, 9.0, 20.0):
                if x < max(2.0, 2.0 * n):
                    continue
                floor = 5e-16 * math.exp(x) / (2.0 * math.pi * x)
                assert sph_j(n, x).value == pytest.approx(
                    rayleigh_jn(n, x), rel=1e-11, abs=1e-13 + floor
                )

    def test_small_argument_against_double_factorial_series(self):
        # j_n(x) = x^n sum_k (-1)^k (x^2/2)^k / (k! (2n+2k+1)!!)
        def reference(n, x):
            total = 0.0
            for k in range(12):
                df = 1
                for m in range(2 * n + 2 * k + 1, 0, -2):
                    df *= m
                total += (-1.0) ** k * (x * x / 2.0) ** k / (math.factorial(k) * df)
            return x**n * total

        for n in (0, 1, 4, 8, 11):
            for x in (0.05, 0.25, 1.0):
                assert sph_j(n, x).value == pytest.approx(reference(n, x), rel=1e-12)


class TestRayleigh:
    def test_base_case(self):
        assert rayleigh_jn(0, 1.0) == pytest.approx(0.8414709848078965, rel=1e-15)

    def test_first_order(self):
        assert rayleigh_jn(1, 1.0) == pytest.approx(0.3011686789397568, rel=1e-13)

    def test_second_order(self):
        assert rayleigh_jn(2, 1.0) == pytest.approx(0.06203505201137386, rel=1e-12)

    @pytest.mark.parametrize("n,x", [(6, 0.125), (6, 1.0), (4, 0.5), (6, 1e-60)])
    def test_cancelling_points_raise(self, n, x):
        # the closed form cancels like x^(-2n) below x ~ 2n: at (6, 0.125)
        # it gave 4.77e-7 for j_6 = 2.82e-11, at (6, 1) and (4, 0.5) it was
        # 8.8e-8 and 7.0e-10 off in relative terms; at 1e-60 its rounding
        # prediction is 0 * inf
        with pytest.raises(ConvergenceError):
            rayleigh_jn(n, x)

    @pytest.mark.parametrize("n,x_fail,x_pass", [(3, 1.35, 1.36), (6, 4.2, 4.22)])
    def test_rounding_bound_threshold(self, n, x_fail, x_pass):
        # either side of where the rounding bound meets rel_tol times the
        # envelope: below it raises, just above it returns a value that
        # is within that tolerance of the 40-digit reference
        mp = pytest.importorskip("mpmath")
        with pytest.raises(ConvergenceError):
            rayleigh_jn(n, x_fail)
        envelope = min(x_pass**n / math.prod(range(1, 2 * n + 2, 2)), 1.0 / x_pass)
        with mp.workdps(40):
            want = mp.sqrt(mp.pi / (2 * x_pass)) * mp.besselj(n + 0.5, x_pass)
            assert abs(rayleigh_jn(n, x_pass) - want) <= 1e-12 * envelope

    def test_points_near_zeros_return(self):
        # the rounding is measured against the envelope, not |j_n|, so
        # a point next to a zero of j_n still returns, and is accurate
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n, k in ((0, 1), (0, 7), (3, 1), (3, 4), (6, 2)):
                x = float(mp.besseljzero(n + 0.5, k)) * (1.0 + 1e-12)
                want = mp.sqrt(mp.pi / (2 * x)) * mp.besselj(n + 0.5, x)
                assert abs(rayleigh_jn(n, x) - want) <= 1e-15 / x, (n, x)

    @pytest.mark.parametrize("n,x", [(3, 1e300), (4, 1e80), (6, 1e60), (2, 1e150), (1, 1e200), (30, 1e300)])
    def test_large_finite_arguments(self, n, x):
        # no power of x is formed: x^n overflows at the first three points,
        # and u^(n+1) underflows to a zero value at the next two
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(n + 0.5, x)
            got = rayleigh_jn(n, x)
            assert got != 0.0 and abs(got - want) <= 1e-14 * abs(want), (n, x, got)
        assert got == pytest.approx(sph_j(n, x).value, rel=1e-13)

    def test_tables_start_past_the_factored_power(self):
        # (x^-1 d/dx)^n (sin x / x) starts at u^(n+1): its tables hold the
        # n + 1 coefficients from there on, e.g. j_2 = (-1)^2 u ((3u^2 - 1)
        # sin x - 3u cos x)
        assert _rayleigh_tables(0) == ((1.0,), (0.0,))
        assert _rayleigh_tables(2) == ((-1.0, 0.0, 3.0), (0.0, -3.0, 0.0))
        for n in range(31):
            S, C = _rayleigh_tables(n)
            assert len(S) == len(C) == n + 1

    def test_domain(self):
        with pytest.raises(DomainError):
            rayleigh_jn(2, 0.0)
        with pytest.raises(DomainError):
            rayleigh_jn(31, 1.0)


class TestCylindrical:
    def test_origin(self):
        assert cyl_j(0.0, 0.0).value == 1.0
        assert cyl_j(1.5, 0.0).value == 0.0

    def test_half_order_closed_form(self):
        assert cyl_j(0.5, 2.0).value == pytest.approx(0.5130161365618278, rel=1e-13)

    def test_series_value(self):
        assert cyl_j(2.0, 1.0).value == pytest.approx(0.11490348493190047, rel=1e-13)

    def test_negative_integer_reflection(self):
        for n, x in ((1, 2.0), (2, 5.0), (3, 1.3)):
            sign = -1.0 if n % 2 else 1.0
            assert cyl_j(-n, x).value == pytest.approx(sign * cyl_j(n, x).value, rel=1e-14)

    def test_order_floor(self):
        with pytest.raises(DomainError):
            cyl_j(-51.0, 1.0)

    def test_negative_x(self):
        with pytest.raises(DomainError):
            cyl_j(0.5, -1.0)

    def test_shift_relations_against_mpmath(self):
        # (nu/x -/+ d/dx) applied to the first kind shifts the order; the
        # derivative is 40-digit mpmath's
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in range(0, 6):
                nu = n + 0.5
                for x in (0.5, 1.0, 2.0, 5.0):
                    f = cyl_j(nu, x).value
                    d = float(mp.besselj(nu, x, derivative=1))
                    up = nu / x * f - d
                    dn = nu / x * f + d
                    assert up == pytest.approx(cyl_j(nu + 1.0, x).value, abs=1e-13)
                    assert dn == pytest.approx(cyl_j(nu - 1.0, x).value, abs=1e-13)


class TestModI0:
    def test_values(self):
        assert mod_i0(0.0) == 1.0
        assert mod_i0(1.0) == pytest.approx(1.2660658777520084, rel=1e-13)

    def test_even_bitwise(self):
        assert mod_i0(-2.7) == mod_i0(2.7)

    def test_range_guard(self):
        with pytest.raises(OverflowError):
            mod_i0(301.0)


class TestStruve:
    def test_zero_argument(self):
        assert struve_h(0.7, 0.0).value == 0.0
        assert struve_h(-1.0, 0.0).value == pytest.approx(2.0 / math.pi, rel=1e-15)
        with pytest.raises(DomainError):
            struve_h(-1.2, 0.0)
        # next to 0 an order below -1.5 overflows (H = -4.8e311), which
        # raises rather than read as 0.0
        with pytest.raises(OverflowError):
            struve_h(-2.3, 1e-240)
        assert struve_h(-1.7, 1e-300).value == pytest.approx(-3.148961658224803e209, rel=1e-13)

    def test_half_order_closed_form(self):
        x = math.pi
        want = math.sqrt(2.0 / (math.pi * x)) * (1.0 - math.cos(x))
        assert struve_h(0.5, x).value == pytest.approx(want, rel=1e-12)
        assert struve_h(0.5, x).value == pytest.approx(0.9003163161571061, rel=1e-12)

    def test_small_series_value(self):
        assert struve_h(0.0, 0.1).value == pytest.approx(0.06359126999493356, rel=1e-13)

    def test_negative_half_integer_collapses_to_first_kind(self):
        # order -(m+1/2) reduces to (-1)^m J_{m+1/2}
        for m, x in ((0, 1.0), (0, 6.0), (1, 2.5)):
            a = struve_h(-(m + 0.5), x).value
            b = (-1.0) ** m * cyl_j(m + 0.5, x).value
            assert a == pytest.approx(b, rel=1e-11)

    def test_recursion(self):
        for alpha in (0.5, 1.0, 1.7):
            for x in (0.5, 1.0, 3.0, 10.0):
                lhs = struve_h(alpha + 1.0, x).value + struve_h(alpha - 1.0, x).value
                rhs = 2.0 * alpha / x * struve_h(alpha, x).value + (
                    (x / 2.0) ** alpha * rgamma(alpha + 1.5) / SQRT_PI
                )
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @staticmethod
    def _mp_derivatives(mp, alpha, x):
        """H_alpha' and H_alpha'' at 40 digits."""
        with mp.workdps(40):
            return [float(mp.diff(lambda t: mp.struveh(alpha, t), x, n)) for n in (1, 2)]

    def test_differentiation_formula(self):
        mp = pytest.importorskip("mpmath")
        for alpha in (0.5, 1.0, 1.7):
            for x in (0.8, 2.0, 5.0):
                d, _ = self._mp_derivatives(mp, alpha, x)
                rhs = 0.5 * (
                    struve_h(alpha - 1.0, x).value
                    - struve_h(alpha + 1.0, x).value
                    + (x / 2.0) ** alpha * rgamma(alpha + 1.5) / SQRT_PI
                )
                assert d == pytest.approx(rhs, abs=1e-12)

    def test_nonhomogeneous_ode(self):
        mp = pytest.importorskip("mpmath")
        for alpha in (0.5, 1.0, 1.7):
            for x in (0.8, 2.0, 5.0):
                d1, d2 = self._mp_derivatives(mp, alpha, x)
                lhs = x * x * d2 + x * d1 + (x * x - alpha * alpha) * struve_h(alpha, x).value
                rhs = 4.0 * (x / 2.0) ** (alpha + 1.0) * rgamma(alpha + 0.5) / SQRT_PI
                assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), abs(x * x * d2))

    def test_large_orders_do_not_overflow(self):
        # alpha in [50.3, 200.3], x in [25.5, 300.5]: (x/2)**(alpha - 1)
        # alone can exceed binary64, and 1/Gamma past 171.6 underflows to
        # 0.  Each point comes back within its tail of 40-digit mpmath, or
        # raises ConvergenceError/DomainError; none raises OverflowError
        mp = pytest.importorskip("mpmath")
        values = 0
        with mp.workdps(40):
            for alpha in (50.3 + 5.0 * i for i in range(31)):
                for x in (25.5 + 12.5 * j for j in range(23)):
                    try:
                        r = struve_h(alpha, x)
                    except (ConvergenceError, DomainError):
                        continue
                    values += 1
                    assert abs(mp.mpf(r.value) - mp.struveh(alpha, x)) <= r.tail_estimate, (alpha, x, r)
        assert values >= 600

    def test_algebraic_part_where_the_power_overflows(self):
        # (150.15)**149.3 overflows; the sum is H - Y, within its floor
        mp = pytest.importorskip("mpmath")
        alpha, x = 150.3, 300.3
        v, floor = struve_algebraic(alpha, x)
        with mp.workdps(40):
            want = mp.struveh(alpha, x) - mp.bessely(alpha, x)
            assert abs(mp.mpf(v) - want) <= floor + 4.0 * 2.0**-53 * abs(v)


class TestHumbert:
    def test_two_index_at_zero(self):
        assert humbert2(0.3, 0.7, 0.0).value == pytest.approx(
            rgamma(1.3) * rgamma(1.7), rel=1e-14
        )

    def test_two_index_unit(self):
        assert humbert2(0.0, 0.0, 1.0).value == pytest.approx(0.12044213230101765, rel=1e-13)

    def test_negative_integer_kills_head(self):
        got = humbert2(-1.0, 0.0, 1.0)
        want = sum(
            (-1.0) ** k / (math.factorial(k) * math.factorial(k - 1) * math.factorial(k))
            for k in range(1, 30)
        )
        assert got.value == pytest.approx(want, rel=1e-13)

    def test_three_index(self):
        assert humbert3(0.0, 0.0, 0.0, 0.0).value == 1.0
        assert humbert3(0.0, 0.0, 0.0, 1.0).value == pytest.approx(
            0.061731404324707195, rel=1e-13
        )
        assert humbert3(1.0, 1.0, 2.0, 0.0).value == pytest.approx(0.5, rel=1e-14)


def _humbert_by_loop(indices, z, policy):
    """The multi-index series summed term by term with no prepared state,
    in the operation order the prepared family must keep."""
    gamma_args = (1.0,) + tuple(i + 1.0 for i in indices)
    k0 = max([int(1.0 - g) for g in gamma_args if _is_nonpositive_integer(g)], default=0)
    term = (-z) ** k0 if k0 else 1.0
    for g in gamma_args:
        term *= rgamma(k0 + g)
    total = comp = 0.0
    small = 0
    k = k0
    for _ in range(policy.max_terms):
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        den = 1.0
        for g in gamma_args:
            den *= k + g
        term = term * -z / den
        k += 1
        if abs(term) <= max(policy.rel_tol * abs(total), policy.abs_tol):
            small += 1
            if small >= 2:
                return total, k - k0, abs(term)
        else:
            small = 0
    raise AssertionError("reference loop did not converge")


def _bits(result):
    value, terms, tail = result
    return value.hex(), terms, tail.hex()


def _humbert_summed(indices, z, policy, dens=None):
    """The multi-index series of `_humbert_terms` summed by the kernel."""
    t0, den_offsets, k0 = _humbert_terms(indices, z)
    return _sum_ratio_series(t0, -z, (), den_offsets, policy, k0, dens)


class TestHumbertFamily:
    # long and short series interleave, so a shared denominator table is
    # read past its end, read partly, and extended in every order
    ZS = (30.0, 0.0, 0.5, 12.0, 1e-3, 45.0, 2.0, 0.0, 7.5)
    INDICES = [
        (0.5, 1.5),
        (-3.0, 0.0),  # kill start k0 = 3
        (-1.5, -0.25),
        (0.0, -2.0, 0.5),
        (-0.5, 1.0, -1.0),
    ]

    @pytest.mark.parametrize("indices", INDICES)
    def test_matches_pointwise_bitwise(self, indices):
        # one denominator table across every z, as the Laguerre integrands
        # share it across nodes
        dens = []
        pointwise = humbert2 if len(indices) == 2 else humbert3
        for z in self.ZS:
            got = _humbert_summed(indices, z, DEFAULT_POLICY, dens)
            assert _bits(got) == _bits(_humbert_by_loop(indices, z, DEFAULT_POLICY)), z
            res = pointwise(*indices, z)
            assert _bits(got) == _bits((res.value, res.terms_used, res.tail_estimate)), z

    @pytest.mark.parametrize("indices", INDICES + [(-7.0, 2.5), (1.0, -4.0, -2.0)])
    def test_pointwise_is_the_kernel_on_the_helpers_terms(self, indices):
        # humbert2/humbert3 are one kernel call on the helper's terms: the
        # same (value, terms_used, tail_estimate), on the series path, and
        # at a negative integer index the kill start k0 > 0
        pointwise = humbert2 if len(indices) == 2 else humbert3
        k0 = _humbert_terms(indices, 1.0)[2]
        assert (k0 > 0) == any(i < 0 and i == int(i) for i in indices)
        for z in self.ZS + (-3.5,):
            v, n, tail = _humbert_summed(indices, z, DEFAULT_POLICY)
            res = pointwise(*indices, z)
            assert (res.value.hex(), res.terms_used, res.tail_estimate.hex(), res.path) == (
                v.hex(), n, tail.hex(), PATH_SERIES
            ), z
            assert type(res.terms_used) is int

    def test_integer_pairs_are_symmetric_bitwise(self):
        # J_{m,n} = J_{n,m} at integer indices, bit for bit: the
        # denominators are exact integer products, and at most two
        # first-term gammas differ from 1, so both orders give the same bits
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.floats(min_value=0.1, max_value=1.0))
        @settings(max_examples=10, deadline=None)
        def run(x):
            for m in range(-14, 15):
                for n in range(m + 1, 15):
                    a, b = humbert2(float(m), float(n), x), humbert2(float(n), float(m), x)
                    assert _bits((a.value, a.terms_used, a.tail_estimate)) == _bits(
                        (b.value, b.terms_used, b.tail_estimate)
                    ), (m, n, x)

        run()

    def test_max_terms_holds_on_a_grown_table(self):
        dens = []
        _, terms, _ = _sum_ratio_series(1.0, -30.0, (), (1.0, 1.0, 1.0), DEFAULT_POLICY, dens=dens)
        assert len(dens) == terms > 5
        with pytest.raises(ConvergenceError):
            _sum_ratio_series(1.0, -30.0, (), (1.0, 1.0, 1.0), EvalPolicy(max_terms=5), dens=dens)
        short, dens = EvalPolicy(max_terms=5), []
        _humbert_summed((0.0, 0.0), 0.0, short, dens=dens)
        _humbert_summed((0.0, 0.0), 1e-4, short, dens=dens)
        with pytest.raises(ConvergenceError):
            _humbert_summed((0.0, 0.0), 30.0, short, dens=dens)


class TestRatioSeriesKernel:
    # (value, terms_used, tail_estimate) of the catalog's call shapes, as
    # the kernel gave them with an integer k and an unconditional
    # numerator loop; any change in operation order shows here
    @pytest.mark.parametrize(
        "args,kwargs,bits",
        [
            ((0.5, -14.0625, (), (1.0, 2.3)), {}, ("0x1.be7adddab488ap-10", 21, "0x1.7a14fddb5a600p-58")),
            ((1.0, -9.0, (0.5,), (1.0, 1.5, 2.0)), {}, ("0x1.4f7f8e7bd69f4p-2", 16, "0x1.0fd95d2615f7ep-47")),
            ((1.0, -300.0, (), (1.0, 1.0, 1.5, 3.0)), {}, ("-0x1.04edf3f167de6p+5", 15, "0x1.2246370de7adep-47")),
            ((-0.1875, -6.25, (), (1.5, -2.0)), {"k0": 3}, ("-0x1.288614c45e884p-5", 15, "0x1.e14131a0c05aap-55")),
            ((0.25, 3.5, (), (2.5,)), {}, ("0x1.8f5685615b87ep+0", 24, "0x1.b243c28debfe4p-45")),
        ],
        ids=["0-2", "1-3", "0-4", "0-2-k0", "0-1"],
    )
    def test_pinned_bits(self, args, kwargs, bits):
        got = _sum_ratio_series(*args, DEFAULT_POLICY, **kwargs)
        assert _bits(got) == bits
        assert type(got[1]) is int

    @pytest.mark.parametrize("nums,dens", [((), ()), ((), (1.0,) * 5), ((0.5, 1.5), (1.0, 2.0))])
    def test_unsupported_shapes_raise(self, nums, dens):
        with pytest.raises(ValueError, match="denominator offsets"):
            _sum_ratio_series(1.0, -1.0, nums, dens, DEFAULT_POLICY)

    @staticmethod
    def _generic(t0, z, num_offsets, den_offsets, policy, k0=0, dens=None):
        # the kernel's earlier loop over any number of offsets, as its oracle
        grow = dens is not None
        known = len(dens) if grow else 0
        rel_tol = policy.rel_tol
        abs_tol = policy.abs_tol
        total = 0.0
        comp = 0.0
        term = t0
        small = 0
        k = float(k0)
        for i in range(policy.max_terms):
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
            num = z
            if num_offsets:
                for a in num_offsets:
                    num *= k + a
            if i < known:
                den = dens[i]
            else:
                den = 1.0
                for a in den_offsets:
                    den *= k + a
                if grow:
                    dens.append(den)
            term = term * num / den
            k += 1.0
            bound = rel_tol * total
            if bound < abs_tol:
                bound = -bound if bound < -abs_tol else abs_tol
            if -bound <= term <= bound:
                small += 1
                if small >= 2:
                    return total, i + 1, abs(term)
            else:
                small = 0
        raise ConvergenceError("oracle did not certify")

    @staticmethod
    def _outcome(fn, *args, **kwargs):
        try:
            return _bits(fn(*args, **kwargs))
        except ConvergenceError:
            return "ConvergenceError"

    @pytest.mark.parametrize("seed", range(6))
    def test_bits_and_table_equal_the_generic_loop(self, seed):
        # random shapes with 1-4 denominator and 0-1 numerator offsets,
        # kill starts k0 > 0, an abs_tol that decides tiny sums, and a
        # max_terms that runs out; each shape is summed at several z
        # through one shared table, which is fresh at the first z and then
        # full (a short series after a long one) or partly filled (a long
        # series after a short one, which extends it)
        rng = random.Random(seed)
        offset = lambda: rng.choice((rng.uniform(-4.0, 6.0), 0.5 * rng.randint(1, 12), float(rng.randint(1, 6))))
        for _ in range(60):
            nums = tuple(offset() for _ in range(rng.randint(0, 1)))
            dens = tuple(offset() for _ in range(rng.randint(1, 4)))
            k0 = rng.choice((0, 0, 1, 3))
            t0 = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-12.0, 2.0)
            policy = EvalPolicy(
                abs_tol=rng.choice((1e-300, 1e-300, 1e-9, 1e-3)),
                max_terms=rng.choice((500, 500, 500, rng.randint(1, 12))),
            )
            table, oracle_table = [], []
            for _ in range(4):
                z = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 2.0)
                want = self._outcome(self._generic, t0, z, nums, dens, policy, k0, oracle_table)
                got = self._outcome(_sum_ratio_series, t0, z, nums, dens, policy, k0, table)
                assert got == want, (nums, dens, k0, t0, z, policy)
                assert [d.hex() for d in table] == [d.hex() for d in oracle_table]
                assert self._outcome(_sum_ratio_series, t0, z, nums, dens, policy, k0) == want

    def test_pinned_bits_with_a_shared_table(self):
        # the second z extends the table, the third reads only part of it
        dens = []
        want = [
            (-3.0, ("0x1.f8e0135f920a3p-3", 10, "0x1.45c173970eeedp-57"), 10),
            (-40.0, ("0x1.2bfe0a5e038ecp-1", 15, "0x1.d68137254bdb4p-50"), 15),
            (-1.0, ("0x1.1f542e6200d21p-1", 8, "0x1.75c495769d55ap-53"), 15),
        ]
        for z, bits, table in want:
            assert _bits(_sum_ratio_series(0.75, z, (), (1.0, 1.5, 2.5), DEFAULT_POLICY, dens=dens)) == bits
            assert len(dens) == table


class TestHypergeometric:
    def test_unit_at_origin(self):
        assert hyp1f2(3.3, 1.1, 0.7, 0.0).value == 1.0

    def test_collapse_to_cylindrical(self):
        assert hyp1f2(1.0, 1.0, 1.0, -0.25).value == pytest.approx(
            0.7651976865579666, rel=1e-13
        )

    def test_terminating_numerator(self):
        # gamma_p = -2 terminates before the denominator pole matters
        got = hyp1f2(-2.0, 1.0, -5.5, 0.3).value
        want = 1.0 + (-2.0) * 0.3 / (1.0 * -5.5) + ((-2.0 * -1.0) * 0.3**2) / (
            (1.0 * 2.0) * (-5.5 * -4.5) * 2.0
        )
        # direct 3-term evaluation
        t0, t1 = 1.0, (-2.0) * 0.3 / (1.0 * -5.5 * 1.0)
        t2 = t1 * (-1.0) * 0.3 / (2.0 * -4.5 * 2.0)
        assert got == pytest.approx(t0 + t1 + t2, rel=1e-14)

    def test_denominator_pole_rejected(self):
        with pytest.raises(DomainError):
            hyp1f2(1.5, -2.0, 1.0, 0.4)

    def test_terminating_before_denominator_pole(self):
        # gamma_p = -1 keeps two terms and divides only by a = -1, b = 1;
        # the pole of a + 1 lies past the last term
        z = 0.37
        assert hyp1f2(-1.0, -1.0, 1.0, z).value == 1.0 + z

    def test_terminating_past_denominator_pole_rejected(self):
        # gamma_p = -3 needs a + 1 = 0 as a denominator
        with pytest.raises(DomainError):
            hyp1f2(-3.0, -1.0, 1.0, 0.5)

    def test_cross_check_delta(self):
        assert delta_fn(0.0, 0.0, 1.0, 1.0) == pytest.approx(0.7651976865579666, rel=1e-13)
        assert delta_fn(0.5, 0.25, 2.0, 0.0) == pytest.approx(
            gamma(2.0) * rgamma(1.5) * rgamma(1.25), rel=1e-14
        )
        assert delta_fn(0.5, 0.5, 2.0, 1.0) == pytest.approx(1.006819063213925, rel=1e-12)

    def test_delta_requires_positive_exponent(self):
        with pytest.raises(DomainError):
            delta_fn(0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, bad):
        # an infinite index has no integer part to kill terms at, and a NaN
        # one would sum max_terms terms before failing to certify
        calls = [
            lambda: hyp1f2(bad, 1.0, 1.0, 0.5),
            lambda: hyp1f2(0.5, bad, 1.0, 0.5),
            lambda: hyp1f2(0.5, 1.0, bad, 0.5),
            lambda: hyp1f2(0.5, 1.0, 1.0, bad),
            lambda: humbert2(bad, 0.0, 1.0),
            lambda: humbert2(0.0, bad, 1.0),
            lambda: humbert2(0.0, 0.0, bad),
            lambda: humbert3(0.0, 0.5, bad, 1.0),
            lambda: delta_fn(bad, 0.0, 1.0, 1.0),
            lambda: delta_fn(0.0, bad, 1.0, 1.0),
            lambda: delta_fn(0.0, 0.0, bad, 1.0),
            lambda: delta_fn(0.0, 0.0, 1.0, bad),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="must be finite"):
                call()


class TestAuxiliarySeries:
    def test_s1_reduces_to_cylindrical(self):
        for x in (0.5, 1.0, 4.0):
            assert s1(0.0, x).value == pytest.approx(cyl_j(0.0, x).value, rel=1e-13)

    def test_s2_reduces_to_struve(self):
        for x in (0.1, 1.0, 4.0):
            assert s2(0.0, x).value == pytest.approx(struve_h(0.0, x).value, rel=1e-13)

    def test_s1_at_origin(self):
        assert s1(1.0, 0.0).value == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_order_guard(self):
        with pytest.raises(DomainError):
            s1(21.0, 1.0)

    def test_anger_matches_integer_cylindrical(self):
        for n in (0, 1, 2, 3):
            for x in (0.1, 1.0, 7.0, 20.0):
                assert anger(float(n), x).value == pytest.approx(
                    cyl_j(float(n), x).value, abs=1e-10, rel=1e-10
                )

    def test_weber_zero_order(self):
        for x in (0.1, 1.0, 5.0):
            assert weber(0.0, x).value == pytest.approx(-struve_h(0.0, x).value, rel=1e-12)

    def test_anger_at_origin(self):
        assert anger(0.0, 0.0).value == 1.0


class TestAngerWeberPair:
    """`anger` and `weber` read one (S1, S2) evaluation, and each kind keeps
    its own routing decision."""

    # (nu, x, S1 bits, S1 path, S2 bits, S2 path, anger bits, weber bits)
    # of independent s1 and s2 routes, so that the shared evaluation moves
    # no bit: plain, asymptotic, fixed-point series, mixed, beyond _EXTENDED_X,
    # and x = 0
    PINNED = (
        (1.3, 10.0, "-0x1.0835575c5ed6bp-2", "series", "0x1.7fc21205ff7a0p-8", "series",
         "0x1.f529bc9db46aep-4", "-0x1.d160d82ebf056p-3"),
        (1.3, 40.0, "0x1.16504cff79f46p-8", "asymptotic", "0x1.e6e2c1bb47bb4p-4", "asymptotic",
         "0x1.a9ebe198efb1ep-4", "0x1.d91497abf5427p-5"),
        (19.7, 55.0, "0x1.42484cdcc0205p-5", PATH_EXTENDED, "0x1.de45ad71ab1b6p-4", PATH_EXTENDED,
         "-0x1.26366e1655882p-6", "-0x1.f34cda8d86eaap-4"),
        (-9.905675908806586, 26.060032807958606, "-0x1.3460d308bf312p-4", "asymptotic",
         "0x1.ddea1d55d37f0p-4", PATH_EXTENDED, "0x1.d4e5b6bccb024p-5", "0x1.0319d8912477bp-3"),
        (2.5, 100.0, "0x1.70bb826de976bp-6", "asymptotic", "-0x1.4c2d7a115f604p-4", "asymptotic",
         "0x1.53674cf44cc9fp-5", "-0x1.2c1180b373516p-4"),
        (3.0, 0.0, "-0x1.b2995e7b7b603p-3", "closed-form", "0x0.0p+0", "closed-form",
         "0x1.678afae35cdd0p-55", "0x1.b2995e7b7b603p-3"),
    )

    @staticmethod
    def _points():
        rng = random.Random(27)
        pts = [(rng.uniform(-20.0, 20.0), rng.uniform(lo, hi)) for lo, hi in ((0.0, 25.0), (25.0, 60.0), (60.0, 150.0))
               for _ in range(60)]
        edges = (0.0, 0.5)
        for x in (_CROSSOVER_X, _EXTENDED_X):
            edges += (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
        pts += [(float(n), x) for n in range(-20, 21) for x in edges + (100.0, 150.0)]
        return pts

    @staticmethod
    def _composed(nu, x):
        """(anger, weber) bits from the public s1 and s2."""
        c = math.cos(0.5 * nu * math.pi)
        s = math.sin(0.5 * nu * math.pi)
        v1, v2 = s1(nu, x).value, s2(nu, x).value
        return (c * v1 + s * v2).hex(), (s * v1 - c * v2).hex()

    def _check(self, nu, x):
        a, w = anger(nu, x), weber(nu, x)
        assert (a.value.hex(), w.value.hex()) == self._composed(nu, x), (nu, x)
        r1, r2 = s1(nu, x), s2(nu, x)
        path = r1.path if r1.path == r2.path else PATH_EXTENDED
        for r in (a, w):
            assert (r.path, r.terms_used) == (path, r1.terms_used + r2.terms_used), (nu, x)
            assert r.tail_estimate >= 0.0

    def test_equal_to_the_composition_of_s1_and_s2(self, monkeypatch):
        for nu, x in self._points():
            self._check(nu, x)
        monkeypatch.setattr(functions, "_CROSSOVER_X", 18.0)
        for nu, x in self._points()[::7]:
            self._check(nu, x)

    def test_equal_to_the_composition_on_the_i20_grids(self):
        from sphstruve.identities import _jittered_grid, get_identity

        iden = get_identity("I20")
        for grid in (iden.grid, _jittered_grid(iden, random.Random(7)), _jittered_grid(iden, random.Random(102))):
            for p in grid:
                self._check(float(p["n"]) if p["mode"] == "anger" else 0.0, p["x"])

    def test_pinned_bits_and_paths(self):
        for nu, x, b1, p1, b2, p2, ba, bw in self.PINNED:
            r1, r2 = s1(nu, x), s2(nu, x)
            assert (r1.value.hex(), r1.path, r2.value.hex(), r2.path) == (b1, p1, b2, p2), (nu, x)
            assert (anger(nu, x).value.hex(), weber(nu, x).value.hex()) == (ba, bw), (nu, x)

    def test_mixed_paths_report_the_extended_series(self):
        nu, x = -9.905675908806586, 26.060032807958606
        assert (s1(nu, x).path, s2(nu, x).path) == (PATH_ASYMPTOTIC, PATH_EXTENDED)
        for f in (anger, weber):
            assert f(nu, x).path == PATH_EXTENDED

    def test_guards_shared_with_s1_and_s2(self):
        for f in (anger, weber, s1, s2):
            for nu in (20.5, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    f(nu, 1.0)
            with pytest.raises(DomainError):
                f(1.0, -1.0)

    def test_tail_estimate_bounds_the_oracle_error_past_the_crossover(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(2027)
        with mp.workdps(30):
            for _ in range(200):
                nu, x = rng.uniform(-20.0, 20.0), rng.uniform(25.0, 150.0)
                nu_mp, x_mp = mp.mpf(nu), mp.mpf(x)
                for f, oracle in ((anger, mp.angerj), (weber, mp.webere)):
                    r = f(nu, x)
                    err = abs(mp.mpf(r.value) - oracle(nu_mp, x_mp))
                    assert err <= r.tail_estimate, (f.__name__, nu, x, r.path, float(err), r.tail_estimate)


class TestDerivativeClosedForm:
    def test_first_derivative(self):
        assert sph_j_deriv(1, 1.0) == pytest.approx(-0.3011686789397568, rel=1e-12)

    def test_zeroth_is_value(self):
        assert sph_j_deriv(0, 2.0) == sph_j(0, 2.0).value

    def test_against_mpmath_derivatives(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in (1, 2):
                for x in (0.8, 2.0, 5.0):
                    want = float(mp.diff(lambda t: mp.sin(t) / t, x, n))
                    assert sph_j_deriv(n, x) == pytest.approx(want, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            sph_j_deriv(2, 0.0)
        with pytest.raises(DomainError):
            sph_j_deriv(31, 1.0)


class TestSphericalODE:
    def test_residual(self):
        # sph_j's values against 40-digit mpmath derivatives of
        # j_n = sqrt(pi/(2x)) J_{n+1/2}
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in (0, 1, 3, 5):
                j = lambda t: mp.sqrt(mp.pi / (2 * t)) * mp.besselj(n + mp.mpf(0.5), t)
                for x in (0.9, 1.7, 3.3, 7.1):
                    d1, d2 = (float(mp.diff(j, x, k)) for k in (1, 2))
                    res = x * x * d2 + 2.0 * x * d1 + (x * x - n * (n + 1.0)) * sph_j(n, x).value
                    assert abs(res) <= 1e-12 * abs(x * x * d2)


class TestGeneratingFunction:
    def test_collapse(self):
        for t in (-1.0, -0.5, 0.25, 1.0):
            for x in (0.5, 1.5, 5.0):
                if x * x <= 2.0 * x * t:
                    continue
                total = 0.0
                c = 1.0
                for n in range(26):
                    if n:
                        c *= t / n
                    total += c * sph_j(n, x).value
                want = sinc_sqrt(x * x - 2.0 * x * t)
                assert abs(total - want) <= 1e-12


class TestEvenMomentEquality:
    def test_two_closed_forms_agree(self):
        # (2n)! pi / (4^n (n!)^2) against sqrt(pi) Gamma(n+1/2)/n!
        for n in range(21):
            a = math.factorial(2 * n) * math.pi / (4.0**n * math.factorial(n) ** 2)
            b = SQRT_PI * gamma(n + 0.5) / math.factorial(n)
            assert a == pytest.approx(b, rel=1e-13)


class TestPathConsistency:
    def test_overlap_window(self, forced_asym):
        # extended-precision and asymptotic paths agree where both certify
        lo = _EXTENDED_X - 5.0
        hi = _EXTENDED_X
        xs = (lo, 0.5 * (lo + hi), hi)
        pol = DEFAULT_POLICY
        for nu in (0.0, 0.5, 1.0, 2.0):
            for x in xs:
                a = _extended(_cyl_j_terms(nu, x), x, pol)
                b = cyl_j(nu, x).value
                assert abs(a - b) <= 1e-7
        for alpha in (-1.5, -0.5, 0.0, 1.7):
            for x in xs:
                a = _extended(_struve_terms(alpha, x), x, pol)
                b = struve_h(alpha, x).value
                assert abs(a - b) <= 1e-7
        for nu in (0.0, 0.5, 1.5):
            for x in xs:
                e1 = _extended(_s_terms(1, nu, x), x, pol)
                e2 = _extended(_s_terms(2, nu, x), x, pol)
                assert abs(e1 - s1(nu, x).value) <= 1e-7
                assert abs(e2 - s2(nu, x).value) <= 1e-7

    def test_switch_point_continuity(self):
        eps = 1e-9
        for nu in (0.0, 1.0):
            lo = cyl_j(nu, _EXTENDED_X - eps).value
            hi = cyl_j(nu, _EXTENDED_X + eps).value
            assert abs(lo - hi) <= 1e-7

    def test_paths_are_labelled(self):
        assert sph_j(1, 1.0).path == "series"
        assert cyl_j(0.5, 40.0).path == "asymptotic"
        # a large order's Hankel terms grow: the band keeps the series
        assert cyl_j(20.3, 40.0).path == "extended-precision-series"
        assert cyl_j(0.5, 80.0).path == "asymptotic"
        assert sph_j(-2, 1.0).path == "closed-form"


class TestAsymptoticPieces:
    def test_half_order_asymptotics_are_exact(self):
        # the phase/amplitude pair terminates for half-integer orders
        for x in (10.0, 30.0, 100.0):
            want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j_asym(0.5, x) == pytest.approx(want, rel=1e-13)
            want_y = -math.sqrt(2.0 / (math.pi * x)) * math.cos(x)
            assert bessel_y_asym(0.5, x) == pytest.approx(want_y, rel=1e-13)

    def test_struve_algebraic_part_consistency(self):
        # extended series minus second-kind asymptotics must equal the algebraic series
        for alpha in (-0.5, 0.0, 1.0):
            x = 55.0
            full = _extended(_struve_terms(alpha, x), x, DEFAULT_POLICY)
            alg, _ = struve_algebraic(alpha, x)
            assert full - bessel_y_asym(alpha, x) == pytest.approx(alg, abs=5e-8)

    def test_watson_series_against_quadrature(self):
        # A_nu +/- A_-nu = (1/pi) integral_0^inf exp(-x sinh t) (e^{-nu t} +/- e^{nu t}) dt at x = 40
        for nu in (-1.5, 0.0, 0.5, 2.0):
            x = 40.0
            for odd, part in ((False, math.cosh), (True, lambda s: -math.sinh(s))):
                got, _ = watson_parity(nu, x, odd)
                ref = integrate_finite(lambda t: 2.0 * math.exp(-x * math.sinh(t)) * part(nu * t) / math.pi, 0.0, 4.0, tol=1e-13).value
                assert got == pytest.approx(ref, rel=1e-10), (nu, odd)

    def test_watson_leading_coefficients(self):
        even = watson_parity_coeffs(1.25, odd=False)
        odd = watson_parity_coeffs(1.25, odd=True)
        assert even[0] == pytest.approx(1.0, rel=1e-15)
        assert odd[1] == pytest.approx(-1.25, rel=1e-13)
        assert even[1] == odd[0] == 0.0

    def test_watson_coefficients_against_taylor(self):
        # a_k = k! [u^k] exp(-nu asinh u)/sqrt(1 + u^2), 30-digit Taylor
        # coefficients; at integer orders one parity vanishes exactly
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for nu in (-1.5, 0.0, 0.5, 1.0135, 2.0037, 5.0, 7.5, 20.0):
                g = lambda u: mp.exp(-nu * mp.asinh(u)) / mp.sqrt(1 + u * u)
                want = [mp.factorial(k) * c for k, c in enumerate(mp.taylor(g, 0, 26))]
                got = [e + o for e, o in zip(watson_parity_coeffs(nu, False), watson_parity_coeffs(nu, True))]
                for k, (a, b) in enumerate(zip(got, want)):
                    if nu == int(nu) and (k + int(nu)) % 2 == 1 and k > abs(nu):
                        assert a == 0.0, (nu, k, a)
                    else:
                        assert abs(a - b) <= 1e-15 * abs(b), (nu, k, a, float(b))

    def test_watson_parity_within_its_floor(self):
        # against 20-digit quadrature of (2/pi) integral_0^4 exp(-x sinh t)
        # (cosh nu t or -sinh nu t) dt, whose part past t = 4 is below
        # e^-490: every sum is within its floor plus a few ulps, also at
        # nu = 20, x = 18, where the terms rise before they fall
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            for nu in (-0.7, 0.0, 1.0135, 2.0037, 7.5, 20.0):
                for x in (18.0, 25.0, 60.0, 150.0):
                    for odd, part in ((False, mp.cosh), (True, lambda s: -mp.sinh(s))):
                        got, floor = watson_parity(nu, x, odd)
                        want = 2 / mp.pi * mp.quad(lambda t: mp.exp(-x * mp.sinh(t)) * part(nu * t), [0, 0.05, 0.2, 0.6, 1.5, 4])
                        err = abs(mp.mpf(got) - want)
                        assert err <= floor + 4.0 * 2.0**-53 * abs(got), (nu, x, odd, float(err), floor)

    def test_terminating_parities_are_closed_forms(self):
        # A_1 + A_-1 = 2/(pi x) and A_2 - A_-2 = -4/(pi x^2) exactly
        for x in (18.0, 30.0, 60.0, 150.0):
            for (nu, odd), want in (((1.0, False), 2.0 / (math.pi * x)), ((2.0, True), -4.0 / (math.pi * x * x))):
                got, floor = watson_parity(nu, x, odd)
                assert floor == 0.0, (nu, x, floor)
                assert abs(got - want) <= 2.0 * math.ulp(want), (nu, x, got, want)

    def test_hankel_early_stop_keeps_the_bits(self):
        # the full smallest-term truncation, 60 terms at most, where a
        # growing term ends the sum only past the hump, k > |nu| + 1
        def reference(nu, x):
            mu4 = 4.0 * nu * nu
            P = Q = 0.0
            term = 1.0
            prev = math.inf
            for k in range(60):
                if k > 0:
                    term *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
                mag = abs(term)
                if mag == 0.0:
                    return P, Q, 0.0
                if mag > prev and k > max(2, abs(nu) + 1):
                    break
                prev = mag
                j, r = divmod(k, 2)
                sign = -1.0 if j % 2 else 1.0
                if r == 0:
                    P += sign * term
                else:
                    Q += sign * term
            return P, Q, prev

        for nu in (0.0, 0.25, 1.0, 2.0, 5.0, 7.5):
            for x in (15.0, 25.0, 40.0, 60.0, 90.0, 150.0):
                P, Q, floor = hankel_pq(nu, x)
                rP, rQ, smallest = reference(nu, x)
                assert (P.hex(), Q.hex()) == (rP.hex(), rQ.hex()), (nu, x)
                # the early floor is a kept-or-later term plus rounding: never
                # below the smallest term, which is 0 where the sum terminates
                assert floor >= smallest, (nu, x)

    def test_watson_parity_bits_equal_a_reference_loop(self):
        # an integer k stepped by 2 and |nu| + 1 formed at every term
        def reference(nu, x, odd):
            x2 = x * x
            k = 1 if odd else 0
            term = -nu / x2 if odd else 1.0 / x
            total = 0.0
            prev = math.inf
            while True:
                mag = abs(term)
                if mag <= 2.0**-55 * abs(total) or (k > abs(nu) + 1.0 and not mag < prev):
                    return 2.0 / math.pi * total, 2.0 / math.pi * mag
                total += term
                prev = mag
                term *= (nu - (k + 1)) * (nu + (k + 1)) / x2
                k += 2

        rng = random.Random(11)
        points = [(nu, x) for nu in (-20.0, -1.5, 0.0, 1.0, 2.0037, 7.5, 20.0) for x in (12.0, 18.0, 25.0, 60.0, 150.0)]
        points += [(rng.uniform(-20.0, 20.0), rng.uniform(10.0, 150.0)) for _ in range(400)]
        for nu, x in points:
            for odd in (False, True):
                got, want = watson_parity(nu, x, odd), reference(nu, x, odd)
                assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex()), (nu, x, odd)

    def test_struve_algebraic_early_stop_keeps_the_bits(self):
        # the full smallest-term truncation, 60 terms at most, where a
        # growing term ends the sum only past the hump, k > max(1, alpha - 1/2)
        def reference(alpha, x):
            term = SQRT_PI * rgamma(alpha + 0.5) * (x / 2.0) ** (alpha - 1.0) / math.pi
            total = 0.0
            prev = smallest = math.inf
            for k in range(60):
                mag = abs(term)
                smallest = min(smallest, mag)
                if (mag > prev and k > max(1.0, alpha - 0.5)) or mag == 0.0:
                    break
                total += term
                prev = mag
                term *= (k + 0.5) * (alpha - 0.5 - k) * (2.0 / x) ** 2
            return total, smallest

        rng = random.Random(5)
        points = [(a, x) for a in (-4.5, -0.5, 0.0, 1.0, 2.5, 17.3, 30.0, 45.0) for x in (25.5, 30.0, 60.0, 150.0)]
        points += [(rng.uniform(-5.0, 45.0), rng.uniform(25.0, 150.0)) for _ in range(2000)]
        for alpha, x in points:
            if x == 25.0:
                continue
            got, floor = struve_algebraic(alpha, x)
            want, smallest = reference(alpha, x)
            assert got.hex() == want.hex(), (alpha, x)
            assert floor >= smallest, (alpha, x, floor, smallest)

    @pytest.mark.parametrize("nu,x", [(20.0, 18.0), (12.7, 15.0), (25.0, 15.0), (64.5, 88.24)])
    def test_large_order_floor_bounds_the_hump(self, nu, x):
        # the terms rise until 4nu^2 < 8kx; a growing term before
        # k = |nu| + 1 is no floor (at (20, 18) Y was 11.7 off against a
        # floor times envelope of 11.5), so the sum runs past the hump.
        # At (64.5, 88.24) the hump reaches 6e8, and the floor's rounding
        # part, not its last term (2e-10), covers the 4.6e-9 error
        mp = pytest.importorskip("mpmath")
        J, Y, floor = _jy_asym(nu, x)
        bound = floor * math.sqrt(2.0 / (math.pi * x))
        with mp.workdps(40):
            assert abs(mp.besselj(nu, x) - J) <= bound, (float(mp.besselj(nu, x) - J), bound)
            assert abs(mp.bessely(nu, x) - Y) <= bound, (float(mp.bessely(nu, x) - Y), bound)

    def test_struve_algebraic_floor_bounds_its_error(self):
        # against 60-digit H - Y: a large order's terms rise to a hump
        # before k = alpha - 1/2, so a growing term ends the sum only past
        # it (at (30, 26) the sum stopped 0.95 off against a floor of
        # 0.0061), and the rounding part covers the rest (5e-12 off against
        # a last term of 1.9e-12 at (20.3, 30))
        mp = pytest.importorskip("mpmath")
        rng = random.Random(0)
        with mp.workdps(60):
            for _ in range(300):
                alpha, x = rng.uniform(-5.0, 45.0), rng.uniform(25.5, 150.0)
                got, floor = struve_algebraic(alpha, x)
                err = abs(mp.mpf(got) - (mp.struveh(alpha, x) - mp.bessely(alpha, x)))
                assert err <= floor, (alpha, x, float(err), floor)

    def test_hankel_amplitude_coeffs_sum_to_p_plus_iq(self):
        # P + iQ = sum_m c_m x^-m, with P and Q interleaved through i**m
        for nu in (0.0, 0.25, 1.3, 2.0):
            cs = hankel_amplitude_coeffs(nu)
            for x in (30.0, 60.0):
                P, Q, _ = hankel_pq(nu, x)
                got = sum(c * x**-m for m, c in enumerate(cs))
                assert got.real == pytest.approx(P, rel=1e-15)
                assert got.imag == pytest.approx(Q, rel=1e-14, abs=1e-300)

    def test_hankel_amplitude_coeffs_keep_the_bits_of_the_ratio_formula(self):
        # the steps of _HANKEL_STEPS give the bits of re-deriving each ratio
        # (4 nu^2 - (2k-1)^2)/(8k) from k, the coefficients' earlier form
        def by_formula(nu, kmax):
            mu4 = 4.0 * nu * nu
            c = 1.0 + 0.0j
            cs = [c]
            for k in range(1, kmax + 1):
                c *= 1j * ((mu4 - (2 * k - 1) ** 2) / (8.0 * k))
                cs.append(c)
            return cs

        rng = random.Random(33)
        for _ in range(2000):
            nu, kmax = rng.uniform(-60.0, 60.0), rng.randint(0, 59)
            got, want = hankel_amplitude_coeffs(nu, kmax), by_formula(nu, kmax)
            assert [(c.real.hex(), c.imag.hex()) for c in got] == [(c.real.hex(), c.imag.hex()) for c in want]
        # past the table's 59 steps, or below none, there is no coefficient list
        for kmax in (-1, 60):
            with pytest.raises(DomainError):
                hankel_amplitude_coeffs(1.0, kmax)

    def test_watson_floors_leave_the_far_paths_alone(self):
        # beyond _EXTENDED_X the S-series certify against _ASYM_FLOOR; the
        # Watson floors counted there are far below it, so the Hankel
        # floor alone still decides the path
        for nu in (0.0, 0.5, 1.0135, 1.5, 2.0037, 3.0, 7.5, 20.0):
            for x in (_EXTENDED_X + 1e-9, 70.0, 100.0, 150.0):
                watson = watson_parity(nu, x, False)[1] + watson_parity(nu, x, True)[1]
                assert watson <= 1e-6 * _ASYM_FLOOR, (nu, x)
                asym = hankel_pq(nu, x)[2] <= _ASYM_FLOOR
                for f in (s1, s2):
                    try:
                        path = f(nu, x).path
                    except ConvergenceError:
                        path = None
                    assert (path == "asymptotic") == asym, (f.__name__, nu, x)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("bad", [-math.inf, math.inf, math.nan])
    def test_rejected_up_front(self, bad):
        # an infinite argument once reached math.cos or math.sin
        # (ValueError), and an infinite or NaN order or a NaN argument
        # summed max_terms terms or found no certified path
        calls = [
            lambda: cyl_j(bad, 3.0),
            lambda: cyl_j(0.0, bad),
            lambda: cyl_j(2.5, bad),
            lambda: struve_h(bad, 3.0),
            lambda: struve_h(0.0, bad),
            lambda: sph_j(bad, 1.0),
            lambda: sph_j(2, bad),
            lambda: sph_j(-3, bad),
            lambda: sph_j_deriv(bad, 1.0),
            lambda: sph_j_deriv(2, bad),
            lambda: rayleigh_jn(bad, 2.0),
            lambda: rayleigh_jn(2, bad),
        ]
        for f in (s1, s2, anger, weber):
            calls += [lambda f=f: f(bad, 2.0), lambda f=f: f(1.0, bad), lambda f=f: f(0.5, bad)]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    def test_mod_i0(self):
        with pytest.raises(DomainError, match="must be finite"):
            mod_i0(math.nan)
        for t in (-math.inf, math.inf):
            with pytest.raises(OverflowError):
                mod_i0(t)


class TestConvergenceGuards:
    def test_max_terms_exceeded(self):
        pol = EvalPolicy(max_terms=5)
        with pytest.raises(ConvergenceError):
            humbert2(0.0, 0.0, 30.0, pol)


class TestSincSqrt:
    def test_branches(self):
        assert sinc_sqrt(0.0) == 1.0
        assert sinc_sqrt(4.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-14)
        assert sinc_sqrt(-4.0) == pytest.approx(math.sinh(2.0) / 2.0, rel=1e-14)

    def test_series_matches_branches_near_zero(self):
        for u in (1e-7, -1e-7, 9e-7):
            series = 1.0 - u / 6.0 + u * u / 120.0
            assert sinc_sqrt(u) == pytest.approx(series, rel=1e-15)


class TestPolicyObject:
    def test_validation(self, rejects_on_every_path):
        with pytest.raises(DomainError):
            EvalPolicy(rel_tol=0.0)
        with pytest.raises(DomainError):
            EvalPolicy(rel_tol=1.5)
        for bad in ({"rel_tol": 0.0}, {"rel_tol": 1.5}):
            rejects_on_every_path(DEFAULT_POLICY, **bad)
        # the one copy the library makes, in the half-line heads
        assert DEFAULT_POLICY._replace(rel_tol=2.0**-60) == EvalPolicy(rel_tol=2.0**-60)

    def test_only_the_tolerances_and_term_limit_are_settable(self):
        # the path crossovers are the module constants _CROSSOVER_X and
        # _EXTENDED_X, which the calibrated limits assume
        assert EvalPolicy._fields == ("rel_tol", "abs_tol", "max_terms")
        for moved in ({"crossover_x": 30.0}, {"extended_x": 100.0}):
            with pytest.raises(TypeError):
                EvalPolicy(**moved)
        assert (_CROSSOVER_X, _EXTENDED_X) == (25.0, 60.0)

    def test_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_POLICY.rel_tol = 1e-3
        # every public record is an immutable named tuple
        from sphstruve import get_identity, hermite2_coeffs, integrate_finite, verify
        from sphstruve.umbral import UmbralExpr, UmbralExpSeries, UmbralTerm

        term = UmbralTerm(1.0, (0.5,))
        records = (
            DEFAULT_POLICY,
            cyl_j(1.0, 4.0),
            hermite2_coeffs(4),
            integrate_finite(math.sin, 0.0, 1.0),
            term,
            UmbralExpr(1, (term,)),
            UmbralExpSeries((0.5,), (1,), -1.0, 3),
            get_identity("I02").lhs,
            get_identity("I02"),
            verify("I02"),
        )
        assert len({type(r).__name__ for r in records}) == 10
        for rec in records:
            assert isinstance(rec, tuple)
            with pytest.raises(AttributeError):
                setattr(rec, rec._fields[0], None)
            with pytest.raises(AttributeError):
                rec.extra = None

    def test_series_result_is_a_float_and_a_tuple(self):
        r = cyl_j(1.0, 4.0)
        assert float(r) == r.value
        assert math.isclose(r, r.value)
        # equality is tuple equality
        assert r == (r.value, r.terms_used, r.tail_estimate, r.path)

    def test_converged_tail_contract(self):
        for res in (cyl_j(1.0, 4.0), struve_h(0.5, 2.0), humbert2(0.5, 1.0, 3.0)):
            assert res.tail_estimate <= DEFAULT_POLICY.rel_tol * abs(res.value)
            assert res.terms_used > 0


class TestLargeOrderLargeArgumentRouting:
    """Regression guards for the routing between the extended series, the
    phase/amplitude pair and the trigonometric recurrence at large x.
    Reference values come from the stable three-term recurrence."""

    def test_moderate_order_huge_argument_uses_asymptotics(self):
        r = cyl_j(7.5, 90.0)
        assert r.path == "asymptotic"
        assert r.value == pytest.approx(-0.05900433759640318, rel=1e-10)
        r = cyl_j(4.25, 120.0)
        assert r.path == "asymptotic"
        assert r.value == pytest.approx(0.06447718555332875, rel=1e-10)

    def test_integer_order_oscillatory_regime_uses_recurrence(self):
        r = sph_j(95, 110.0)
        assert r.path == "closed-form"
        assert r.value == pytest.approx(-0.006344147727156728, rel=1e-11)
        r = sph_j(40, 77.0)
        assert r.path == "closed-form"
        assert r.value == pytest.approx(-0.0006734097682346164, rel=1e-11)

    def test_struve_large_argument(self):
        r = struve_h(2.5, 95.0)
        assert r.value == pytest.approx(92.44864317746742, rel=1e-10)

    @pytest.mark.parametrize("x", [1e13, 1e16, 1e300])
    def test_huge_argument_declines_on_its_rounding(self, x):
        # past _EXTENDED_X the asymptotic value is taken only where its
        # floor plus the phase rounding 4u(1 + x) sqrt(2/(pi x)) meets
        # _ASYM_FLOOR: at x = 1e16 that sum is 3.5e-8, at 1e300 3.5e134
        with pytest.raises(ConvergenceError):
            cyl_j(0.0, x)
        with pytest.raises(ConvergenceError):
            struve_h(0.0, x)
        r = cyl_j(0.0, 1e12)
        assert r.path == PATH_ASYMPTOTIC and r.tail_estimate <= _ASYM_FLOOR

    @pytest.mark.parametrize("alpha,x", [(3.0, 1e7), (1.0, 1e7), (2.5, 1e12)])
    def test_struve_huge_argument_charges_rounding_to_the_phase(self, alpha, x):
        # the algebraic part of struve_h has no phase: the rounding of the
        # phase reaches only Y_alpha, of size sqrt(2/(pi x)), so these
        # points return although 4u(1 + x) |alg| exceeds _ASYM_FLOOR
        # times their scale max(1, |alg|)
        mp = pytest.importorskip("mpmath")
        r = struve_h(alpha, x)
        assert r.path == PATH_ASYMPTOTIC
        with mp.workdps(40):
            assert abs(mp.mpf(r.value) - mp.struveh(alpha, x)) <= r.tail_estimate, (alpha, x, r)

    def test_transition_zone_declines_honestly(self):
        # non-integer order comparable to a large argument: neither the
        # asymptotics nor the extended budget certify
        with pytest.raises(ConvergenceError):
            cyl_j(95.7, 111.0)

    def test_one_double_double_reach(self):
        # every routed family takes the fixed-point series past
        # _EXTENDED_X while its cancellation exponent stays within 62
        from sphstruve.functions import _series_loss

        assert _series_loss(45.0, 75.0) <= 62.0 < _series_loss(45.0, 80.0)
        assert cyl_j(45.0, 75.0).path == PATH_EXTENDED
        with pytest.raises(ConvergenceError):
            cyl_j(45.0, 80.0)

    @staticmethod
    def _past_the_gamma_overflow(mp):
        """(name, nu, x, result, 40-digit reference) over nu in [100.3, 400.3],
        x in [25.5, 300.5], for the points that return a value."""
        for fn, ref in ((cyl_j, mp.besselj), (struve_h, mp.struveh)):
            for nu in (round(100.3 + 20.0 * i, 1) for i in range(16)):
                for x in (25.5 + 25.0 * j for j in range(12)):
                    try:
                        r = fn(nu, x)
                    except (ConvergenceError, DomainError):
                        continue
                    yield fn.__name__, nu, x, r, ref(nu, x)

    def test_orders_past_the_gamma_overflow(self):
        # (x/2)**nu needs up to 4 factors and 1/Gamma(nu + 1) up to 4
        # arguments to stay in range; no point raises OverflowError, and
        # each lies within its tail of 40-digit mpmath
        mp = pytest.importorskip("mpmath")
        values = []
        with mp.workdps(40):
            for name, nu, x, r, want in self._past_the_gamma_overflow(mp):
                values.append((name, nu, x, r.path))
                assert abs(mp.mpf(r.value) - want) <= r.tail_estimate, (name, nu, x, r)
        assert len(values) >= 280
        assert sum(path == PATH_EXTENDED for *_, path in values) >= 100

    def test_double_double_floor_past_the_gamma_overflow(self):
        # the fixed-point bound (floor division, n 2^-1074, the rounding of
        # t0, the value and the offsets) holds at orders whose first term
        # needs a split power, and where that term underflows:
        # J_340.3(25.5) is 3.4e-340
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for nu, x in ((140.3, 125.5), (160.3, 125.5), (400.3, 275.5), (340.3, 25.5)):
                r = cyl_j(nu, x)
                assert r.path == PATH_EXTENDED, (nu, x, r)
                assert abs(mp.mpf(r.value) - mp.besselj(nu, x)) <= r.tail_estimate, (nu, x, r)
            for nu, x in ((320.3, 250.5), (380.3, 275.5)):
                r = struve_h(nu, x)
                assert r.path == PATH_EXTENDED, (nu, x, r)
                assert abs(mp.mpf(r.value) - mp.struveh(nu, x)) <= r.tail_estimate, (nu, x, r)
        assert cyl_j(340.3, 25.5).value == 0.0

    def test_forward_peaked_series_beyond_crossover(self):
        # order far above argument: no cancellation, extended series exact;
        # reference from a 60-digit decimal evaluation of the same series
        r = sph_j(100, 80.0)
        assert r.value == pytest.approx(4.52479644000949906e-07, rel=1e-9, abs=1e-18)


class TestStruveAsymptoticEstimate:
    """The asymptotic estimate of `struve_h` charges the phase rounding
    4u(1 + x) to sqrt(2/(pi x)) alone and u to the algebraic part, whose
    addition it rounds; which path is taken does not change."""

    @pytest.mark.parametrize("alpha,x", [(3.0, 1e16), (3.0, 1e7)])
    def test_huge_argument_estimate_is_tight(self, alpha, x):
        # the estimate was 1.9e31 and 1.9e4 here for errors of 9.4e14 and
        # 1.1e-3, charged to the algebraic part's 4.2e30 and 4.2e12
        mp = pytest.importorskip("mpmath")
        r = struve_h(alpha, x)
        assert r.path == PATH_ASYMPTOTIC
        with mp.workdps(40):
            err = float(abs(mp.mpf(r.value) - mp.struveh(alpha, x)))
        assert err <= r.tail_estimate <= 1e3 * err, (alpha, x, err, r)

    def test_scan_past_the_crossover_within_the_estimate(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(31)
        seen = 0
        with mp.workdps(40):
            for _ in range(400):
                alpha = rng.uniform(-5.0, 30.0)
                x = math.exp(rng.uniform(math.log(25.0), math.log(1e9)))
                try:
                    r = struve_h(alpha, x)
                except ConvergenceError:
                    continue
                if r.path != PATH_ASYMPTOTIC:
                    continue
                seen += 1
                err = abs(mp.mpf(r.value) - mp.struveh(alpha, x))
                assert err <= r.tail_estimate, (alpha, x, float(err), r)
        assert seen >= 350


class TestRandomizedConsistency:
    """Randomized cross-path consistency through classical recurrences."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.3, max_value=55.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_cylindrical_three_term_recurrence(self, nu, x):
        jm = cyl_j(nu - 1.0, x).value
        jp = cyl_j(nu + 1.0, x).value
        jc = cyl_j(nu, x).value
        floor = 1e-15 * math.exp(min(x, 25.0)) / (2.0 * math.pi * max(x, 1.0)) + 1e-13
        assert abs(jm + jp - 2.0 * nu / x * jc) <= floor + 1e-11 * (abs(jm) + abs(jp) + abs(jc))

    @given(
        st.floats(min_value=0.0, max_value=2.5),
        st.floats(min_value=0.0, max_value=2.5),
        st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_two_index_symmetry(self, mu, nu, z):
        a = humbert2(mu, nu, z).value
        b = humbert2(nu, mu, z).value
        assert a == pytest.approx(b, rel=1e-13, abs=1e-280)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_auxiliary_series_order_reflection(self, nu, x):
        # both auxiliaries are even in the order; the two orderings of the
        # reciprocal-gamma factors round differently at the series floor
        floor = 1e-15 * math.exp(min(x, 25.0)) / (2.0 * math.pi * max(x, 1.0)) + 1e-14
        assert abs(s1(nu, x).value - s1(-nu, x).value) <= floor + 1e-12 * abs(s1(nu, x).value)
        assert abs(s2(nu, x).value - s2(-nu, x).value) <= floor + 1e-12 * abs(s2(nu, x).value)


class TestBandOracle:
    """The extended band (_CROSSOVER_X, _EXTENDED_X] against mpmath at
    40 digits: every band result, on either path, is within rel_tol of
    the envelope sqrt(2/(pi x)) (for Struve, the larger of that and the
    algebraic part), and every asymptotic or fixed-point series result is
    within its tail_estimate.  The points straddle both switches."""

    XS = (
        18.0 + 1e-9, 19.4, 22.2, 25.0 - 1e-9, 25.0 + 1e-9, 28.6, 33.3,
        37.7, 42.1, 47.5, 53.9, 59.9, 60.0 - 1e-9, 60.0 + 1e-9,
    )
    CROSSOVERS = (_CROSSOVER_X, 18.0)

    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def _check(self, f, orders, oracle, envelope):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for nu in orders:
                for x in self.XS:
                    want = oracle(mp, mp.mpf(nu), mp.mpf(x))
                    for crossover in self.CROSSOVERS:
                        self.monkeypatch.setattr(functions, "_CROSSOVER_X", crossover)
                        r = f(nu, x)
                        err = abs(mp.mpf(r.value) - want)
                        if crossover < x <= _EXTENDED_X:
                            assert err <= DEFAULT_POLICY.rel_tol * envelope(nu, x), (nu, x, r.path, float(err))
                        if r.path in (PATH_ASYMPTOTIC, PATH_EXTENDED):
                            assert err <= r.tail_estimate, (nu, x, r.path, float(err), r.tail_estimate)

    @staticmethod
    def _env(nu, x):
        return math.sqrt(2.0 / (math.pi * x))

    @staticmethod
    def _s_pair(mp, nu, x):
        # the library's matrix [[c, s], [s, -c]] is its own inverse
        a, w = mp.angerj(nu, x), mp.webere(nu, x)
        c, s = mp.cos(nu * mp.pi / 2), mp.sin(nu * mp.pi / 2)
        return c * a + s * w, s * a - c * w

    def test_cylindrical(self):
        self._check(cyl_j, (0.0, 0.3, 1.0, 1.3, 2.0, 3.0), lambda mp, nu, x: mp.besselj(nu, x), self._env)

    def test_struve(self):
        env = lambda alpha, x: max(self._env(alpha, x), abs(struve_algebraic(alpha, x)[0]))
        self._check(struve_h, (-1.5, -1.0, -0.5, 0.0, 1.7, 3.0), lambda mp, a, x: mp.struveh(a, x), env)

    def test_auxiliary_series(self):
        orders = (0.0, 0.5, 1.0, 1.5, 3.0)
        self._check(s1, orders, lambda mp, nu, x: self._s_pair(mp, nu, x)[0], self._env)
        self._check(s2, orders, lambda mp, nu, x: self._s_pair(mp, nu, x)[1], self._env)

    def test_auxiliary_series_off_the_plain_orders(self):
        # negative, near-integer, integer and large orders; the
        # fixed-point estimate covers the rounding of the series' inputs
        orders = (-0.7, 1.0135, 2.0037, 4.0, 7.5)
        self._check(s1, orders, lambda mp, nu, x: self._s_pair(mp, nu, x)[0], self._env)
        self._check(s2, orders, lambda mp, nu, x: self._s_pair(mp, nu, x)[1], self._env)

    def test_auxiliary_series_floor_at_large_order(self):
        # a large order keeps x = 55 on the fixed-point path, whose
        # series cancels like e^x at any order
        mp = pytest.importorskip("mpmath")
        r = s1(19.7, 55.0)
        assert r.path == PATH_EXTENDED
        with mp.workdps(40):
            err = abs(mp.mpf(r.value) - self._s_pair(mp, mp.mpf(19.7), mp.mpf(55.0))[0])
        assert err <= r.tail_estimate, (float(err), r.tail_estimate)

    def test_auxiliary_series_reach_under_a_forced_policy(self, forced_asym):
        # past a moved _EXTENDED_X the S series keeps the shared reach: its loss
        # at x = 11, 7.5, is far within the extended budget
        mp = pytest.importorskip("mpmath")
        r = s1(19.7, 11.0)
        assert r.path == PATH_EXTENDED
        with mp.workdps(40):
            err = abs(mp.mpf(r.value) - self._s_pair(mp, mp.mpf(19.7), mp.mpf(11.0))[0])
        assert err <= r.tail_estimate, (float(err), r.tail_estimate)

    def test_near_integer_orders(self):
        # every other Watson coefficient nearly vanishes here: a tiny term
        # must not end the algebraic expansion early, in the band or beyond
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for nu in (0.98, 1.0135, 2.0037):
                for x in (30.0, 45.0, 79.4, 96.2):
                    a, b = self._s_pair(mp, mp.mpf(nu), mp.mpf(x))
                    for r, want in ((s1(nu, x), a), (s2(nu, x), b)):
                        err = abs(mp.mpf(r.value) - want)
                        assert err <= DEFAULT_POLICY.rel_tol * self._env(nu, x), (nu, x, r.path, float(err))
                        if r.path == "asymptotic":
                            assert err <= r.tail_estimate, (nu, x, float(err), r.tail_estimate)
