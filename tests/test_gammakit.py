import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphstruve.errors import DomainError, PoleError
from sphstruve.gammakit import GAMMA_OVERFLOW_X, gamma, hermite2_coeffs, rgamma

SQRT_PI = 1.7724538509055160273
U = 2.0**-53

# worst relative error of gamma and rgamma, in units of u, against 40-digit
# mpmath: about 10.1u over 3.4 million random points on (-170, 171.62]
# (math.gamma itself, 9.9u, plus the reciprocal's rounding); the
# largest seen are pinned below
_ULPS = 11.0
_WORST_SEEN = (-6.348192633428733, -5.118384146744902, -5.799085559130617, 6.171694515021885, 4.39515479253428)


def _worst_ulps(mp, xs):
    """Largest relative error of gamma and of rgamma over xs, in units of u."""
    worst = 0.0
    with mp.workdps(40):
        for x in xs:
            g = mp.gamma(mp.mpf(x))
            worst = max(worst, abs(mp.mpf(gamma(x)) / g - 1) / U, abs(mp.mpf(rgamma(x)) * g - 1) / U)
    return float(worst)


class TestGamma:
    def test_gamma_one(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)

    def test_gamma_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_gamma_recurrence_value(self):
        # Gamma(4.5) = 3.5*2.5*1.5*0.5*sqrt(pi)
        assert gamma(4.5) == pytest.approx(11.631728396567448, rel=1e-13)

    def test_pole_error(self):
        for x in (0.0, -1.0, -7.0, -42.0):
            with pytest.raises(PoleError):
                gamma(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(GAMMA_OVERFLOW_X + 1.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            gamma(float("nan"))

    def test_minus_infinity_rejected(self):
        for f in (gamma, rgamma):
            with pytest.raises(DomainError, match="-inf"):
                f(-math.inf)
        assert rgamma(math.inf) == 0.0

    def test_positive_axis_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(28)
        xs = [rng.uniform(0.5, 171.62) for _ in range(1500)]
        xs += [math.exp(rng.uniform(math.log(0.5), math.log(171.62))) for _ in range(1500)]
        # 1/Gamma is subnormal from about 171.35 on
        xs += [0.5, 1.0, 171.0, 171.5, math.nextafter(GAMMA_OVERFLOW_X, 0.0), GAMMA_OVERFLOW_X]
        xs += [x for x in _WORST_SEEN if x > 0.5]
        assert _worst_ulps(mp, xs) <= _ULPS

    def test_negative_axis(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(29)
        xs = [rng.uniform(-170.0, 0.5) for _ in range(1500)]
        xs += [-math.exp(rng.uniform(-30.0, math.log(170.0))) for _ in range(1000)]
        # near every pole, and 1 ulp either side of -170, where the
        # reflection takes over
        xs += [n + d for n in range(-169, 1) for d in (1e-9, -1e-9, 1e-3, -1e-3) if n + d < 0.5]
        xs += [math.nextafter(-170.0, 0.0), math.nextafter(-170.0, -171.0), -170.25, -170.5]
        xs += [x for x in _WORST_SEEN if x < 0.5]
        assert _worst_ulps(mp, xs) <= _ULPS

    def test_tiny_arguments(self):
        # below 1/DBL_MAX, Gamma(x) ~ 1/x leaves binary64: gamma is a
        # signed inf and rgamma is x
        for x in (1e-310, -1e-310, 5e-324):
            assert gamma(x) == math.copysign(math.inf, x)
            assert rgamma(x) == x

    def test_past_the_reflection_range(self):
        # below -(GAMMA_OVERFLOW_X - 1), |Gamma| underflows and |1/Gamma|
        # overflows; both keep the sign of sin(pi x)
        assert gamma(-171.5) == 0.0 and math.copysign(1.0, gamma(-171.5)) == 1.0
        assert rgamma(-171.5) == math.inf
        assert rgamma(-180.5) == -math.inf


class TestRgamma:
    def test_exact_zero_at_poles(self):
        for x in (0.0, -1.0, -3.0, -120.0):
            assert rgamma(x) == 0.0

    def test_known_values(self):
        assert rgamma(2.0) == pytest.approx(1.0, rel=1e-15)
        assert rgamma(1.5) == pytest.approx(1.1283791670955126, rel=1e-14)

    @given(st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=300, deadline=None)
    def test_reciprocal_property(self, x):
        assert rgamma(x) * gamma(x) == pytest.approx(1.0, abs=1e-13)

    def test_reciprocal_on_negative_axis(self):
        for x in (-0.5, -2.5, -17.3):
            assert rgamma(x) * gamma(x) == pytest.approx(1.0, abs=1e-12)


class TestDuplication:
    @given(st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_duplication(self, x):
        lhs = gamma(2.0 * x)
        rhs = gamma(x) * gamma(x + 0.5) * 2.0 ** (2.0 * x - 1.0) / SQRT_PI
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _classical_hermite(n, x):
    """Physicists' polynomial by its three-term recurrence."""
    h0, h1 = 1.0, 2.0 * x
    if n == 0:
        return h0
    for k in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1


def hermite2(n, y, z):
    """H_n(y, z) = sum_k c_k y^(n-2k) z^k over the library's coefficient table."""
    return math.fsum(c * y ** (n - 2 * k) * z**k for k, c in enumerate(hermite2_coeffs(n).coefficients))


class TestHermite2:
    # the library keeps only the coefficient table (sph_j_deriv sums it);
    # the polynomial identities below check the table through its sum
    def test_degree_zero(self):
        for y, z in ((0.0, 0.0), (3.7, -2.2), (-1.0, 9.0)):
            assert hermite2(0, y, z) == 1.0

    def test_cubic_example(self):
        # H_3(y, z) = y^3 + 6 y z at (2, 1)
        assert hermite2(3, 2.0, 1.0) == pytest.approx(20.0, rel=1e-15)

    def test_classical_reduction_point(self):
        # H_2(2x, -1) with x = 1 equals 4 - 2
        assert hermite2(2, 2.0, -1.0) == pytest.approx(2.0, rel=1e-15)

    def test_coefficients_are_multinomials(self):
        for n in (0, 1, 2, 5, 12, 30):
            table = hermite2_coeffs(n)
            assert len(table.coefficients) == n // 2 + 1
            for k, c in enumerate(table.coefficients):
                exact = math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k))
                assert c == pytest.approx(exact, rel=1e-14)

    def test_degree_limit(self):
        assert hermite2_coeffs(200).degree == 200
        for bad in (201, -1, 2.5):
            with pytest.raises(DomainError):
                hermite2_coeffs(bad)

    def test_classical_reduction_sweep(self):
        # alternating z = -1 sums cancel; defects are measured against the
        # conditioning scale (the absolute-term sum, itself an H_n value)
        for n in range(0, 31):
            for x in (-5.0, -1.3, 0.25, 2.0, 5.0):
                got = hermite2(n, 2.0 * x, -1.0)
                want = _classical_hermite(n, x)
                scale = max(abs(want), hermite2(n, 2.0 * abs(x), 1.0))
                assert abs(got - want) <= 1e-10 * scale

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_three_term_recurrence(self, n, y, z):
        lhs = hermite2(n + 1, y, z)
        rhs = y * hermite2(n, y, z) + 2.0 * z * n * hermite2(n - 1, y, z)
        scale = max(abs(lhs), hermite2(n + 1, abs(y), abs(z)), 1.0)
        assert abs(lhs - rhs) <= 1e-11 * scale
