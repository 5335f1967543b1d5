import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphstruve.errors import DomainError, PoleError
from sphstruve.gammakit import (
    GAMMA_OVERFLOW_X,
    _lanczos_sum,
    gamma,
    hermite2_coeffs,
    rgamma,
)

SQRT_PI = 1.7724538509055160273


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

    def test_against_math_gamma_sampled(self):
        for k in range(1, 300):
            x = 0.05 + 0.5671 * k % 169.0
            if x < 0.05:
                continue
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_negative_axis(self):
        for x in (-0.5, -1.5, -3.3, -10.7, -49.2):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)


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


def test_lanczos_sum_matches_the_loop_bitwise():
    # the g = 607/128 coefficients, summed by the loop the written-out
    # expression replaced
    c = (
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    )

    def loop(x):
        s = c[0]
        for i in range(1, len(c)):
            s += c[i] / (x + i)
        return s

    # _gamma_positive reaches _lanczos_sum at x - 1 for x in [0.5, 171.6]
    rng = random.Random(15)
    xs = [-0.5, 0.0, 1.0, 170.0, 171.0] + [rng.uniform(-0.5, 171.0) for _ in range(10000)]
    assert [_lanczos_sum(x).hex() for x in xs] == [loop(x).hex() for x in xs]


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
