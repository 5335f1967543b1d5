import math

import pytest

from sphstruve import quadrature
from sphstruve.errors import ConvergenceError, DomainError
from sphstruve.functions import hankel_amplitude_coeffs
from sphstruve.gammakit import gamma
from sphstruve.quadrature import (
    _exp_power_tail,
    gauss_laguerre_nodes,
    integrate_finite,
    integrate_laguerre,
    integrate_oscillatory,
    integrate_real_line,
    levin_u,
)


class TestFinite:
    def test_monomial(self):
        r = integrate_finite(lambda x: x * x, 0.0, 1.0)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert r.status == "converged"

    def test_sine(self):
        r = integrate_finite(math.sin, 0.0, math.pi)
        assert r.value == pytest.approx(2.0, abs=1e-13)

    def test_series_defined_cylindrical(self):
        f = lambda x: sum(
            (-1.0) ** k * (x / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(25)
        )
        r = integrate_finite(f, 0.0, 1.0)
        assert r.value == pytest.approx(0.9197304100897602, abs=1e-13)

    def test_additivity(self):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        whole = integrate_finite(f, 0.0, 5.0)
        left = integrate_finite(f, 0.0, 1.7)
        right = integrate_finite(f, 1.7, 5.0)
        assert whole.value == pytest.approx(left.value + right.value, abs=1e-12)

    def test_requires_ordering(self):
        with pytest.raises(DomainError):
            integrate_finite(math.sin, 1.0, 0.0)

    def test_non_finite_integrand(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: float("nan"), 0.0, 1.0)

    def test_determinism(self):
        f = lambda x: math.sin(7.0 * x) / (1.0 + x * x)
        a = integrate_finite(f, 0.0, 9.0)
        b = integrate_finite(f, 0.0, 9.0)
        assert a == b

    def test_max_refinement_status(self):
        r = integrate_finite(lambda x: math.exp(x) * math.sin(40.0 * x), 0.0, 1.0, tol=1e-300, max_cells=4)
        assert r.status == "max_refinement"

    def test_estimate_carries_the_rounding_floor(self):
        # at tol 1e-15 the cells' truncation estimate is 1.4e-17, far under
        # the 3.7e-16 the rounding of samples and sums leaves; the reported
        # error adds 16 u (b - a) max|sample| and covers it
        mp = pytest.importorskip("mpmath")
        from sphstruve.functions import sinc_sqrt

        r = integrate_finite(lambda y: sinc_sqrt(y * y - 0.25), 0.0, 40.0, tol=1e-15)
        assert r.status == "converged"

        def f(y):
            u = y * y - mp.mpf(0.25)
            return mp.sinc(mp.sqrt(u)) if u >= 0 else mp.sinh(mp.sqrt(-u)) / mp.sqrt(-u)

        with mp.workdps(30):
            err = abs(mp.mpf(r.value) - mp.quad(f, mp.linspace(0, 40, 11)))
        assert err <= r.error_estimate, (float(err), r.error_estimate)


class TestLaguerre:
    def test_unit_weight(self):
        assert integrate_laguerre(lambda s: 1.0, 0.0, 16).value == pytest.approx(1.0, abs=1e-13)

    def test_unit_weight_linear_exponent(self):
        assert integrate_laguerre(lambda s: 1.0, 1.0, 16).value == pytest.approx(1.0, abs=1e-13)

    def test_polynomial_exactness(self):
        # degree <= 2*nodes-1 polynomials against s^sigma e^-s
        for sigma in (0.0, 0.5, 1.0, -0.25):
            for nodes in (8, 12, 16):
                coeffs = [0.7, -1.1, 0.3, 0.05, -0.02]
                deg = 2 * nodes - 1
                f = lambda s: sum(c * s ** min(k * 3, deg) for k, c in enumerate(coeffs))
                want = sum(
                    c * gamma(sigma + min(k * 3, deg) + 1.0) for k, c in enumerate(coeffs)
                )
                got = integrate_laguerre(f, sigma, nodes).value
                assert got == pytest.approx(want, rel=1e-13)

    def test_node_count_window(self):
        with pytest.raises(DomainError):
            integrate_laguerre(lambda s: 1.0, 0.0, 4)
        with pytest.raises(DomainError):
            integrate_laguerre(lambda s: 1.0, 0.0, 300)

    def test_sigma_window(self):
        with pytest.raises(DomainError):
            integrate_laguerre(lambda s: 1.0, -1.0, 16)

    @staticmethod
    def _rule_sizes(monkeypatch):
        sizes = []
        build = quadrature.gauss_laguerre_nodes

        def counted(sigma, n):
            sizes.append(n)
            return build(sigma, n)

        monkeypatch.setattr(quadrature, "gauss_laguerre_nodes", counted)
        return sizes

    def test_smooth_integrand_stops_at_first_pair(self, monkeypatch):
        sizes = self._rule_sizes(monkeypatch)
        r = integrate_laguerre(lambda s: math.exp(-0.5 * s), 0.0)
        assert r.status == "converged"
        assert r.cells_or_nodes == 24
        assert sizes == [8, 16]
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_algebraic_integrand_reaches_the_cap(self, monkeypatch):
        # sqrt(s) is not smooth at 0, so the rules converge only
        # algebraically and every doubling up to the cap is spent
        sizes = self._rule_sizes(monkeypatch)
        r = integrate_laguerre(math.sqrt, 0.0)
        assert r.status == "max_refinement"
        assert sizes == [8, 16, 32, 64, 128, 256]
        assert max(sizes) <= 2 * 200
        assert r.cells_or_nodes == sum(sizes)
        assert abs(r.value - gamma(1.5)) <= r.error_estimate

    def test_cap_below_start_runs_one_pair(self, monkeypatch):
        sizes = self._rule_sizes(monkeypatch)
        r = integrate_laguerre(math.sqrt, 0.0, 8)
        assert sizes == [8, 16]
        assert r.cells_or_nodes == 24
        assert r.status == "max_refinement"

    def test_monomials_within_their_estimate(self):
        # integral of s^(m+sigma) e^-s is Gamma(m+sigma+1), here at 40
        # digits.  The rules integrate s^m exactly from 2N > m, so what is
        # left is rounding, mostly the Golub-Welsch weights' own error
        # (about 1.3 N^2 u of their size), which the pair's difference does
        # not see: every call must report an estimate at least its error
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for sigma in (-0.5, 0.0, 1.0, 3.0):
                for m in range(1, 113):
                    r = integrate_laguerre(lambda s, m=m: s**m, sigma)
                    err = abs(mp.mpf(r.value) - mp.gamma(m + mp.mpf(sigma) + 1))
                    assert r.status == "converged", (sigma, m)
                    assert err <= r.error_estimate, (sigma, m, float(err), r.error_estimate)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 200, 256, 400])
    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.5, 1.0, 2.0, 4.0])
    def test_far_weights_bounded_and_total_kept(self, sigma, n):
        # sizes the doubling loop builds (8 .. 256, its last pair under
        # the default cap being 128/256) and a 200/400 pair; the QL's
        # far-node weights stay under the physical bound unaided, with
        # nothing zeroed, and keep the total
        xs, ws = gauss_laguerre_nodes(sigma, n)
        for x, w in zip(xs, ws):
            assert w <= math.exp(min(-x + sigma * math.log(x) + 30.0, 700.0)), (x, w)
        assert math.fsum(ws) == pytest.approx(gamma(sigma + 1.0), rel=1e-13)

    def test_nodes_cached_and_positive(self):
        xs, ws = gauss_laguerre_nodes(0.5, 32)
        xs2, ws2 = gauss_laguerre_nodes(0.5, 32)
        assert xs is xs2
        assert all(x > 0 for x in xs)
        assert all(w >= 0 for w in ws)
        assert math.fsum(ws) == pytest.approx(gamma(1.5), rel=1e-13)

    def test_rule_is_shared_and_immutable(self):
        rule = gauss_laguerre_nodes(0.25, 24)
        assert gauss_laguerre_nodes(0.25, 24) is rule
        xs, ws = rule
        assert all(type(v) is float for v in xs + ws)
        first = xs[0]
        with pytest.raises(TypeError):
            xs[0] = 0.0
        with pytest.raises(TypeError):
            ws[0] = 0.0
        assert gauss_laguerre_nodes(0.25, 24)[0][0] == first


class TestLaguerreRuleOracle:
    # each rule against the roots of the generalized Laguerre polynomial
    # L_n^(sigma), Newton-polished at 40 digits from the float nodes, with
    # the Christoffel weights Gamma(n+sigma+1) / (n! x L_n'(x)^2); n
    # distinct roots of a degree-n polynomial are all of its roots

    @staticmethod
    def _laguerre(n, sigma, x):
        """(L_n, L_n') of L_n^(sigma) at x, by the three-term recurrence."""
        prev, cur = 1, 1 + sigma - x
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1 + sigma - x) * cur - (k + sigma) * prev) / (k + 1)
        return cur, (n * cur - (n + sigma) * prev) / x

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("sigma", [-0.5, 0.0, 1.0, 3.0])
    def test_against_polished_roots(self, sigma, n):
        mp = pytest.importorskip("mpmath")
        xs, ws = gauss_laguerre_nodes(sigma, n)
        with mp.workdps(40):
            s = mp.mpf(sigma)
            scale = mp.gamma(n + s + 1) / mp.factorial(n)
            roots = []
            for x0, w0 in zip(xs, ws):
                x = mp.mpf(x0)
                for _ in range(4):
                    value, slope = self._laguerre(n, s, x)
                    x -= value / slope
                value, slope = self._laguerre(n, s, x)
                assert abs(value / slope) <= 1e-30 * x
                assert abs(x0 - x) <= 1e-12 * x, (x0, x)
                w = scale / (x * slope**2)
                if w > 1e-300:
                    assert abs(w0 - w) <= 1e-12 * w, (x0, w0, w)
                roots.append(x)
            assert all(a < b for a, b in zip(roots, roots[1:]))


class TestLevin:
    def test_geometric_series(self):
        terms = [(-0.7) ** k for k in range(12)]
        ests = levin_u(terms)
        assert ests[-1] == pytest.approx(1.0 / 1.7, rel=1e-12)

    def test_divergent_alternating(self):
        # Euler-style divergent sum 1 - 2 + 4 - 8 ... has antilimit 1/3
        terms = [(-2.0) ** k for k in range(18)]
        ests = levin_u(terms)
        assert ests[-1] == pytest.approx(1.0 / 3.0, rel=1e-9)


class TestOscillatory:
    def test_sinc_tail(self):
        f = lambda x: math.sin(x) / x if x != 0.0 else 1.0
        r = integrate_oscillatory(f, 0.0, math.pi)
        assert r.status == "accelerated"
        assert r.value == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_fresnel_type(self):
        # integral_1^inf cos(x)/sqrt(x), reference from the head series
        head = sum(
            (-1.0) ** k / (math.factorial(2 * k) * (2 * k + 0.5)) for k in range(20)
        )
        want = math.sqrt(math.pi / 2.0) - head
        r = integrate_oscillatory(lambda x: math.cos(x) / math.sqrt(x), 1.0, math.pi)
        assert r.value == pytest.approx(want, abs=1e-10)

    def test_against_brute_cell_sum(self):
        # envelope x^-1.5: acceleration matches 1e4 summed cells
        f = lambda x: math.cos(x) * x**-1.5
        r = integrate_oscillatory(f, 3.0, math.pi)
        np = pytest.importorskip("numpy")
        xs, ws = np.polynomial.legendre.leggauss(20)
        brute = 0.0
        for k in range(10000):
            a = 3.0 + k * math.pi
            mid, half = a + math.pi / 2.0, math.pi / 2.0
            brute += half * sum(w * f(mid + half * float(x)) for x, w in zip(xs, ws))
        assert r.value == pytest.approx(brute, abs=1e-7)

    def test_compact_support_equals_finite(self):
        def f(x):
            return math.sin(x) * math.exp(-((x - 2.0) ** 2) * 4.0) if x < 8.0 else 0.0

        r = integrate_oscillatory(f, 0.0, math.pi, tol=1e-12, max_cells=40)
        want = integrate_finite(f, 0.0, 8.0, tol=1e-13)
        assert r.value == pytest.approx(want.value, abs=1e-10)

    def test_growing_integrand_diagnosed(self):
        with pytest.raises(Exception):
            integrate_oscillatory(lambda x: math.exp(0.5 * x) * math.cos(x), 1.0, math.pi)

    def test_period_validation(self):
        with pytest.raises(DomainError):
            integrate_oscillatory(math.sin, 0.0, -1.0)


class TestExpPowerTail:
    # integral over [T, inf) of e^{px} sum_n a_n x^(beta0-n): each value
    # must sit within its floor plus a few rounding units of the oracle
    U = 2.0**-53

    @staticmethod
    def _gamma_oracle(mp, a, beta0, p, T):
        """sum_n a_n (-p)^(n-beta0-1) Gamma(beta0-n+1, -pT), at 30 digits."""
        with mp.workdps(30):
            q = -mp.mpc(p)
            return complex(
                mp.fsum(c * q ** (n - beta0 - 1) * mp.gammainc(beta0 - n + 1, q * T) for n, c in enumerate(a) if c)
            )

    @pytest.mark.parametrize("p", [1j, 2j])
    def test_incomplete_gamma_oracle(self, p):
        mp = pytest.importorskip("mpmath")
        for beta0 in (-0.5, -1.0, -1.5, -2.0, -2.5, -3.5):
            for T in (25.0, 30.0, 40.0, 50.0):
                # trailing zeros: the list is exact, the expansion is not
                for head in ([1.0], [0.7 - 0.2j, 0.3j, -0.05, 0.0, 0.01 + 0.01j]):
                    a = head + [0.0] * 100
                    value, floor = _exp_power_tail(a, beta0, p, T)
                    err = abs(value - self._gamma_oracle(mp, head, beta0, p, T))
                    assert err <= floor + 8 * self.U * abs(value), (p, beta0, T, head, err, floor)

    def test_exact_powers(self):
        # p = 0, a finite list with interleaved zeros: every power exactly;
        # two closing zeros mark the list exact, so the floor is zero
        mp = pytest.importorskip("mpmath")
        a = [0.8, 0.0, -1.3, 0.0, 2.1, 0.0, -0.4, 0.0, 0.0]
        for beta0 in (-1.5, -2.0, -3.25):
            for T in (2.0, 7.5, 30.0):
                value, floor = _exp_power_tail(a, beta0, 0.0, T)
                with mp.workdps(30):
                    exact = mp.fsum(c * mp.mpf(T) ** (beta0 - n + 1) / (n - beta0 - 1) for n, c in enumerate(a))
                assert floor == 0.0
                assert abs(value - exact) <= 8 * self.U * abs(value)

    def test_cut_series_with_zeros(self):
        # e^{x^2} E1(x^2) ~ sum_k (-1)^k k! x^(-2k-2): a divergent list with
        # zeros at odd n, summed to its smallest term
        mp = pytest.importorskip("mpmath")
        a = [0.0] * 160
        for k in range(80):
            a[2 * k] = (-1) ** k * math.factorial(k)
        for T in (5.0, 6.0, 8.0):
            value, floor = _exp_power_tail(a, -2.0, 0.0, T)
            with mp.workdps(30):
                want = mp.quad(lambda x: mp.exp(x * x) * mp.e1(x * x), [T, 2 * T, mp.inf])
            assert abs(value - want) <= floor + 8 * self.U * abs(value)

    def test_unturned_expansion_raises(self):
        # at T = 2 the Hankel expansion turns after a few terms, far above 1e-9
        a = hankel_amplitude_coeffs(1.3)
        value, floor = _exp_power_tail(a, -0.5, 1j, 30.0)
        assert floor <= 1e-13
        with pytest.raises(ConvergenceError):
            _exp_power_tail(a, -0.5, 1j, 2.0)

    def test_non_integrable_power(self):
        with pytest.raises(DomainError):
            _exp_power_tail([1.0, 0.5, 0.0, 0.0], -1.0, 0.0, 30.0)
        # a zero coefficient on that power is no obstacle
        assert _exp_power_tail([0.0, 0.5, 0.0, 0.0], -1.0, 0.0, 30.0) == (0.5 / 30.0, 0.0)


class TestRealLine:
    def test_gaussian(self):
        r = integrate_real_line(lambda x: math.exp(-x * x))
        assert r.value == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_odd_is_exactly_zero(self):
        r = integrate_real_line(lambda x: x * math.exp(-abs(x)))
        assert r.value == 0.0
        assert r.error_estimate == 0.0

    def test_general_asymmetric(self):
        # shifted Gaussian: stays sqrt(pi) wherever it sits
        r = integrate_real_line(lambda x: math.exp(-((x - 1.3) ** 2)), tol=1e-9)
        assert r.value == pytest.approx(math.sqrt(math.pi), abs=1e-9)

    def test_oscillatory_even(self):
        from sphstruve.functions import sinc_sqrt

        r = integrate_real_line(lambda x: sinc_sqrt(x * x), tol=1e-9)
        assert r.value == pytest.approx(math.pi, abs=1e-8)

    def test_period_validation(self):
        # an odd integrand would otherwise return 0 before the period is used
        for period in (0.0, -math.pi):
            with pytest.raises(DomainError):
                integrate_real_line(lambda x: x * math.exp(-abs(x)), period_hint=period)


class TestOscillatoryDeterminism:
    def test_bitwise_repeatability(self):
        f = lambda x: math.cos(x) / (1.0 + x)
        a = integrate_oscillatory(f, 1.0, math.pi)
        b = integrate_oscillatory(f, 1.0, math.pi)
        assert a == b

    def test_cell_evaluations_and_bits(self):
        # each cell costs its two half-cell Kronrod rules (30 calls); the
        # other 68 are the zero scan and the head cell.  The value's bits
        # are those of the version that also ran a discarded full-cell rule.
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(x) / (1.0 + x)

        r = integrate_oscillatory(f, 1.0, math.pi)
        assert r.value.hex() == "-0x1.07d9b4fc4a498p-2"
        assert r.cells_or_nodes == 10
        assert len(calls) == 68 + 30 * 10
