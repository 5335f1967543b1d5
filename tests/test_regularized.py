import itertools
import math
from decimal import Decimal as D, localcontext
from fractions import Fraction as F

import pytest

from sphstruve import regularized
from sphstruve.errors import ConvergenceError, DomainError
from sphstruve.regularized import (
    humbert2_decimal,
    humbert2_phase_integral,
    power_moment_integral,
    real_line_squared_integral,
    stokes_amplitude,
)


# Oracles for the saddle expansion and its amplitude, at the pipeline's
# 60 digits.  The library sums the expansion only inside the tail's
# antiderivative, in the basis {1, omega}; these sum it pointwise, in
# complex pairs (re, im).


def _rpow(base, expo):
    """base**expo for positive Decimal base, Decimal exponent."""
    return (expo * base.ln()).exp()


def _cdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _sum_to_min(terms):
    """Sum a complex asymptotic term list through its smallest-magnitude
    entry (inclusive), the optimal truncation, sized as |re| + |im|."""
    mags = [abs(t[0]) + abs(t[1]) for t in terms]
    imin = mags.index(min(mags))
    re = D(0)
    im = D(0)
    for t in terms[: imin + 1]:
        re += t[0]
        im += t[1]
    return (re, im)


def _complex_coeffs(mu, nu):
    """The saddle coefficients a_i = X_i + Y_i omega as complex pairs."""
    w0, w1 = regularized._OMEGA
    return [(x + y * w0, y * w1) for x, y in regularized._saddle_coeffs(mu, nu)[1]]


def _tail_by_complex_pairs(T, gam, mu, nu):
    """The tail as the pipeline summed it before its basis rows: in
    complex pairs, times 1/p from `_cdiv`, with T**b from its own exp,
    stepped by 1/T."""
    r = regularized
    q = r._saddle_coeffs(mu, nu)[0]
    p = r._P_RATE
    inv_p = _cdiv((D(1), D(0)), p)
    b = q + D(str(gam))
    tb = _rpow(T, b)
    c = (D(0), D(0))
    terms = []
    for n, an in enumerate(_complex_coeffs(mu, nu)):
        step = b - n + 1
        c = r._cmul((an[0] - step * c[0], an[1] - step * c[1]), inv_p)
        terms.append((c[0] * tb, c[1] * tb))
        tb *= 1 / T
    v = r._cmul(stokes_amplitude(mu, nu), r._cmul(r._cexp((p[0] * T, p[1] * T)), _sum_to_min(terms)))
    return -2 * v[0]


def _saddle_part(mu, nu, t):
    """e^{3 omega t} t^q P(t), P the saddle expansion summed to its
    smallest term: J_{mu,nu}(t**3) ~ 2 Re[C times this]."""
    r = regularized
    q = r._saddle_coeffs(mu, nu)[0]
    terms = []
    tp = D(1)
    for ai in _complex_coeffs(mu, nu):
        terms.append((ai[0] / tp, ai[1] / tp))
        tp *= t
    g = r._cmul(r._cexp((r._P_RATE[0] * t, r._P_RATE[1] * t)), _sum_to_min(terms))
    tq = _rpow(t, q)
    return (g[0] * tq, g[1] * tq)


@regularized._with_precision
def asym_saddle_value(mu, nu, t):
    """2 Re[C e^{3 omega t} t^q P(t)]: the growing-oscillation part of
    J_{mu,nu}(t**3) for large t."""
    C = stokes_amplitude(mu, nu)
    g = _saddle_part(mu, nu, D(str(t)) if not isinstance(t, D) else t)
    return 2 * (C[0] * g[0] - C[1] * g[1])


@regularized._with_precision
def fit_stokes_amplitude(mu, nu, t_fit=D(14)):
    """The saddle amplitude found numerically, by matching the decimal
    series at two quarter-period-separated points."""
    t1 = D(t_fit)
    t2 = t1 + regularized._PI / (2 * (3 * regularized._SQRT3 / 2))
    g1 = _saddle_part(mu, nu, t1)
    g2 = _saddle_part(mu, nu, t2)
    f1 = humbert2_decimal(mu, nu, t1**3)
    f2 = humbert2_decimal(mu, nu, t2**3)
    det = 4 * (g1[0] * (-g2[1]) - (-g1[1]) * g2[0])
    re = (f1 * (-2 * g2[1]) - (-2 * g1[1]) * f2) / det
    im = (2 * g1[0] * f2 - f1 * 2 * g2[0]) / det
    return (re, im)


class TestDecimalSeries:
    def test_small_value(self):
        assert float(humbert2_decimal(0.0, 0.0, 1)) == pytest.approx(
            0.12044213230101765, rel=1e-15
        )

    def test_large_argument_growth(self):
        # the envelope grows like exp(1.5 z^(1/3)); spot value at z = 12^3
        v = float(humbert2_decimal(0.0, 0.0, 12**3))
        assert abs(v) > 1e4

    def test_halfint_gamma_guard(self):
        with pytest.raises(DomainError):
            humbert2_decimal(0.3, 0.0, 1)


class TestAsymptotics:
    def test_stokes_closed_form_matches_fit(self):
        for mu, nu in ((0.0, 0.0), (0.5, 1.0), (2.0, 0.5), (1.0, 1.0)):
            cf = stokes_amplitude(mu, nu)
            ft = fit_stokes_amplitude(mu, nu)
            assert float(cf[0] - ft[0]) == pytest.approx(0.0, abs=1e-24)
            assert float(cf[1] - ft[1]) == pytest.approx(0.0, abs=1e-24)

    def test_amplitude_magnitude(self):
        c = stokes_amplitude(0.0, 0.0)
        mag = float((c[0] * c[0] + c[1] * c[1]).sqrt())
        assert mag == pytest.approx(1.0 / (2.0 * math.pi * math.sqrt(3.0)), rel=1e-20)

    def test_expansion_matches_series(self):
        for mu, nu in ((0.0, 0.0), (1.0, 2.0), (0.5, 0.5)):
            a = float(asym_saddle_value(mu, nu, 12))
            e = float(humbert2_decimal(mu, nu, 12**3))
            assert a == pytest.approx(e, rel=1e-20)

    def test_expansion_past_its_turn_is_certified_by_size(self):
        # at t = 30 the expansion has not turned by its last computed term,
        # but that term is below 1e-55 of the first
        a = asym_saddle_value(0.0, 0.0, 30)
        e = humbert2_decimal(0.0, 0.0, 30**3)
        assert abs((a - e) / e) < D("1e-35")
        # so has the tail's antiderivative series at T = 50, whose last
        # term is below _SERIES_EPS of its first: the tail returns
        with localcontext() as ctx:
            ctx.prec = 60
            T = D(50)
            got = regularized._tail_regularized(T, 0.5, 0.0, 0.0, _rpow(T, D("1.5")))
            want = _tail_by_complex_pairs(T, 0.5, 0.0, 0.0)
            assert abs(got - want) <= D("1e-55") * abs(want)

    def test_tail_that_has_not_turned_raises(self):
        # at T = 40 the antiderivative series still decreases at its last
        # computed term, which is not negligible: no value is certified
        with localcontext() as ctx:
            ctx.prec = 60
            with pytest.raises(ConvergenceError):
                regularized._tail_regularized(D(40), 0.5, 0.0, 0.0, _rpow(D(40), D("1.5")))


class TestConstants:
    def test_sqrt3_holds_sixty_digits(self):
        with localcontext() as ctx:
            ctx.prec = 60
            assert abs(regularized._SQRT3**2 - 3) < 1e-57
            assert abs((2 * regularized._OMEGA[1]) ** 2 - 3) < 1e-57

    def test_callers_context_untouched(self):
        with localcontext() as ctx:
            ctx.prec = 20
            humbert2_decimal(0.0, 0.0, 1)
            stokes_amplitude(1.0, 0.5)
            assert ctx.prec == 20


def _asym_coeffs_exact(mu, nu, nmax=100):
    """The saddle coefficients by the ODE recurrence in its first form,
    a_i = -(omega B1 a_{i-1} + B0 a_{i-2}) / (omega^2 B2), run in exact
    rationals on Q(sqrt(-3)): u + v sqrt(-3) is held as (u, v), so
    omega = (1/2, 1/2).  Each coefficient is returned in the library's
    basis, u + v sqrt(-3) = (u - v) + 2v omega, each part rounded once to
    60 digits."""
    mu, nu = F(mu), F(nu)
    q = -(1 + mu + nu)

    def mul(a, b):
        return (a[0] * b[0] - 3 * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        d = b[0] * b[0] + 3 * b[1] * b[1]
        return ((a[0] * b[0] + 3 * a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)

    def B2(m):
        return m + 1 + mu + nu

    def B1(m):
        return (m + 1) / 3 * ((2 * m + 1) / 3 + mu + nu) + (m / 3 + mu) * (m / 3 + nu)

    def B0(m):
        return m / 3 * (m / 3 + mu) * (m / 3 + nu)

    omega = (F(1, 2), F(1, 2))
    omega2 = mul(omega, omega)
    a = [(F(1), F(0))]
    for i in range(1, nmax + 1):
        t1 = mul(omega, a[i - 1])
        t1 = (t1[0] * B1(q - i + 1), t1[1] * B1(q - i + 1))
        t2 = (a[i - 2][0] * B0(q - i + 2), a[i - 2][1] * B0(q - i + 2)) if i >= 2 else (0, 0)
        a.append(div((-(t1[0] + t2[0]), -(t1[1] + t2[1])), (omega2[0] * B2(q - i), omega2[1] * B2(q - i))))
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        for u, v in a:
            x, y = u - v, 2 * v
            out.append((D(x.numerator) / x.denominator, D(y.numerator) / y.denominator))
    return out


class TestSaddleCoefficients:
    @pytest.mark.parametrize("mu,nu", itertools.product((0.0, 0.5, 1.0, 1.5, 2.0), repeat=2))
    def test_match_the_exact_recurrence(self, mu, nu):
        _, got, _ = regularized._saddle_coeffs(mu, nu)
        want = _asym_coeffs_exact(mu, nu)
        assert len(got) == len(want) == 101
        with localcontext() as ctx:
            ctx.prec = 80
            for i, ((gr, gi), (wr, wi)) in enumerate(zip(got, want)):
                err = ((gr - wr) ** 2 + (gi - wi) ** 2).sqrt()
                assert err <= D("1e-55") * (wr * wr + wi * wi).sqrt(), (i, err)

    @pytest.mark.parametrize("mu,nu", [(1.0, 2.0), (0.5, 1.0), (0.0, 1.5)])
    def test_both_orders_share_one_table(self, mu, nu, monkeypatch):
        # the table is symmetric bit for bit, so the tail builds its own
        # table, and the saddle table under it, once per unordered pair
        # (test_phase_integral_golden_bits holds the values)
        r = regularized
        assert r._saddle_coeffs(mu, nu) == r._saddle_coeffs(nu, mu)
        built, saddle = [], r._saddle_coeffs
        monkeypatch.setattr(r, "_saddle_coeffs", lambda a, b: built.append((a, b)) or saddle(a, b))
        r._tail_table.cache_clear()
        assert humbert2_phase_integral(0.5, nu, mu) == humbert2_phase_integral(0.5, mu, nu)
        assert r._tail_table.cache_info().currsize == 1
        assert built == [(min(mu, nu), max(mu, nu))]

    def test_indices_off_the_half_integers_raise(self):
        with pytest.raises(DomainError):
            regularized._saddle_coeffs(0.25, 0.0)
        with pytest.raises(DomainError):
            regularized._saddle_coeffs(1.0, math.nan)


class TestFinitePart:
    @pytest.mark.parametrize(
        "gam,mu,nu", [(0.5, 0.0, 0.0), (-0.13, 2.0, 2.0), (1.25, 2.0, 1.0)]
    )
    def test_termwise_series_matches_quadrature(self, gam, mu, nu):
        # independent oracle: mpmath quadrature of the integrand itself over
        # the pipeline's [0, T], with
        # J_{mu,nu}(z) = 0F2(; mu+1, nu+1; -z) / (Gamma(mu+1) Gamma(nu+1));
        # at T = 24 it still agrees with the series to about 1e-40
        mp = pytest.importorskip("mpmath")
        T = regularized._TAIL_CUT
        with mp.workdps(40):
            # the pipeline reads gam through str(), so -0.13 is exact
            g, m, n = mp.mpf(str(gam)), mp.mpf(mu), mp.mpf(nu)
            lead = 1 / (mp.gamma(m + 1) * mp.gamma(n + 1))
            want = mp.quad(
                lambda t: t**g * mp.hyper([], [m + 1, n + 1], -(t**3)) * lead,
                mp.linspace(0, int(T), 33),
            )
            want = D(mp.nstr(want, 40))
        with localcontext() as ctx:
            ctx.prec = 60
            got = regularized._finite_part(T, gam, mu, nu, _rpow(T, D(str(gam)) + 1))
            assert abs((got - want) / want) <= D("1e-30")


class TestCutConstants:
    # ln T, e^{pT}, T**(q-1) and the tail's rows come from per-cut caches;
    # the reference forms them per call, with the library's operations,
    # and must agree digit for digit.  The per-term loops the pipeline ran
    # before (Decimal denominators, and the tail in complex pairs with
    # T**b from its own exp, stepped by 1/T) stay as oracles: the tail to
    # 1e-55 relative, and the finite part, whose terms reach 5.5e16 times
    # its sum over the catalog windows, to 1e-40
    @pytest.mark.parametrize("gam,mu,nu", [(0.5, 0.0, 0.0), (-0.13, 2.0, 2.0), (1.25, 2.0, 1.0), (0.5, 0.5, 1.0)])
    def test_equal_to_per_call_powers(self, gam, mu, nu):
        r = regularized
        T = r._TAIL_CUT
        with localcontext() as ctx:
            ctx.prec = 60
            e = D(str(gam)) + 1
            t_e = _rpow(T, e)
            # finite part: T**(gam+1) from its own exp/ln, integer denominators
            t = r._series_prefactor(mu, nu) * t_e
            neg_4T3 = -4 * T**3
            s, k = D(0), 0
            while True:
                s += t / (e + 3 * k)
                k += 1
                t = t * neg_4T3 / (k * (2 * k + int(2 * mu)) * (2 * k + int(2 * nu)))
                if k > 8 and abs(t) < r._SERIES_EPS * (abs(s) + 1):
                    break
            assert r._finite_part(T, gam, mu, nu, t_e) == s
            # tail: the rows, e^{pT} and T**(q-1) formed in the call
            q, a, C = r._saddle_coeffs(min(mu, nu), max(mu, nu))
            p = r._P_RATE
            kr, ki = r._cmul(C, r._cexp((p[0] * T, p[1] * T)))
            scale = -2 * T.sqrt() ** int(2 * (q - 1))
            k1, k2 = scale * kr, scale * (kr * r._OMEGA[0] - ki * r._OMEGA[1])
            beta = (q + D(str(gam)) + 1) / (3 * T)
            gx = x = sx = sy = D(0)
            three_tn = D(3)
            sizes, sums = [], []
            for n, (an_x, an_y) in enumerate(a):
                s_n = beta - n / (3 * T)
                x, y = an_x / three_tn - s_n * gx, an_y / three_tn + s_n * x
                three_tn *= T
                gx = x + y
                sx += gx
                sy += x
                sizes.append(abs(gx + gx - x) + r._SQRT3 * abs(x))
                sums.append((sx, sy))
            sx, sy = sums[sizes.index(min(sizes))]
            tail = r._tail_regularized(T, gam, mu, nu, t_e)
            assert tail == t_e * (k1 * sx - k2 * sy)

            # the old loops, as oracles
            mu_d, nu_d = D(str(mu)), D(str(nu))
            t, old, k = r._series_prefactor(mu, nu) * t_e, D(0), 0
            while True:
                old += t / (e + 3 * k)
                t = t * -(T**3) / ((k + 1) * (k + 1 + mu_d) * (k + 1 + nu_d))
                k += 1
                if k > 8 and abs(t) < r._SERIES_EPS * (abs(old) + 1):
                    break
            assert abs(s - old) <= D("1e-40") * abs(old)
            old = _tail_by_complex_pairs(T, gam, mu, nu)
            assert abs(tail - old) <= D("1e-55") * abs(old)


class TestRegularizedIntegrals:
    # the 50-digit closed forms: the real-line values at their exact
    # indices, the power moments at alpha itself, since
    # power_moment_integral forms 3 alpha - 1 exactly in Decimal (rounded
    # to binary64, that power alone moved the closed form by up to
    # 3.7e-15 at alpha = 0.95, mu = nu = 0).  The public functions'
    # product by 3.0 rounds once more
    PAIRS = tuple(itertools.product((0.0, 0.5, 1.0, 1.5, 2.0), repeat=2))

    def test_real_line_values(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for mu, nu in self.PAIRS:
                want = mp.sqrt(mp.pi) / (mp.gamma(mp.mpf(mu) + 0.5) * mp.gamma(mp.mpf(nu) + 0.5))
                got = real_line_squared_integral(mu, nu)
                assert abs(got - want) <= 3e-16 * abs(want), (mu, nu)

    def test_special_point_is_exactly_two(self):
        assert real_line_squared_integral(0.5, 1.0) == 2.0

    def test_power_moments(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for (mu, nu), alpha in itertools.product(self.PAIRS, (0.05, 0.25, 0.5, 0.75, 0.95)):
                a = mp.mpf(alpha)
                want = mp.gamma(a) / (mp.gamma(mu - a + 1) * mp.gamma(nu - a + 1))
                got = power_moment_integral(alpha, mu, nu)
                assert abs(got - want) <= 3e-16 * abs(want), (alpha, mu, nu)

    def test_windows(self):
        with pytest.raises(DomainError):
            power_moment_integral(1.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            humbert2_phase_integral(-1.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            humbert2_phase_integral(0.5, -0.5, 0.0)


# humbert2_phase_integral(gam, mu, nu).hex(); a refactor of the 60-digit
# pipeline must keep every returned float bit-for-bit.  All eleven were
# re-pinned when the tail became one antiderivative recurrence at T = 24:
# each moved from 8.8e-13..4.4e-11 to within 1.2e-16 relative of the
# 50-digit closed form.  The test ids keep the names these cases had
# before (argsN-<previous bits>), so the suite's names stay stable.
_GOLDEN_BITS = (
    ((0.5, 0.0, 0.0), "0x1.812746b0379e6p-3"),
    ((0.5, 0.5, 1.0), "0x1.5555555555555p-1"),
    ((0.5, 1.0, 2.0), "0x1.00c4d9cacfbefp-1"),
    ((0.5, 0.5, 0.5), "0x1.2e7fb0bcdf4f2p-1"),
    ((0.5, 2.0, 1.0), "0x1.00c4d9cacfbefp-1"),
    ((-0.25, 1.0, 0.5), "0x1.736497ad16c59p+0"),
    ((1.25, 2.0, 1.0), "0x1.974bd13a4f191p-2"),
    ((0.5, 1.0, 1.0), "0x1.812746b0379e7p-1"),
    ((-0.25, 0.5, 0.5), "0x1.78948fbdc2fc5p+0"),
    ((0.4123, 1.5, 2.0), "0x1.d32f6c6b360e3p-2"),
    ((-0.13, 2.0, 2.0), "0x1.b4749cb1d23d8p-2"),
)
_GOLDEN_IDS = tuple(
    f"args{i}-{bits}"
    for i, bits in enumerate((
        "0x1.812746b041ff4p-3", "0x1.5555555560ef2p-1", "0x1.00c4d9cad0b71p-1",
        "0x1.2e7fb0bce96a2p-1", "0x1.00c4d9cad0b71p-1", "0x1.736497ad1dbc5p+0",
        "0x1.974bd13a023d0p-2", "0x1.812746b03628fp-1", "0x1.78948fbdcbf12p+0",
        "0x1.d32f6c6b4fa25p-2", "0x1.b4749cb1fade1p-2",
    ))
)


@pytest.mark.parametrize("args,bits", _GOLDEN_BITS, ids=_GOLDEN_IDS)
def test_phase_integral_golden_bits(args, bits):
    assert humbert2_phase_integral(*args).hex() == bits


def test_golden_bits_from_cold_caches_under_a_20_digit_context():
    # every cached table is built inside the pipeline's own 60-digit
    # context, whatever the first caller's context is
    for cached in vars(regularized).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    with localcontext() as ctx:
        ctx.prec = 20
        got = [humbert2_phase_integral(*args).hex() for args, _ in _GOLDEN_BITS]
        assert ctx.prec == 20
    assert got == [bits for _, bits in _GOLDEN_BITS]
