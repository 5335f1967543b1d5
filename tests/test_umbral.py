import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphstruve.errors import ConvergenceError, DomainError
from sphstruve.functions import humbert2, humbert3, hyp1f2, sph_j
from sphstruve.gammakit import gamma, rgamma
from sphstruve import umbral
from sphstruve.umbral import (
    UmbralExpSeries,
    UmbralExpr,
    UmbralTerm,
    expand,
    gaussian_reduce,
    laplace_reduce,
    reduce_expr,
    reduce_weighted,
)

SQRT_PI = 1.7724538509055160273


def _scaled(terms, factor):
    return [UmbralTerm(factor * t.coeff, t.exponents) for t in terms]


class TestReduce:
    def test_unit_exponent_zero(self):
        e = UmbralExpr(1, (UmbralTerm(1.0, (0.0,)),))
        assert reduce_expr(e) == 1.0

    def test_half_exponent(self):
        e = UmbralExpr(1, (UmbralTerm(1.0, (0.5,)),))
        assert reduce_expr(e) == pytest.approx(1.1283791670955126, rel=1e-14)

    def test_two_symbols(self):
        e = UmbralExpr(2, (UmbralTerm(1.0, (1.0, 2.0)),))
        assert reduce_expr(e) == pytest.approx(0.5, rel=1e-14)

    def test_exponent_length_validated(self, rejects_on_every_path):
        with pytest.raises(DomainError):
            UmbralExpr(2, (UmbralTerm(1.0, (1.0,)),))
        good = UmbralExpr(2, (UmbralTerm(1.0, (1.0, 2.0)),))
        rejects_on_every_path(good, terms=(UmbralTerm(1.0, (1.0,)),))
        rejects_on_every_path(good, symbol_count=4)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-10.0, max_value=10.0),
                st.floats(min_value=-3.0, max_value=6.0),
                st.floats(min_value=-3.0, max_value=6.0),
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_linearity(self, triples, a, b):
        e_terms = [UmbralTerm(c, (p, q)) for c, p, q in triples]
        f_terms = [UmbralTerm(2.0, (0.5, 1.0)), UmbralTerm(-1.0, (0.0, 0.25))]
        combo = UmbralExpr(2, tuple(_scaled(e_terms, a) + _scaled(f_terms, b)))
        want = a * reduce_expr(UmbralExpr(2, tuple(e_terms))) + b * reduce_expr(UmbralExpr(2, tuple(f_terms)))
        assert reduce_expr(combo) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestExpand:
    def test_zeroth_order(self):
        ser = UmbralExpSeries((0.7, -0.2), (1, 1), -3.3, 0)
        ex = expand(ser)
        assert len(ex.terms) == 1
        assert ex.terms[0] == UmbralTerm(1.0, (0.7, -0.2))

    def test_term_structure(self):
        ser = UmbralExpSeries((0.5,), (1,), -2.0, 6)
        ex = expand(ser)
        assert len(ex.terms) == 7
        coeff = 1.0
        for k, t in enumerate(ex.terms):
            if k:
                coeff *= -2.0 / k
            assert t.coeff == pytest.approx(coeff, rel=1e-15)
            assert t.exponents == (0.5 + k,)

    def test_order_limit(self):
        with pytest.raises(DomainError):
            expand(UmbralExpSeries((0.0,), (1,), 1.0, 501))

    def test_series_fields_validated(self, rejects_on_every_path):
        good = UmbralExpSeries((0.5, 0.0), (1, 1), -2.0, 6)
        for bad in (
            {"step_degrees": (1,)},
            {"step_degrees": (1, -1)},
            {"step_degrees": (1, 0.5)},
            {"order": -1},
            {"order": 2.5},
            {"order": math.inf},
            {"order": math.nan},
        ):
            rejects_on_every_path(good, **bad)

    def test_integral_float_order_expands(self):
        assert expand(UmbralExpSeries((0.5,), (1,), 1.0, 2.0)) == expand(UmbralExpSeries((0.5,), (1,), 1.0, 2))

    def test_gaussian_reduce_rejects_a_non_integer_order(self):
        with pytest.raises(DomainError):
            gaussian_reduce(0.5, 1.0, 0.0, order=2.5)

    def test_spherical_pipeline(self):
        # j_0(x) image: x^{1/2}-weighted exponential image reduced at x=1
        x = 1.0
        ser = UmbralExpSeries((0.5,), (1,), -((x / 2.0) ** 2), 40)
        val = reduce_expr(expand(ser), check_tail_rel=1e-12)
        val *= math.sqrt(math.pi / (2.0 * x)) * (x / 2.0) ** 0.5
        assert val == pytest.approx(0.8414709848078965, rel=1e-13)

    def test_two_symbol_pipeline(self):
        ser = UmbralExpSeries((0.0, 0.0), (1, 1), -1.0, 30)
        val = reduce_expr(expand(ser))
        assert val == pytest.approx(0.12044213230101765, rel=1e-13)

    def test_tail_certification_failure(self):
        ser = UmbralExpSeries((0.0,), (1,), -30.0, 5)  # truncated far too early
        with pytest.raises(ConvergenceError):
            reduce_expr(expand(ser), check_tail_rel=1e-12)


class TestGaussianReduce:
    def test_rejects_nonpositive_q(self):
        with pytest.raises(DomainError):
            gaussian_reduce(0.5, 0.0, 1.0)

    def test_full_weighted_pipeline_gives_pi(self):
        ser = gaussian_reduce(0.5, 0.25, 0.0)
        val = reduce_expr(expand(ser))
        val *= (SQRT_PI / 2.0) * math.sqrt(math.pi / 0.25)
        assert val == pytest.approx(math.pi, abs=1e-14)

    def test_unit_normalization(self):
        ser = gaussian_reduce(0.0, 1.0, 0.0)
        assert math.sqrt(math.pi) * reduce_expr(expand(ser)) == pytest.approx(1.0, rel=1e-14)

    def test_moment_series_coefficients(self):
        # reduced image of the shifted Gaussian: coefficient of t^{2k} must
        # be pi / (4^k (k!)^2), checked through the expansion coefficients
        ser = gaussian_reduce(0.5, 0.25, 0.5)  # p = t/2 with t = 1
        ex = expand(ser)
        pref = (SQRT_PI / 2.0) * math.sqrt(math.pi / 0.25)
        for k in range(21):
            term = ex.terms[k]
            reduced = pref * term.coeff * rgamma(1.0 + term.exponents[0])
            want = math.pi / (4.0**k * math.factorial(k) ** 2)
            assert reduced == pytest.approx(want, rel=1e-13)

    def test_scale_is_p_squared_over_4q(self):
        ser = gaussian_reduce(1.2, 0.3, 0.7)
        assert ser.scale == pytest.approx(0.49 / 1.2, rel=1e-15)
        assert ser.prefactor_exponents == (1.2 - 0.5,)
        assert ser.step_degrees == (1,)


class TestLaplaceReduce:
    def test_zero_argument_collapses(self):
        e = laplace_reduce(3.7, 0.0, 0.2, 0.4, order=5)
        want = gamma(3.7) * rgamma(1.2) * rgamma(1.4)
        assert reduce_expr(e) == pytest.approx(want, rel=1e-13)

    def test_matches_cylindrical_value(self):
        e = laplace_reduce(1.0, 0.25, 0.0, 0.0, order=40)
        assert reduce_expr(e) == pytest.approx(0.7651976865579666, rel=1e-13)

    def test_matches_hypergeometric(self):
        e = laplace_reduce(2.0, 0.25, 0.0, 0.0, order=40)
        want = gamma(2.0) * hyp1f2(2.0, 1.0, 1.0, -0.25).value
        assert reduce_expr(e) == pytest.approx(want, rel=1e-13)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(DomainError):
            laplace_reduce(0.0, 1.0, 0.0, 0.0)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            laplace_reduce(1.0, 0.25, 0.0, 0.0, order=-1)

    def test_rejects_a_non_integer_order(self):
        for order in (2.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                laplace_reduce(1.0, 0.5, 0.0, 0.0, order=order)
        assert laplace_reduce(1.0, 0.5, 0.0, 0.0, order=3.0) == laplace_reduce(1.0, 0.5, 0.0, 0.0, order=3)

    def test_term_coefficients(self):
        g, w = 1.5, 0.3
        e = laplace_reduce(g, w, 0.25, 0.75, order=8)
        for k, t in enumerate(e.terms):
            want = (-w) ** k * gamma(g + k) / math.factorial(k)
            assert t.coeff == pytest.approx(want, rel=1e-13)
            assert t.exponents == (0.25 + k, 0.75 + k)


def _at_shifts(expr, shifts, check_tail_rel=None):
    """reduce_weighted at each shift, with the one-weight factor (s, (1.0,))
    per symbol: the image times the monomial c_1**s_1 ... c_m**s_m."""
    return [reduce_weighted(expr, [(s, (1.0,)) for s in shift], check_tail_rel) for shift in shifts]


def _pairs(window):
    """The (shift, weight) pairs of a factor (lowest, weights), gaps kept."""
    lowest, weights = window
    return [(lowest + j, w) for j, w in enumerate(weights)]


def _plain_reduction(expr, windows, check_tail_rel=None):
    """reduce_weighted's value by a plain loop: per term and symbol the fsum
    of w * rgamma(1 + (e + s)) over the factor's pairs, the products
    multiplied left to right and summed by fsum; with `check_tail_rel`,
    the same tail check."""
    products = []
    for t in expr.terms:
        r = t.coeff
        for e, window in zip(t.exponents, windows):
            r *= math.fsum([w * rgamma(1.0 + (e + s)) for s, w in _pairs(window)])
        products.append(r)
    total = math.fsum(products)
    if check_tail_rel is not None and products:
        assert max(map(abs, products[-2:])) <= check_tail_rel * max(abs(total), 1e-300)
    return total


class TestReduceShifts:
    # reduce_weighted with one-term factors: each reduction is the image
    # times one symbol monomial, whose shifts move the gamma arguments

    @pytest.mark.parametrize("g,w", [(1.0, 0.25), (2.0, 0.09), (1.5, 1.7)])
    @pytest.mark.parametrize("shift", [(0.25, 0.75), (-3.0, 5.0), (2.0, -1.0), (-0.5, 0.0)])
    def test_shift_equals_shifted_expansion(self, g, w, shift):
        a, b = shift
        want = reduce_expr(laplace_reduce(g, w, a, b, order=60))
        got = _at_shifts(laplace_reduce(g, w, 0.0, 0.0, order=60), [shift])
        assert [v.hex() for v in got] == [want.hex()]

    def test_family_in_order(self):
        shifts = [(float(m), float(n)) for m in (-2, 0, 3) for n in (1, -1)]
        image = laplace_reduce(2.0, 0.3, 0.0, 0.0, order=40)
        want = [reduce_expr(laplace_reduce(2.0, 0.3, a, b, order=40)).hex() for a, b in shifts]
        assert [v.hex() for v in _at_shifts(image, shifts)] == want

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0)])
    def test_symbols_sharing_or_not_their_exponents(self, a, b):
        # each symbol reduces its own exponents against its own factor,
        # whether or not its exponents equal the other symbol's
        image = laplace_reduce(2.0, 0.3, a, b, order=40)
        shifts = [(float(m), float(n)) for m in (-2, 0, 3) for n in (3, 0, -2, 1)]
        want = [reduce_expr(laplace_reduce(2.0, 0.3, a + s, b + t, order=40)).hex() for s, t in shifts]
        assert [v.hex() for v in _at_shifts(image, shifts)] == want

    def test_single_term_product_order(self):
        # one term sums exactly, so this pins r = coeff, then r *= g per
        # symbol in turn (coeff * (g1 * g2) differs in the last bit here)
        t = laplace_reduce(2.0, 0.09, 0.0, 0.0, order=60).terms[5]
        e = UmbralExpr(2, (t,))
        want = t.coeff * rgamma(1.0 + (3.0 + 5.0)) * rgamma(1.0 + (2.0 + 5.0))
        assert reduce_weighted(e, [(3.0, (1.0,)), (2.0, (1.0,))]).hex() == want.hex()

    def test_list_typed_shifts(self):
        # factors given as lists reduce bit for bit as the same tuples
        image = laplace_reduce(2.0, 0.3, 0.0, 0.0, order=40)
        shifts = [(float(m), float(n)) for m in (-2, 0, 3) for n in (1, -1, 3)]
        want = [reduce_expr(laplace_reduce(2.0, 0.3, a, b, order=40)).hex() for a, b in shifts]
        got = [reduce_weighted(image, [[a, [1.0]], [b, [1.0]]], 2.0**-40) for a, b in shifts]
        assert [v.hex() for v in got] == want
        three = UmbralExpr(3, tuple(UmbralTerm(0.5 * k, (k, 0.5 * k, 1.0)) for k in range(6)))
        triples = [(0.0, 1.0, 2.0), (0.0, 1.0, -0.5), (1.5, 1.0, 2.0)]
        for t in triples:
            as_lists = [[s, [1.0]] for s in t]
            assert reduce_weighted(three, as_lists) == _at_shifts(three, [t])[0]

    def test_zero_shift_is_reduce_expr(self):
        ser = UmbralExpSeries((0.5,), (1,), -2.25, 40)
        ex = expand(ser)
        assert _at_shifts(ex, [(0.0,)], check_tail_rel=1e-12)[0].hex() == reduce_expr(ex).hex()
        e = UmbralExpr(2, (UmbralTerm(1.5, (0.3, -0.0)), UmbralTerm(-0.25, (1.1, 2.0))))
        assert _at_shifts(e, [(0.0, 0.0)])[0].hex() == reduce_expr(e).hex()

    def test_empty_family(self):
        # a factor with no weights is the zero polynomial: every term
        # reduces to 0, and a zero sum is certified
        image = laplace_reduce(1.0, 0.25, 0.0, 0.0, order=5)
        assert reduce_weighted(image, [(0.0, ()), (0.0, (1.0,))], check_tail_rel=1e-12) == 0.0
        assert reduce_weighted(image, [[0.0, []], [0.0, []]]) == 0.0

    @pytest.mark.parametrize("symbols", [1, 2, 3])
    def test_empty_expression_sums_to_zero(self, symbols):
        empty = UmbralExpr(symbols, ())
        assert reduce_expr(empty) == 0.0
        assert reduce_expr(empty, check_tail_rel=1e-12) == 0.0
        shifts = [(float(i),) * symbols for i in range(3)]
        assert _at_shifts(empty, shifts, check_tail_rel=1e-12) == [0.0, 0.0, 0.0]
        # the factor count is still checked first
        with pytest.raises(DomainError):
            reduce_weighted(empty, [(0.0, (1.0,))] * (symbols + 1))

    def test_rejects_wrong_shift_length(self):
        with pytest.raises(DomainError, match="1 factors for 2 symbols"):
            reduce_weighted(laplace_reduce(1.0, 0.25, 0.0, 0.0, order=5), [(1.0, (1.0,))])

    def test_one_uncertified_shift_raises(self):
        # at shift (-9, 0) the terms k < 9 hit poles of Gamma and vanish,
        # so the last two terms are the whole sum
        image = laplace_reduce(1.0, 0.25, 0.0, 0.0, order=10)
        _at_shifts(image, [(0.0, 0.0), (1.0, 2.0)], check_tail_rel=1e-12)
        with pytest.raises(ConvergenceError):
            _at_shifts(image, [(-9.0, 0.0)], check_tail_rel=1e-12)

    @pytest.mark.parametrize("order", ["last", "second-to-last"])
    def test_either_tail_term_alone_raises(self, order):
        big, small = UmbralTerm(1e-3, (0.0,)), UmbralTerm(1e-20, (0.0,))
        tail = (small, big) if order == "last" else (big, small)
        e = UmbralExpr(1, (UmbralTerm(1.0, (0.0,)),) + tail)
        assert _at_shifts(e, [(0.0,)], check_tail_rel=1e-2) == [math.fsum([1.0, 1e-3, 1e-20])]
        with pytest.raises(ConvergenceError, match=r"last terms \[.*\] exceed"):
            _at_shifts(e, [(0.0,)], check_tail_rel=1e-12)

    def test_one_term_expression(self):
        # its one term is its whole sum: a check below 1 cannot certify it
        e = UmbralExpr(2, (UmbralTerm(2.0, (0.5, 1.0)),))
        want = 2.0 * rgamma(1.5) * rgamma(2.0)
        assert _at_shifts(e, [(0.0, 0.0)]) == [want]
        assert _at_shifts(e, [(0.0, 0.0)], check_tail_rel=1.0) == [want]
        with pytest.raises(ConvergenceError, match=r"last terms \[.*\] exceed"):
            _at_shifts(e, [(0.0, 0.0)], check_tail_rel=0.5)
        zero = UmbralExpr(2, tuple(_scaled(e.terms, 0.0)))
        assert _at_shifts(zero, [(0.0, 0.0)], check_tail_rel=1e-12) == [0.0]

    @staticmethod
    def _shifted(expr, shift):
        return UmbralExpr(
            expr.symbol_count,
            tuple(UmbralTerm(t.coeff, tuple(e + s for e, s in zip(t.exponents, shift))) for t in expr.terms),
        )

    @staticmethod
    def _products(expr, shift):
        # coeff * g_1 * ... * g_m, multiplied left to right
        out = []
        for t in expr.terms:
            r = t.coeff
            for e, s in zip(t.exponents, shift):
                r *= rgamma(1.0 + (s + e))
            out.append(r)
        return out

    @pytest.mark.parametrize(
        "expr,shifts",
        [
            (
                expand(UmbralExpSeries((0.5,), (1,), -2.25, 40)),
                [(3.0,), (-1.5,), (3.0,), (0.0,), (-7.0,), (-1.5,)],
            ),
            (
                expand(UmbralExpSeries((0.0, 0.5, 1.5), (1, 1, 1), -6.0, 60)),
                [
                    (1.0, 0.0, 2.0),
                    (-2.0, 1.0, 0.0),
                    (1.0, 0.0, 2.0),
                    (0.0, -1.0, 1.0),
                    (-2.0, 1.0, 3.0),
                    (1.0, -3.5, 2.0),
                    (-2.0, 0.5, 0.0),
                ],
            ),
        ],
        ids=["one-symbol", "three-symbol"],
    )
    def test_family_beyond_two_symbols(self, expr, shifts):
        # out of order and repeated: each sum is the shifted image's, and
        # the correctly rounded sum of its products
        got = _at_shifts(expr, shifts, check_tail_rel=1e-12)
        assert [v.hex() for v in got] == [reduce_expr(self._shifted(expr, sh)).hex() for sh in shifts]
        assert [v.hex() for v in got] == [math.fsum(self._products(expr, sh)).hex() for sh in shifts]

    def test_i17_sums_are_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        orders = [float(m) for m in range(-14, 15)]
        shifts = [(m, n) for m in orders for n in orders]
        with mpmath.workdps(50):
            for gamma_p, x in ((1.0, 0.5), (2.0, 0.5), (1.0, 0.6)):
                image = laplace_reduce(gamma_p, (x / 2.0) ** 2, 0.0, 0.0, order=60)
                for shift, got in zip(shifts, _at_shifts(image, shifts)):
                    exact = mpmath.fsum(mpmath.mpf(r) for r in self._products(image, shift))
                    assert got.hex() == float(exact).hex(), shift

    def test_inf_minus_inf_is_nan(self):
        # rgamma(-171.5) = +inf and rgamma(-172.5) = -inf
        e = UmbralExpr(1, (UmbralTerm(1.0, (-172.5,)), UmbralTerm(1.0, (-173.5,))))
        assert math.isnan(reduce_expr(e))
        assert math.isnan(_at_shifts(e, [(0.0,)])[0])

    def test_finite_overflow_is_inf(self):
        e = UmbralExpr(1, (UmbralTerm(1e308, (0.0,)), UmbralTerm(1e308, (0.0,))))
        assert reduce_expr(e) == math.inf
        assert reduce_expr(UmbralExpr(1, tuple(_scaled(e.terms, -1.0)))) == -math.inf

    def test_non_finite_sum_is_not_certified(self):
        # a nan or infinite sum has no finite tail bound to meet; unchecked,
        # the sums stay nan and inf
        nan_sum = UmbralExpr(1, (UmbralTerm(math.nan, (0.0,)), UmbralTerm(1.0, (1.0,))))
        overflow = expand(gaussian_reduce(0.5, 1e-300, 1.0, order=10))
        assert math.isnan(reduce_expr(nan_sum))
        assert reduce_expr(overflow) == math.inf
        for e in (nan_sum, overflow):
            with pytest.raises(ConvergenceError, match="not certified"):
                reduce_expr(e, check_tail_rel=1e-12)
            with pytest.raises(ConvergenceError, match="not certified"):
                _at_shifts(e, [(1.0,)], check_tail_rel=1e-12)

    def test_lone_infinite_term_is_inf(self):
        # one infinite term among finite ones sums to that infinity
        e = UmbralExpr(1, (UmbralTerm(1.0, (-172.5,)), UmbralTerm(1.0, (0.0,))))
        assert reduce_expr(e) == math.inf
        assert reduce_expr(UmbralExpr(1, tuple(_scaled(e.terms, -1.0)))) == -math.inf

    def test_distinct_gamma_arguments_evaluated_once(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return rgamma(a)

        monkeypatch.setattr(umbral, "rgamma", counted)
        image = laplace_reduce(2.0, 0.09, 0.0, 0.0, order=60)
        factor = (-14.0, [0.5**s for s in range(-14, 15)])
        reduce_weighted(image, [factor, factor])
        # arguments 1 + (k + s) for s in -14..14 and k in 0..60
        assert sorted(calls) == [float(a) for a in range(-13, 76)]


class TestReduceWeighted:
    # the image times a polynomial in each symbol; by linearity, the
    # weighted sum of the reductions at every combination of shifts

    @pytest.mark.parametrize("symbols", [1, 2, 3])
    def test_sum_over_shifts_against_mpmath(self, symbols):
        # against the exact sum at 50 digits, also formed shift
        # combination by combination.  The coefficients are taken as
        # exact, and every weight and gamma argument here is nonnegative, so
        # no weighted gamma sum A cancels: per symbol, rgamma's documented
        # 10.1 ulps (at most 20.2 u), the weight's product, the fsum of A
        # and the product's multiplication give at most 23.2 u, on the sum
        # of absolute products, plus u on the total
        import itertools

        mpmath = pytest.importorskip("mpmath")
        expr = expand(UmbralExpSeries((0.0, 0.5, 1.5)[:symbols], (1,) * symbols, -1.5, 30))
        windows = [(-1.0, (3.0, 1.0, 0.5)), (-1.0, (1.0, 0.0, 0.0, 0.25)), (0.5, (2.0,))][:symbols]
        got = reduce_weighted(expr, windows, check_tail_rel=1e-12)
        factors = [_pairs(window) for window in windows]
        with mpmath.workdps(50):
            exact, absum = mpmath.mpf(0), mpmath.mpf(0)
            for t in expr.terms:
                part = mpmath.mpf(t.coeff)
                for e, pairs in zip(t.exponents, factors):
                    part *= mpmath.fsum(w * mpmath.rgamma(1 + mpmath.mpf(e) + s) for s, w in pairs)
                exact += part
                absum += abs(part)
            # the same value, summed shift combination by combination
            by_shift = mpmath.fsum(
                mpmath.fsum(mpmath.mpf(t.coeff) * mpmath.fprod(
                    w * mpmath.rgamma(1 + mpmath.mpf(e) + s) for e, (s, w) in zip(t.exponents, combo)
                ) for t in expr.terms)
                for combo in itertools.product(*factors)
            )
            assert abs(by_shift - exact) <= mpmath.mpf(10) ** -40 * absum
            u = mpmath.mpf(2) ** -53
            assert abs(mpmath.mpf(got) - exact) <= 23.2 * symbols * u * absum + u * abs(exact)

    def test_each_exponent_weighted_once_per_symbol(self, monkeypatch):
        # a term reuses the weighted sum of an exponent it shares with an
        # earlier term, symbol by symbol
        sums = []
        plain_sum, plain_dot = umbral._sum, umbral._dot

        def counted_sum(values):
            sums.append(len(values))
            return plain_sum(values)

        def counted_dot(weights, values):
            sums.append(len(weights))
            return plain_dot(weights, values)

        monkeypatch.setattr(umbral, "_sum", counted_sum)
        monkeypatch.setattr(umbral, "_dot", counted_dot)
        e = UmbralExpr(2, tuple(UmbralTerm(1.0, (float(k % 3), float(k % 2))) for k in range(6)))
        reduce_weighted(e, [(0.0, (1.0, 2.0)), (0.0, (1.0, 0.0, 0.5, 0.25))])
        # 3 distinct exponents of c1 (two weights each), 2 of c2 (four
        # weights each, one of them the gap at shift 1), then the 6 products
        assert sorted(sums) == [2, 2, 2, 4, 4, 6]

    def test_unit_factors_are_reduce_expr(self):
        # reduce_expr is reduce_weighted with the factor (0.0, (1.0,)) per symbol
        e = expand(UmbralExpSeries((0.0, 0.5), (1, 1), -2.0, 40))
        got = reduce_weighted(e, [(0.0, (1.0,)), (0.0, (1.0,))], check_tail_rel=1e-12)
        assert got.hex() == reduce_expr(e, check_tail_rel=1e-12).hex()

    def test_truncation_checked_on_the_weighted_products(self):
        # a weight that keeps the last terms large defeats the check that
        # the unit factor passes
        e = expand(UmbralExpSeries((0.0,), (1,), -1.0, 20))
        reduce_weighted(e, [(0.0, (1.0,))], check_tail_rel=1e-12)
        with pytest.raises(ConvergenceError, match="reduce_weighted: truncation not certified"):
            reduce_weighted(e, [(-20.0, (1e9,) + (0.0,) * 19 + (1.0,))], check_tail_rel=1e-12)


class TestWindowedReduction:
    # each weighted gamma sum is one fsum over a window of a shared list of
    # reciprocal gammas; it must be bit for bit the plain per-pair loop

    @staticmethod
    def _bilateral(u, v, m_cut):
        orders = range(-m_cut, m_cut + 1)
        return [(float(-m_cut), [u**m for m in orders]), (float(-m_cut), [v**n for n in orders])]

    @pytest.mark.parametrize("m_cut", [14, 30, 60])
    @pytest.mark.parametrize("u,v,x", [(1.0, 1.0, 0.5), (0.8, 1.2, 0.6), (1.5, 0.5, 1.0)])
    def test_i16_images(self, m_cut, u, v, x):
        image = expand(UmbralExpSeries((0.0, 0.0), (1, 1), -x, m_cut + 16))
        windows = self._bilateral(u, v, m_cut)
        want = _plain_reduction(image, windows, 2.0**-60)
        assert reduce_weighted(image, windows, 2.0**-60).hex() == want.hex()

    @pytest.mark.parametrize("m_cut", [14, 30, 60])
    @pytest.mark.parametrize("u,v,x,gamma_p", [(1.0, 1.0, 0.5, 1.0), (0.8, 1.2, 0.6, 2.0), (1.5, 1.5, 0.1, 2.0)])
    def test_i17_images(self, m_cut, u, v, x, gamma_p):
        image = laplace_reduce(gamma_p, (x / 2.0) ** 2, 0.0, 0.0, order=m_cut + 16)
        windows = self._bilateral(u, v, m_cut)
        want = _plain_reduction(image, windows, 2.0**-60)
        assert reduce_weighted(image, windows, 2.0**-60).hex() == want.hex()

    def test_half_integer_laplace_image(self):
        # exponents 0.5 + k and k - 0.5, gapped windows at whole and half
        # shifts: the two symbols' classes differ, and share no argument
        image = laplace_reduce(1.5, 0.3, 0.5, -0.5, order=40)
        for windows in (
            [(-3.0, (1.0, 0.0, 0.25, -2.0, 0.0, 0.5)), (1.0, (0.75, 0.0, 0.0, 3.0))],
            [(-0.5, (2.0, -1.0)), (-2.5, (0.0, 1.0, 0.0, 0.125))],
        ):
            want = _plain_reduction(image, windows, 1e-12)
            assert reduce_weighted(image, windows, 1e-12).hex() == want.hex()

    def test_far_apart_exponents_read_separate_windows(self, monkeypatch):
        # exponents 0 and 100 of one class, three weights: two lists of
        # three reciprocal gammas, not one of 103
        calls = []

        def counted(a):
            calls.append(a)
            return rgamma(a)

        monkeypatch.setattr(umbral, "rgamma", counted)
        e = UmbralExpr(1, (UmbralTerm(1.0, (0.0,)), UmbralTerm(0.5, (100.0,)), UmbralTerm(0.25, (1.0,))))
        windows = [(-1.0, (2.0, 0.0, 1.0))]
        got = reduce_weighted(e, windows)
        assert sorted(calls) == [0.0, 1.0, 2.0, 3.0, 100.0, 101.0, 102.0]
        monkeypatch.undo()
        assert got.hex() == _plain_reduction(e, windows).hex()

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-4.0, max_value=4.0),
                st.integers(min_value=-3, max_value=12),
                st.integers(min_value=-3, max_value=12),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from((0.0, 0.5, 0.25, 0.1, -0.75, 1.0 / 3.0)),
        st.lists(
            st.tuples(
                st.sampled_from((-6.0, -2.0, -0.5, 0.0, 1.0, 0.1, 2.0 / 3.0)),
                st.lists(
                    st.one_of(st.just(0.0), st.floats(min_value=-8.0, max_value=8.0)), min_size=0, max_size=9
                ),
            ),
            min_size=2,
            max_size=2,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_gapped_factors(self, terms, offset, windows):
        # exponents a whole number apart and not, on the 2^-16 grid and
        # off it, with zero weights anywhere in the window
        e = UmbralExpr(2, tuple(UmbralTerm(c, (offset + i, 0.5 * j)) for c, i, j in terms))
        assert reduce_weighted(e, windows).hex() == _plain_reduction(e, windows).hex()


class TestSeriesEquivalence:
    """reduce(expand(image)) must reproduce the direct series termwise."""

    def test_spherical_family_termwise(self):
        for n in range(0, 6):
            for x in (0.5, 1.0, 3.0, 7.0):
                ser = UmbralExpSeries((n + 0.5,), (1,), -((x / 2.0) ** 2), 60)
                ex = expand(ser)
                coeff = 1.0
                for k, t in enumerate(ex.terms):
                    if k:
                        coeff *= -((x / 2.0) ** 2) / k
                    direct = coeff * rgamma(n + k + 1.5)
                    reduced = t.coeff * rgamma(1.0 + t.exponents[0])
                    assert reduced == pytest.approx(direct, rel=1e-15, abs=1e-300)

    def test_two_index_family_values(self):
        for mu, nu, z in ((0.0, 0.0, 1.0), (0.5, 1.5, 4.0), (2.0, 0.25, 9.0), (1.0, 1.0, 20.0)):
            # the image strips the 1/k! factor; fold it back in and the
            # reduction must match the direct evaluator
            total = 0.0
            coeff = 1.0
            for k in range(61):
                if k:
                    coeff *= -z / k
                total += coeff * rgamma(mu + 1.0 + k) * rgamma(nu + 1.0 + k)
            assert total == pytest.approx(humbert2(mu, nu, z).value, rel=1e-12)

    def test_three_index_family_values(self):
        for mu, nu, rho, z in ((0.0, 0.0, 0.0, 1.0), (0.5, 1.0, 1.5, 6.0), (2.0, 1.0, 0.5, 25.0)):
            total = 0.0
            coeff = 1.0
            for k in range(61):
                if k:
                    coeff *= -z / k
                total += coeff * rgamma(mu + 1.0 + k) * rgamma(nu + 1.0 + k) * rgamma(rho + 1.0 + k)
            assert total == pytest.approx(humbert3(mu, nu, rho, z).value, rel=1e-12)

    def test_spherical_value_through_pipeline(self):
        for n in (0, 1, 3):
            for x in (0.5, 2.0):
                ser = UmbralExpSeries((n + 0.5,), (1,), -((x / 2.0) ** 2), 60)
                val = reduce_expr(expand(ser), check_tail_rel=1e-12)
                val *= math.sqrt(math.pi / (2.0 * x)) * (x / 2.0) ** (n + 0.5)
                assert val == pytest.approx(sph_j(n, x).value, rel=1e-11)
