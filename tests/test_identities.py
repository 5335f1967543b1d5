import json
import math
import os
import pickle
import signal
import time

import pytest

from sphstruve import identities, quadrature
from sphstruve.errors import DomainError, UnknownIdentityError
from sphstruve.functions import DEFAULT_POLICY, EvalPolicy
from sphstruve.identities import (
    EvaluatorBinding,
    Identity,
    catalog_json,
    get_identity,
    list_identities,
    verify,
    verify_all,
)

GAMMA_OPS = {"gamma", "rgamma"}


class TestCatalogShape:
    def test_count(self):
        assert len(list_identities()) == 24

    def test_ids_sorted_and_complete(self):
        ids = [i.id for i in list_identities()]
        assert ids == sorted(ids)
        assert ids == [f"I{k:02d}" for k in range(1, 25)]

    def test_references_nonempty(self):
        for iden in list_identities():
            assert iden.reference.strip()
            assert iden.description.strip()

    def test_tolerances_positive(self):
        for iden in list_identities():
            assert iden.tol_abs > 0 and iden.tol_rel > 0

    def test_grid_points_in_window(self):
        for iden in list_identities():
            for pt in iden.grid:
                iden.check_params(pt)  # raises on violation

    def test_record_validates_on_every_path(self, rejects_on_every_path):
        good = Identity(
            id="T01",
            description="test record",
            reference="none",
            params={"nu": ("range", 0.0, 1.0), "n": ("choice", (0, 1))},
            grid=({"nu": 0.5, "n": 1},),
            lhs=EvaluatorBinding(None, frozenset({"a"}), "left"),
            rhs=EvaluatorBinding(None, frozenset({"b"}), "right"),
            tol_abs=1e-12,
            tol_rel=1e-12,
        )
        assert (good.window_note, good.shared_family) == ("", False)
        for bad in (
            {"tol_abs": 0.0},
            {"tol_rel": -1e-12},
            {"grid": ({"nu": 2.0, "n": 1},)},
            {"grid": ({"nu": 0.5, "n": 2},)},
            {"grid": ({"nu": 0.5},)},
            {"grid": ({"nu": 0.5, "n": 1, "mu": 0.0},)},
        ):
            rejects_on_every_path(good, **bad)

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            get_identity("I99")
        with pytest.raises(UnknownIdentityError):
            verify("BOGUS")


class TestIndependenceAudit:
    def test_disjoint_operations_above_gamma_kernel(self):
        for iden in list_identities():
            shared = (iden.lhs.operations & iden.rhs.operations) - GAMMA_OPS
            if iden.shared_family:
                # within-family relations may share the evaluator, but the
                # two strategies must differ
                assert iden.lhs.strategy != iden.rhs.strategy, iden.id
            else:
                assert not shared, f"{iden.id} shares {shared}"

    def test_strategies_always_differ(self):
        for iden in list_identities():
            assert iden.lhs.strategy != iden.rhs.strategy, iden.id


class TestWindowRespect:
    def test_out_of_window_raises(self):
        with pytest.raises(DomainError):
            verify("I14", {"alpha": -2.5})
        with pytest.raises(DomainError):
            verify("I02", {"t": 2.0, "x": 1.0})
        with pytest.raises(DomainError):
            verify("I22", {"nu": 0.01})

    def test_unknown_param_rejected(self):
        with pytest.raises(DomainError):
            verify("I01", {"zeta": 1.0})

    def test_missing_param_rejected(self):
        with pytest.raises(DomainError):
            verify("I02", {"t": 0.5})


class TestSpotChecks:
    def test_i01(self):
        r = verify("I01")
        assert r.status == "pass"
        assert r.lhs == pytest.approx(math.pi, abs=1e-8)

    def test_i14_arithmetic_values(self):
        for alpha, want in ((-1.5, -1.0), (-1.0, 0.0), (-0.5, 1.0)):
            r = verify("I14", {"alpha": alpha})
            assert r.status == "pass"
            assert r.lhs == pytest.approx(want, abs=1e-6)

    def test_i19_special_point(self):
        r = verify("I19", {"mu": 0.5, "nu": 0.5})
        assert r.status == "pass"
        assert r.rhs == pytest.approx(2.0, rel=1e-12)
        assert r.lhs == pytest.approx(2.0, rel=1e-6)

    def test_report_pass_rule(self):
        r = verify("I09")
        assert (r.abs_err <= get_identity("I09").tol_abs) or (
            r.rel_err <= get_identity("I09").tol_rel
        )

    def test_odd_moments_exactly_zero(self):
        for m in (1, 3, 5, 7):
            r = verify("I05", {"m": m})
            assert r.status == "pass"
            assert r.lhs == 0.0


class TestTruncationMonotonicity:
    def test_i16_defect_decreases(self):
        from sphstruve.identities import _i16_lhs

        u, v, x = 0.8, 1.2, 0.6
        want = math.exp(u + v - x / (u * v))
        defects = []
        for m_cut in (4, 6, 8, 10):
            got = _i16_lhs(u, v, x, m_cut=m_cut)
            defects.append(abs(got - want))
        for a, b in zip(defects, defects[1:]):
            assert b < a or b < 1e-12

    def test_i17_defect_decreases(self):
        from sphstruve.identities import _i17_lhs
        from sphstruve.gammakit import gamma

        u, v, x, g = 1.0, 1.0, 0.5, 2.0
        want = math.exp(u + v) * gamma(g) / (1.0 + (x / 2.0) ** 2 / (u * v)) ** g
        defects = []
        for m_cut in (4, 6, 8, 10):
            got = _i17_lhs(u, v, x, g, m_cut=m_cut)
            defects.append(abs(got - want))
        for a, b in zip(defects, defects[1:]):
            assert b < a or b < 1e-12


def _bilateral_oracle(coeff, step_roundings, u, v, order, m_cut=14):
    """(value, bound) of a bilateral double sum at 50 digits.

    The sum over |m|, |n| <= m_cut of u^m v^n times an image
    sum_k c_k (c1 c2)^k up to `order`, reduced at shift (m, n), is
    sum_k c_k A_u(k) A_v(k), where A_u(k) is the sum over m of
    u^m / Gamma(1+k+m); `coeff(k)` gives the exact c_k, with c_0 = 1.  The
    lhs forms the same products in binary64 and sums them with math.fsum.
    Its error, to first order in the unit roundoff u, is at most
    u|S| + sum_k (s k + 50.4) u |P_k|, P_k the exact k-th product and s
    the `step_roundings` of the image's coefficient recurrence, because:
    * c_0 is exact and each step of the recurrence rounds s times, so c_k
      is off by at most s k u;
    * in A, u**m (pow, 2u) times rgamma at a positive integer (the
      library's documented 10.1 ulps, 20.2u; exactly 0 at a pole) rounds
      once more (u): 23.2u per part.  The parts are all nonnegative, so
      their fsum (u) keeps A within 24.2u;
    * c_k A_u A_v rounds twice (2u), and the fsum once on the total.
    The oracle is exact to about 1e-50, far inside that bound.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):

        def weighted(base, k):
            return mp.fsum(mp.mpf(base) ** m * mp.rgamma(1 + k + m) for m in range(-m_cut, m_cut + 1))

        products = [coeff(k) * weighted(u, k) * weighted(v, k) for k in range(order + 1)]
        value = mp.fsum(products)
        u53 = mp.mpf(2) ** -53
        bound = u53 * abs(value) + mp.fsum(
            (step_roundings * k + mp.mpf("50.4")) * u53 * abs(p) for k, p in enumerate(products)
        )
    return value, bound


def _i16_oracle(u, v, x):
    """I16's image e^{-x c1 c2} to order 60: c_k = (-x)^k / k!.  `expand`
    steps it by coeff *= scale / k with scale = -x exact, a quotient and a
    product: two roundings a step."""
    mp = pytest.importorskip("mpmath")
    return _bilateral_oracle(lambda k: (-mp.mpf(x)) ** k / mp.factorial(k), 2, u, v, 60)


def _assert_i16_within_oracle(lhs, u, v, x):
    value, bound = _i16_oracle(u, v, x)
    assert abs(lhs - value) <= bound, (u, v, x, lhs, float(value), float(bound))


def _i17_oracle(u, v, x, gamma_p, order=30):
    """I17's Laplace image: c_k = (-w)^k Gamma(g+k)/k!, w = (x/2)^2, and
    c_0 = Gamma(g) = 1 for g in {1, 2}.  w = (x/2.0)**2 rounds once in
    `pow` (at most 1 ulp, 2u), so w^k is off by 2k u, and each step of
    c_k's recurrence rounds three times (g + k - 1 is exact): five
    roundings a step."""
    mp = pytest.importorskip("mpmath")

    def coeff(k):
        w = (mp.mpf(x) / 2) ** 2
        return (-w) ** k * mp.gamma(mp.mpf(gamma_p) + k) / mp.factorial(k)

    return _bilateral_oracle(coeff, 5, u, v, order)


def _assert_i17_within_oracle(lhs, u, v, x, gamma_p, order=30):
    value, bound = _i17_oracle(u, v, x, gamma_p, order)
    assert abs(lhs - value) <= bound, (u, v, x, gamma_p, lhs, float(value), float(bound))


class TestI17ShiftFamily:
    # lhs bits of the four default I17 points, with the image reduced
    # once against the generating polynomials sum_m (u c1)^m and
    # sum_n (v c2)^n; each lies within the oracle's rounding bound
    @pytest.mark.parametrize(
        "index,bits",
        [
            (0, "0x1.bd14fbd0480fbp+2"),
            (1, "0x1.a2e692a5e9672p+2"),
            (2, "0x1.b05d86e78fe0fp+2"),
            (3, "0x1.8b4e3232cc158p+2"),
        ],
    )
    def test_default_grid_golden_bits(self, index, bits):
        params = get_identity("I17").grid[index]
        r = verify("I17", params)
        assert r.status == "pass"
        assert r.lhs.hex() == bits
        _assert_i17_within_oracle(r.lhs, params["u"], params["v"], params["x"], params["gamma_p"])

    def test_jittered_grid_matches_per_pair_reduction(self):
        # the oracle's factored form against the per-pair double sum, shift
        # by shift, at 50 digits; then each jittered lhs within its bound
        mp = pytest.importorskip("mpmath")
        orders = range(-14, 15)
        for seed in (7, 102):
            reports = verify_all(ids=["I17"], seed=seed)
            assert [r.status for r in reports] == ["pass"] * 4
            for r in reports:
                p = r.params
                value, bound = _i17_oracle(p["u"], p["v"], p["x"], p["gamma_p"])
                with mp.workdps(50):
                    w, g = (mp.mpf(p["x"]) / 2) ** 2, mp.mpf(p["gamma_p"])
                    coeffs = [(-w) ** k * mp.gamma(g + k) / mp.factorial(k) for k in range(31)]
                    rg = {a: mp.rgamma(a) for a in range(-13, 46)}
                    per_pair = mp.fsum(
                        mp.mpf(p["u"]) ** m * mp.mpf(p["v"]) ** n
                        * mp.fsum(c * rg[1 + k + m] * rg[1 + k + n] for k, c in enumerate(coeffs))
                        for m in orders
                        for n in orders
                    )
                    assert abs(per_pair - value) <= mp.mpf(10) ** -45 * abs(value)
                assert abs(r.lhs - value) <= bound, (seed, p)


class TestI17CertifiedImage:
    # the image runs to order m_cut + 16 = 30, and its cut is certified:
    # the lhs lies within the rounding bound of the order-60 sum

    @staticmethod
    def _assert_certified(u, v, x, gamma_p):
        from sphstruve.identities import _i17_lhs

        lhs = _i17_lhs(u, v, x, gamma_p)
        _assert_i17_within_oracle(lhs, u, v, x, gamma_p, order=60)

    def test_window_corners(self):
        for x in (0.1, 1.0):
            for gamma_p in (1.0, 2.0):
                for u in (0.5, 1.5):
                    for v in (0.5, 1.5):
                        self._assert_certified(u, v, x, gamma_p)
                        params = {"u": u, "v": v, "x": x, "gamma_p": gamma_p}
                        assert verify("I17", params).status != "skipped", params

    def test_hypothesis_points(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        weight = st.floats(min_value=0.5, max_value=1.5)

        @given(weight, weight, st.floats(min_value=0.1, max_value=1.0), st.sampled_from((1.0, 2.0)))
        @settings(max_examples=25, deadline=None)
        def run(u, v, x, gamma_p):
            self._assert_certified(u, v, x, gamma_p)

        run()

    def test_short_image_becomes_skip(self, monkeypatch):
        # an image cut at order 12 leaves its last two terms near 4e-13
        # and 3e-14, far above 2^-60 of its sum 6.95: the check must not
        # pass
        reduce = identities.laplace_reduce
        monkeypatch.setattr(identities, "laplace_reduce", lambda g, w, a, b, order: reduce(g, w, a, b, order=12))
        rep = verify("I17", get_identity("I17").grid[0])
        assert rep.status == "skipped"
        assert "reduce_weighted: truncation not certified, sum 6.95" in rep.reason


class TestI16UmbralImage:
    # J_{m,n}(x) = c1^m c2^n e^{-x c1 c2}, so I16's double sum is the
    # exponential image, expanded to order m_cut + 16 = 30, reduced once
    # against sum_m (u c1)^m and sum_n (v c2)^n; its lhs lies within the
    # rounding bound of the order-60 sum, which also certifies the cut

    @pytest.mark.parametrize(
        "index,bits",
        [(0, "0x1.1ed3fe64fb25bp+2"), (1, "0x1.fa3ff43cffc51p+1"), (2, "0x1.5d45cacfd43f8p+2")],
    )
    def test_default_grid_golden_bits(self, index, bits):
        params = get_identity("I16").grid[index]
        r = verify("I16", params)
        assert r.status == "pass"
        assert r.lhs.hex() == bits
        _assert_i16_within_oracle(r.lhs, params["u"], params["v"], params["x"])

    def test_jittered_grids_within_the_oracle(self):
        for seed in (7, 102):
            reports = verify_all(ids=["I16"], seed=seed)
            assert [r.status for r in reports] == ["pass"] * 3
            for r in reports:
                _assert_i16_within_oracle(r.lhs, r.params["u"], r.params["v"], r.params["x"])

    def test_window_corners(self):
        # the image's cut is certified at every corner; the m_cut = 14
        # cut of the double sum is not, and leaves (0.5, 0.5, 1.0) and
        # (1.5, 1.5, 0.1) outside the tolerance (status fail, not skipped)
        from sphstruve.identities import _i16_lhs

        for x in (0.1, 1.0):
            for u in (0.5, 1.5):
                for v in (0.5, 1.5):
                    _assert_i16_within_oracle(_i16_lhs(u, v, x), u, v, x)
                    params = {"u": u, "v": v, "x": x}
                    assert verify("I16", params).status != "skipped", params

    def test_hypothesis_points(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from sphstruve.identities import _i16_lhs

        weight = st.floats(min_value=0.5, max_value=1.5)

        @given(weight, weight, st.floats(min_value=0.1, max_value=1.0))
        @settings(max_examples=25, deadline=None)
        def run(u, v, x):
            _assert_i16_within_oracle(_i16_lhs(u, v, x), u, v, x)

        run()

    def test_short_image_becomes_skip(self, monkeypatch):
        # an image cut at order 12 leaves its last two terms near 9e-11
        # and 4e-12, far above 2^-60 of its sum 4.48: the check must not
        # pass
        expand = identities.expand
        monkeypatch.setattr(identities, "expand", lambda series: expand(series._replace(order=12)))
        rep = verify("I16", get_identity("I16").grid[0])
        assert rep.status == "skipped"
        assert "reduce_weighted: truncation not certified, sum 4.48" in rep.reason


class TestSymmetricDoubleSums:
    # I16 and I17 each reduce their image once, against one generating
    # polynomial per symbol, and call no series kernel

    def test_each_symmetric_pair_is_evaluated_once(self, monkeypatch):
        from sphstruve import functions

        def kernel(*args, **kwargs):
            raise AssertionError("a series kernel was called")

        factor_sizes = []
        reduce = identities.reduce_weighted

        def recorded(expr, factors, check_tail_rel=None):
            factor_sizes.append([len(f) for f in factors])
            return reduce(expr, factors, check_tail_rel)

        monkeypatch.setattr(identities, "_sum_ratio_series", kernel)
        monkeypatch.setattr(functions, "_sum_ratio_series", kernel)
        monkeypatch.setattr(identities, "reduce_weighted", recorded)
        for identity_id in ("I16", "I17"):
            factor_sizes.clear()
            assert verify(identity_id).status == "pass"
            assert factor_sizes == [[29, 29]], identity_id

    def test_sums_match_the_full_double_loops(self):
        # I17 within its oracle's bound at Hypothesis points
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from sphstruve.identities import _i17_lhs

        weight = st.floats(min_value=0.5, max_value=1.5)

        @given(weight, weight, st.floats(min_value=0.1, max_value=1.0), st.sampled_from((1.0, 2.0)))
        @settings(max_examples=10, deadline=None)
        def run(u, v, x, gamma_p):
            _assert_i17_within_oracle(_i17_lhs(u, v, x, gamma_p), u, v, x, gamma_p)

        run()


class TestLaguerreMultiIndex:
    # the Laguerre side of every default I11/I15/I18 point, at the one
    # rule the a-priori bound selects (_RULES); the prepared series must
    # serve every node of it bitwise.  The bits are those of an
    # independent loop: pointwise humbert2 or humbert3 at every node of
    # gauss_laguerre_nodes(sigma, n), the products w * f summed by
    # math.fsum, at that n
    _BITS = {
        "I11": (
            "0x1.3cfc39c5aeb0cp-2", "0x1.2326f61fa6f22p-1", "0x1.94eb737cc766ep-1", "-0x1.7b52f43370e3ep-3",
            "0x1.1ae59fec267b1p-3", "0x1.7796ab2c99afep-2", "0x1.99134a2bb05a3p-1", "0x1.05bddf0dcceddp-2",
            "0x1.ab6845a76215ap-5", "0x1.9670ccc51be91p-3", "0x1.4b249d8a6f117p-1", "0x1.9d99870101dbfp-1",
        ),
        "I15": (
            "0x1.b7bbd7f90f222p+0", "0x1.8fa0ac9ab72a5p+0", "0x1.09ae9a3774c8ep+0", "0x1.0feda478c967dp-8",
            "0x1.e07f1d54c3f36p-1", "0x1.87c7fdbd7b8f2p-1", "0x1.ca873fb24cf02p-3", "-0x1.6bb7db255cba9p-3",
            "0x1.f56ece862246ep+0", "0x1.d6e6e780f1c27p+0", "0x1.6cff482ce3b9ep+0", "0x1.24fde41551c2ep-2",
            "0x1.14fa843f86214p+0", "0x1.e624a51d1674dp-1", "0x1.06aa0d11b4e68p-1", "-0x1.bb33165367561p-3",
            "0x1.beb6a93cdb69ap+0", "0x1.aa428aec1dad3p+0", "0x1.618c427ae1498p+0", "0x1.c4bcfb3e57d51p-2",
            "0x1.f02a71f4870d8p-1", "0x1.c29c9ee970c6ep-1", "0x1.27487958371efp-1", "-0x1.0c5a5308fbaf7p-3",
            "0x1.f56ece862246ep+0", "0x1.d6e6e780f1c27p+0", "0x1.6cff482ce3b9ep+0", "0x1.24fde41551c2ep-2",
            "0x1.14fa843f86214p+0", "0x1.e624a51d1674dp-1", "0x1.06aa0d11b4e68p-1", "-0x1.bb33165367561p-3",
            "0x1.1ce20d3cb1dc1p+1", "0x1.114a5454e1fa8p+1", "0x1.cfbf6b052889dp+0", "0x1.662d42601022bp-1",
            "0x1.3cfc39c5aeb0cp+0", "0x1.2326f61fa6f22p+0", "0x1.94eb737cc766ep-1", "-0x1.2f759029271cbp-4",
            "0x1.fab32b17bd808p+0", "0x1.eb31301872be6p+0", "0x1.b2b6170190553p+0", "0x1.ab2b0d99cf9a3p-1",
            "0x1.1ae59fec267b1p+0", "0x1.0994ca317b730p+0", "0x1.99134a2bb05a3p-1", "0x1.08dd2ca3ec189p-4",
            "0x1.beb6a93cdb69ap+0", "0x1.aa428aec1dad3p+0", "0x1.618c427ae1498p+0", "0x1.c4bcfb3e57d51p-2",
            "0x1.f02a71f4870d8p-1", "0x1.c29c9ee970c6ep-1", "0x1.27487958371efp-1", "-0x1.0c5a5308fbaf7p-3",
            "0x1.fab32b17bd808p+0", "0x1.eb31301872be6p+0", "0x1.b2b6170190553p+0", "0x1.ab2b0d99cf9a3p-1",
            "0x1.1ae59fec267b1p+0", "0x1.0994ca317b730p+0", "0x1.99134a2bb05a3p-1", "0x1.08dd2ca3ec189p-4",
            "0x1.c238c019bac76p+0", "0x1.b7dc32dab7448p+0", "0x1.9184b844e6095p+0", "0x1.d6330a435f0a0p-1",
            "0x1.f80e2ab3c0cbap-1", "0x1.e0e0090a11c44p-1", "0x1.8d5e30136cc44p-1", "0x1.81dffa1a753b0p-3",
        ),
        "I18": (
            "0x1.c2ee768dfe23dp-1", "0x1.2bca42aaa3c2bp-1", "0x1.150011bff5b5ap-4", "0x1.2bad224f899b4p-2",
            "0x1.cd979414a5f7ep-2", "0x1.14f595fcecae2p-8", "0x1.e5e8d0b042401p-8", "0x1.9e37059973004p-5",
            "0x1.5189ca796326cp-3",
        ),
    }
    # the selected rule at each default point: 8 nodes but at four of
    # I15's x = 5 points and at I18, whose z grows like s^2; 888 node
    # series a pass, against 2,328 for the 8/16 rule pairs
    _RULES = {
        "I11": (8,) * 12,
        "I15": tuple(16 if i in (3, 7, 15, 31) else 8 for i in range(72)),
        "I18": (16, 16, 32, 16, 16, 32, 8, 16, 32),
    }
    _SIDE = {"I11": "lhs", "I15": "lhs", "I18": "rhs"}

    @staticmethod
    def rule_sizes(patch):
        """The n of every rule the catalog's Laguerre images take."""
        sizes, nodes = [], identities.gauss_laguerre_nodes

        def sized(sigma, n):
            sizes.append(n)
            return nodes(sigma, n)

        patch.setattr(identities, "gauss_laguerre_nodes", sized)
        return sizes

    @pytest.mark.parametrize("identity_id", ["I11", "I15", "I18"])
    def test_default_grid_golden_bits(self, identity_id, monkeypatch):
        grid = get_identity(identity_id).grid
        assert len(grid) == len(self._BITS[identity_id]) == len(self._RULES[identity_id])
        sizes = self.rule_sizes(monkeypatch)
        for params, bits in zip(grid, self._BITS[identity_id]):
            r = verify(identity_id, params)
            assert r.status == "pass"
            assert getattr(r, self._SIDE[identity_id]).hex() == bits, params
        assert tuple(sizes) == self._RULES[identity_id]

    def test_node_series_per_pass(self):
        assert sum(sum(sizes) for sizes in self._RULES.values()) == 888

    def test_one_prefactor_per_check(self, monkeypatch):
        from sphstruve import functions
        from sphstruve.functions import DEFAULT_POLICY

        calls = []
        rgamma = functions.rgamma

        def counted(x):
            calls.append(x)
            return rgamma(x)

        monkeypatch.setattr(functions, "rgamma", counted)
        iden = get_identity("I15")
        # one first term per check, one rgamma per gamma argument of the
        # series, however many Laguerre nodes it serves: at
        # alpha = beta = 0 the three arguments are 1, 1 and 1, at (0.5, 1)
        # they are 1, 1.5 and 2
        iden.lhs.fn(iden.grid[0], DEFAULT_POLICY)
        assert calls == [1.0, 1.0, 1.0]
        calls.clear()
        iden.lhs.fn({"alpha": 0.5, "beta": 1.0, "gamma_p": 0.5, "x": 0.5}, DEFAULT_POLICY)
        assert sorted(calls) == [1.0, 1.5, 2.0]

    def test_rule_rounding_within_its_charge(self):
        # the bound charges the rules the catalog takes (8 to 32 nodes, at
        # every sigma of its windows) 2 n^2 u of each weight and n u of the
        # node errors averaged with the weights w_i x_i^m, m >= 1; here
        # against 40-digit roots, Newton-refined from the library's nodes
        mp = pytest.importorskip("mpmath")
        u = 2.0**-53
        with mp.workdps(40):
            for sigma in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
                s = mp.mpf(sigma)
                for n in (8, 16, 32):
                    c = mp.gamma(n + s + 1) / (mp.factorial(n) * (n + 1) ** 2)
                    node_err, powers = [], []
                    for x, w in zip(*quadrature.gauss_laguerre_nodes(sigma, n)):
                        r = mp.mpf(x)
                        for _ in range(4):
                            r += mp.laguerre(n, s, r) / mp.laguerre(n - 1, s + 1, r)
                        exact = c * r / mp.laguerre(n + 1, s, r) ** 2
                        assert abs(w - exact) <= 2 * n * n * u * exact, (sigma, n, x)
                        node_err.append(abs(x - r) / r)
                        powers.append((r, exact))
                    for m in range(1, 4 * n):
                        powers = [(r, p * r) for r, p in powers]
                        weighted = mp.fsum(p * e for (_, p), e in zip(powers, node_err))
                        assert weighted <= n * u * mp.fsum(p for _, p in powers), (sigma, n, m)

    @staticmethod
    def _image(identity_id, p):
        """(indices, w, power, sigma) of the check's Laguerre image."""
        if identity_id == "I11":
            return (0.5, p["alpha"] + 0.5), (p["x"] / 2.0) ** 2, 1, 0.0
        if identity_id == "I15":
            return (p["alpha"], p["beta"]), (p["x"] / 2.0) ** 2, 1, p["gamma_p"] - 1.0
        return (p["mu"], p["nu"], p["mu"] + p["nu"]), p["x"] * p["x"] / 4.0, 2, p["mu"] + p["nu"]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("identity_id", ["I11", "I15", "I18"])
    def test_least_rule_meeting_u_a(self, identity_id, seed, monkeypatch):
        # the rule taken is the least of 8, 16, ..., 128 nodes whose
        # truncation bound, the sum over power k >= 2n of |a_k|
        # Gamma(sigma + power k + 1), is at most 2^-53 times the whole sum
        # A, both summed here in 40-digit mpmath; points where some rule's
        # bound is within 10% of the threshold are not judged
        mp = pytest.importorskip("mpmath")
        sizes = self.rule_sizes(monkeypatch)
        reports = verify_all(ids=[identity_id], seed=seed)
        assert len(sizes) == len(reports)
        judged = 0
        with mp.workdps(40):
            for r, n in zip(reports, sizes):
                indices, w, power, sigma = self._image(identity_id, r.params)
                terms, k = [], 0
                while k < 20 or terms[-1] > mp.mpf(10) ** -45 * sum(terms):
                    den = mp.factorial(k) * mp.fprod(mp.gamma(k + mp.mpf(i) + 1) for i in indices)
                    terms.append(mp.mpf(w) ** k * mp.gamma(mp.mpf(sigma) + power * k + 1) / den)
                    k += 1
                total = mp.fsum(terms)
                ratios = {m: mp.fsum(terms[-(-2 * m // power):]) / (2.0**-53 * total) for m in (8, 16, 32, 64, 128)}
                if any(0.9 < q < 1.1 for q in ratios.values()):
                    continue
                judged += 1
                assert n == min(m for m, q in ratios.items() if q <= 1), (r.params, ratios)
        assert judged >= len(reports) - 2


class TestShiftRelations:
    def test_each_side_evaluates_only_itself(self, monkeypatch):
        # I24: the lhs takes one value at the check's order (its derivative
        # comes from the series terms) and the rhs one at the shifted
        # order, two evaluator calls in all
        calls = []
        for name in ("cyl_j", "struve_h"):
            def counted(nu, x, policy=None, _fn=getattr(identities, name)):
                calls.append(nu)
                return _fn(nu, x, policy)

            monkeypatch.setattr(identities, name, counted)
        for params in get_identity("I24").grid:
            calls.clear()
            assert verify("I24", params).status == "pass"
            assert calls == [params["order"], params["order"] + params["direction"]], params


class TestRegularizedJitteredGrids:
    # I12/I13 lhs bits of `verify_all(ids=["I12", "I13"], seed=...)` taken
    # while the tail was still a nested sum of per-coefficient asymptotic
    # series at T = 16.  The single antiderivative recurrence at T = 24
    # moves every value; each must be no farther from the 50-digit closed
    # form than before.
    _PARENT_BITS = {
        7: (
            "0x1.20dd7504317f7p-1", "0x1.0000000008b36p+1", "0x1.812746b03912ap+0",
            "0x1.c5bf891b5e1f3p+0", "0x1.812746b03912ap+0", "0x1.2bd4d91a91a01p-1",
            "0x1.2609f94e7b519p+2", "0x1.303f9f63b11cep+0", "0x1.29817e9169c54p+1",
            "0x1.18bc4d36764c7p+2",
        ),
        102: (
            "0x1.20dd7504317f7p-1", "0x1.0000000008b36p+1", "0x1.812746b03912ap+0",
            "0x1.c5bf891b5e1f3p+0", "0x1.812746b03912ap+0", "0x1.371f918b36a1ep-1",
            "0x1.11bb0f1d76313p+2", "0x1.34314ca83a121p+0", "0x1.1cbe0f4c3b57cp+1",
            "0x1.1560e10f74402p+2",
        ),
    }

    @staticmethod
    def _closed_forms(mp, seed):
        reports = verify_all(ids=["I12", "I13"], seed=seed)
        assert [r.identity_id for r in reports] == ["I12"] * 5 + ["I13"] * 5
        assert all(r.status == "pass" for r in reports)
        for r in reports:
            mu, nu = mp.mpf(r.params["mu"]), mp.mpf(r.params["nu"])
            if r.identity_id == "I12":
                want = mp.sqrt(mp.pi) / (mp.gamma(mu + 0.5) * mp.gamma(nu + 0.5))
            else:
                a = mp.mpf(r.params["alpha"])
                want = mp.gamma(a) / (mp.gamma(mu - a + 1) * mp.gamma(nu - a + 1))
            yield r, want

    @pytest.mark.parametrize("seed", [7, 102])
    def test_no_farther_from_closed_form(self, seed):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for (r, want), bits in zip(self._closed_forms(mp, seed), self._PARENT_BITS[seed]):
                old = mp.mpf(float.fromhex(bits))
                assert abs(mp.mpf(r.lhs) - want) <= abs(old - want), r.params

    @pytest.mark.parametrize("seed", [0, 7, 102])
    def test_within_1e14_of_closed_form(self, seed):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            for r, want in self._closed_forms(mp, seed):
                assert abs((mp.mpf(r.lhs) - want) / want) <= 1e-14, r.params


@pytest.fixture
def forks(monkeypatch):
    """Counts this process's `os.fork` calls; each call still forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Boom(Exception):
    pass


class TestVerifyAll:
    def test_subset_run_and_ordering(self):
        reports = verify_all(ids=["I02", "I09"])
        assert [r.identity_id for r in reports] == ["I02"] * 12 + ["I09"] * 9
        assert all(r.status == "pass" for r in reports)

    def test_parallel_determinism(self):
        a = verify_all(ids=["I02", "I08", "I20"], parallelism=1)
        b = verify_all(ids=["I02", "I08", "I20"], parallelism=8)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.identity_id == rb.identity_id
            assert ra.params == rb.params
            assert ra.lhs == rb.lhs and ra.rhs == rb.rhs

    def test_process_pool_is_bitwise_serial(self, monkeypatch):
        # a jittered subset that touches every lazily built per-process
        # table (the Gauss-Laguerre rules, which each worker builds by the
        # same pure-Python QL, and the regularized expansion coefficients)
        monkeypatch.setattr(identities, "_available_cpus", lambda: 2)
        ids = ["I07", "I12", "I17", "I18"]
        pooled = verify_all(ids=ids, seed=7, parallelism=2)
        serial = verify_all(ids=ids, seed=7, parallelism=1)

        def key(r):
            return (r.identity_id, r.params, r.status, r.lhs.hex(), r.rhs.hex())

        assert [key(r) for r in pooled] == [key(r) for r in serial]
        assert all(r.status == "pass" for r in pooled)

    def test_records_the_pool_sends_survive_pickle(self):
        policy = EvalPolicy(rel_tol=1e-10, max_terms=300)
        for rec in (policy, verify("I02", policy=policy), verify("I15", get_identity("I15").grid[0])):
            back = pickle.loads(pickle.dumps(rec))
            assert type(back) is type(rec)
            assert back == rec

    def test_process_pool_survives_wrapped_verify(self, monkeypatch):
        # a tracer replaces the module's `verify` with a closure, which
        # cannot be pickled; the pool must still run it
        monkeypatch.setattr(identities, "_available_cpus", lambda: 2)
        inner = identities.verify

        def wrapper(*args, **kwargs):
            return inner(*args, **kwargs)

        want = verify_all(ids=["I02"])
        monkeypatch.setattr(identities, "verify", wrapper)
        got = verify_all(ids=["I02"], parallelism=2)
        assert [(r.identity_id, r.params, r.status, r.lhs, r.rhs) for r in got] == [
            (r.identity_id, r.params, r.status, r.lhs, r.rhs) for r in want
        ]

    @pytest.mark.parametrize(
        "parallelism,affinity,cpu_count,workers",
        [
            (500, 3, 8, 3),  # capped at the CPUs this process may use
            (500, 64, 64, 12),  # capped at the 12 I02 checks
            (2, 8, 8, 2),
            (4, None, 3, 3),  # no sched_getaffinity: os.cpu_count()
            (2, 1, 8, None),  # one CPU: serial, no fork
            (2, None, None, None),  # unknown CPU count counts as one
        ],
    )
    def test_worker_cap(self, monkeypatch, forks, parallelism, affinity, cpu_count, workers):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)))
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        reports = verify_all(ids=["I02"], parallelism=parallelism)
        # this process runs one share and forks a child for each other one
        assert len(forks) == (0 if workers is None else workers - 1)
        assert [r.status for r in reports] == ["pass"] * 12
        assert_no_child_left()

    def test_shares_are_interleaved_and_reports_in_catalog_order(self, monkeypatch):
        monkeypatch.setattr(identities, "_available_cpus", lambda: 3)
        monkeypatch.setattr(identities, "verify", lambda i, params, policy: (i, params, os.getpid()))
        got = verify_all(parallelism=3)
        assert [(i, p) for i, p, _ in got] == [(iden.id, pt) for iden in list_identities() for pt in iden.grid]
        # share k is jobs[k::3]; this process runs share 0
        shares = [{pid for _, _, pid in got[k::3]} for k in range(3)]
        assert shares[0] == {os.getpid()}
        assert [len(s) for s in shares] == [1, 1, 1] and len(set.union(*shares)) == 3
        assert_no_child_left()

    def test_serial_where_fork_is_missing(self, monkeypatch):
        monkeypatch.setattr(identities, "_available_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        inner = identities.verify
        pids = []

        def verify(*args):
            pids.append(os.getpid())
            return inner(*args)

        monkeypatch.setattr(identities, "verify", verify)
        reports = verify_all(ids=["I02"], parallelism=2)
        assert [r.status for r in reports] == ["pass"] * 12
        assert pids == [os.getpid()] * 12

    @pytest.mark.parametrize("index", [0, 1])  # share 0 runs here, share 1 in the child
    def test_exception_of_either_share_is_raised(self, monkeypatch, index):
        monkeypatch.setattr(identities, "_available_cpus", lambda: 2)
        inner = identities.verify
        bad = get_identity("I02").grid[index]

        def verify(identity_id, params, policy):
            if params == bad:
                raise _Boom(index)
            return inner(identity_id, params, policy)

        monkeypatch.setattr(identities, "verify", verify)
        with pytest.raises(_Boom):
            verify_all(ids=["I02"], parallelism=2)
        assert_no_child_left()

    def test_unpicklable_child_exception_raises_runtime_error(self, monkeypatch):
        monkeypatch.setattr(identities, "_available_cpus", lambda: 2)
        inner, caller = identities.verify, os.getpid()

        def verify(*args):
            if os.getpid() != caller:
                exc = ValueError("cannot travel")
                exc.hook = lambda: None
                raise exc
            return inner(*args)

        monkeypatch.setattr(identities, "verify", verify)
        with pytest.raises(RuntimeError, match="ValueError: cannot travel"):
            verify_all(ids=["I02"], parallelism=2)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "end,status",
        [(lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL)],
    )
    def test_child_without_result_raises(self, monkeypatch, end, status):
        monkeypatch.setattr(identities, "_available_cpus", lambda: 2)
        inner, caller = identities.verify, os.getpid()

        def verify(*args):
            if os.getpid() != caller:
                end()
            return inner(*args)

        monkeypatch.setattr(identities, "verify", verify)
        with pytest.raises(ChildProcessError, match=f"exit status {status}"):
            verify_all(ids=["I02"], parallelism=2)
        assert_no_child_left()

    def test_interrupted_caller_kills_its_children(self, monkeypatch):
        monkeypatch.setattr(identities, "_available_cpus", lambda: 2)
        caller = os.getpid()

        def verify(*args):
            if os.getpid() != caller:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(identities, "verify", verify)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify_all(ids=["I02"], parallelism=2)
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    def test_jitter_is_seeded_and_in_window(self):
        a = verify_all(ids=["I02"], seed=3)
        b = verify_all(ids=["I02"], seed=3)
        c = verify_all(ids=["I02"], seed=4)
        assert [r.params for r in a] == [r.params for r in b]
        assert [r.params for r in a] != [r.params for r in c]
        iden = get_identity("I02")
        for r in a:
            iden.check_params(r.params)
            assert r.status == "pass"


class TestOscillatoryJitteredGrids:
    # jittered I07 points whose Levin cells once started near a lobe peak
    # and tripped the growth guard (CLI seeds 80, 98, 102, 122, 211); kept
    # as regression points for the Gauss-Legendre head and closed-form tail
    @pytest.mark.parametrize(
        "a,b",
        [
            (2.0733761116953446, 1.5444309418918905),
            (2.0734944819060117, 1.5300301840938453),
            (1.5050505669829433, 0.8758421735401828),
            (2.073705485582223, 1.5443071500866419),
            (1.4614435009859055, 0.8678946037407048),
        ],
    )
    def test_i07_lobe_peak_starts(self, a, b):
        r = verify("I07", {"a": a, "b": b})
        assert r.status == "pass", r.reason
        assert r.rel_err <= 1e-11

    def test_i07_seed_scan(self):
        bad = [
            (seed, r.identity_id, r.params, r.reason)
            for seed in range(1, 121)
            for r in verify_all(ids=["I06", "I07"], seed=seed)
            if r.status != "pass"
        ]
        assert bad == []


class TestCatalogExport:
    def test_schema(self):
        data = catalog_json()
        assert len(data) == 24
        text = json.dumps(data)
        assert json.loads(text) == data
        for entry in data:
            for key in (
                "id",
                "description",
                "reference",
                "params",
                "grid",
                "tol_abs",
                "tol_rel",
                "lhs",
                "rhs",
            ):
                assert key in entry, (entry["id"], key)
            assert entry["lhs"]["operations"] is not None
            assert entry["lhs"]["strategy"] != entry["rhs"]["strategy"]


class TestSkippedPropagation:
    def test_evaluator_domain_error_becomes_skip(self, monkeypatch):
        # every catalog grid point is evaluable, so exercise verify's
        # skip path by temporarily breaking one binding
        iden = get_identity("I22")  # fills the catalog

        def boom(p, pol):
            raise DomainError("synthetic")

        monkeypatch.setitem(identities._CATALOG, "I22", iden._replace(lhs=iden.lhs._replace(fn=boom)))
        rep = verify("I22", {"nu": 1.0})
        assert rep.status == "skipped"
        assert "synthetic" in rep.reason

    def test_uncertified_laguerre_becomes_skip(self, monkeypatch):
        # a Laguerre image whose bound is not met must not pass as a
        # check: with the tolerance at 1e-20 no bound meets it, and with
        # the 8-node rule alone no rule meets u A at I15's x = 5
        iden = get_identity("I15")
        assert verify("I15", iden.grid[3]).status == "pass"
        with monkeypatch.context() as patch:
            patch.setattr(identities, "_LAGUERRE_TOL", 1e-20)
            rep = verify("I15", iden.grid[0])
        assert rep.status == "skipped"
        assert "exceeds the tolerance" in rep.reason
        monkeypatch.setattr(identities, "_LAGUERRE_RULES", (8,))
        assert verify("I15", iden.grid[0]).status == "pass"
        rep = verify("I15", iden.grid[3])
        assert rep.status == "skipped"
        assert "no rule up to 8 nodes" in rep.reason

    def test_uncertified_head_becomes_skip(self):
        # a termwise head that runs out of terms must not pass as a check;
        # each head needs 50 to 70 terms
        policy = EvalPolicy(max_terms=40)
        for iid in ("I01", "I05", "I14", "I19", "I21", "I22"):
            assert verify(iid, get_identity(iid).grid[0]).status == "pass", iid
            rep = verify(iid, get_identity(iid).grid[0], policy)
            assert rep.status == "skipped", iid
            assert "extended-precision series did not certify within 40 terms" in rep.reason

    def test_uncertified_square_head_becomes_skip(self, monkeypatch):
        # a Gauss-Legendre head whose a-priori bound exceeds u |head| must
        # not pass as a check: the 8-point rule's bound is far above it
        np = pytest.importorskip("numpy")
        x, w = np.polynomial.legendre.leggauss(8)
        monkeypatch.setattr(identities, "_XGL", tuple(float(v) for v in x[4:]))
        monkeypatch.setattr(identities, "_WGL", tuple(float(v) for v in w[4:]))
        for iid in ("I06", "I07"):
            rep = verify(iid, get_identity(iid).grid[0])
            assert rep.status == "skipped", iid
            assert "gauss_legendre: 8-point head bound" in rep.reason


class TestClosedFormTails:
    SPLIT_TAIL = ("I14", "I19", "I21", "I22")
    REAL_LINE = ("I01", "I05", "I06", "I07")

    def test_no_levin_cells(self, monkeypatch):
        def levin(*args, **kwargs):
            raise AssertionError("Levin cells reached")

        for name in ("integrate_oscillatory", "integrate_real_line"):
            monkeypatch.setattr(quadrature, name, levin)
            monkeypatch.setattr(identities, name, levin, raising=False)
        # the patch bites: the patched names raise
        with pytest.raises(AssertionError):
            quadrature.integrate_real_line(math.cos)
        with pytest.raises(AssertionError):
            quadrature.integrate_oscillatory(math.cos, 0.0, math.pi)
        reports = verify_all()
        assert len(reports) == 269
        assert all(r.status == "pass" for r in reports), [r.reason for r in reports if r.status != "pass"]
        for iid in self.SPLIT_TAIL + self.REAL_LINE:
            ops = get_identity(iid).lhs.operations
            assert "exp_power_tail" in ops and not ops & {"integrate_oscillatory", "integrate_real_line"}

    def test_no_finite_quadrature(self, monkeypatch):
        def finite(*args, **kwargs):
            raise AssertionError("finite quadrature reached")

        monkeypatch.setattr(quadrature, "integrate_finite", finite)
        monkeypatch.setattr(identities, "integrate_finite", finite, raising=False)
        # the patch bites: the patched name raises
        with pytest.raises(AssertionError):
            quadrature.integrate_finite(math.sin, 0.0, 1.0)
        reports = verify_all()
        assert len(reports) == 269
        assert all(r.status == "pass" for r in reports), [r.reason for r in reports if r.status != "pass"]
        for iden in list_identities():
            assert "integrate_finite" not in iden.lhs.operations | iden.rhs.operations, iden.id
        for iid in self.SPLIT_TAIL + ("I01", "I05"):
            assert "termwise_ratio_series" in get_identity(iid).lhs.operations
        for iid in ("I06", "I07"):
            assert "gauss_legendre" in get_identity(iid).lhs.operations

    def test_unturned_tail_becomes_skip(self, monkeypatch):
        # split at 2, the tail expansions turn with floors far above 1e-9
        monkeypatch.setattr(identities, "_TAIL_SPLIT", 2.0)
        monkeypatch.setattr(identities, "_PRODUCT_SPLIT", 2.0)
        monkeypatch.setattr(identities, "_SQUARE_SPLIT", 2.0)
        for iid in self.SPLIT_TAIL + self.REAL_LINE:
            rep = verify(iid, get_identity(iid).grid[0])
            assert rep.status == "skipped", iid
            assert "_exp_power_tail" in rep.reason


class TestTermwiseHeadOracle:
    # each head integrated term by term against a 40-digit termwise sum
    # of the same integral, and each whole half-line integral against its
    # 40-digit closed form; every returned bound must hold
    U = 2.0**-53
    FNS = {
        "I14": lambda p: identities._struve_line_integral(p["alpha"], DEFAULT_POLICY),
        "I19": lambda p: identities._j_product_integral(p["mu"], p["nu"], DEFAULT_POLICY),
        "I21": lambda p: identities._s_line_integral(p["nu"], 1, 0, DEFAULT_POLICY),
        "I22": lambda p: identities._s_line_integral(p["nu"], 2, 1, DEFAULT_POLICY),
    }
    POINTS = [("I14", {"alpha": a}) for a in (-1.9, -0.1, -1.5, -1.5 - 1e-9, -1.5 + 1e-9)] + [
        ("I19", {"mu": m, "nu": n}) for m, n in ((0.1, 0.1), (2.0, 2.0), (0.1, 2.0), (2.0, 0.1))
    ] + [("I21", {"nu": n}) for n in (0.0, 1.5)] + [("I22", {"nu": n}) for n in (0.1, 1.5)]

    @staticmethod
    def _termwise(mp, iid, p, T):
        """40-digit sum of the integrals over [0, T] of the ascending
        series' terms; a term at a pole of Gamma vanishes."""
        T = mp.mpf(T)
        total = mp.mpf(0)
        for k in range(400):
            if iid == "I14":
                a = mp.mpf(p["alpha"])
                e = 2 * k + a + 1  # term k: (-1)^k (x/2)^e / (Gamma(k+3/2) Gamma(k+a+3/2))
                c = mp.rgamma(k + mp.mpf(1.5)) * mp.rgamma(k + a + mp.mpf(1.5)) * 2**-e
            elif iid == "I19":
                m, n = mp.mpf(p["mu"]), mp.mpf(p["nu"])
                e = 2 * k  # DLMF 10.8.3 divided by (x/2)^(mu+nu)
                c = mp.gamma(2 * k + m + n + 1) / (
                    mp.factorial(k) * mp.gamma(k + m + 1) * mp.gamma(k + n + 1) * mp.gamma(k + m + n + 1)
                ) * 2**-e
            else:
                n, h = mp.mpf(p["nu"]), (0 if iid == "I21" else mp.mpf(0.5))
                e = 2 * k  # S1 term k: (x/2)^(2k)/(...); S2 term k over x: (x/2)^(2k+1)/x
                c = mp.rgamma(k + 1 + h + n / 2) * mp.rgamma(k + 1 + h - n / 2) * 2 ** -(2 * k + 2 * h)
            term = (-1) ** k * c * T ** (e + 1) / (e + 1)
            total += term
            if k > 10 and abs(term) < mp.mpf(10) ** -45 * abs(total):
                return total
        raise AssertionError("oracle did not converge")

    @staticmethod
    def _closed_form(mp, iid, p):
        if iid == "I14":
            return -mp.cot(mp.mpf(p["alpha"]) * mp.pi / 2)
        if iid == "I19":
            m, n = mp.mpf(p["mu"]), mp.mpf(p["nu"])
            return mp.sqrt(mp.pi) * mp.gamma(m + n) / (mp.gamma(m + 0.5) * mp.gamma(n + 0.5) * mp.gamma(m + n + 0.5))
        n = mp.mpf(p["nu"])
        return mp.cos(n * mp.pi / 2) if iid == "I21" else mp.sin(n * mp.pi / 2) / n

    @pytest.mark.parametrize("step", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("iid,params", POINTS)
    def test_head_bound(self, iid, params, step, monkeypatch):
        mp = pytest.importorskip("mpmath")
        split = "_PRODUCT_SPLIT" if iid == "I19" else "_TAIL_SPLIT"
        T = getattr(identities, split) + step
        monkeypatch.setattr(identities, split, T)
        heads = []
        helper = identities._termwise_ratio_series

        def recording(*args, **kwargs):
            heads.append(helper(*args, **kwargs))
            return heads[-1]

        monkeypatch.setattr(identities, "_termwise_ratio_series", recording)
        assert verify(iid, params).status == "pass"
        assert len(heads) == 1
        value, bound = heads[0]
        with mp.workdps(40):
            err = float(abs(mp.mpf(value) - self._termwise(mp, iid, params, T)))
        assert err <= bound <= 1e3 * max(err, self.U * abs(value)), (err, bound)

    @pytest.mark.parametrize("seed", [0, 7, 102])
    def test_whole_integral_bound(self, seed):
        mp = pytest.importorskip("mpmath")
        reports = verify_all(ids=list(self.FNS), seed=seed)
        assert len(reports) == 15
        with mp.workdps(40):
            for r in reports:
                value, bound = self.FNS[r.identity_id](r.params)
                assert value == r.lhs
                err = abs(mp.mpf(value) - self._closed_form(mp, r.identity_id, r.params))
                assert err <= bound, (r.identity_id, r.params, float(err), bound)


class TestRealLineOracle:
    # the real-line integrals of I01, I05, I06 and I07 against mpmath: every
    # returned bound must hold and lie within 1e3 times the larger of the
    # error and u |value|
    U = 2.0**-53
    FNS = {
        "I01": lambda p: identities._j_line_integral(0, DEFAULT_POLICY),
        "I05": lambda p: identities._j_line_integral(p["m"], DEFAULT_POLICY),
        "I06": lambda p: identities._quadratic_line_integral(1.0, -2.0 * p["t"]),
        "I07": lambda p: identities._quadratic_line_integral(p["a"], p["b"]),
    }

    def _check(self, mp, value, bound, want, label):
        err = float(abs(mp.mpf(value) - want))
        assert err <= bound <= 1e3 * max(err, self.U * abs(value)), (label, err, bound)

    @staticmethod
    def _closed_form(mp, iid, p):
        if iid in ("I01", "I05"):
            m = p.get("m", 0)
            if m % 2:
                return mp.mpf(0)
            return mp.sqrt(mp.pi) * mp.gamma(m // 2 + mp.mpf(0.5)) / mp.factorial(m // 2)
        if iid == "I06":
            return mp.pi * mp.besseli(0, mp.mpf(p["t"]))
        a, b = mp.mpf(p["a"]), mp.mpf(p["b"])
        return mp.pi / mp.sqrt(a) * mp.besseli(0, b / (2 * mp.sqrt(a)))

    @pytest.mark.parametrize("step", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("m", [0, 2, 4, 6])
    def test_half_line_j(self, m, step, monkeypatch):
        # the helper returns twice the integral of j_m over [0, inf), whose
        # head ends at the split
        mp = pytest.importorskip("mpmath")
        monkeypatch.setattr(identities, "_TAIL_SPLIT", identities._TAIL_SPLIT + step)
        value, bound = identities._j_line_integral(m, DEFAULT_POLICY)
        with mp.workdps(30):
            self._check(mp, value / 2.0, bound / 2.0, self._closed_form(mp, "I05", {"m": m}) / 2, (m, step))

    @pytest.mark.parametrize("c", [0.0, 0.25, 1.0, 4.0, 16.0])
    def test_square_tail(self, c, monkeypatch):
        # with the head's value replaced by its 20-digit value and its
        # bound kept, the helper is off by its closed-form tail's error
        # against quadosc
        mp = pytest.importorskip("mpmath")
        T = identities._SQUARE_SPLIT
        with mp.workdps(20):
            cm = mp.mpf(c)

            def f(y):
                u = y * y - cm
                return mp.sinc(mp.sqrt(u)) if u >= 0 else mp.sinh(mp.sqrt(-u)) / mp.sqrt(-u)

            head = mp.quad(f, mp.linspace(0, T, 11))
            tail = mp.quadosc(f, [T, mp.inf], omega=1)
            assert abs(2 * (head + tail) - mp.pi * mp.besseli(0, mp.sqrt(cm))) < 1e-17
            rule = identities._square_head
            monkeypatch.setattr(identities, "_square_head", lambda T, c: (float(head), rule(T, c)[1]))
            value, bound = identities._quadratic_line_integral(1.0, 2.0 * math.sqrt(c))
            self._check(mp, value, bound, 2 * (head + tail), c)

    @pytest.mark.parametrize("seed", [0, 7, 102, 211])
    def test_grid_points(self, seed):
        mp = pytest.importorskip("mpmath")
        reports = verify_all(ids=list(self.FNS), seed=seed)
        assert len(reports) == 17
        with mp.workdps(30):
            for r in reports:
                value, bound = self.FNS[r.identity_id](r.params)
                assert value == r.lhs
                self._check(mp, value, bound, self._closed_form(mp, r.identity_id, r.params), r.params)

    def test_i07_window_corners(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for a in (0.25, 4.0):
                for b in (0.0, 4.0):
                    p = {"a": a, "b": b}
                    r = verify("I07", p)
                    assert r.status == "pass", p
                    value, bound = self.FNS["I07"](p)
                    assert value == r.lhs
                    self._check(mp, value, bound, self._closed_form(mp, "I07", p), p)

    @pytest.mark.parametrize(
        "iid,p",
        [("I06", {"t": 0.0}), ("I06", {"t": 3.0})]
        + [("I07", {"a": a, "b": b}) for a in (0.25, 4.0) for b in (0.0, 4.0)],
    )
    def test_gaussian_rhs_window_corners(self, iid, p):
        # the rhs reduces the Gaussian image at its fixed order, and the
        # tail check certifies that order at every corner of the window
        mp = pytest.importorskip("mpmath")
        r = verify(iid, p)
        assert r.status == "pass", r.reason
        with mp.workdps(40):
            want = self._closed_form(mp, iid, p)
            assert abs(mp.mpf(r.rhs) - want) <= 1e-15 * want, (p, r.rhs)


class TestSquareHead:
    # the 48-point Gauss-Legendre head of I06 and I07, the integral over
    # [0, T] of sinc_sqrt(y^2 - c), against 30-digit mpmath: every
    # returned bound must hold and lie within 1e3 times the larger of the
    # error and u |value|
    U = 2.0**-53

    @staticmethod
    def _head(mp, c, T):
        cm = mp.mpf(c)

        def f(y):
            u = y * y - cm
            return mp.sinc(mp.sqrt(u)) if u >= 0 else mp.sinh(mp.sqrt(-u)) / mp.sqrt(-u)

        return mp.quad(f, mp.linspace(0, T, 11))

    def _check(self, mp, c):
        T = identities._SQUARE_SPLIT
        value, bound = identities._square_head(T, c)
        with mp.workdps(30):
            err = float(abs(mp.mpf(value) - self._head(mp, c, T)))
        assert err <= bound <= 1e3 * max(err, self.U * abs(value)), (c, err, bound)

    def test_rule_constants(self):
        # each stored node and weight is the nearest double to the
        # 40-digit rule
        mp = pytest.importorskip("mpmath")
        from mpmath.calculus.quadrature import GaussLegendre

        with mp.workdps(40):
            rule = GaussLegendre(mp.mp).calc_nodes(5, mp.mp.prec)
            assert len(rule) == 48
            positive = sorted(((x, w) for x, w in rule if x > 0), reverse=True)
            assert len(positive) == len(quadrature._XGL) == len(quadrature._WGL) == 24
            for (x, w), got in zip(positive, zip(quadrature._XGL, quadrature._WGL)):
                for want, v in ((x, got[0]), (w, got[1])):
                    assert abs(mp.mpf(v) - want) <= mp.mpf(math.ulp(v)) / 2, (v, want)

    @pytest.mark.parametrize(
        "a,b",
        [(1.0, 0.0), (1.0, 6.0)] + [(a, b) for a in (0.25, 4.0) for b in (0.0, 4.0)],
    )
    def test_window_corners(self, a, b):
        # I06's t = 0 and 3 (a = 1, |b| = 2t) and I07's four corners
        self._check(pytest.importorskip("mpmath"), b * b / (4.0 * a))

    @pytest.mark.parametrize("c", [25.0, 36.0, 49.0, 64.0])
    def test_past_the_windows(self, c):
        self._check(pytest.importorskip("mpmath"), c)

    def test_hypothesis_points(self):
        mp = pytest.importorskip("mpmath")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.floats(min_value=0.25, max_value=4.0), st.floats(min_value=0.0, max_value=4.0))
        @settings(max_examples=20, deadline=None)
        def run(a, b):
            self._check(mp, b * b / (4.0 * a))

        run()

    def test_seed_scan_within_bound(self):
        # every I06/I07 lhs at seeds 1-50 lies within its bound of the
        # 30-digit closed form
        mp = pytest.importorskip("mpmath")
        fns = TestRealLineOracle.FNS
        with mp.workdps(30):
            for seed in range(1, 51):
                for r in verify_all(ids=["I06", "I07"], seed=seed):
                    assert r.status == "pass", (seed, r.params, r.reason)
                    value, bound = fns[r.identity_id](r.params)
                    want = TestRealLineOracle._closed_form(mp, r.identity_id, r.params)
                    assert abs(mp.mpf(value) - want) <= bound, (seed, r.params)

    def test_samples_per_pass(self, monkeypatch):
        # 24 nodes and f(0) per check, 8 checks on the default grid
        calls = []
        sample = identities.sinc_sqrt

        def counted(u):
            calls.append(u)
            return sample(u)

        monkeypatch.setattr(identities, "sinc_sqrt", counted)
        reports = verify_all(ids=["I06", "I07"])
        assert [r.status for r in reports] == ["pass"] * 8
        assert len(calls) == 200


class TestLaguerreOracle:
    # every Laguerre integral of I11, I15 and I18 against a 30-digit
    # mpmath value of its closed form, divided by the prefactor the
    # check multiplies it by: it must lie within its own bound

    @staticmethod
    def _integral(mp, identity_id, p):
        if identity_id == "I11":
            a, x = mp.mpf(p["alpha"]), mp.mpf(p["x"])
            return mp.struveh(a, x) / (x / 2) ** (a + 1)
        if identity_id == "I15":
            a, b, g, x = (mp.mpf(p[k]) for k in ("alpha", "beta", "gamma_p", "x"))
            return mp.gamma(g) / (mp.gamma(1 + a) * mp.gamma(1 + b)) * mp.hyp1f2(g, 1 + a, 1 + b, -x * x / 4)
        mu, nu, x = (mp.mpf(p[k]) for k in ("mu", "nu", "x"))
        return mp.besselj(mu, x) * mp.besselj(nu, x) / (x / 2) ** (mu + nu)

    @staticmethod
    def _recorded(patch):
        """The (value, bound) of every Laguerre image the catalog takes."""
        results = []
        image = identities._humbert_laguerre

        def recording(*args):
            results.append(image(*args))
            return results[-1]

        patch.setattr(identities, "_humbert_laguerre", recording)
        return results

    def _check(self, mp, identity_id, params, result):
        value, bound = result
        want = self._integral(mp, identity_id, params)
        assert abs(mp.mpf(value) - want) <= bound, params

    @pytest.mark.parametrize("seed", [0, 7, 102])
    @pytest.mark.parametrize("identity_id", ["I11", "I15", "I18"])
    def test_grids(self, identity_id, seed, monkeypatch):
        mp = pytest.importorskip("mpmath")
        results = self._recorded(monkeypatch)
        sizes = TestLaguerreMultiIndex.rule_sizes(monkeypatch)
        reports = verify_all(ids=[identity_id], seed=seed)
        assert len(results) == len(reports) == len(get_identity(identity_id).grid)
        with mp.workdps(30):
            for r, res in zip(reports, results):
                assert r.status == "pass"
                self._check(mp, identity_id, r.params, res)
        if not seed:
            assert tuple(sizes) == TestLaguerreMultiIndex._RULES[identity_id]

    @pytest.mark.parametrize("identity_id", ["I11", "I15", "I18"])
    def test_hypothesis_points(self, identity_id):
        mp = pytest.importorskip("mpmath")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        def axis(spec):
            if spec[0] == "range":
                return st.floats(min_value=spec[1], max_value=spec[2])
            return st.sampled_from(spec[1])

        iden = get_identity(identity_id)

        @given(st.fixed_dictionaries({name: axis(spec) for name, spec in iden.params.items()}))
        @settings(max_examples=25, deadline=None)
        def run(params):
            with pytest.MonkeyPatch.context() as patch, mp.workdps(30):
                results = self._recorded(patch)
                assert verify(identity_id, params).status == "pass"
                assert len(results) == 1
                self._check(mp, identity_id, params, results[0])

        run()
