"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured margin so the suite
output doubles as the acceptance report (run with `pytest -s`).
"""

import math
import random
import time

from sphstruve.functions import DEFAULT_POLICY, sph_j, sinc_sqrt
from sphstruve.gammakit import SQRT_PI, gamma, rgamma
from sphstruve.identities import get_identity, verify, verify_all
from sphstruve.umbral import UmbralExpSeries, expand, gaussian_reduce, reduce_expr


def _report(num, label, detail):
    print(f"ACCEPTANCE {num:02d} PASS  {label}: {detail}")


def test_criterion_01_real_line_integral_is_pi():
    t0 = time.perf_counter()
    r = verify("I01")
    dt = time.perf_counter() - t0
    assert r.status == "pass"
    assert abs(r.lhs - math.pi) <= 1e-8
    assert dt < 5.0
    _report(1, "I01 equals pi", f"abs={abs(r.lhs - math.pi):.2e} in {dt:.2f}s")


def test_criterion_02_struve_half_line_cotangent():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, want in ((-1.5, -1.0), (-1.0, 0.0), (-0.5, 1.0)):
        r = verify("I14", {"alpha": alpha})
        assert r.status == "pass"
        assert abs(r.lhs - want) <= 1e-6
        worst = max(worst, abs(r.lhs - want))
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(2, "I14 hits {-1, 0, 1}", f"worst abs={worst:.2e} in {dt:.2f}s")


def test_criterion_03_product_moment_integral():
    r = verify("I19", {"mu": 0.5, "nu": 0.5})
    assert r.status == "pass"
    assert abs(r.lhs - 2.0) / 2.0 <= 1e-6
    worst = abs(r.lhs - 2.0) / 2.0
    for mu, nu in ((0.5, 1.0), (1.0, 1.0), (0.25, 0.75), (1.0, 2.0)):
        r = verify("I19", {"mu": mu, "nu": nu})
        assert r.status == "pass"
        assert r.rel_err <= 1e-6
        worst = max(worst, r.rel_err)
    _report(3, "I19 gamma-ratio moments", f"worst rel={worst:.2e}")


def test_criterion_04_generating_function_defect():
    worst = 0.0
    for t in (-0.75, -0.25, 0.25, 0.75):
        for x in (0.5, 2.0, 5.0):
            total = 0.0
            c = 1.0
            for n in range(26):
                if n:
                    c *= t / n
                total += c * sph_j(n, x).value
            want = sinc_sqrt(x * x - 2.0 * x * t)
            worst = max(worst, abs(total - want))
    assert worst <= 1e-12
    _report(4, "I02 generating function, N=25", f"max defect={worst:.2e}")


def test_criterion_05_moment_sequence():
    worst_even = 0.0
    worst_odd = 0.0
    for n in range(4):
        r = verify("I05", {"m": 2 * n})
        want = SQRT_PI * gamma(n + 0.5) / math.factorial(n)
        assert abs(r.lhs - want) / want <= 1e-6
        worst_even = max(worst_even, abs(r.lhs - want) / want)
    for n in range(4):
        r = verify("I05", {"m": 2 * n + 1})
        assert abs(r.lhs) <= 1e-10
        worst_odd = max(worst_odd, abs(r.lhs))
    worst_coeff = 0.0
    ser = gaussian_reduce(0.5, 0.25, 0.5)  # p = t/2 at t = 1
    ex = expand(ser)
    pref = (SQRT_PI / 2.0) * math.sqrt(math.pi / 0.25)
    for k in range(21):
        term = ex.terms[k]
        got = pref * term.coeff * rgamma(1.0 + term.exponents[0])
        want = math.pi / (4.0**k * math.factorial(k) ** 2)
        worst_coeff = max(worst_coeff, abs(got - want) / want)
    assert worst_coeff <= 1e-13
    _report(
        5,
        "I05/I06 moments",
        f"even rel={worst_even:.2e}, odd abs={worst_odd:.2e}, coeff rel={worst_coeff:.2e}",
    )


def test_criterion_06_auxiliary_integral_vs_hypergeometric():
    worst = 0.0
    count = 0
    for alpha in (0.0, 0.5, 1.0):
        for beta in (0.0, 0.5, 1.0):
            for gamma_p in (0.5, 1.0):
                for x in (0.5, 1.0, 2.0, 5.0):
                    r = verify(
                        "I15",
                        {"alpha": alpha, "beta": beta, "gamma_p": gamma_p, "x": x},
                    )
                    assert r.status == "pass"
                    assert r.rel_err <= 1e-9
                    worst = max(worst, r.rel_err)
                    count += 1
    assert count == 72
    _report(6, "I15 quadrature vs closed form", f"{count} points, worst rel={worst:.2e}")


def test_criterion_07_double_generating_functions():
    worst = 0.0
    for u, v, x in ((1.0, 1.0, 0.5), (0.8, 1.2, 0.6)):
        r = verify("I16", {"u": u, "v": v, "x": x})
        assert r.status == "pass"
        assert r.rel_err <= 1e-10
        worst = max(worst, r.rel_err)
        for gamma_p in (1.0, 2.0):
            r = verify("I17", {"u": u, "v": v, "x": x, "gamma_p": gamma_p})
            assert r.status == "pass"
            assert r.rel_err <= 1e-10
            worst = max(worst, r.rel_err)
    _report(7, "I16/I17 double sums", f"worst rel={worst:.2e}")


def test_criterion_08_product_representation():
    worst = 0.0
    for mu, nu in ((0.0, 0.0), (0.5, 0.5), (1.0, 2.0)):
        for x in (0.5, 1.0, 3.0):
            r = verify("I18", {"mu": mu, "nu": nu, "x": x})
            assert r.status == "pass"
            assert r.rel_err <= 1e-8
            worst = max(worst, r.rel_err)
    _report(8, "I18 product representation", f"worst rel={worst:.2e}")


def test_criterion_09_auxiliary_series_integrals():
    worst = 0.0
    for nu in (0.5, 1.0, 1.5):
        r = verify("I21", {"nu": nu})
        assert abs(r.lhs - math.cos(0.5 * nu * math.pi)) <= 1e-5
        worst = max(worst, abs(r.lhs - r.rhs))
        r = verify("I22", {"nu": nu})
        assert abs(r.lhs - math.sin(0.5 * nu * math.pi) / nu) <= 1e-5
        worst = max(worst, abs(r.lhs - r.rhs))
    r = verify("I21", {"nu": 0.0})
    assert abs(r.lhs - 1.0) <= 1e-6
    _report(9, "I21/I22 closed-form tails", f"worst abs={worst:.2e}, nu=0 abs={abs(r.lhs-1):.2e}")


def test_criterion_10_umbral_equivalence():
    rng = random.Random(20260808)
    worst = 0.0
    for _ in range(20):
        family = rng.choice(("spherical", "two-index", "three-index"))
        if family == "spherical":
            n = rng.randint(0, 5)
            x = rng.uniform(0.2, 7.0)
            ser = UmbralExpSeries((n + 0.5,), (1,), -((x / 2.0) ** 2), 60)
            ex = expand(ser)
            coeff = 1.0
            for k, t in enumerate(ex.terms):
                if k:
                    coeff *= -((x / 2.0) ** 2) / k
                direct = coeff * rgamma(n + k + 1.5)
                reduced = t.coeff * rgamma(1.0 + t.exponents[0])
                if direct != 0.0:
                    worst = max(worst, abs(reduced - direct) / abs(direct))
        elif family == "two-index":
            mu, nu = rng.uniform(0, 2), rng.uniform(0, 2)
            z = rng.uniform(0.1, 25.0)
            ser = UmbralExpSeries((mu, nu), (1, 1), -z, 60)
            ex = expand(ser)
            coeff = 1.0
            for k, t in enumerate(ex.terms):
                if k:
                    coeff *= -z / k
                direct = coeff * rgamma(mu + k + 1.0) * rgamma(nu + k + 1.0)
                reduced = t.coeff * rgamma(1.0 + t.exponents[0]) * rgamma(1.0 + t.exponents[1])
                if direct != 0.0:
                    worst = max(worst, abs(reduced - direct) / abs(direct))
        else:
            mu, nu, rho = (rng.uniform(0, 2) for _ in range(3))
            z = rng.uniform(0.1, 25.0)
            ser = UmbralExpSeries((mu, nu, rho), (1, 1, 1), -z, 60)
            ex = expand(ser)
            coeff = 1.0
            for k, t in enumerate(ex.terms):
                if k:
                    coeff *= -z / k
                direct = (
                    coeff
                    * rgamma(mu + k + 1.0)
                    * rgamma(nu + k + 1.0)
                    * rgamma(rho + k + 1.0)
                )
                reduced = t.coeff
                for e in t.exponents:
                    reduced *= rgamma(1.0 + e)
                if direct != 0.0:
                    worst = max(worst, abs(reduced - direct) / abs(direct))
    assert worst <= 1e-15
    ser = gaussian_reduce(0.5, 0.25, 0.0)
    b0 = reduce_expr(expand(ser)) * (SQRT_PI / 2.0) * math.sqrt(math.pi / 0.25)
    assert abs(b0 - math.pi) <= 1e-14
    _report(
        10,
        "umbral/series equivalence",
        f"worst per-term rel={worst:.2e}, b0 defect={abs(b0 - math.pi):.2e}",
    )


def test_criterion_11_derivative_and_recurrence_suites():
    worst = 0.0
    for iid in ("I03", "I04", "I08", "I09", "I10", "I23", "I24"):
        iden = get_identity(iid)
        for pt in iden.grid:
            r = verify(iid, dict(pt))
            assert r.status == "pass", (iid, pt, r.abs_err, r.rel_err)
            assert min(r.abs_err, r.rel_err) <= 1e-9
            worst = max(worst, min(r.abs_err, r.rel_err))
    _report(11, "derivative/recurrence suites", f"worst defect={worst:.2e}")


def test_criterion_12_full_suite_green():
    t0 = time.perf_counter()
    reports = verify_all(policy=DEFAULT_POLICY, parallelism=1)
    dt = time.perf_counter() - t0
    failures = [r for r in reports if r.status != "pass"]
    assert not failures, failures[:5]
    assert len(reports) >= 120
    assert dt < 600.0
    _report(12, "verify all", f"{len(reports)} reports, 0 failures, {dt:.1f}s")
