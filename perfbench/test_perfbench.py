"""Smoke tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAST_IDS = ("I02", "I03", "I16")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload: a three-identity catalog, one setup probe,
    one unit per run and a 168-call sweep."""
    from sphstruve import identities

    verify_all, get_identity = identities.verify_all, identities.get_identity
    monkeypatch.setattr(identities, "verify_all", lambda **kw: verify_all(ids=list(FAST_IDS), **kw))
    monkeypatch.setattr(identities, "list_identities", lambda: [get_identity(i) for i in FAST_IDS])
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "MIN_UNITS", 1)
    monkeypatch.setattr(workloads, "CHECK_UNITS", 1)
    monkeypatch.setattr(workloads, "SWEEP_PER_BAND", 4)
    argv = workloads.cli_argv
    monkeypatch.setattr(workloads, "cli_argv", lambda seed: [argv(seed)[0], *FAST_IDS, *argv(seed)[2:]])
    probe = workloads.probe_setup

    def fast_probe():
        seconds, ids = probe()
        return seconds, [i for i in ids if i in FAST_IDS]

    monkeypatch.setattr(workloads, "probe_setup", fast_probe)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for table, key in ((workloads.END_TO_END, "end_to_end"), (workloads.PER_LAYER, "per_layer")):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
        for name in table:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(tiny, workload, trace):
    result = workloads.WORKLOADS[workload](0.0, 5, trace)
    owned = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(result.metrics) == set(owned)
    assert all(isinstance(v, float) for v in result.metrics.values())
    assert result.correct and result.failed == 0 and result.attempted > 0, result.notes


def test_traced_catalog_reports_layers(tiny):
    m = workloads.run_catalog(0.0, 1, True).metrics
    assert m["functions.calls.series"] > 0
    assert m["gammakit.rgamma.calls"] > 0
    assert m["identities.seconds.I16"] > 0


def test_same_seed_same_sweep_inputs():
    a = workloads.sweep_points(7, 3)
    assert a == workloads.sweep_points(7, 3)
    assert a != workloads.sweep_points(8, 3)
    assert len(a) == 14 * 3 * 3


def test_same_seed_same_jittered_grid():
    def params(seed):
        argv = ["verify", "I02", "--seed", str(seed), "--format", "json"]
        records = workloads.run_cli_process(argv)[1]
        return [r["params"] for r in records]

    assert params(3) == params(3)
    assert params(3) != params(4)


def test_each_unit_is_timed_against_the_reference():
    units, refs = workloads.timed_units(0.0, 3, lambda: 2.0, 1)
    assert units == [2.0] * 3 and len(refs) == 3 and all(r > 0 for r in refs)
    assert workloads.normalized(units, refs) == statistics.median(2.0 / r for r in refs)
    assert reference.work() == reference.work()


def test_ticked_call_counts_its_work_in_reference_loops():
    out, wall, in_refs = reference.run_in_refs(lambda: reference.work(5 * reference.ITERATIONS), 0.05)
    assert out == reference.work(5 * reference.ITERATIONS)
    assert wall > 0 and 2 < in_refs < 12


def test_stopped_cli_gives_the_same_records():
    argv = ["verify", "I02", "--seed", "3", "--format", "json"]
    plain = workloads.run_cli_process(argv)
    ticked = workloads.run_cli_process(argv, tick=0.05)
    assert plain[0] == ticked[0] == 0
    assert [(r["id"], r["lhs"], r["rhs"]) for r in ticked[1]] == [(r["id"], r["lhs"], r["rhs"]) for r in plain[1]]
    assert plain[5] is None and ticked[5] > 0


def test_raising_call_is_counted():
    points = [("cyl_j", (1.0, 2.0)), ("cyl_j", (-60.0, 2.0))]  # order below -50 raises
    results = workloads.sweep_pass(points, [])
    assert results[1] is None
    failed, _ = workloads.oracle_check(points, results)
    assert failed == [False, True]


def test_non_pass_or_missing_check_is_counted():
    expected = ["I01", "I02", "I03"]
    assert workloads.check_statuses(["I01", "I02"], ["pass", "fail"], expected) == (3, 2)
    assert workloads.check_statuses(expected, ["pass", "skipped", "pass"], expected) == (3, 1)
    assert workloads.check_statuses(expected, ["pass"] * 3, expected) == (3, 0)


def test_oracle_error_below_crossover_is_recorded():
    points = [("cyl_j", (1.3, 24.9))]
    _, worst = workloads.oracle_check(points, workloads.sweep_pass(points, []))
    assert 1e-9 < worst["series"] < 1e-6


def test_tracer_removes_its_wrappers():
    from sphstruve import functions, gammakit, identities, quadrature

    originals = (identities.cyl_j, functions.cyl_j, quadrature.gamma, gammakit.rgamma, identities.verify)
    t = tracer.Tracer()
    t.install()
    assert identities.cyl_j is not originals[0] and functions.cyl_j is not originals[1]
    value = functions.sph_j(2, 1.5).value
    spans, counts = t.take()
    assert t.uninstall()
    assert (identities.cyl_j, functions.cyl_j, quadrature.gamma, gammakit.rgamma, identities.verify) == originals
    assert value == functions.sph_j(2, 1.5).value
    names = [s[0] for thread in spans for s in thread]
    assert names == ["functions.sph_j", "functions.cyl_j"]  # a span's slot is taken when it opens
    assert counts["gammakit.rgamma"] == 1
    m = tracer.summarize(spans, counts)
    assert m["functions.calls.series"] == 1 and m["functions.terms.series"] > 0


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
