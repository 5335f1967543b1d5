"""The benchmark's three workloads: catalog, cli-cold and sweep.

Each `run_*` function measures for about `seconds` seconds and returns a
`Result`. Untraced (`trace=False`) it fills the end-to-end metrics.
Traced, it spends half the time on untraced units and half on units
under the `Tracer`, and fills the per-layer metrics. A unit is one
catalog pass, one CLI process or one sweep pass. Every unit is timed
between two runs of the fixed reference loop (`reference.py`), and the
headline metric is unit time over reference time. `run.py` puts the
checkout's `src` on `sys.path` before importing this module.
"""

import json
import math
import os
import random
import resource
import statistics
import struct
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracer import LAYER_METRICS, PATHS, Tracer, path_names, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
TRACE_PREFIX = "perfbench-trace "

SETUP_REPEATS = 5
SETUP_EVERY_S = 5.0
CHILD_TIMEOUT_S = 150
# fewest units an untraced run measures, however short `seconds` is; the
# untraced half of a traced catalog or cli-cold run measures at least
# CHECK_UNITS (4 passes give 1076 checks, so a p99 has ten beyond it),
# and its traced half at least 1
MIN_UNITS = 3
CHECK_UNITS = 4
# reference loops timed between two units (about 40 ms each); their
# median is the reference time on each side of the unit
REF_REPEATS = {"catalog": 5, "cli-cold": 5, "sweep": 1}
# inside an untraced catalog pass, the reference loop runs after every
# TICK_S of library time
TICK_S = 0.3
# sweep size: calls per x band per three-path family; every family gets
# three times this many calls per pass
SWEEP_PER_BAND = 100
SWEEP_BANDS = ((0.05, 25.0), (25.0, 60.0), (60.0, 150.0))

IDENTITY_IDS = tuple(f"I{k:02d}" for k in range(1, 25))
END_TO_END = {"setup_s": "s", "pass_norm": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    "wall.pass_s": "s",
    "wall.ref_s": "s",
    **{f"identities.seconds.{i}": "s" for i in IDENTITY_IDS},
    "identities.cpu_per_wall": "ratio",
    "identities.check_p50_us": "us",
    "identities.check_p99_us": "us",
    "functions.call_p50_us": "us",
    "functions.call_p99_us": "us",
    **{
        name: ("s" if "self_s" in name.split(".") else "evals/cell" if name.endswith("per_cell") else "count")
        for name in LAYER_METRICS
    },
    **{f"functions.oracle_err.{p}": "ratio" for p in PATHS},
    "check_fail_share": "ratio",
    "eval_fail_share": "ratio",
    "tracing.overhead": "ratio",
}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.correct = False

    def flag(self, note):
        self.correct = False
        self.notes.append(note)


# ---------------------------------------------------------------------------
# Shared helpers.


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


_SETUP_CODE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import sphstruve\n"
    "cat = sphstruve.list_identities()\n"
    "t1 = time.perf_counter()\n"
    "print(json.dumps({'seconds': t1 - t0, 'ids': [i.id for i in cat for _ in i.grid]}))\n"
)


# the same kind of work without the library: a fresh interpreter's import
# of numpy, which `import sphstruve` also pays today
_BASE_CODE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import decimal, numpy\n"
    "t1 = time.perf_counter()\n"
    "print(json.dumps({'seconds': t1 - t0}))\n"
)
# `setup_s` is scaled to a host on which _BASE_CODE takes this long: a
# round value a little above its 0.065-0.07 s in quiet stretches of a
# 2-vCPU Xeon VM at 2.1 GHz (Python 3.11, numpy 2.4); it sets the scale only
BASE_NOMINAL_S = 0.080


def run_probe(code):
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout)


def probe_setup():
    """One fresh interpreter's `import sphstruve` plus `list_identities()`:
    (seconds, the catalog's check ids in order)."""
    probe = run_probe(_SETUP_CODE)
    return probe["seconds"], probe["ids"]


class SetupSamples:
    """setup_s: the median of probes taken across the run.

    One probe runs now, and one after any unit that ends SETUP_EVERY_S
    or more after the last probe; `median()` tops them up to
    SETUP_REPEATS. The host's speed drifts over seconds, so probes in a
    row would all see the same stretch of it. Each probe's time is
    scaled to the nominal host speed by a probe of `_BASE_CODE` run
    right before it, which drifts with the host in the same way."""

    def __init__(self):
        self.times, self.scaled = [], []
        self.take()

    def take(self):
        base = run_probe(_BASE_CODE)["seconds"]
        seconds, self.ids = probe_setup()
        self.times.append(seconds)
        self.scaled.append(seconds * BASE_NOMINAL_S / base)
        self.last = time.perf_counter()

    def between_units(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.take()

    def median(self):
        while len(self.times) < SETUP_REPEATS:
            self.take()
        return statistics.median(self.scaled)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def same_bits(a, b):
    """Bitwise float equality (NaN equals NaN; None only equals None)."""
    if a is None or b is None:
        return a is b
    return struct.pack("<d", a) == struct.pack("<d", b)


def check_statuses(ids, statuses, expected_ids):
    """(attempted, failed) of one catalog run: a check fails unless it is
    reported, in catalog order, with status `pass`; a missing check fails
    and an extra one counts as failed too."""
    failed = abs(len(ids) - len(expected_ids))
    for got, status, want in zip(ids, statuses, expected_ids):
        failed += got != want or status != "pass"
    return len(expected_ids), failed


def timed_units(seconds, minimum, unit, ref_repeats, between=None):
    """Call `unit()` at least `minimum` times, and more while a unit of
    median length would end less than half a unit past `seconds`.

    The reference loop runs `ref_repeats` times before the first unit
    and after every unit, and then `between()` if given. Returns the
    units' results and, per unit, the mean of the reference times on
    its two sides."""
    out, lengths = [], []
    sides = [reference.seconds(ref_repeats)]
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(out) >= minimum and now + statistics.median(lengths) / 2.0 > start + seconds:
            return out, [(a + b) / 2.0 for a, b in zip(sides, sides[1:])]
        out.append(unit())
        sides.append(reference.seconds(ref_repeats))
        if between:
            between()
        lengths.append(time.perf_counter() - now)


def normalized(walls, refs):
    """Median over units of unit wall time over reference time."""
    return statistics.median(w / r for w, r in zip(walls, refs))


def wall_metrics(walls, refs):
    return {"wall.pass_s": statistics.median(walls), "wall.ref_s": statistics.median(refs)}


def per_identity_seconds(runs):
    """identities.seconds.*: per identity, the median over runs of its
    summed check seconds; a run is a list of (id, seconds)."""
    return {
        f"identities.seconds.{iid}": statistics.median(math.fsum(s for i, s in run if i == iid) for run in runs)
        for iid in IDENTITY_IDS
    }


def check_latencies(runs):
    seconds_each = [s * 1e6 for run in runs for _, s in run]
    return {
        "identities.check_p50_us": statistics.median(seconds_each),
        "identities.check_p99_us": percentile(seconds_each, 99),
    }


def mean_summary(summaries):
    return {k: statistics.fmean(s[k] for s in summaries) for k in summaries[0]}


def split(seconds, trace):
    """(untraced seconds, traced seconds) of a run."""
    return (seconds / 2.0, seconds / 2.0) if trace else (seconds, 0.0)


def overhead(untraced, traced):
    """Traced over untraced normalized unit time, minus 1; each argument
    is (walls, refs)."""
    return normalized(*traced) / normalized(*untraced) - 1.0


# ---------------------------------------------------------------------------
# catalog: verify_all() in-process, serial, default grid, warm.


def run_catalog(seconds, seed, trace):
    from sphstruve import identities

    del seed  # the default grid is fixed
    result = Result()
    expected = [i.id for i in identities.list_identities() for _ in i.grid]
    setup = None if trace else SetupSamples()
    identities.verify_all()  # warm-up: lazy caches fill here

    def check(reports):
        result.count(*check_statuses([r.identity_id for r in reports], [r.status for r in reports], expected))

    if not trace:
        # a pass lasts seconds, over which the host's speed drifts, so the
        # reference loop also runs inside it, every TICK_S
        def ticked_pass():
            reports, wall, in_refs = reference.run_in_refs(identities.verify_all, TICK_S)
            check(reports)
            return wall, in_refs

        passes, refs = timed_units(
            seconds, MIN_UNITS, ticked_pass, REF_REPEATS["catalog"], setup.between_units,
        )
        result.notes.append(f"unit_s {[w for w, _ in passes]}")
        result.notes.append(f"ref_s {refs}")
        result.notes.append(f"unit_refs {[n for _, n in passes]}")
        setup_s = setup.median()
        result.notes.append(f"setup_s {setup.times} scaled {setup.scaled}")
        result.metrics.update(
            setup_s=setup_s, pass_norm=statistics.median(n for _, n in passes), peak_rss_mb=peak_rss_mb(),
        )
        return result

    def one_pass():
        c0, t0 = time.process_time(), time.perf_counter()
        reports = identities.verify_all()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        check(reports)
        return reports, wall, cpu

    plain_s, traced_s = split(seconds, trace)
    passes, refs = timed_units(plain_s, CHECK_UNITS, one_pass, REF_REPEATS["catalog"])
    walls = [w for _, w, _ in passes]
    result.notes.append(f"unit_s {walls}")
    result.notes.append(f"ref_s {refs}")

    checks = [[(r.identity_id, r.seconds) for r in reports] for reports, _, _ in passes]
    m = result.metrics = dict.fromkeys(PER_LAYER, 0.0)
    m.update(wall_metrics(walls, refs))
    m.update(per_identity_seconds(checks))
    m.update(check_latencies(checks))
    m["identities.cpu_per_wall"] = math.fsum(c for _, _, c in passes) / math.fsum(walls)
    m["check_fail_share"] = result.failed / result.attempted
    baseline = [(r.lhs, r.rhs) for r in passes[0][0]]

    tracer = Tracer()
    tracer.install()
    summaries = []

    def traced_pass():
        reports, wall, _ = one_pass()
        summaries.append(summarize(*tracer.take()))
        got = [(r.lhs, r.rhs) for r in reports]
        if len(got) != len(baseline) or not all(
            same_bits(a, c) and same_bits(b, d) for (a, b), (c, d) in zip(got, baseline)
        ):
            result.flag("a traced catalog pass differs from the untraced one")
        return wall

    traced = timed_units(traced_s, 1, traced_pass, REF_REPEATS["catalog"])
    if not tracer.uninstall():
        result.flag("the tracer left a wrapper installed")
    m.update(mean_summary(summaries))
    m["tracing.overhead"] = overhead((walls, refs), traced)
    return result


# ---------------------------------------------------------------------------
# cli-cold: a fresh `sphstruve verify all` process per unit.


def cli_argv(seed):
    # --seed 0 turns the jitter off, so the CLI gets seed + 1
    return ["verify", "all", "--parallelism", "2", "--seed", str(seed + 1), "--format", "json"]


def run_cli_process(argv, traced=False, tick=None):
    """One CLI process: (exit code, records, wall s, child cpu s, trace,
    time in reference loops).

    With `tick`, the process is stopped every `tick` seconds of its run
    time while the reference loop is timed (`reference.run_child_in_refs`);
    its wall time leaves the stops out. Without, the last item is None.
    A process that times out, or prints a line that is not a report
    record, gives exit code None and the records it did print."""
    script = [str(TRACED_CLI)] if traced else ["-m", "sphstruve.cli"]
    cmd = [sys.executable, *script, *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tick:
        code, stdout, stderr, wall, in_refs = reference.run_child_in_refs(
            cmd, tick, CHILD_TIMEOUT_S, cwd=ROOT, env=child_env(),
        )
    else:
        in_refs = None
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code = None
        wall = time.perf_counter() - t0
    if code is None:
        return None, [], wall, 0.0, None, in_refs
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    records = []
    for line in stdout.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if isinstance(rec, dict) and isinstance(rec.get("seconds"), float):
            records.append(rec)
        else:
            code = None
    trace = None
    for line in stderr.splitlines():
        if line.startswith(TRACE_PREFIX):
            trace = json.loads(line[len(TRACE_PREFIX):])
    return code, records, wall, cpu, trace, in_refs


def run_cli_cold(seconds, seed, trace):
    result = Result()
    setup = SetupSamples()
    expected = setup.ids
    argv = cli_argv(seed)
    result.notes.append(f"cli seed {seed + 1}")

    def one_process(traced=False, tick=None):
        code, records, wall, cpu, trace_out, in_refs = run_cli_process(argv, traced, tick)
        result.count(*check_statuses([r.get("id") for r in records], [r.get("status") for r in records], expected))
        if code != 0:
            result.flag(f"cli exit code {code}")
        return records, wall, cpu, trace_out, in_refs

    if not trace:
        # a process lasts seconds, over which the host's speed drifts, so
        # it is stopped every TICK_S while the reference loop runs
        runs, refs = timed_units(
            seconds, MIN_UNITS, lambda: one_process(tick=TICK_S), REF_REPEATS["cli-cold"],
            setup.between_units,
        )
        result.notes.append(f"unit_s {[r[1] for r in runs]}")
        result.notes.append(f"ref_s {refs}")
        result.notes.append(f"unit_refs {[r[4] for r in runs]}")
        setup_s = setup.median()
        result.notes.append(f"setup_s {setup.times} scaled {setup.scaled}")
        result.metrics.update(
            setup_s=setup_s,
            pass_norm=statistics.median(r[4] for r in runs),
            peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN),
        )
        return result

    plain_s, traced_s = split(seconds, trace)
    runs, refs = timed_units(plain_s, CHECK_UNITS, one_process, REF_REPEATS["cli-cold"])
    walls = [r[1] for r in runs]
    result.notes.append(f"unit_s {walls}")
    result.notes.append(f"ref_s {refs}")

    checks = [[(r["id"], r["seconds"]) for r in records] for records, *_ in runs]
    m = result.metrics = dict.fromkeys(PER_LAYER, 0.0)
    m.update(wall_metrics(walls, refs))
    m.update(per_identity_seconds(checks))
    m.update(check_latencies(checks))
    m["identities.cpu_per_wall"] = math.fsum(r[2] for r in runs) / math.fsum(walls)
    m["check_fail_share"] = result.failed / result.attempted

    def values(records):
        return [(r.get("id"), r.get("params"), r.get("lhs"), r.get("rhs"), r.get("status")) for r in records]

    baseline = values(runs[0][0])
    summaries = []

    def traced_process():
        records, wall, _, trace_out, _ = one_process(traced=True)
        if trace_out is None or not trace_out["clean"]:
            result.flag("a traced cli process reported no clean trace")
        else:
            summaries.append(trace_out["layers"])
        if values(records) != baseline:
            result.flag("traced cli records differ from the untraced ones")
        return wall

    traced = timed_units(traced_s, 1, traced_process, REF_REPEATS["cli-cold"])
    if summaries:
        m.update(mean_summary(summaries))
    m["tracing.overhead"] = overhead((walls, refs), traced)
    return result


# ---------------------------------------------------------------------------
# sweep: point-wise calls to the 14 CLI evaluators.

_INT_ORDERS = {"sph_j": (0, 10), "sph_j_deriv": (1, 3)}
_REAL_ORDERS = {
    "cyl_j": (0.0, 3.0),
    "struve_h": (-1.5, 3.0),
    "s1": (0.0, 3.0),
    "s2": (0.0, 3.0),
    "anger": (0.0, 3.0),
    "weber": (0.0, 3.0),
}
_HALF_STEPS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _series_only_point(family, rng):
    """A point of a single-path family, from its catalog window (I01,
    I05, I06, I11-I18)."""
    if family == "mod_i0":
        return (rng.uniform(0.0, 3.0),)
    if family == "rayleigh_jn":
        # I01/I05 call the closed form only for x >= max(2, 2n): below
        # that it cancels (1.5e-6 off at n = 6, x = 0.125)
        n = rng.randint(0, 6)
        return (n, rng.uniform(max(2.0, 2.0 * n), 150.0))
    if family == "humbert2":
        return (rng.choice(_HALF_STEPS), rng.choice(_HALF_STEPS), rng.uniform(0.0, 64.0))
    if family == "humbert3":
        mu, nu = rng.choice((0.0, 0.5, 1.0)), rng.choice((0.0, 0.5, 2.0))
        return (mu, nu, mu + nu, rng.uniform(0.0, 64.0))
    if family == "hyp1f2":
        return (rng.choice((0.5, 1.0)), 1.0 + rng.choice((0.0, 0.5, 1.0)), 1.0 + rng.choice((0.0, 0.5, 1.0)),
                -rng.uniform(0.25, 6.0) ** 2 / 4.0)
    if family == "delta_fn":
        return (rng.choice((0.0, 0.5, 1.0)), rng.choice((0.0, 0.5, 1.0)), rng.choice((0.5, 1.0)),
                rng.uniform(0.25, 6.0))
    raise KeyError(family)


def sweep_points(seed, per_band):
    """The sweep's calls, as (family, args), in call order."""
    from sphstruve.cli import _FUNCTIONS

    rng = random.Random(seed)
    points = []
    for family in sorted(_FUNCTIONS):
        for lo, hi in SWEEP_BANDS:
            for _ in range(per_band):
                if family in _INT_ORDERS:
                    points.append((family, (rng.randint(*_INT_ORDERS[family]), rng.uniform(lo, hi))))
                elif family in _REAL_ORDERS:
                    points.append((family, (rng.uniform(*_REAL_ORDERS[family]), rng.uniform(lo, hi))))
                else:
                    points.append((family, _series_only_point(family, rng)))
    rng.shuffle(points)
    return points


def sweep_pass(points, latencies, tracer=None):
    """Call every point once; returns the results (None where the call
    raised). Appends each call's latency in microseconds."""
    from sphstruve import functions

    fns = {family: getattr(functions, family) for family, _ in points}
    clock = time.perf_counter_ns
    out = []
    for i, (family, args) in enumerate(points):
        fn = fns[family]
        if tracer is not None:
            tracer.begin_request(i)
        t0 = clock()
        try:
            res = fn(*args)
        except Exception:  # a raising call is counted as failed, not dropped
            res = None
        t1 = clock()
        latencies.append((t1 - t0) / 1000.0)
        out.append(res)
    return out


def values_of(results):
    return [None if r is None else float(getattr(r, "value", r)) for r in results]


def path_of(family, args, result):
    """The evaluation path behind one sweep result."""
    from sphstruve import functions

    names = path_names()
    if isinstance(result, functions.SeriesResult):
        return names[result.path]
    if family == "rayleigh_jn":
        return "closed"
    if family in ("anger", "weber"):
        return names[functions.s1(*args).path]
    if family == "sph_j_deriv":
        return names[functions.sph_j(*args).path]
    return "series"  # mod_i0, delta_fn


def oracle_check(points, results):
    """Per-call failure flags and the largest oracle error per path."""
    import oracle

    worst = dict.fromkeys(PATHS, 0.0)
    failed = []
    for (family, args), res in zip(points, results):
        if res is None:
            failed.append(True)
            continue
        value = float(getattr(res, "value", res))
        err = oracle.error(value, oracle.reference(family, args))
        path = path_of(family, args, res)
        worst[path] = max(worst[path], err)
        failed.append(not err <= oracle.FAIL_TOL)
    return failed, worst


def run_sweep(seconds, seed, trace):
    result = Result()
    setup = None if trace else SetupSamples()
    points = sweep_points(seed, SWEEP_PER_BAND)
    first, first_values = [], []  # later passes must match the first bitwise

    def one_pass(tracer=None):
        """(wall s, cpu s, p50 us, p99 us) of one pass over the points;
        per-pass percentiles keep memory flat however many passes run."""
        latencies = array("d")
        c0, t0 = time.process_time(), time.perf_counter()
        res = sweep_pass(points, latencies, tracer)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if not first:
            first.extend(res)
            first_values.extend(values_of(res))
        elif not all(same_bits(a, b) for a, b in zip(values_of(res), first_values)):
            result.count(0, len(points))
            result.notes.append("a sweep pass differs from the first")
        return wall, cpu, statistics.median(latencies), percentile(latencies, 99)

    plain_s, traced_s = split(seconds, trace)
    passes, refs = timed_units(
        plain_s, MIN_UNITS, one_pass, REF_REPEATS["sweep"], setup and setup.between_units,
    )
    walls = [p[0] for p in passes]
    result.notes.append(f"unit_s {walls}")
    result.notes.append(f"ref_s {refs}")
    units = len(walls)
    if not trace:
        setup_s = setup.median()
        result.notes.append(f"setup_s {setup.times} scaled {setup.scaled}")
        # read before the oracle imports mpmath
        result.metrics.update(
            setup_s=setup_s, pass_norm=normalized(walls, refs), peak_rss_mb=peak_rss_mb(),
        )
    else:
        m = result.metrics = dict.fromkeys(PER_LAYER, 0.0)
        m.update(wall_metrics(walls, refs))
        m["functions.call_p50_us"] = statistics.median(p[2] for p in passes)
        m["functions.call_p99_us"] = statistics.median(p[3] for p in passes)
        m["identities.cpu_per_wall"] = math.fsum(p[1] for p in passes) / math.fsum(walls)
        tracer = Tracer()
        tracer.install()
        summaries = []

        def traced_pass():
            wall = one_pass(tracer)[0]
            summaries.append(summarize(*tracer.take()))
            return wall

        traced = timed_units(traced_s, 1, traced_pass, REF_REPEATS["sweep"])
        if not tracer.uninstall():
            result.flag("the tracer left a wrapper installed")
        m.update(mean_summary(summaries))
        m["tracing.overhead"] = overhead((walls, refs), traced)
        units += len(traced[0])

    failed, worst = oracle_check(points, first)
    result.count(len(points) * units, sum(failed) * units)
    if trace:
        for path, err in worst.items():
            result.metrics[f"functions.oracle_err.{path}"] = err
        result.metrics["eval_fail_share"] = result.failed / result.attempted
    result.notes.append(f"sweep: {len(points)} calls per pass, {units} passes")
    return result


WORKLOADS = {"catalog": run_catalog, "cli-cold": run_cli_cold, "sweep": run_sweep}
