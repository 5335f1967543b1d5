"""sphstruve benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from its
`src/`, and the CLI workload starts `python -m sphstruve.cli` there.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones. Before the result line come the run's environment and one
`name value unit` line per metric. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        return None


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "cli-cold", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sphstruve" / "__init__.py").is_file():
        print(f"error: no src/sphstruve under {ROOT}; run from a sphstruve checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    # unwind on SIGTERM, so that a CLI child, which runs in its own process
    # group and may be stopped, is continued, killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = environment(args.seed)
    env["loadavg_start"] = os.getloadavg()
    result = workloads.WORKLOADS[args.workload](args.seconds, args.seed, bool(args.trace))
    env["loadavg_end"] = os.getloadavg()
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print("env " + json.dumps(env))
    for note in result.notes:
        print("note " + note)
    for name, unit in units.items():
        print(f"{name} {result.metrics[name]!r} {unit}")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
