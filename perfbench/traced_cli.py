"""Run the `sphstruve` CLI under the tracer.

    PYTHONPATH=src python3 perfbench/traced_cli.py verify all --format json

Takes the CLI's own arguments and exits with its exit code. After the
CLI returns, the wrappers are removed and one line
`perfbench-trace {"clean": ..., "layers": {...}}` goes to stderr, with
the per-layer metrics of this process.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, summarize  # noqa: E402

import sphstruve.cli  # noqa: E402  (imports every library module)


def main(argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = sphstruve.cli.main(argv)
    finally:
        clean = tracer.uninstall()
    layers = summarize(*tracer.take())
    print("perfbench-trace " + json.dumps({"clean": clean, "layers": layers}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
