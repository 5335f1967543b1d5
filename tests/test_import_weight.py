"""A fresh `import sphstruve` stays light.

The library and its CLI must not pull in `dataclasses` (which imports
`inspect`, `ast`, `dis` and `tokenize`), `inspect` itself,
`concurrent.futures` or `multiprocessing` (a parallel `verify_all`
forks its children itself, and imports neither) or numpy (a test-only
import); the CLI imports `csv` only on its csv path. Modules are
compared before and after each import in one fresh interpreter, so
what `site` loads on a given host does not count.

Run as a script for the same check outside pytest:

    PYTHONPATH=src python tests/test_import_weight.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sphstruve

HEAVY = {"dataclasses", "inspect", "concurrent.futures", "multiprocessing", "numpy"}

_PROBE = """
import json, sys
before = set(sys.modules)
import sphstruve
sphstruve.list_identities()
library = set(sys.modules)
import sphstruve.cli
print(json.dumps({"library": sorted(library - before), "cli": sorted(set(sys.modules) - library)}))
"""


_PARALLEL_PROBE = """
import json, sys
from sphstruve import identities
identities._available_cpus = lambda: 2
reports = identities.verify_all(ids=["I02"], parallelism=2)
print(json.dumps({"statuses": [r.status for r in reports], "modules": sorted(sys.modules)}))
"""


def run_probe(code):
    """The JSON line that `code` prints in a fresh interpreter."""
    src = str(Path(sphstruve.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def added_modules():
    """{"library": [...], "cli": [...]}: the modules each import adds."""
    return run_probe(_PROBE)


def heavy_imports(added):
    """The forbidden modules among `added`, per import."""
    return {
        "library": sorted(HEAVY & set(added["library"])),
        "cli": sorted((HEAVY | {"csv"}) & set(added["cli"])),
    }


def test_fresh_imports_stay_light():
    added = added_modules()
    assert "sphstruve.identities" in added["library"]
    assert "sphstruve.cli" in added["cli"]
    assert "sphstruve.forkmap" not in added["library"] + added["cli"]  # a parallel run imports it
    assert heavy_imports(added) == {"library": [], "cli": []}


def test_parallel_run_imports_no_pool():
    out = run_probe(_PARALLEL_PROBE)
    assert out["statuses"] == ["pass"] * 12
    assert "sphstruve.forkmap" in out["modules"]  # the run did fork
    assert HEAVY & set(out["modules"]) == set()


if __name__ == "__main__":
    heavy = heavy_imports(added_modules())
    print(json.dumps(heavy))
    sys.exit(1 if heavy["library"] or heavy["cli"] else 0)
