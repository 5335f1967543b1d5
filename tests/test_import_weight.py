"""A fresh `import sphstruve` stays light.

The library and its CLI must not pull in `dataclasses` (which imports
`inspect`, `ast`, `dis` and `tokenize`), `inspect` itself,
`concurrent.futures` or `multiprocessing` (a parallel `verify_all`
forks its children itself, and imports neither), numpy (a test-only
import) or `fractions` (the fixed-point series kernel sums in plain
`int`s; a `Fraction` per term would cost more than the sum); the CLI
imports `csv` only on its csv path. The evaluators and the CLI, which
`eval` and `table` run on, load none of the verifier's modules
(`identities`, `quadrature`, `regularized`, `umbral`) nor
`decimal`: the package resolves its exports on first use. Modules are
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

import pytest

import sphstruve

HEAVY = {"dataclasses", "inspect", "concurrent.futures", "multiprocessing", "numpy", "fractions"}
VERIFIER = {
    "sphstruve.identities",
    "sphstruve.quadrature",
    "sphstruve.regularized",
    "sphstruve.umbral",
    "decimal",
}
LIGHT_MODULES = ("sphstruve.functions", "sphstruve.cli")

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


_LIGHT_PROBE = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


# each export, imported by name in a fresh interpreter, is the object its
# defining module holds
_EXPORT_PROBE = """
import importlib, json
import sphstruve
bad = []
for name in sphstruve.__all__:
    scope = {}
    exec(f"from sphstruve import {name}", scope)
    module = sphstruve._MODULE_OF.get(name)
    if module is not None and scope[name] is not getattr(importlib.import_module("sphstruve." + module), name):
        bad.append(name)
print(json.dumps({"bad": bad, "undir": sorted(set(sphstruve.__all__) - set(dir(sphstruve)))}))
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


def verifier_imports(module):
    """The verifier's modules that a fresh `import module` loads."""
    return sorted(VERIFIER & set(run_probe(_LIGHT_PROBE.format(module=module))))


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


@pytest.mark.parametrize("module", LIGHT_MODULES)
def test_evaluators_load_no_verifier(module):
    assert verifier_imports(module) == []


def test_every_export_imports_by_name():
    assert run_probe(_EXPORT_PROBE) == {"bad": [], "undir": []}


def test_parallel_run_imports_no_pool():
    out = run_probe(_PARALLEL_PROBE)
    assert out["statuses"] == ["pass"] * 12
    assert "sphstruve.forkmap" in out["modules"]  # the run did fork
    assert HEAVY & set(out["modules"]) == set()


if __name__ == "__main__":
    heavy = heavy_imports(added_modules())
    verifier = {module: verifier_imports(module) for module in LIGHT_MODULES}
    exports = run_probe(_EXPORT_PROBE)
    print(json.dumps({"heavy": heavy, "verifier": verifier, "exports": exports}))
    sys.exit(1 if heavy["library"] or heavy["cli"] or any(verifier.values()) or any(exports.values()) else 0)
