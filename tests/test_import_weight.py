"""A fresh `import sphstruve` stays light.

The library and its CLI must not pull in `dataclasses` (which imports
`inspect`, `ast`, `dis` and `tokenize`), `inspect` itself, the process
pool's `concurrent.futures` (imported only when a pool is started) or
numpy (a test-only import); the CLI imports `csv` only on its csv path.
Modules are compared before and after each import in one fresh
interpreter, so what `site` loads on a given host does not count.

Run as a script for the same check outside pytest:

    PYTHONPATH=src python tests/test_import_weight.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sphstruve

HEAVY = {"dataclasses", "inspect", "concurrent.futures", "numpy"}

_PROBE = """
import json, sys
before = set(sys.modules)
import sphstruve
sphstruve.list_identities()
library = set(sys.modules)
import sphstruve.cli
print(json.dumps({"library": sorted(library - before), "cli": sorted(set(sys.modules) - library)}))
"""


def added_modules():
    """{"library": [...], "cli": [...]}: the modules each import adds."""
    src = str(Path(sphstruve.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


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
    assert heavy_imports(added) == {"library": [], "cli": []}


if __name__ == "__main__":
    heavy = heavy_imports(added_modules())
    print(json.dumps(heavy))
    sys.exit(1 if heavy["library"] or heavy["cli"] else 0)
