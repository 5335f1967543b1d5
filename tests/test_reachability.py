"""Every top-level definition of the library is reached from a root.

The roots are every definition of `cli.py`, `identities.py` and
`forkmap.py`, the package's module `__getattr__` and `__dir__` (PEP 562:
`from sphstruve import X` and `dir(sphstruve)` call them), plus the
names the benchmark tracer resolves with `getattr` (`SPANNED` and
`EVALUATORS` in `perfbench/tracer.py`, read from that file).  A
definition reaches every top-level name its statements mention, through
the module's own definitions and its relative imports.  Code that only
tests call is reached from no root.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "sphstruve"
TRACER = REPO / "perfbench" / "tracer.py"
ROOT_MODULES = ("cli", "identities", "forkmap")
PACKAGE_HOOKS = [("__init__", "__getattr__"), ("__init__", "__dir__")]


def _definitions(tree):
    """name -> the top-level statements that define or amend it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            # `X.__doc__ = ...` amends X, so its statement belongs to X
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            # dunder values (`__all__`, `__version__`) are data, but a
            # dunder function is code the scan must reach
            if isinstance(node, ast.FunctionDef) or not (name.startswith("__") and name.endswith("__")):
                defs.setdefault(name, []).append(node)
    return defs


def _imports(tree):
    """local name -> (module, name) for `from .m import n`, and
    (module, None) for `from . import m`, anywhere in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = (node.module, alias.name) if node.module else (alias.name, None)
    return out


def scan(sources, roots):
    """(defined, reached, resolve) for module name -> source text."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    defs = {m: _definitions(t) for m, t in trees.items()}
    imports = {m: _imports(t) for m, t in trees.items()}

    def resolve(module, name):
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if name in defs.get(module, {}):
                return module, name
            target = imports.get(module, {}).get(name)
            if target is None or target[1] is None:
                return None
            module, name = target
        return None

    def mentions(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports.get(module, {}).get(sub.value.id)
                if target is not None and target[1] is None:
                    yield resolve(target[0], sub.attr)

    reached = set()
    todo = [key for key in (resolve(m, n) for m, n in roots) if key is not None]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in defs[key[0]][key[1]]:
            todo.extend(k for k in mentions(key[0], node) if k is not None and k not in reached)
    defined = {(m, n) for m, d in defs.items() for n in d}
    return defined, reached, resolve


def _tracer_names():
    """(module, name) of every library name the tracer resolves by name."""
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("SPANNED", "EVALUATORS"):
                values[node.targets[0].id] = ast.literal_eval(node.value)
    names = [(module, fname) for module, table in values["SPANNED"].items() for fname in table]
    names += [("functions", fname) for fname in values["EVALUATORS"]]
    return names


def _library():
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def _roots(sources):
    defined = {m: _definitions(ast.parse(sources[m])) for m in ROOT_MODULES}
    return [(m, n) for m in ROOT_MODULES for n in defined[m]] + PACKAGE_HOOKS + _tracer_names()


def test_scan_finds_an_unreached_definition():
    sources = {
        "cli": "from . import fd\nfrom .a import f as g\ndef main():\n    return g() + fd.h()",
        "fd": "def h():\n    return 1",
        "a": "from .b import k\ndef f():\n    return k\ndef unused():\n    return f()",
        "b": "k = 2\nK = k",
    }
    defined, reached, _ = scan(sources, [("cli", "main")])
    assert defined - reached == {("a", "unused"), ("b", "K")}


def test_tracer_names_exist():
    sources = _library()
    _, _, resolve = scan(sources, [])
    names = _tracer_names()
    assert ("umbral", "reduce_expr") in names and ("functions", "sph_j") in names
    assert [n for n in names if resolve(*n) is None] == []


def test_every_definition_is_reached():
    sources = _library()
    defined, reached, _ = scan(sources, _roots(sources))
    assert sorted(defined - reached) == []
