"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces public functions of the library with timing
wrappers in every `sphstruve` module namespace that holds them, because
the modules import each other's names with `from .x import y` (the
wrapper must sit in `identities.cyl_j` and `functions.cyl_j` alike).
`uninstall()` puts the originals back.

Spans are kept in memory, one list per thread. A span is
`(name, start, end, parent, request, attrs)`: `parent` is the index of
the enclosing span in the same thread's list (-1 at the root) and
`request` is the check index (set by the `identities.verify` wrapper)
or the sweep call index (set by the caller through `begin_request`).
`take()` hands the spans over and clears them; `summarize()` turns
them into the per-layer metrics.

`rgamma` and `gamma` are counted, not spanned: the catalog makes about
half a million `rgamma` calls per pass.
"""

import collections
import sys
import threading
import time

# public function -> span name; the layer is the first dotted component
SPANNED = {
    "identities": {"verify": "identities.verify", "verify_all": "identities.verify_all"},
    "cli": {"main": "cli.main"},
    "quadrature": {
        "integrate_finite": "quadrature.finite",
        "integrate_laguerre": "quadrature.laguerre",
        "integrate_oscillatory": "quadrature.oscillatory",
        "integrate_real_line": "quadrature.real_line",
        "gauss_laguerre_nodes": "quadrature.nodes",
    },
    "regularized": {
        "humbert2_phase_integral": "regularized.phase_integral",
        "humbert2_decimal": "regularized.series",
    },
    "umbral": {"reduce_expr": "umbral.reduce", "laplace_reduce": "umbral.laplace"},
}
# the 14 evaluators the CLI exposes, plus the two large-argument helpers
# the catalog's oscillatory tails call directly
EVALUATORS = (
    "sph_j", "cyl_j", "mod_i0", "struve_h", "humbert2", "humbert3", "hyp1f2",
    "delta_fn", "s1", "s2", "anger", "weber", "sph_j_deriv", "rayleigh_jn",
    "bessel_j_asym", "bessel_y_asym",
)
COUNTED = ("rgamma", "gamma")
PATHS = ("series", "extended", "asymptotic", "closed")
# evaluators returning a bare float: their path is fixed, or None when it
# is the path of their first evaluator child (anger, weber, sph_j_deriv)
_FIXED_PATH = {
    "mod_i0": "series",
    "delta_fn": "series",
    "rayleigh_jn": "closed",
    "bessel_j_asym": "asymptotic",
    "bessel_y_asym": "asymptotic",
}

# per-layer metric names the summary emits, in output order
LAYER_METRICS = (
    [f"functions.calls.{p}" for p in PATHS]
    + ["functions.terms.series", "functions.terms.extended"]
    + [f"functions.self_s.{p}" for p in PATHS[:3]]
    + ["functions.calls_under_quadrature", "gammakit.rgamma.calls", "gammakit.gamma.calls"]
    + [f"quadrature.finite.{k}" for k in ("calls", "cells", "self_s", "uncertified")]
    + [f"quadrature.laguerre.{k}" for k in ("calls", "self_s", "uncertified")]
    + [f"quadrature.nodes.{k}" for k in ("calls", "builds", "self_s")]
    + [f"quadrature.oscillatory.{k}" for k in ("calls", "cells", "self_s", "evals_per_cell")]
    + ["quadrature.real_line.calls", "quadrature.real_line.self_s"]
    + ["regularized.calls", "regularized.self_s", "regularized.series.calls", "regularized.series.self_s"]
    + ["umbral.reduce.calls", "umbral.reduce.terms", "umbral.reduce.self_s"]
    + ["umbral.laplace.calls", "umbral.laplace.self_s", "cli.self_s"]
)


def path_names():
    """The library's path labels -> the short names the metrics use."""
    from sphstruve import functions

    return {
        functions.PATH_SERIES: "series",
        functions.PATH_EXTENDED: "extended",
        functions.PATH_ASYMPTOTIC: "asymptotic",
        functions.PATH_CLOSED_FORM: "closed",
    }


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (spans, counts) of every thread that recorded
        self._patched = []  # (module, attribute, original)
        self._next_request = 0

    # -- per-thread state -------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.counts = collections.Counter()
            local.req = -1
            with self._lock:
                self._threads.append((local.spans, local.counts))
        return local

    def begin_request(self, request):
        """Tag the spans the calling thread records next with `request`."""
        self._state().req = request

    def take(self):
        """All spans and counts recorded so far; clears them."""
        with self._lock:
            spans = [list(s) for s, _ in self._threads]
            counts = collections.Counter()
            for s, c in self._threads:
                counts.update(c)
                s.clear()
                c.clear()
        return spans, counts

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, attrs=None, prepare=None, opens_request=False):
        state = self._state
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            local = state()
            spans = local.spans
            stack = local.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_req = local.req
            if opens_request:
                with tracer._lock:
                    local.req = tracer._next_request
                    tracer._next_request += 1
            probe = None
            if prepare is not None:
                args, probe = prepare(args)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = attrs(args, result, probe) if attrs is not None else None
                spans[idx] = (name, start, end, parent, local.req, info)
                local.req = outer_req

        return wrapper

    def _counter(self, fn, name):
        state = self._state

        def wrapper(*args, **kwargs):
            state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrappers(self):
        """original function -> wrapper, for every traced function."""
        from sphstruve import cli, functions, gammakit, identities, quadrature, regularized, umbral

        modules = {
            "identities": identities, "cli": cli, "quadrature": quadrature,
            "regularized": regularized, "umbral": umbral,
        }
        path_of = path_names()

        def evaluator_attrs(fixed):
            def attrs(args, result, probe):
                if fixed is not None or result is None or isinstance(result, float):
                    return (fixed, 0)
                return (path_of[result.path], result.terms_used)

            return attrs

        def quad_attrs(args, result, probe):
            if result is None:
                return (0, "raised", probe)
            return (result.cells_or_nodes, result.status, probe)

        def count_integrand(args):
            calls = [0]
            f = args[0]

            def counted(x):
                calls[0] += 1
                return f(x)

            return (counted,) + tuple(args[1:]), calls

        def oscillatory_attrs(args, result, calls):
            return quad_attrs(args, result, calls[0])

        # a build is a call whose (sigma, n) key the library's node cache
        # does not hold yet
        cache = quadrature._LAGUERRE_CACHE

        def node_prepare(args):
            return args, (float(args[0]), int(args[1])) not in cache

        def node_attrs(args, result, built):
            return built

        def reduce_attrs(args, result, probe):
            return len(args[0].terms)

        special = {
            "quadrature.finite": {"attrs": quad_attrs},
            "quadrature.laguerre": {"attrs": quad_attrs},
            "quadrature.real_line": {"attrs": quad_attrs},
            "quadrature.oscillatory": {"attrs": oscillatory_attrs, "prepare": count_integrand},
            "quadrature.nodes": {"attrs": node_attrs, "prepare": node_prepare},
            "umbral.reduce": {"attrs": reduce_attrs},
            "identities.verify": {"opens_request": True},
        }
        out = {}
        for mod_name, table in SPANNED.items():
            for fname, span_name in table.items():
                fn = getattr(modules[mod_name], fname)
                out[fn] = self._span(fn, span_name, **special.get(span_name, {}))
        for fname in EVALUATORS:
            fn = getattr(functions, fname)
            out[fn] = self._span(fn, "functions." + fname, attrs=evaluator_attrs(_FIXED_PATH.get(fname)))
        for fname in COUNTED:
            fn = getattr(gammakit, fname)
            out[fn] = self._counter(fn, "gammakit." + fname)
        return out

    def install(self):
        """Wrap every traced function wherever a `sphstruve` module holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers()
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "sphstruve" and not mod_name.startswith("sphstruve."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        """Restore the originals; returns True when no wrapper is left."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        clean = all(getattr(m, a) is o for m, a, o in self._patched)
        self._patched = []
        return clean


def summarize(spans_by_thread, counts, units=1):
    """Per-layer metrics from recorded spans and counts, per unit of work.

    A span's self time is its duration minus that of its direct
    children; spans of one thread nest strictly, so the children cover
    disjoint parts of it.
    """
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    osc_evals = 0
    for spans in spans_by_thread:
        n = len(spans)
        child = [0.0] * n
        first_path = [None] * n
        has_eval_child = [False] * n
        for i in range(n - 1, -1, -1):
            name, start, end, parent, _req, info = spans[i]
            dur = end - start
            own = dur - child[i]
            if parent >= 0:
                child[parent] += dur
            layer, _, kind = name.partition(".")
            if layer == "functions":
                path = info[0] or first_path[i] or "series"
                if parent >= 0:
                    first_path[parent] = path
                    has_eval_child[parent] = True
                    if spans[parent][0].startswith("quadrature."):
                        m["functions.calls_under_quadrature"] += 1
                if path != "closed":
                    m[f"functions.self_s.{path}"] += own
                if not has_eval_child[i]:
                    m[f"functions.calls.{path}"] += 1
                    if path in ("series", "extended"):
                        m[f"functions.terms.{path}"] += info[1]
            elif layer == "quadrature":
                m[f"quadrature.{kind}.calls"] += 1
                m[f"quadrature.{kind}.self_s"] += own
                if kind == "nodes":
                    m["quadrature.nodes.builds"] += info
                elif kind in ("finite", "laguerre"):
                    m[f"quadrature.{kind}.uncertified"] += info[1] != "converged"
                    if kind == "finite":
                        m["quadrature.finite.cells"] += info[0]
                elif kind == "oscillatory":
                    m["quadrature.oscillatory.cells"] += info[0]
                    osc_evals += info[2]
            elif name == "regularized.phase_integral":
                m["regularized.calls"] += 1
                m["regularized.self_s"] += own
            elif name == "regularized.series":
                m["regularized.series.calls"] += 1
                m["regularized.series.self_s"] += own
            elif name == "umbral.reduce":
                m["umbral.reduce.calls"] += 1
                m["umbral.reduce.terms"] += info
                m["umbral.reduce.self_s"] += own
            elif name == "umbral.laplace":
                m["umbral.laplace.calls"] += 1
                m["umbral.laplace.self_s"] += own
            elif name == "cli.main":
                # main minus its verify_all child
                m["cli.self_s"] += own
    cells = m["quadrature.oscillatory.cells"]
    m["gammakit.rgamma.calls"] = counts.get("gammakit.rgamma", 0)
    m["gammakit.gamma.calls"] = counts.get("gammakit.gamma", 0)
    out = {k: v / units for k, v in m.items()}
    out["quadrature.oscillatory.evals_per_cell"] = osc_evals / cells if cells else 0.0
    return out
