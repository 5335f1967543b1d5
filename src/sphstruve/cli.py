"""Command-line front end.

Three subcommands:

* ``eval``   -- evaluate any exposed function at a point,
* ``verify`` -- run identities from the catalog and stream reports,
* ``table``  -- sweep a function over a start:stop:count grid.

Exit codes: 0 success / all verified, 1 a check failed or was skipped,
2 a usage, config or domain error, 141 the reader closed the output pipe early
(the code a shell reports for a process killed by SIGPIPE).
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys

from .errors import ConvergenceError, DomainError, UnknownIdentityError
from .functions import (
    EvalPolicy,
    SeriesResult,
    anger,
    cyl_j,
    delta_fn,
    humbert2,
    humbert3,
    hyp1f2,
    mod_i0,
    rayleigh_jn,
    s1,
    s2,
    sph_j,
    sph_j_deriv,
    struve_h,
    weber,
)

_REPORT_FIELDS = (
    "id",
    "params",
    "lhs",
    "rhs",
    "abs_err",
    "rel_err",
    "tol_abs",
    "tol_rel",
    "status",
    "seconds",
)

# function name -> (callable, ordered argument names)
_FUNCTIONS = {
    "sph_j": (sph_j, ("n", "x")),
    "cyl_j": (cyl_j, ("nu", "x")),
    "mod_i0": (mod_i0, ("t",)),
    "struve_h": (struve_h, ("alpha", "x")),
    "humbert2": (humbert2, ("mu", "nu", "z")),
    "humbert3": (humbert3, ("mu", "nu", "rho", "z")),
    "hyp1f2": (hyp1f2, ("gamma", "a", "b", "z")),
    "delta_fn": (delta_fn, ("alpha", "beta", "gamma", "x")),
    "s1": (s1, ("nu", "x")),
    "s2": (s2, ("nu", "x")),
    "anger": (anger, ("nu", "x")),
    "weber": (weber, ("nu", "x")),
    "sph_j_deriv": (sph_j_deriv, ("n", "x")),
    "rayleigh_jn": (rayleigh_jn, ("n", "x")),
}

_POLICY_FREE = {"rayleigh_jn"}
# every function-argument flag; --n is the only integer one
_ARG_NAMES = sorted({name for _, names in _FUNCTIONS.values() for name in names})


class _UsageError(Exception):
    pass


def _read_config_file(path):
    """The `key = value` lines of a config file as `--key=value` arguments."""
    out = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeError) as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        out.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return out


def _build_policy(args):
    return EvalPolicy(rel_tol=args.rel_tol, abs_tol=args.abs_tol, max_terms=args.max_terms)


def _emit(args, text):
    print(text, file=args.stream)


def _bind(args, swept):
    """Gather the flags of all but the last `swept` arguments of
    args.function: (names, call, run), where run(*rest) evaluates it at
    call + rest and returns (value, SeriesResult or None)."""
    if args.function not in _FUNCTIONS:
        raise _UsageError(f"unknown function {args.function!r}; choose from {sorted(_FUNCTIONS)}")
    fn, names = _FUNCTIONS[args.function]
    taken = names[: len(names) - swept]
    for name in _ARG_NAMES:
        if name not in taken and getattr(args, name, None) is not None:
            raise _UsageError(f"--{name} does not apply to {args.function}")
    call = []
    for name in taken:
        v = getattr(args, name)
        if v is None:
            raise _UsageError(f"{args.function} requires --{name}")
        call.append(v)
    policy = () if args.function in _POLICY_FREE else (_build_policy(args),)

    def run(*rest):
        res = fn(*call, *rest, *policy)
        return (res.value, res) if isinstance(res, SeriesResult) else (res, None)

    return names, call, run


def _cmd_eval(args):
    names, call, run = _bind(args, 0)
    value, meta = run()
    if args.format == "json":
        rec = {"function": args.function, "args": dict(zip(names, call)), "value": value}
        if args.verbose and meta is not None:
            rec.update(
                {"path": meta.path, "terms_used": meta.terms_used, "tail_estimate": meta.tail_estimate}
            )
        _emit(args, json.dumps(rec))
    else:
        _emit(args, repr(value))
        if args.verbose and meta is not None:
            _emit(args, f"# path={meta.path} terms={meta.terms_used} tail={meta.tail_estimate:.3e}")
    return 0


def _report_record(r, iden):
    return {
        "id": r.identity_id,
        "params": r.params,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "abs_err": r.abs_err,
        "rel_err": r.rel_err,
        "tol_abs": iden.tol_abs,
        "tol_rel": iden.tol_rel,
        "status": r.status,
        "seconds": round(r.seconds, 6),
    }


def _finite_or_none(x):
    return x if isinstance(x, (int, str, dict)) or math.isfinite(x) else None


def _cmd_verify(args):
    # here, not at the top: `eval` and `table` run without the verifier
    from .identities import catalog_json, list_identities, verify_all

    if args.parallelism < 1:
        raise _UsageError("parallelism must be >= 1")
    known = {i.id: i for i in list_identities()}
    if args.ids == ["all"] or args.ids == []:
        ids = sorted(known)
    else:
        ids = args.ids
        for i in ids:
            if i not in known:
                raise _UsageError(f"unknown identity id {i!r}")
    if args.list_catalog:
        _emit(args, json.dumps(catalog_json(), indent=2))
        return 0
    reports = verify_all(
        policy=_build_policy(args),
        parallelism=args.parallelism,
        ids=ids,
        seed=args.seed,
    )
    records = [_report_record(r, known[r.identity_id]) for r in reports]
    if args.format == "json":
        for rec in records:
            rec = dict(rec)
            for k in ("lhs", "rhs", "abs_err", "rel_err"):
                rec[k] = _finite_or_none(rec[k])
            _emit(args, json.dumps(rec))
    elif args.format == "csv":
        import csv  # here, not at the top: only the csv writers need it

        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_REPORT_FIELDS, lineterminator="\n")
        w.writeheader()
        for rec in records:
            rec = dict(rec)
            rec["params"] = json.dumps(rec["params"], sort_keys=True)
            w.writerow(rec)
        _emit(args, buf.getvalue().rstrip("\n"))
    else:
        for rec in records:
            _emit(
                args,
                f"{rec['id']} {json.dumps(rec['params'], sort_keys=True)}: {rec['status']}"
                f" lhs={rec['lhs']!r} rhs={rec['rhs']!r} abs={rec['abs_err']:.3e} rel={rec['rel_err']:.3e}",
            )
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_skip = sum(1 for r in reports if r.status == "skipped")
    if args.format == "text":
        _emit(args, f"# {len(reports)} checks, {n_fail} failed, {n_skip} skipped")
    return 1 if n_fail or n_skip else 0


def _parse_sweep(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError("sweep must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count <= 0:
        raise _UsageError("sweep count must be positive")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError("sweep bounds must be finite")
    if count > 10**6:
        raise _UsageError("sweep count exceeds 1e6")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _cmd_table(args):
    _, _, run = _bind(args, 1)
    rows = []
    for x in _parse_sweep(args.sweep):
        value, meta = run(x)
        rows.append((x, value, meta.path, meta.terms_used) if meta is not None else (x, value, "value", 0))
    if args.format == "json":
        for x, v, path, terms in rows:
            _emit(args, json.dumps({"x": x, "value": v, "path": path, "terms_used": terms}))
    else:
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("x", "value", "path", "terms_used"))
        for row in rows:
            w.writerow(row)
        _emit(args, buf.getvalue().rstrip("\n"))
    return 0


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="sphstruve",
        description="Spherical Bessel / Struve / hyper-Bessel evaluators and the identity verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_subcommand(name, func, formats, help):
        """A subparser with the flags every subcommand reads; the last of
        `formats` is the default --format."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=formats, default=formats[-1])
        p.add_argument("--out", help="append output to this file instead of stdout")
        p.add_argument("--rel-tol", type=float, default=1e-12)
        p.add_argument("--abs-tol", type=float, default=1e-300)
        p.add_argument("--max-terms", type=int, default=500)
        p.add_argument("--config", help="key = value lines, each a valued flag of this subcommand; flags win")
        return p

    def add_function_args(p, skip=()):
        p.add_argument("function", help=f"one of {', '.join(sorted(_FUNCTIONS))}")
        for name in _ARG_NAMES:
            if name not in skip:
                p.add_argument(f"--{name}", type=int if name == "n" else float)

    pe = add_subcommand("eval", _cmd_eval, ("json", "text"), "evaluate one function at a point")
    add_function_args(pe)
    pe.add_argument("--verbose", action="store_true", help="add the path, terms and tail estimate")

    pv = add_subcommand("verify", _cmd_verify, ("json", "csv", "text"), "verify identities from the catalog")
    pv.add_argument("ids", nargs="*", default=[], help="identity ids, or 'all'")
    pv.add_argument("--list-catalog", action="store_true", help="print the catalog as JSON and exit")
    pv.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="verify in this process and N - 1 forked children, capped at the available CPUs; "
        "each fills its own lazy caches",
    )
    pv.add_argument("--seed", type=int, default=0, help="nonzero jitters verification grids")

    pt = add_subcommand("table", _cmd_table, ("json", "csv"), "sweep a function over start:stop:count")
    add_function_args(pt, skip=("x",))
    pt.add_argument(
        "--x", dest="sweep", required=True, help="sweep spec start:stop:count (inclusive) of the last argument"
    )
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # config lines go right after the subcommand, so any flag the user gives wins
        pre = argparse.ArgumentParser(prog="sphstruve", add_help=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv)[0].config
        if config:
            argv[1:1] = _read_config_file(config)
        args = _make_parser().parse_args(argv)
        try:
            stream = open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout)
        except OSError as exc:
            raise _UsageError(f"cannot open --out file: {exc}") from None
        with stream as args.stream:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except SystemExit as exc:  # argparse: 2 for a usage or config error, 0 after --help
        return exc.code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush of the
        # unwritten buffer cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UnknownIdentityError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
