"""Command-line front end.

Every subcommand prints one self-contained JSON record per result:

    {"command": ..., "params": {...}, "result": {...},
     "tool_version": ..., "elapsed_ms": ...}

Field order is fixed.  elapsed_ms is 0 unless --timing is given, so that
identical invocations produce byte-identical output; --format csv emits a
flattened RFC-4180 table instead.  Exit codes: 0 success, 1 usage or parse
error, 2 verification failure, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import constants as cn
from . import experiments as ex
from . import expsum as es
from ._json import jsonable
from .errors import NotAFraction, OutOfRange, Overflow, PCLabError, PrecisionExhausted, RangeTooLarge, caps_from_env
from .exactpow import DEFAULT_FRAC_TOL, as_ratio, floor_pow, parse_exponent

_CAP_ERRORS = (RangeTooLarge, Overflow, PrecisionExhausted)


def _frac_arg(text: str) -> Fraction:
    try:
        return as_ratio(text)
    except NotAFraction:
        raise argparse.ArgumentTypeError(f"not an exact ratio: {text!r}") from None


def _int_arg(text: str) -> int:
    """Exact integer, accepting scientific notation like 1e6."""
    f = _frac_arg(text)
    if f.denominator != 1:
        raise argparse.ArgumentTypeError(f"not an exact integer: {text!r}")
    return f.numerator


_FORMATS = ("jsonl", "csv")

# --format, --config and --timing go on every parser, the scoped flags only
# on the commands that read them (new's extra names); the root parser holds
# every default, so a --config file can set any of them
_GLOBAL_FLAGS = (
    ("--format", dict(choices=_FORMATS)),
    ("--config", dict(type=str, help="flat key=value defaults file")),
    ("--timing", dict(action="store_true", help="report real elapsed_ms (breaks byte-identity)")),
)
_SCOPED_TYPES = {"jobs": int, "seed": int, "tol": float, "fixtures": str}
_DEFAULTS = dict(format="jsonl", config=None, timing=False, jobs=os.cpu_count() or 1, seed=0, tol=None,
                 fixtures="fixtures/fixtures.jsonl")


def _add_flags(parser: argparse.ArgumentParser, scoped=()):
    # SUPPRESS defaults, so a subcommand never clobbers the root's values
    for flag, kw in (*_GLOBAL_FLAGS, *((f"--{name}", dict(type=_SCOPED_TYPES[name])) for name in scoped)):
        parser.add_argument(flag, default=argparse.SUPPRESS, **kw)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise OutOfRange, so they end as one line and exit 1."""

    def error(self, message):
        raise OutOfRange(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pclab",
        description="computational laboratory for the arithmetic of floor(p^c)",
        allow_abbrev=False,
    )
    _add_flags(ap)
    ap.set_defaults(**_DEFAULTS)
    sub = ap.add_subparsers(dest="command", required=True)

    def new(parent, name, *scoped, **kw):
        # name is the dotted command ("expsum.weyl"); the innermost wins args.cmd
        p = parent.add_parser(name.rpartition(".")[2], allow_abbrev=False, **kw)
        p.set_defaults(cmd=name)
        _add_flags(p, scoped)
        return p

    p = new(sub, "floor", help="exact floor(n^c)")
    p.add_argument("-n", type=_int_arg, required=True)
    p.add_argument("-c", type=str, required=True)

    for name in ("census", "squarefree", "psprimes"):
        p = new(sub, name, "jobs")
        p.add_argument("--x", type=_int_arg, required=True)
        p.add_argument("-c", type=str, required=True)
        if name == "census":
            p.add_argument("-R", type=int, required=True)

    p = new(sub, "histogram", help="residues of floor(p^c) mod d")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--d", type=_int_arg, required=True)

    p = new(sub, "leveldist", help="level-of-distribution error sum")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--D", type=_int_arg, required=True)
    p.add_argument("--all-residues", action="store_true")

    p = new(sub, "discrepancy", "tol", help="star discrepancy of {h p^c / d}")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--h", type=_int_arg, required=True)
    p.add_argument("--d", type=_int_arg, required=True)

    pe = new(sub, "expsum", help="exponential-sum evaluators")
    se = pe.add_subparsers(dest="expsum_kind", required=True)
    p = new(se, "expsum.weyl")
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--Theta", type=_frac_arg, required=True)
    p.add_argument("--Delta", type=_frac_arg, required=True)
    p.add_argument("--N", type=_int_arg, required=True)
    p.add_argument("--eps", type=_frac_arg, default=Fraction(0))
    p = new(se, "expsum.prime")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--h", type=_int_arg, required=True)
    p.add_argument("--d", type=_int_arg, required=True)
    p = new(se, "expsum.trilinear", "seed")
    p.add_argument("--D", type=_int_arg, required=True)
    p.add_argument("--M", type=_int_arg, required=True)
    p.add_argument("--L", type=_int_arg, required=True)
    p.add_argument("--h", type=_int_arg, required=True)
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--weights", choices=("unit", "interval", "pm1"), default="unit")
    p = new(se, "expsum.triple")
    p.add_argument("--x", type=_int_arg, required=True)
    p.add_argument("--D", type=_int_arg, required=True)
    p.add_argument("--H", type=_int_arg, default=None)
    p.add_argument("-c", type=str, required=True)

    pc = new(sub, "constants", help="exact constants and inequality systems")
    sc = pc.add_subparsers(dest="constants_kind", required=True)
    p = new(sc, "constants.delta")
    p.add_argument("-R", type=int, required=True)
    new(sc, "constants.table")
    p = new(sc, "constants.lemma23")
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--theta", type=_frac_arg, required=True)
    p.add_argument("--kappa", type=_frac_arg, default=Fraction(1, 10**6))
    p = new(sc, "constants.maxc", "tol")
    p.add_argument("-R", type=int, required=True)
    p.add_argument("--kappa", type=_frac_arg, default=Fraction(1, 10**9))
    p.add_argument("--greaves-degree", action="store_true")
    p = new(sc, "constants.sigma")
    p.add_argument("-c", type=str, required=True)
    p = new(sc, "constants.rbound")
    p.add_argument("-c", type=str, required=True)
    p = new(sc, "constants.regime")
    p.add_argument("-c", type=str, required=True)
    p = new(sc, "constants.threshold", "tol")
    p.add_argument("--ineq", choices=("3.2", "3.3", "3.4", "beta-cap"), required=True)
    p.add_argument("--lo", type=_frac_arg, required=True)
    p.add_argument("--hi", type=_frac_arg, required=True)
    p = new(sc, "constants.margins")
    p.add_argument("-c", type=str, required=True)
    p.add_argument("--eps", type=_frac_arg, default=Fraction(1, 1000))

    p = new(sub, "verify", "jobs", "fixtures", help="run the acceptance suite")
    p.add_argument("--record", action="store_true", help="write regression fixtures")

    return ap


def _format_value(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(text)
    return text


# a config value becomes a parser default, which argparse never checks
_CONFIG_KEYS = {"format": _format_value, **_SCOPED_TYPES}


def _config_path(argv: list[str]) -> str | None:
    """The file named by --config PATH or --config=PATH, if any."""
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise OutOfRange("--config needs a file path")
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.partition("=")[2]
    return None


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> None:
    """Load --config key=value pairs as parser defaults (flags override)."""
    path = _config_path(argv)
    if path is None:
        return
    defaults = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in _CONFIG_KEYS:
                try:
                    defaults[key] = _CONFIG_KEYS[key](val)
                except ValueError:
                    raise OutOfRange(f"{path}: bad {key} value {val!r}") from None
    ap.set_defaults(**defaults)


def _flatten(prefix: str, obj, out: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, list):
        out[prefix] = json.dumps(obj)
    else:
        out[prefix] = obj
    return out


class Emitter:
    """One JSON line per record, or, for csv, one table written at close: one
    header, the union of the records' columns (verify's differ) in first-seen order."""

    def __init__(self, fmt: str, timing: bool):
        self.fmt = fmt
        self.timing = timing
        self._rows = []

    def emit(self, command: str, params: dict, result, elapsed_ms: int) -> None:
        record = {
            "command": command,
            "params": jsonable(params),
            "result": jsonable(result),
            "tool_version": __version__,
            "elapsed_ms": elapsed_ms if self.timing else 0,
        }
        if self.fmt == "jsonl":
            sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
        else:
            self._rows.append(_flatten("", record, {}))

    def close(self) -> None:
        if self._rows:
            import csv  # loaded only for --format csv

            writer = csv.DictWriter(sys.stdout, fieldnames=list(dict.fromkeys(k for r in self._rows for k in r)))
            writer.writeheader()
            writer.writerows(self._rows)


def _params_key(command: str, params: dict) -> str:
    import hashlib  # loads OpenSSL; only fixture keys need it

    canon = json.dumps({"command": command, "params": jsonable(params)}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# fixture workloads: deterministic, modest scale
_FIXTURE_RUNS = (
    ("expsum.weyl", {"c": "5/2", "Theta": "1/1", "Delta": "3/10", "N": 100}),
    ("expsum.prime", {"x": 10**5, "c": "11/5", "h": 3, "d": 7}),
    ("expsum.trilinear", {"D": 8, "M": 32, "L": 32, "h": 1, "c": "10521/10000", "weights": "pm1", "seed": 42}),
    ("expsum.triple", {"x": 100, "D": 2, "H": 2, "c": "3/2"}),
    ("census", {"x": 10**5, "c": "10521/10000", "R": 8}),
    ("squarefree", {"x": 10**5, "c": "7/5"}),
    ("psprimes", {"x": 10**5, "c": "3/2"}),
    ("leveldist", {"x": 10**5, "c": "10521/10000", "D": 50}),
    ("discrepancy", {"x": 10**5, "c": "10521/10000", "h": 1, "d": 7}),
)


def _results_match(a, b, rel=1e-9) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_results_match(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_results_match(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a == b
        return abs(float(a) - float(b)) <= rel * max(abs(float(b)), 1.0)
    return a == b


def _fixture_result(name: str, params: dict, jobs: int, caps) -> dict:
    """The result of the CLI invocation a fixture records."""
    argv = name.split(".")
    for key, value in params.items():
        argv += [f"-{key}" if key in ("c", "R") else f"--{key}", str(value)]
    args = build_parser().parse_args(argv)
    args.jobs = jobs
    if args.cmd not in _COMMANDS:
        raise OutOfRange(f"unknown fixture command {name!r}")
    return jsonable(_COMMANDS[args.cmd](args, caps)[1])


def _load_fixtures(path: str) -> list[tuple]:
    """(command, params, result, key) per recorded fixture; a missing file is an error."""
    if not os.path.exists(path):
        raise OutOfRange(f"no fixtures file {path} (record one with verify --record)")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            entries = [json.loads(line) for line in fh if line.strip()]
            return [(e["command"], dict(e["params"]), e["result"], e["key"]) for e in entries]
        except (ValueError, KeyError, TypeError) as e:
            raise OutOfRange(f"malformed fixtures file {path}: {e}") from None


def _verify(args, caps, emit: Emitter) -> int:
    if args.record:
        os.makedirs(os.path.dirname(args.fixtures) or ".", exist_ok=True)
        with open(args.fixtures, "w", encoding="utf-8") as fh:
            for name, params in _FIXTURE_RUNS:
                entry = {
                    "key": _params_key(name, params),
                    "command": name,
                    "params": jsonable(params),
                    "result": _fixture_result(name, params, args.jobs, caps),
                }
                fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
        emit.emit("verify", {"record": True}, {"fixtures": len(_FIXTURE_RUNS), "path": args.fixtures}, 0)
        return 0

    from . import acceptance as ac  # the suite loads only for verify

    runs = _load_fixtures(args.fixtures)
    jobs = args.jobs
    other = 4 if jobs == 1 else 1
    det_ok, results = ac.determinism_check(caps, (jobs, other))
    failed = 0
    for r in results:
        emit.emit("verify", {"criterion": r.cid, "title": r.title}, r.report(), int(r.elapsed_s * 1000))
        failed += 0 if r.passed else 1
    emit.emit("verify", {"criterion": 14, "title": "determinism across worker counts"},
              {"pass": det_ok, "jobs_pair": sorted((jobs, other))}, 0)
    failed += 0 if det_ok else 1

    fixture_fail = 0
    for name, params, want, key in runs:
        ok = _results_match(_fixture_result(name, params, jobs, caps), want)
        emit.emit("verify", {"fixture": name, "key": key[:16]}, {"pass": ok}, 0)
        fixture_fail += 0 if ok else 1

    total_fail = failed + fixture_fail
    emit.emit("verify", {"summary": True},
              {"criteria_failed": failed, "fixtures_failed": fixture_fail,
               "determinism_ok": det_ok, "ok": total_fail == 0}, 0)
    return 2 if total_fail else 0


def _sum(r) -> tuple[dict, es.SumEval]:
    return dict(r.params), r


def _holds(reports) -> dict:
    return {"all_hold": all(r.holds for r in reports), "inequalities": reports}


def _lemma23(a, caps):
    params = cn.feasibility_params(a.c, a.theta, a.kappa)
    return (
        {"c": a.c, "theta": params.theta, "kappa": params.kappa},
        {"alpha": cn.float_mirror(params.alpha), **_holds(cn.feasibility_check(params))},
    )


def _maxc(a, caps):
    tol = 1e-6 if a.tol is None else a.tol
    v = cn.max_c_feasible(a.R, tol, kappa=a.kappa, greaves_degree=a.greaves_degree)
    return {"R": a.R, "tol": tol, "greaves_degree": a.greaves_degree}, {"max_c": v}


def _threshold(a, caps):
    tol = 1e-3 if a.tol is None else a.tol
    return {"ineq": a.ineq, "lo": a.lo, "hi": a.hi, "tol": tol}, cn.threshold(a.ineq, a.lo, a.hi, tol)


# command -> (parsed arguments, caps) -> (echoed params, result), for the
# subcommands and the fixture runs alike
_COMMANDS = {
    "floor": lambda a, caps: ({"n": a.n, "c": parse_exponent(a.c)}, {"floor": floor_pow(a.n, a.c, caps)}),
    "census": lambda a, caps: (
        {"x": a.x, "c": a.c, "R": a.R}, ex.almost_prime_census(a.x, a.c, a.R, jobs=a.jobs, caps=caps)
    ),
    "squarefree": lambda a, caps: ({"x": a.x, "c": a.c}, ex.squarefree_census(a.x, a.c, jobs=a.jobs, caps=caps)),
    "psprimes": lambda a, caps: ({"x": a.x, "c": a.c}, ex.ps_prime_count(a.x, a.c, jobs=a.jobs, caps=caps)),
    "histogram": lambda a, caps: ({"x": a.x, "c": a.c, "d": a.d}, ex.residue_histogram(a.x, a.c, a.d, caps=caps)),
    "leveldist": lambda a, caps: (
        {"x": a.x, "c": a.c, "D": a.D, "f_model": "unit"},
        ex.level_error(a.x, a.c, a.D, all_residues=a.all_residues, caps=caps),
    ),
    "discrepancy": lambda a, caps: (
        {"x": a.x, "c": a.c, "h": a.h, "d": a.d},
        ex.star_discrepancy(a.x, a.c, a.h, a.d, tol=DEFAULT_FRAC_TOL if a.tol is None else a.tol, caps=caps),
    ),
    "expsum.weyl": lambda a, caps: _sum(es.weyl_sum(a.c, a.Theta, a.Delta, a.N, epsilon=a.eps, caps=caps)),
    "expsum.prime": lambda a, caps: _sum(es.prime_expsum(a.x, a.c, a.h, a.d, caps=caps)),
    "expsum.trilinear": lambda a, caps: _sum(
        es.trilinear_sum(a.D, a.M, a.L, a.h, a.c, a.weights, seed=a.seed, caps=caps)
    ),
    "expsum.triple": lambda a, caps: _sum(es.triple_sum(a.x, a.D, a.H, a.c, caps=caps)),
    "constants.delta": lambda a, caps: ({"R": a.R}, {"delta": cn.greaves_delta(a.R)}),
    "constants.table": lambda a, caps: ({}, {"pairs": [[p.R, p.c_R] for p in cn.admissible_pairs()]}),
    "constants.lemma23": _lemma23,
    "constants.maxc": _maxc,
    "constants.sigma": lambda a, caps: ({"c": a.c}, cn.regime_constants(a.c)),
    "constants.rbound": lambda a, caps: ({"c": a.c}, cn.r_bound(a.c)),
    "constants.regime": lambda a, caps: ({"c": a.c}, _holds(cn.regime_inequalities(a.c))),
    "constants.threshold": _threshold,
    "constants.margins": lambda a, caps: ({"c": a.c, "eps": a.eps}, cn.margin_verify(a.c, a.eps)),
}


def _dispatch(args, caps, emit: Emitter) -> int:
    if args.cmd == "verify":
        return _verify(args, caps, emit)
    t0 = time.perf_counter()
    params, result = _COMMANDS[args.cmd](args, caps)
    emit.emit(args.cmd, params, result, int((time.perf_counter() - t0) * 1000))
    return 0


def _refuse_scoped_before_command(argv: list[str]) -> None:
    """Refuse a scoped flag given before the subcommand, by name.

    The root parser does not know the scoped flags, so it would pass over one
    there and read its value as the command.
    """
    takes_value = {flag for flag, kw in _GLOBAL_FLAGS if "action" not in kw}  # not --timing
    args = iter(argv)
    for arg in args:
        flag = arg.partition("=")[0]
        if flag.startswith("--") and flag[2:] in _SCOPED_TYPES:
            raise OutOfRange(f"{flag} goes after the subcommand, not before it")
        if arg in takes_value:
            next(args, None)
        elif not arg.startswith("-"):
            return  # the subcommand


def run(argv: list[str]) -> int:
    try:
        _refuse_scoped_before_command(argv)
        ap = build_parser()
        _apply_config(ap, argv)
        args = ap.parse_args(argv)
        if args.jobs < 1:
            raise OutOfRange(f"--jobs must be at least 1, got {args.jobs}")
        emit = Emitter(args.format, args.timing)
        try:
            return _dispatch(args, caps_from_env(), emit)
        finally:
            emit.close()
    except SystemExit as e:
        # argparse exits 0 after --help
        return 0 if e.code == 0 else 1
    except _CAP_ERRORS as e:
        print(f"pclab: resource cap: {e}", file=sys.stderr)
        return 3
    except (PCLabError, OSError) as e:
        print(f"pclab: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
