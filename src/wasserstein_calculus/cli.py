"""Batch driver: every check as a subcommand, JSON in, JSON/CSV out.

Exit codes: 0 success, 1 check failure, 2 invalid input. Errors go to stderr
as JSON. Option precedence: command-line flag, then --config file, then the
module defaults. numpy's floating-point warnings are silenced, so stderr
holds nothing but the error, and for ``sweep`` one timing line per
criterion: a result that is not finite is refused when the report is
written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .acceptance import run_sweep
from .derivative import DEFAULT_EPS, DEFAULT_QUAD_ORDER, DEFAULT_SEED, dawson, dawson_extrapolated
from .ftc import counterexample_report, field_from_dict, ftc_check
from .functions import _SCALAR_KINDS, ScalarFunction, cylinder_from_dict, scalar_from_dict
from .measures import measure_from_dict, measure_to_dict, w1
from .partition import BUMP_MODES, PartitionScheme, discretize
from .util import canonical_json, check_keys

DEFAULTS = {
    "seed": DEFAULT_SEED,
    "eps": DEFAULT_EPS,
    "quad": DEFAULT_QUAD_ORDER,
    "samples": 200,
    "threads": 1,
    "K": 1.0,
}

CSV_COLUMNS = ("n", "K", "w1_bound", "w1_actual", "atoms_out")


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_measure(path: str):
    return measure_from_dict(_load_json_file(path))


def _resolve(args, key, default=None):
    """Option ``key`` from the command line, else the config file, else
    ``default`` when the command has its own, else DEFAULTS; as the type of
    the DEFAULTS entry."""
    value = getattr(args, key, None)
    if value is None and getattr(args, "config", None):
        value = _config(args).get(key)
    if value is None:
        value = DEFAULTS[key] if default is None else default
    return type(DEFAULTS[key])(value)


def _config(args) -> dict:
    """The --config file's JSON object, read and checked on the first option
    that needs it and kept on ``args`` for the rest of the command.

    Every key must be an option of some command, a key of DEFAULTS, so one
    file serves every command; every value must be a finite number, and an
    integer where the option's default is one.
    """
    config = vars(args).get("_config")
    if config is None:
        config = _load_json_file(args.config)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config} must hold a JSON object of option values")
        check_keys(config, DEFAULTS, f"config file {args.config}")
        for key, value in config.items():
            _check_config_value(key, value, type(DEFAULTS[key]))
        args._config = config
    return config


def _check_config_value(key, value, cast):
    ok = not isinstance(value, bool) and isinstance(value, int if cast is int else (int, float))
    if ok and cast is float:
        try:
            ok = math.isfinite(float(value))
        except OverflowError:
            ok = False
    if not ok:
        kind = "an integer" if cast is int else "a finite number"
        raise ValueError(f"config value of {key!r} must be {kind}, not {type(value).__name__}")


def _parse_scalar_arg(text: str):
    if text.strip().startswith("{"):
        return scalar_from_dict(json.loads(text))
    names = [kind for kind, row in _SCALAR_KINDS.items() if not row.keys]
    if text in names:
        return ScalarFunction(text)
    raise ValueError(f"unknown function {text!r}: use {', '.join(names)}, or a JSON object")


def _emit(report: dict, out_path: str | None = None):
    text = canonical_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, rows: list[dict]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in CSV_COLUMNS])


def cmd_w1(args) -> int:
    a = _load_measure(args.a)
    b = _load_measure(args.b)
    _emit({"w1": float(w1(a, b))})
    return 0


def cmd_discretize(args) -> int:
    m = _load_measure(args.measure)
    scheme = PartitionScheme(n=args.n, K=args.K, bump_shape=args.bump)
    mn = discretize(scheme, m)
    actual = float(w1(m, mn))
    bound = 3.0 / args.n
    ok = actual <= bound + 1e-10
    report = {
        "n": args.n,
        "K": args.K,
        "bump": args.bump,
        "w1_bound": bound,
        "w1_actual": actual,
        "atoms_out": len(mn),
        "ok": ok,
        "measure": measure_to_dict(mn),
    }
    if args.csv:
        _write_csv(args.csv, [report])
    _emit(report)
    return 0 if ok else 1


def cmd_dawson(args) -> int:
    eps = _resolve(args, "eps")
    F = cylinder_from_dict(_load_json_file(args.function))
    m = _load_measure(args.measure)
    report = {
        "x": args.x,
        "eps": eps,
        "dawson": float(dawson(F, m, args.x, eps)),
        "dawson_extrapolated": float(dawson_extrapolated(F, m, args.x, eps)),
        "exact_delta": float(F.exact_delta(m, args.x)),
        "function": F.label,
    }
    _emit(report)
    return 0


def cmd_deriv2_check(args) -> int:
    from .acceptance import check_integral_identity

    report, _elapsed = check_integral_identity(
        seed=_resolve(args, "seed"),
        samples=_resolve(args, "samples"),
        quad_order=_resolve(args, "quad"),
    )
    report = {
        "check": "deriv2",
        "seed": report["seed"],
        "quad_order": report["quad_order"],
        "samples": report["samples"],
        "residual_max": report["residual_max"],
        "ok": report["ok"],
    }
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_ftc_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"tol must be a finite number at least 0, not {args.tol!r}")
    H = field_from_dict(_load_json_file(args.field))
    report = ftc_check(
        H,
        K=_resolve(args, "K"),
        quad_order=_resolve(args, "quad"),
        eps=_resolve(args, "eps"),
        samples=_resolve(args, "samples"),
        seed=_resolve(args, "seed"),
    )
    _emit(report)
    passed = report["verdict"] == "derivative" and report["mismatch_max"] <= args.tol
    return 0 if passed else 1


def cmd_counterexample(args) -> int:
    report = counterexample_report(
        _parse_scalar_arg(args.phi),
        _parse_scalar_arg(args.psi),
        K=_resolve(args, "K", math.pi),
        quad_order=_resolve(args, "quad"),
        eps=_resolve(args, "eps"),
        samples=_resolve(args, "samples"),
        seed=_resolve(args, "seed"),
    )
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_sweep(args) -> int:
    report, timings = run_sweep(seed=_resolve(args, "seed"))
    if args.csv:
        _write_csv(args.csv, report["criteria"][0]["per_n"])
    _emit(report, args.out)
    for name, seconds in timings.items():
        print(f"{name}: {seconds:.2f}s", file=sys.stderr)
    return 0 if report["all_ok"] else 1


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` where argparse would print usage and exit, so a
    bad command line ends in the JSON error of any invalid input. Subparsers
    are made of the same class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wcalc", description="Wasserstein-space calculus checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *keys):
        p.add_argument("--config", help="JSON file supplying defaults")
        if "seed" in keys:
            p.add_argument("--seed", type=int)
        if "eps" in keys:
            p.add_argument("--eps", type=float)
        if "quad" in keys:
            p.add_argument("--quad", type=int)
        if "samples" in keys:
            p.add_argument("--samples", type=int)

    p = sub.add_parser("w1", help="distance between two measure files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_w1)

    p = sub.add_parser("discretize", help="push a measure onto the grid and check the 3/n bound")
    p.add_argument("measure")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--bump", choices=BUMP_MODES, default="smooth_bump")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("dawson", help="difference-quotient derivative of a cylinder function")
    p.add_argument("function", help="cylinder JSON file")
    p.add_argument("measure")
    p.add_argument("--x", type=float, required=True)
    common(p, "eps")
    p.set_defaults(func=cmd_dawson)

    p = sub.add_parser("deriv2-check", help="integral-identity residuals on seeded pairs")
    common(p, "seed", "quad", "samples")
    p.set_defaults(func=cmd_deriv2_check)

    p = sub.add_parser("ftc-check", help="antiderivative round trip for a field file")
    p.add_argument("field", help="field JSON file")
    p.add_argument("--K", type=float)
    p.add_argument("--tol", type=float, default=1e-5, help="mismatch allowed for a pass")
    common(p, "seed", "eps", "quad", "samples")
    p.set_defaults(func=cmd_ftc_check)

    p = sub.add_parser("counterexample", help="reproduce the symmetry-violating field report")
    p.add_argument("--phi", default="sin")
    p.add_argument("--psi", default="cos")
    p.add_argument("--K", type=float)
    common(p, "seed", "eps", "quad", "samples")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("sweep", help="run the full acceptance battery")
    p.add_argument("--csv", help="write the per-n discretization table here")
    p.add_argument("--out", help="write the report here instead of stdout")
    # read by nothing: the sweep workload of the benchmark passes --threads 1
    # (perfbench/workloads.py); the benchmark change that drops that argument
    # also deletes this flag and the "threads" entry of DEFAULTS
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    common(p, "seed")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args)
    # OverflowError: a value beyond a double; MemoryError: an array no address
    # space holds, such as the grid of a huge n*K, refused before allocation
    except (ValueError, OverflowError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
