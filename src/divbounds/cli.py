"""Command-line front end: compute, bounds, verify, catalog.

Input files hold named raw weight vectors, either as JSON
``{"distributions": {"name": [w1, w2, ...]}}`` (the top level must be an
object) or as headerless CSV rows ``name,w1,w2,...``; a name given twice is
an input error.  ``compute`` evaluates every measure named by a repeatable
``--measure``, or all of them under ``--all`` (not both), plus phi_s at each
``--s``.  Each command returns its report; ``main`` prints it, as JSON under
``--json`` and as text lines otherwise.  All printed reals use 17
significant digits so every binary64 value round-trips exactly.  Exit
codes: 0 success, 1 bound or inequality violation, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import __version__
from .csiszar_bounds import CLOSED_FORM_REGIONS, bound_interval, global_extrema_table
from .errors import DivBoundsError, UnknownMeasure
from .generators import CATALOG_IDS, catalog, phi_generator
from .measures import MEASURE_IDS, divergence, phi_s
from .simplex import Distribution, normalize, ratio_range, smooth
from .type_s_bounds import bound_set
from .harness import PairTable, TrialConfig, run_suite, suite_ids

LN2 = math.log(2.0)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def load_distributions(path: str, fmt: str) -> dict:
    """Parse a distribution file into {name: raw weight list}."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_JsonObject)
        dists = doc.get("distributions") if isinstance(doc, dict) else None
        if not isinstance(dists, dict):
            raise DivBoundsError(f"{path}: expected a top-level 'distributions' object")
        if doc.duplicate is not None:
            raise DivBoundsError(f"{path}: duplicate key {doc.duplicate!r}")
        if dists.duplicate is not None:
            raise DivBoundsError(f"{path}: duplicate distribution name {dists.duplicate!r}")
        return {str(k): _json_weights(str(k), v) for k, v in dists.items()}
    if fmt == "csv":
        out = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                name, values = row[0], [float(v) for v in row[1:]]
                if name in out:
                    raise DivBoundsError(f"{path}: duplicate distribution name {name!r}")
                out[name] = values
        return out
    raise DivBoundsError(f"unknown format {fmt!r}")


class _JsonObject(dict):
    """A parsed JSON object that remembers the first key it holds twice
    (None if none), where a plain dict keeps the last value silently."""

    __slots__ = ("duplicate",)

    def __init__(self, pairs: list):
        super().__init__()
        self.duplicate = None
        for key, value in pairs:
            if key in self and self.duplicate is None:
                self.duplicate = key
            self[key] = value


def _json_weights(name: str, value) -> list:
    """A JSON distribution's weights; anything but an array of numbers is an input error."""
    if not isinstance(value, list):
        raise DivBoundsError(f"distribution {name!r}: expected an array of numbers, got {json.dumps(value)}")
    for i, w in enumerate(value):
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise DivBoundsError(f"distribution {name!r}: entry {i} is {json.dumps(w)}, not a number")
    try:
        return [float(w) for w in value]
    except OverflowError:  # an integer literal past the float range
        raise DivBoundsError(f"distribution {name!r}: a weight exceeds the float range") from None


def _get_pair(args):
    fmt = args.format or ("csv" if args.input.endswith(".csv") else "json")
    dists = load_distributions(args.input, fmt)
    pair = []
    for name in (args.p, args.q):
        if name not in dists:
            raise DivBoundsError(f"distribution {name!r} not found in {args.input}")
        raw = dists[name]
        try:
            d = smooth(raw, args.smooth) if args.smooth is not None else normalize(raw)
        except DivBoundsError as exc:
            raise DivBoundsError(f"distribution {name!r}: {exc}") from exc
        pair.append(d)
    return pair[0], pair[1]


def _json_value(v):
    """A report value as JSON holds it: a float that is not finite (a nan
    slack, an untouched inf) as null, which RFC 8259 allows and NaN or
    Infinity it does not."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def _text(v) -> str:
    """A report value as a text line prints it."""
    return _fmt(v) if isinstance(v, float) else "n/a" if v is None else str(v)


# Each command returns (exit code, report, text lines) and prints nothing;
# main prints the report as JSON under --json, and the lines otherwise.


def cmd_compute(args):
    P, Q = _get_pair(args)
    rng = ratio_range(P, Q)
    scale = 1.0 / LN2 if args.bits else 1.0
    values = {mid: divergence(mid, P, Q) * scale for mid in (MEASURE_IDS if args.all else args.measure or ())}
    values.update((phi_generator(s).id, phi_s(s, P, Q) * scale) for s in args.s or ())
    if not values:
        raise DivBoundsError("nothing to compute: pass --measure, --all, or --s")
    units = "bits" if args.bits else "nats"
    report = {"p": args.p, "q": args.q, "n": len(P), "units": units, "r": rng.r, "R": rng.R, "values": values}
    lines = [f"pair: p={args.p} q={args.q} n={len(P)} units={units}", f"ratio_range: r={_fmt(rng.r)} R={_fmt(rng.R)}"]
    return 0, report, lines + [f"{mid} {_fmt(value)}" for mid, value in values.items()]


def cmd_bounds(args):
    P, Q = _get_pair(args)
    if args.measure not in CATALOG_IDS:
        raise UnknownMeasure(f"bounds require one of {', '.join(CATALOG_IDS)}")
    rep = bound_interval(args.measure, args.s_value, P, Q)
    chain = bound_set(args.s_value, P, Q)
    rng = rep.mm.range
    report = {
        "measure": args.measure,
        "s": args.s_value,
        "r": rng.r,
        "R": rng.R,
        "m": rep.mm.m,
        "M": rep.mm.M,
        "method": rep.mm.method,
        "lower": rep.lower,
        "value": rep.value,
        "upper": rep.upper,
        "lower_slack": rep.lower_slack,
        "upper_slack": rep.upper_slack,
        "holds": rep.holds,
        "e_bound": chain.e_bound,
        "a_bound": chain.a_bound,
        "b_bound": chain.b_bound,
    }
    lines = [f"{key} {_text(v)}" for key, v in report.items() if key != "holds"]
    return (0 if rep.holds else 1), report, lines + ["holds" if rep.holds else "VIOLATED"]


def cmd_verify(args):
    requested = list(suite_ids()) if args.all else args.suite
    if not requested:
        raise DivBoundsError("pass --suite <id> (repeatable) or --all")
    config = TrialConfig(seed=args.seed, trials=args.trials)
    table = PairTable(config)
    reports = [run_suite(sid, config, table) for sid in requested]
    total_violations = sum(r.violations for r in reports)
    report = {"seed": args.seed, "trials": args.trials, "suites": [r.to_dict() for r in reports], "violations": total_violations}
    lines = [
        f"suite={r.suite} trials={r.trials} checks={r.checks} "
        f"violations={r.violations} worst_slack={_fmt(r.worst_slack)} "
        f"tightest_slack={_fmt(r.tightest_slack)}"
        for r in reports
    ]
    return (0 if total_violations == 0 else 1), report, lines + [f"total_violations={total_violations}"]


def cmd_catalog(args):
    extrema = {}
    for (mid, s), ext in global_extrema_table().items():
        extrema.setdefault(mid, []).append({"s": s, "kind": ext.kind, "value": ext.value, "x": ext.x})
    entries = []
    for mid, gen in catalog().items():
        lo, hi = CLOSED_FORM_REGIONS[mid]
        entries.append(
            {
                "id": mid,
                "f": gen.f_text,
                "f_second": gen.f_second_text,
                "closed_form_region": f"s <= {lo:g} or s >= {hi:g}",
                "global_extrema": sorted(extrema.get(mid, []), key=lambda e: e["s"]),
            }
        )
    entries.append(
        {
            "id": "PHI_S(s)",
            "f": "(x^s - 1)/(s*(s-1)); -ln(x) at s=0; x*ln(x) at s=1",
            "f_second": "x^(s-2)",
            "closed_form_region": "all s (x^(t-s) is monotone; m=M=1 when t=s)",
            "global_extrema": [],
        }
    )
    lines = []
    for e in entries:
        lines.append(f"{e['id']}: f={e['f']}, f''={e['f_second']}, closed-form {e['closed_form_region']}")
        lines += [f"  s={ext['s']:g}: {ext['kind']} g = {_fmt(ext['value'])} at x = {_fmt(ext['x'])}" for ext in e["global_extrema"]]
    return 0, {"measures": entries}, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="divbounds", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="Emit a JSON report.")
    pair = argparse.ArgumentParser(add_help=False, parents=[report])
    pair.add_argument("--input", required=True, help="Distribution file path.")
    pair.add_argument("--format", choices=("json", "csv"), help="File format (default: by extension).")
    pair.add_argument("--p", required=True, help="Name of the first distribution.")
    pair.add_argument("--q", required=True, help="Name of the second distribution.")
    pair.add_argument("--smooth", type=float, default=None, metavar="ALPHA", help="Additive smoothing constant for raw counts.")

    p = sub.add_parser("compute", parents=[pair], help="Evaluate divergence measures on a pair.")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--measure", action="append", help="Measure id, e.g. J, D1, KL, CHI2 (repeatable).")
    which.add_argument("--all", action="store_true", help="Evaluate every named measure.")
    p.add_argument("--s", type=float, action="append", help="Power-family parameter (repeatable).")
    p.add_argument("--bits", action="store_true", help="Report in bits instead of nats.")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("bounds", parents=[pair], help="Sandwich-bound report for one measure.")
    p.add_argument("--measure", required=True, help=f"One of {', '.join(CATALOG_IDS)}.")
    p.add_argument("--s", dest="s_value", type=float, required=True, help="Power-family parameter.")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", parents=[report], help="Run randomized verification suites.")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--suite", action="append", default=[], help="Suite id (repeatable).")
    which.add_argument("--all", action="store_true", help="Run every suite.")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("catalog", parents=[report], help="List measures, generators and bound regions.")
    p.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # json.JSONDecodeError is a ValueError; a closed stdout an OSError
        code, report, lines = args.fn(args)
        print(json.dumps(_json_value(report), indent=2, allow_nan=False) if args.json else "\n".join(lines))
    except (DivBoundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
