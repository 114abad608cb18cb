"""Command-line interface: ``sasakijoin <subcommand> ...``.

Subcommands
-----------
invariants   topological invariants of one parameter tuple
csc          the exact ray polynomial and its CSC ray report
classify     homotopy / homeomorphism / diffeomorphism decisions
sweep        per-l2 tables: CSC ray counts with threshold detection, or
             partition into diffeomorphism classes

Output is a deterministic report {schema_version, request, payload,
warnings} rendered as JSON (--json), a human-readable table (--table,
default), or CSV (--csv).  Rational numbers serialize as exact "num/den"
strings; isolating intervals as {lo, hi, approx} where approx is a decimal
rendering of the midpoint at --precision digits and is display-only.
Identical requests produce byte-identical output, independent of --jobs.
JSON is ``json.dumps(report, sort_keys=True, indent=2)``, built by ``_json``.

Each subcommand (each target, for ``sweep``) is one entry of ``_COMMANDS``:
a payload builder, a table renderer and a CSV row maker, defined side by
side.  The builder takes the parsed arguments and returns the echo of its
own arguments for ``request``, the payload, the warnings, and the objects
its renderer prints besides the payload.  JSON prints the whole report.
The renderer runs only under --table, and the warnings follow its lines.
CSV writes the payload as key/value rows, except that the sweeps write one
row per value of l2.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation, any
other internal failure, or stdout closed early.  The environment variable
SASAKI_JOBS, when set, overrides --jobs; the worker count is clamped to the
CPU count and to the number of sweep rows, with a note on stderr.  ``sweep
csc`` starts a process pool only for two or more rows that the threshold
leaves open, with at most one worker per open row.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .classify import (
    ks_diffeomorphic,
    ks_homeomorphic,
    ks_moduli,
    kruggel_homotopy_equivalent,
    partition_diffeo_types,
)
from .cscrays import (
    CSC_CAVEAT,
    InternalInvariantError,
    csc_polynomial,
    csc_rays,
    deflate_forbidden,
    maximal_ray_count,
    ray_threshold,
    threshold_ray_counts,
)
from .exactpoly import RootRecord, format_poly
from .joinspace import (
    JoinParams,
    ParameterError,
    c1_coefficient,
    cohomology_group,
    cohomology_ring,
    diffeo_type_dim5,
    h4_order,
    is_spin,
    linking_form,
    p1_class,
)

SCHEMA_VERSION = "1"

__all__ = ["main", "entry", "SCHEMA_VERSION", "frac_str", "decimal_str"]


def __getattr__(name):
    # concurrent.futures imports multiprocessing, about 19 ms of a cold start
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# serialization helpers

def frac_str(q) -> str:
    """Canonical exact rendering of a rational as "num/den"."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q, digits: int) -> str:
    """Decimal rendering with ``digits`` fractional digits, round half up
    (towards +oo), with no sign on a value that rounds to zero.

    Display-only; every decision in the library is made on exact values.
    """
    q = Fraction(q)
    scaled = (2 * q.numerator * 10 ** digits + q.denominator) // (2 * q.denominator)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10 ** digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def _record_payload(record: RootRecord, digits: int) -> dict:
    out: dict = {
        "multiplicity": record.multiplicity,
        "is_rational": record.is_rational,
    }
    if record.is_rational:
        out["value"] = frac_str(record.value)
        out["approx"] = decimal_str(record.value, digits)
    else:
        iv = record.value
        out["interval"] = {
            "lo": frac_str(iv.lo),
            "hi": frac_str(iv.hi),
            "approx": decimal_str(iv.midpoint, digits),
        }
    return out


def _params_payload(params: JoinParams) -> dict:
    return {"p": params.p, "l1": params.l1, "l2": params.l2,
            "w": [params.w1, params.w2]}


def _params_line(params: dict) -> str:
    return (f"join parameters: p={params['p']} l1={params['l1']} "
            f"l2={params['l2']} w=({params['w'][0]},{params['w'][1]})")


def _json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, by joins, for report types."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = (f"{_quote(k)}: {_json(v, inner)}" for k, v in sorted(obj.items()))
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if obj else "{}"
    if isinstance(obj, (list, tuple)):
        items = (map(int.__repr__, obj) if all(type(x) is int for x in obj)
                 else (_json(x, inner) for x in obj))
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if obj else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key_value_rows(payload: dict) -> list[list]:
    return [["key", "value"],
            *([key, json.dumps(payload[key], sort_keys=True)] for key in sorted(payload))]


# ----------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """argparse, but every usage error exits with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _weight_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("weights must look like W1,W2")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _param_tuple(text: str) -> tuple[int, int, int, int]:
    cleaned = text.strip().lstrip("(").rstrip(")")
    parts = cleaned.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("tuples must look like l1,l2,w1,w2")
    try:
        return tuple(int(x) for x in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _precision(text: str) -> int:
    try:
        if 1 <= (value := int(text)) <= 1000:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("precision must be between 1 and 1000")


def _l2_range(text: str) -> list[int]:
    body = text
    parity = None
    if ":" in body:
        body, tag = body.split(":", 1)
        if tag not in ("odd", "even"):
            raise argparse.ArgumentTypeError("range filter must be :odd or :even")
        parity = tag
    if ".." not in body:
        raise argparse.ArgumentTypeError("ranges look like A..B or A..B:odd")
    lo_text, hi_text = body.split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("need 1 <= A <= B")
    values = range(lo, hi + 1)
    if parity == "odd":
        return [v for v in values if v % 2 == 1]
    if parity == "even":
        return [v for v in values if v % 2 == 0]
    return list(values)


def _add_common(parser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--table", dest="fmt", action="store_const", const="table")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")
    parser.set_defaults(fmt="table")
    parser.add_argument("--precision", type=_precision, default=12, metavar="D",
                        help="decimal digits for display approximations (1..1000)")
    parser.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="worker processes for sweeps (SASAKI_JOBS overrides)")
    parser.add_argument("--quote-caveat", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="print the CSC uniqueness caveat (default: on in table mode)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sasakijoin",
                     description="Exact invariants and CSC ray reports for join manifolds.")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    for name, help_text in (("invariants", "topological invariants of one tuple"),
                            ("csc", "ray polynomial and CSC ray report")):
        p_one = sub.add_parser(name, help=help_text)
        p_one.add_argument("-p", type=int, required=True)
        p_one.add_argument("-l1", type=int, required=True)
        p_one.add_argument("-l2", type=int, required=True)
        p_one.add_argument("-w", type=_weight_pair, required=True, metavar="W1,W2")
        _add_common(p_one)

    p_cls = sub.add_parser("classify", help="pairwise classification decisions")
    p_cls.add_argument("relation", choices=("homotopy", "homeo", "diffeo"))
    p_cls.add_argument("tuples", nargs="*", type=_param_tuple, metavar="l1,l2,w1,w2",
                       help="two dimension-7 tuples (homotopy relation only)")
    p_cls.add_argument("-l1", type=int)
    p_cls.add_argument("-l2", type=int)
    p_cls.add_argument("-l2p", type=int)
    _add_common(p_cls)

    p_sw = sub.add_parser("sweep", help="per-l2 sweeps")
    p_sw.add_argument("target", choices=("csc", "diffeo"))
    p_sw.add_argument("-p", type=int)
    p_sw.add_argument("-l1", type=int)
    p_sw.add_argument("-w", type=_weight_pair, metavar="W1,W2")
    p_sw.add_argument("--l2", type=_l2_range, dest="l2_values", metavar="A..B[:odd|:even]")
    p_sw.add_argument("--bound", type=int, metavar="N",
                      help="shorthand for --l2 1..N (csc target)")
    _add_common(p_sw)

    return parser


# ----------------------------------------------------------------------
# subcommands: payload builder and table renderer

def _invariants(args):
    params = JoinParams(args.p, args.l1, args.l2, *args.w)
    payload: dict = {
        "params": _params_payload(params),
        "dim": params.dim,
        "c1": c1_coefficient(params),
        "spin": is_spin(params),
    }
    groups = []
    if params.p == 1:
        payload["dim5_type"] = diffeo_type_dim5(params.l1, params.l2,
                                                params.w1, params.w2)
    else:
        ring = cohomology_ring(params)
        payload["h4_order"] = h4_order(params)
        payload["ring"] = {
            "generators": [[g, d] for g, d in ring.generators],
            "relations": [str(r) for r in ring.relations],
        }
        groups = [cohomology_group(params, k) for k in range(params.dim + 1)]
        payload["cohomology"] = [
            {"degree": k, "free_rank": group.free_rank, "torsion": list(group.torsion)}
            for k, group in enumerate(groups)
        ]
        if params.p == 2:
            payload["p1"] = p1_class(params)
            payload["linking_form"] = linking_form(params)
    return payload["params"], payload, [], groups


def _invariants_table(payload: dict, groups) -> list[str]:
    lines = [f"{_params_line(payload['params'])}  [dimension {payload['dim']}]",
             f"c1 coefficient: {payload['c1']}   spin: {payload['spin']}"]
    if "dim5_type" in payload:
        return lines + [f"diffeomorphism type: {payload['dim5_type']}"]
    order = payload["h4_order"]
    lines.append(f"|H^4| = {order}")
    lines.append(f"cohomology ring: Z[x,y]/({', '.join(payload['ring']['relations'])})")
    lines.extend(f"  H^{k:<2} = {group}" for k, group in enumerate(groups))
    if "p1" in payload:
        lines.append(f"p1 residue: {payload['p1']} mod {order}")
        lines.append(f"linking form: {payload['linking_form']} mod {order}")
    return lines


def _csc(args):
    params = JoinParams(args.p, args.l1, args.l2, *args.w)
    fp = csc_polynomial(params)
    deflated, multiplicity = deflate_forbidden(fp)
    report = csc_rays((params, deflated, multiplicity), args.precision)
    payload: dict = {
        "params": _params_payload(params),
        "f_coeffs": list(fp.poly.coeffs),
        "forbidden_root": frac_str(fp.forbidden_root),
        "forbidden_multiplicity": multiplicity,
        "deflated_coeffs": list(deflated.coeffs),
        "rays": [
            {"class": ray.ray_class, **_record_payload(ray.record, args.precision)}
            for ray in report.rays
        ],
        "unreduced_count": report.unreduced_count,
        "reduced_count": report.reduced_count,
        "weyl_paired": report.weyl_paired,
    }
    if args.quote_caveat:
        payload["caveat"] = CSC_CAVEAT
    return payload["params"], payload, [], fp.poly


def _csc_table(payload: dict, poly) -> list[str]:
    lines = [_params_line(payload["params"]),
             "ray polynomial: " + format_poly(poly, var="b"),
             f"forbidden root {payload['forbidden_root']} removed "
             f"with multiplicity {payload['forbidden_multiplicity']}",
             f"rays: {payload['unreduced_count']} unreduced, "
             f"{payload['reduced_count']} reduced"]
    for ray in payload["rays"]:
        if ray["is_rational"]:
            where, approx = f"b = {ray['value']}", ray["approx"]
        else:
            iv = ray["interval"]
            where, approx = f"b in ({iv['lo']}, {iv['hi']})", iv["approx"]
        lines.append(f"  {ray['class']:<13} {where}  "
                     f"multiplicity {ray['multiplicity']}  ~ {approx}")
    if "caveat" in payload:
        lines.append(f"note: {payload['caveat']}")
    return lines


def _classify(args):
    if args.relation == "homotopy":
        if len(args.tuples) != 2:
            raise ParameterError("two tuples",
                                 "classify homotopy needs exactly two l1,l2,w1,w2 tuples")
        a, b = (JoinParams(2, *t) for t in args.tuples)
        verdict = kruggel_homotopy_equivalent(a, b)
        payload = {
            "relation": "homotopy",
            "a": _params_payload(a),
            "b": _params_payload(b),
            "overall": verdict.overall,
            "conditions": [
                {"label": c.label, "holds": c.holds, "witness": list(c.witness)}
                for c in verdict.conditions
            ],
        }
        return {"relation": "homotopy", "tuples": args.tuples}, payload, [], None
    if args.l1 is None or args.l2 is None or args.l2p is None:
        raise ParameterError("flags -l1 -l2 -l2p",
                             f"classify {args.relation} needs -l1, -l2 and -l2p")
    homeo_mod, diffeo_mod = ks_moduli(args.l1)
    if args.relation == "homeo":
        relation, modulus = "homeomorphism", homeo_mod
        result = ks_homeomorphic(args.l1, args.l2, args.l2p)
    else:
        relation, modulus = "diffeomorphism", diffeo_mod
        result = ks_diffeomorphic(args.l1, args.l2, args.l2p)
    payload = {
        "relation": relation,
        "l1": args.l1,
        "l2": args.l2,
        "l2prime": args.l2p,
        "overall": result,
        "conditions": [{
            "label": "l2_congruence",
            "holds": result,
            "witness": [(args.l2p - args.l2) % modulus, modulus],
        }],
    }
    request = {"relation": args.relation, "l1": args.l1, "l2": args.l2, "l2p": args.l2p}
    return request, payload, [], None


def _classify_table(payload: dict, _) -> list[str]:
    return [f"relation: {payload['relation']}   verdict: {payload['overall']}",
            *(f"  {cond['label']:<22} {str(cond['holds']):<5} witness={cond['witness']}"
              for cond in payload["conditions"])]


def _sweep_request(args) -> dict:
    echo = {"target": args.target, "p": args.p, "l1": args.l1, "w": args.w,
            "l2_values": args.l2_values, "bound": args.bound}
    return {key: value for key, value in echo.items() if value is not None}


def _threshold_row(task) -> dict | None:
    """The sweep row of one l2 read off the threshold; None if it leaves l2 open."""
    try:
        counts = threshold_ray_counts(JoinParams(*task[:5]), task[5])
    except ParameterError as exc:
        return {"l2": task[2], "valid": False, "constraint": exc.constraint}
    return counts and {"l2": task[2], "valid": True, "unreduced": counts[0], "reduced": counts[1]}


def _rays_row(task) -> dict:
    """The sweep row of one l2 that the threshold leaves open, by csc_rays."""
    report = csc_rays(JoinParams(*task[:5]))
    return {"l2": task[2], "valid": True, "unreduced": report.unreduced_count,
            "reduced": report.reduced_count}


def _sweep_csc(args):
    if args.p is None or args.l1 is None or args.w is None:
        raise ParameterError("flags -p -l1 -w", "sweep csc needs -p, -l1 and -w")
    if args.l2_values is not None and args.bound is not None:
        raise ParameterError("one range", "give either --l2 or --bound, not both")
    l2_values = args.l2_values if args.bound is None else range(1, args.bound + 1)
    if not l2_values:
        raise ParameterError("nonempty range", "sweep csc needs --l2 A..B or --bound N")
    w1, w2 = args.w
    # l2 = 1 is coprime to everything, so this checks every rule not involving l2
    JoinParams(args.p, args.l1, 1, w1, w2)
    try:
        threshold = ray_threshold(args.p, w1, w2)
    except InternalInvariantError:
        threshold = None    # every row asks csc_rays
    tasks = [(args.p, args.l1, l2, w1, w2, threshold) for l2 in l2_values]
    jobs = args.jobs
    usable = min(os.cpu_count() or 1, len(tasks))
    if jobs > usable:
        print(f"note: jobs {jobs} clamped to {usable}", file=sys.stderr)
        jobs = usable
    rows = [_threshold_row(task) for task in tasks]
    open_tasks = [task for task, row in zip(tasks, rows) if row is None]
    jobs = min(jobs, len(open_tasks))
    if jobs > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=jobs) as pool:
            found = iter(list(pool.map(_rays_row, open_tasks)))
    else:
        found = map(_rays_row, open_tasks)
    rows = [row or next(found) for row in rows]
    maximal = maximal_ray_count(w1, w2)
    threshold = next((row["l2"] for row in rows
                      if row["valid"] and row["reduced"] == maximal), None)
    warnings = [] if threshold is not None else \
        ["no l2 in the range reaches the maximal ray count"]
    payload = {
        "target": "csc",
        "p": args.p, "l1": args.l1, "w": [w1, w2],
        "rows": rows,
        "threshold_l2": threshold,
    }
    return _sweep_request(args), payload, warnings, None


def _sweep_csc_table(payload: dict, _) -> list[str]:
    lines = [f"csc sweep: p={payload['p']} l1={payload['l1']} "
             f"w=({payload['w'][0]},{payload['w'][1]})",
             "l2    valid  unreduced  reduced"]
    for row in payload["rows"]:
        if row["valid"]:
            lines.append(f"{row['l2']:<5} yes    {row['unreduced']:<10} {row['reduced']}")
        else:
            lines.append(f"{row['l2']:<5} no     ({row['constraint']})")
    lines.append(f"threshold l2: {payload['threshold_l2']}")
    return lines


def _sweep_csc_rows(payload: dict) -> list[list]:
    return [["l2", "valid", "constraint", "unreduced", "reduced", "is_threshold"],
            *([row["l2"], row["valid"], row.get("constraint", ""),
               row.get("unreduced", ""), row.get("reduced", ""),
               row["l2"] == payload["threshold_l2"]] for row in payload["rows"])]


def _sweep_diffeo(args):
    if args.l1 is None:
        raise ParameterError("flag -l1", "sweep diffeo needs -l1")
    if not args.l2_values:
        raise ParameterError("nonempty range", "sweep diffeo needs --l2 A..B")
    partition = partition_diffeo_types(args.l1, args.l2_values)
    homeo_mod, diffeo_mod = ks_moduli(args.l1)
    payload = {
        "target": "diffeo",
        "l1": args.l1,
        "homeo_modulus": homeo_mod,
        "diffeo_modulus": diffeo_mod,
        "classes": [list(c) for c in partition.classes],
        "invalid": [{"l2": l2, "constraint": c} for l2, c in partition.invalid],
    }
    warnings = [f"l2={l2} skipped: {c}" for l2, c in partition.invalid]
    return _sweep_request(args), payload, warnings, None


def _sweep_diffeo_table(payload: dict, _) -> list[str]:
    return [f"diffeomorphism classes for l1={payload['l1']} "
            f"(modulus {payload['diffeo_modulus']}):",
            *(f"  class {i}: {cls}" for i, cls in enumerate(payload["classes"])),
            *(f"  skipped l2={item['l2']}: {item['constraint']}"
              for item in payload["invalid"])]


def _sweep_diffeo_rows(payload: dict) -> list[list]:
    return [["class_index", "l2"],
            *([i, l2] for i, cls in enumerate(payload["classes"]) for l2 in cls),
            *(["invalid", item["l2"]] for item in payload["invalid"])]


# command: (payload builder, table renderer, CSV rows)
_COMMANDS = {
    "invariants": (_invariants, _invariants_table, _key_value_rows),
    "csc": (_csc, _csc_table, _key_value_rows),
    "classify": (_classify, _classify_table, _key_value_rows),
    "sweep csc": (_sweep_csc, _sweep_csc_table, _sweep_csc_rows),
    "sweep diffeo": (_sweep_diffeo, _sweep_diffeo_table, _sweep_diffeo_rows),
}


# ----------------------------------------------------------------------
# entry points

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0

    env_jobs = os.environ.get("SASAKI_JOBS")
    if env_jobs is not None:
        try:
            args.jobs = int(env_jobs)
        except ValueError:
            print("error [SASAKI_JOBS]: must be an integer", file=sys.stderr)
            return 1
    args.jobs = max(1, args.jobs)
    if args.quote_caveat is None:
        args.quote_caveat = args.fmt == "table"

    command = f"sweep {args.target}" if args.subcommand == "sweep" else args.subcommand
    build, render, csv_rows = _COMMANDS[command]
    try:
        request, payload, warnings, view = build(args)
    except ParameterError as exc:
        print(f"error [{exc.constraint}]: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other failure is a defect, not bad input: one line, no traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 2

    try:
        if args.fmt == "json":
            report = {
                "schema_version": SCHEMA_VERSION,
                "request": {"subcommand": args.subcommand, "format": args.fmt,
                            "precision": args.precision, **request},
                "payload": payload,
                "warnings": warnings,
            }
            print(_json(report))
        elif args.fmt == "csv":
            csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows(payload))
        else:
            print("\n".join(render(payload, view) + [f"warning: {w}" for w in warnings]))
        sys.stdout.flush()
    except BrokenPipeError:
        # devnull takes what is still buffered, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the report was written", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())
