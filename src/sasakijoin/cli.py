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

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation or
any other internal failure.  The environment variable SASAKI_JOBS, when
set, overrides --jobs; the worker count is clamped to the CPU count and to
the number of sweep rows, with a note on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

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
)
from .exactpoly import RootRecord, format_poly, intpoly
from .joinspace import (
    AbelianGroupDescriptor,
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


# ----------------------------------------------------------------------
# serialization helpers

def frac_str(q) -> str:
    """Canonical exact rendering of a rational as "num/den"."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q, digits: int) -> str:
    """Decimal rendering with ``digits`` fractional digits, round half up.

    Display-only; every decision in the library is made on exact values.
    """
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    scaled, rem = divmod(n * 10 ** digits, d)
    if 2 * rem >= d:
        scaled += 1
    whole, frac = divmod(scaled, 10 ** digits)
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


def _group_payload(group) -> dict:
    return {"free_rank": group.free_rank, "torsion": list(group.torsion)}


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
    value = int(text)
    if not 1 <= value <= 1000:
        raise argparse.ArgumentTypeError("precision must be between 1 and 1000")
    return value


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

    p_inv = sub.add_parser("invariants", help="topological invariants of one tuple")
    p_inv.add_argument("-p", type=int, required=True)
    p_inv.add_argument("-l1", type=int, required=True, dest="l1")
    p_inv.add_argument("-l2", type=int, required=True, dest="l2")
    p_inv.add_argument("-w", type=_weight_pair, required=True, metavar="W1,W2")
    _add_common(p_inv)

    p_csc = sub.add_parser("csc", help="ray polynomial and CSC ray report")
    p_csc.add_argument("-p", type=int, required=True)
    p_csc.add_argument("-l1", type=int, required=True, dest="l1")
    p_csc.add_argument("-l2", type=int, required=True, dest="l2")
    p_csc.add_argument("-w", type=_weight_pair, required=True, metavar="W1,W2")
    _add_common(p_csc)

    p_cls = sub.add_parser("classify", help="pairwise classification decisions")
    p_cls.add_argument("relation", choices=("homotopy", "homeo", "diffeo"))
    p_cls.add_argument("tuples", nargs="*", type=_param_tuple, metavar="l1,l2,w1,w2",
                       help="two dimension-7 tuples (homotopy relation only)")
    p_cls.add_argument("-l1", type=int, dest="l1")
    p_cls.add_argument("-l2", type=int, dest="l2")
    p_cls.add_argument("-l2p", type=int, dest="l2p")
    _add_common(p_cls)

    p_sw = sub.add_parser("sweep", help="per-l2 sweeps")
    p_sw.add_argument("target", choices=("csc", "diffeo"))
    p_sw.add_argument("-p", type=int)
    p_sw.add_argument("-l1", type=int, dest="l1")
    p_sw.add_argument("-w", type=_weight_pair, dest="w", metavar="W1,W2")
    p_sw.add_argument("--l2", type=_l2_range, dest="l2_range", metavar="A..B[:odd|:even]")
    p_sw.add_argument("--bound", type=int, metavar="N",
                      help="shorthand for --l2 1..N (csc target)")
    _add_common(p_sw)

    return parser


# ----------------------------------------------------------------------
# payload builders

def _invariants_payload(args) -> dict:
    w1, w2 = args.w
    params = JoinParams(args.p, args.l1, args.l2, w1, w2)
    payload: dict = {
        "params": {"p": params.p, "l1": params.l1, "l2": params.l2,
                   "w": [params.w1, params.w2]},
        "dim": params.dim,
        "c1": c1_coefficient(params),
        "spin": is_spin(params),
    }
    if params.p == 1:
        payload["dim5_type"] = diffeo_type_dim5(params.l1, params.l2,
                                                params.w1, params.w2)
        return payload
    ring = cohomology_ring(params)
    payload["h4_order"] = h4_order(params)
    payload["ring"] = {
        "generators": [[g, d] for g, d in ring.generators],
        "relations": [str(r) for r in ring.relations],
    }
    payload["cohomology"] = [
        {"degree": k, **_group_payload(cohomology_group(params, k))}
        for k in range(params.dim + 1)
    ]
    if params.p == 2:
        payload["p1"] = p1_class(params)
        payload["linking_form"] = linking_form(params)
    return payload


def _csc_payload(args, caveat: bool) -> dict:
    w1, w2 = args.w
    params = JoinParams(args.p, args.l1, args.l2, w1, w2)
    fp = csc_polynomial(params)
    deflated, multiplicity = deflate_forbidden(fp)
    report = csc_rays((params, deflated, multiplicity), args.precision)
    payload: dict = {
        "params": {"p": params.p, "l1": params.l1, "l2": params.l2,
                   "w": [params.w1, params.w2]},
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
    if caveat:
        payload["caveat"] = CSC_CAVEAT
    return payload


def _classify_payload(args) -> dict:
    if args.relation == "homotopy":
        if len(args.tuples) != 2:
            raise ParameterError("two tuples",
                                 "classify homotopy needs exactly two l1,l2,w1,w2 tuples")
        (l1a, l2a, w1a, w2a), (l1b, l2b, w1b, w2b) = args.tuples
        a = JoinParams(2, l1a, l2a, w1a, w2a)
        b = JoinParams(2, l1b, l2b, w1b, w2b)
        verdict = kruggel_homotopy_equivalent(a, b)
        return {
            "relation": "homotopy",
            "a": {"p": 2, "l1": a.l1, "l2": a.l2, "w": [a.w1, a.w2]},
            "b": {"p": 2, "l1": b.l1, "l2": b.l2, "w": [b.w1, b.w2]},
            "overall": verdict.overall,
            "conditions": [
                {"label": c.label, "holds": c.holds, "witness": list(c.witness)}
                for c in verdict.conditions
            ],
        }
    if args.l1 is None or args.l2 is None or args.l2p is None:
        raise ParameterError("flags -l1 -l2 -l2p",
                             f"classify {args.relation} needs -l1, -l2 and -l2p")
    homeo_mod, diffeo_mod = ks_moduli(args.l1)
    if args.relation == "homeo":
        result = ks_homeomorphic(args.l1, args.l2, args.l2p)
        modulus = homeo_mod
    else:
        result = ks_diffeomorphic(args.l1, args.l2, args.l2p)
        modulus = diffeo_mod
    relation = "homeomorphism" if args.relation == "homeo" else "diffeomorphism"
    return {
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


def _csc_sweep_row(task) -> dict:
    p, l1, w1, w2, l2, precision = task
    try:
        params = JoinParams(p, l1, l2, w1, w2)
    except ParameterError as exc:
        return {"l2": l2, "valid": False, "constraint": exc.constraint}
    report = csc_rays(params, precision)
    return {"l2": l2, "valid": True,
            "unreduced": report.unreduced_count,
            "reduced": report.reduced_count}


def _sweep_payload(args, jobs: int) -> tuple[dict, list[str]]:
    warnings: list[str] = []
    if args.target == "csc":
        if args.p is None or args.l1 is None or args.w is None:
            raise ParameterError("flags -p -l1 -w", "sweep csc needs -p, -l1 and -w")
        if args.l2_range is not None and args.bound is not None:
            raise ParameterError("one range", "give either --l2 or --bound, not both")
        l2_values = args.l2_range if args.l2_range is not None \
            else (_l2_range(f"1..{args.bound}") if args.bound else None)
        if not l2_values:
            raise ParameterError("nonempty range", "sweep csc needs --l2 A..B or --bound N")
        w1, w2 = args.w
        tasks = [(args.p, args.l1, w1, w2, l2, args.precision) for l2 in l2_values]
        usable = min(os.cpu_count() or 1, len(tasks))
        if jobs > usable:
            print(f"note: jobs {jobs} clamped to {usable}", file=sys.stderr)
            jobs = usable
        if jobs > 1:
            chunk = max(1, len(tasks) // (4 * jobs))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_csc_sweep_row, tasks, chunksize=chunk))
        else:
            rows = [_csc_sweep_row(task) for task in tasks]
        rows.sort(key=lambda row: row["l2"])
        target_count = 2 if w1 == w2 else 3
        count_key = "reduced" if w1 == w2 else "unreduced"
        threshold = next((row["l2"] for row in rows
                          if row["valid"] and row[count_key] == target_count), None)
        if threshold is None:
            warnings.append("no l2 in the range reaches the maximal ray count")
        payload = {
            "target": "csc",
            "p": args.p, "l1": args.l1, "w": [w1, w2],
            "rows": rows,
            "threshold_l2": threshold,
        }
        return payload, warnings
    # diffeomorphism partition
    if args.l1 is None:
        raise ParameterError("flag -l1", "sweep diffeo needs -l1")
    if not args.l2_range:
        raise ParameterError("nonempty range", "sweep diffeo needs --l2 A..B")
    partition = partition_diffeo_types(args.l1, args.l2_range)
    homeo_mod, diffeo_mod = ks_moduli(args.l1)
    for l2, constraint in partition.invalid:
        warnings.append(f"l2={l2} skipped: {constraint}")
    payload = {
        "target": "diffeo",
        "l1": args.l1,
        "homeo_modulus": homeo_mod,
        "diffeo_modulus": diffeo_mod,
        "classes": [list(c) for c in partition.classes],
        "invalid": [{"l2": l2, "constraint": c} for l2, c in partition.invalid],
    }
    return payload, warnings


# ----------------------------------------------------------------------
# rendering

def _echo_request(args) -> dict:
    echo: dict = {"subcommand": args.subcommand, "format": args.fmt,
                  "precision": args.precision}
    if args.subcommand in ("invariants", "csc"):
        echo.update({"p": args.p, "l1": args.l1, "l2": args.l2, "w": list(args.w)})
    elif args.subcommand == "classify":
        echo["relation"] = args.relation
        if args.relation == "homotopy":
            echo["tuples"] = [list(t) for t in args.tuples]
        else:
            echo.update({"l1": args.l1, "l2": args.l2, "l2p": args.l2p})
    else:
        echo["target"] = args.target
        if args.p is not None:
            echo["p"] = args.p
        if args.l1 is not None:
            echo["l1"] = args.l1
        if args.w is not None:
            echo["w"] = list(args.w)
        if args.l2_range is not None:
            echo["l2_values"] = args.l2_range
        if args.bound is not None:
            echo["bound"] = args.bound
    return echo


def _table_lines(report: dict) -> list[str]:
    payload = report["payload"]
    sub = report["request"]["subcommand"]
    lines: list[str] = []
    if sub == "invariants":
        params = payload["params"]
        lines.append(f"join parameters: p={params['p']} l1={params['l1']} "
                     f"l2={params['l2']} w=({params['w'][0]},{params['w'][1]})  "
                     f"[dimension {payload['dim']}]")
        lines.append(f"c1 coefficient: {payload['c1']}   spin: {payload['spin']}")
        if "dim5_type" in payload:
            lines.append(f"diffeomorphism type: {payload['dim5_type']}")
        else:
            rel = ", ".join(payload["ring"]["relations"])
            lines.append(f"|H^4| = {payload['h4_order']}")
            lines.append(f"cohomology ring: Z[x,y]/({rel})")
            for row in payload["cohomology"]:
                group = AbelianGroupDescriptor(row["free_rank"], tuple(row["torsion"]))
                lines.append(f"  H^{row['degree']:<2} = {group}")
            if "p1" in payload:
                lines.append(f"p1 residue: {payload['p1']} mod {payload['h4_order']}")
                lines.append(f"linking form: {payload['linking_form']} "
                             f"mod {payload['h4_order']}")
    elif sub == "csc":
        params = payload["params"]
        lines.append(f"join parameters: p={params['p']} l1={params['l1']} "
                     f"l2={params['l2']} w=({params['w'][0]},{params['w'][1]})")
        lines.append("ray polynomial: "
                     + format_poly(intpoly(payload["f_coeffs"]), var="b"))
        lines.append(f"forbidden root {payload['forbidden_root']} removed "
                     f"with multiplicity {payload['forbidden_multiplicity']}")
        lines.append(f"rays: {payload['unreduced_count']} unreduced, "
                     f"{payload['reduced_count']} reduced")
        for ray in payload["rays"]:
            if ray["is_rational"]:
                where = f"b = {ray['value']}"
                approx = ray["approx"]
            else:
                where = f"b in ({ray['interval']['lo']}, {ray['interval']['hi']})"
                approx = ray["interval"]["approx"]
            lines.append(f"  {ray['class']:<13} {where}  "
                         f"multiplicity {ray['multiplicity']}  ~ {approx}")
        if "caveat" in payload:
            lines.append(f"note: {payload['caveat']}")
    elif sub == "classify":
        lines.append(f"relation: {payload['relation']}   verdict: {payload['overall']}")
        for cond in payload["conditions"]:
            lines.append(f"  {cond['label']:<22} {str(cond['holds']):<5} "
                         f"witness={cond['witness']}")
    else:
        if payload["target"] == "csc":
            lines.append(f"csc sweep: p={payload['p']} l1={payload['l1']} "
                         f"w=({payload['w'][0]},{payload['w'][1]})")
            lines.append("l2    valid  unreduced  reduced")
            for row in payload["rows"]:
                if row["valid"]:
                    lines.append(f"{row['l2']:<5} yes    {row['unreduced']:<10} "
                                 f"{row['reduced']}")
                else:
                    lines.append(f"{row['l2']:<5} no     ({row['constraint']})")
            lines.append(f"threshold l2: {payload['threshold_l2']}")
        else:
            lines.append(f"diffeomorphism classes for l1={payload['l1']} "
                         f"(modulus {payload['diffeo_modulus']}):")
            for i, cls in enumerate(payload["classes"]):
                lines.append(f"  class {i}: {cls}")
            for item in payload["invalid"]:
                lines.append(f"  skipped l2={item['l2']}: {item['constraint']}")
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return lines


def _csv_text(report: dict) -> str:
    payload = report["payload"]
    sub = report["request"]["subcommand"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if sub == "sweep" and payload["target"] == "csc":
        writer.writerow(["l2", "valid", "constraint", "unreduced", "reduced",
                         "is_threshold"])
        for row in payload["rows"]:
            writer.writerow([
                row["l2"],
                row["valid"],
                row.get("constraint", ""),
                row.get("unreduced", ""),
                row.get("reduced", ""),
                row["l2"] == payload["threshold_l2"],
            ])
    elif sub == "sweep":
        writer.writerow(["class_index", "l2"])
        for i, cls in enumerate(payload["classes"]):
            for l2 in cls:
                writer.writerow([i, l2])
        for item in payload["invalid"]:
            writer.writerow(["invalid", item["l2"]])
    else:
        writer.writerow(["key", "value"])
        for key in sorted(payload):
            writer.writerow([key, json.dumps(payload[key], sort_keys=True)])
    return buffer.getvalue()


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    elif fmt == "csv":
        sys.stdout.write(_csv_text(report))
    else:
        print("\n".join(_table_lines(report)))


# ----------------------------------------------------------------------
# entry points

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0

    jobs = args.jobs
    env_jobs = os.environ.get("SASAKI_JOBS")
    if env_jobs is not None:
        try:
            jobs = int(env_jobs)
        except ValueError:
            print("error [SASAKI_JOBS]: must be an integer", file=sys.stderr)
            return 1
    jobs = max(1, jobs)

    caveat = args.quote_caveat
    if caveat is None:
        caveat = args.fmt == "table"

    warnings: list[str] = []
    try:
        if args.subcommand == "invariants":
            payload = _invariants_payload(args)
        elif args.subcommand == "csc":
            payload = _csc_payload(args, caveat)
        elif args.subcommand == "classify":
            payload = _classify_payload(args)
        else:
            payload, warnings = _sweep_payload(args, jobs)
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

    report = {
        "schema_version": SCHEMA_VERSION,
        "request": _echo_request(args),
        "payload": payload,
        "warnings": warnings,
    }
    _emit(report, args.fmt)
    return 0


def entry() -> None:
    raise SystemExit(main())
