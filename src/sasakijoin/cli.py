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
JSON is ``json.dumps(report, sort_keys=True, indent=2)``, which ``_json``
yields in pieces: each slice of 1024 list elements that are scalars, dicts
of scalars, or ranges of at most ``_PIECE`` values in all is one piece made
in C: a %d template for ints and ranges, and for dicts one template of
"key": %d or %s per key order, filled row by row by one %.  Every format
is written to stdout as rendered, never held whole; ``entry`` turns off
PYTHONUNBUFFERED's write-through, so stdout's own buffer batches the writes.

Each subcommand (each target, for ``sweep``) is one entry of ``_COMMANDS``:
a payload builder, a table renderer and a CSV row maker, defined side by
side.  The builder takes the parsed arguments and returns three values: the
echo of its own arguments for ``request``, the payload and the warnings.
JSON prints the whole report.  The renderer runs only under --table, reads
only the payload, and the warnings follow its lines.
CSV writes the payload as key/value rows, except that the sweeps write one
row per value of l2.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation, any
other internal failure, or stdout closed early.  The --jobs worker count
is clamped to the CPU count and to the number of sweep rows, with a note on
stderr.  ``sweep csc`` starts a process pool only for two or more rows that
the threshold leaves open, with at most one worker per open row.
Both sweeps run in bounded memory, as their rows, classes (ranges),
invalid values and warnings are made as they are written: a 10^6-value
``--json`` report of either peaks near 18 MB.  ``sweep csc`` asks
``JoinParams`` once per class of l2 mod l1*w1*w2 and sends to ``csc_rays``
only the window of l2 that the threshold leaves open.

A process loads only the layers its command runs: ``joinspace`` comes with
the module, and ``_LAYERS`` names the rest, with the names taken from each
(``classify`` for ``classify`` and ``sweep diffeo``; ``exactpoly``, then
``cscrays``, for ``csc`` and ``sweep csc``).  A new command adds its entry
there; ``main`` binds its names as module globals before it runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from functools import lru_cache
from itertools import chain, compress, islice, starmap
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .joinspace import (
    AbelianGroupDescriptor,
    InternalInvariantError,
    JoinParams,
    LazySequence,
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


# exactpoly first: compiled before cscrays, the kernel peaks lower in memory
_KERNEL = (("exactpoly", ("format_poly", "intpoly")),
           ("cscrays", ("CSC_CAVEAT", "csc_polynomial", "csc_rays", "deflate_forbidden",
                        "maximal_ray_count", "three_ray_split")))
_CLASSIFY = (("classify", ("ks_diffeomorphic", "ks_homeomorphic", "ks_moduli",
                           "kruggel_homotopy_equivalent", "partition_diffeo_types")),)
_LAYERS = {"csc": _KERNEL, "sweep csc": _KERNEL,
           "classify": _CLASSIFY, "sweep diffeo": _CLASSIFY}


def _load(layers) -> None:
    """Bind each layer's names as module globals, unless bound already (by a probe, say)."""
    for layer, names in layers:
        module = importlib.import_module(f"{__package__}.{layer}")
        for name in names:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    # concurrent.futures imports multiprocessing, about 19 ms of a cold start
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    for layers in _LAYERS.values():
        if any(name in names for _, names in layers):
            _load(layers)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# serialization helpers

def frac_str(q) -> str:
    """Canonical exact rendering of a rational as "num/den"."""
    from fractions import Fraction
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q, digits: int) -> str:
    """Decimal rendering with ``digits`` fractional digits, round half up
    (towards +oo), with no sign on a value that rounds to zero.

    Display-only; every decision in the library is made on exact values.
    """
    from fractions import Fraction
    q = Fraction(q)
    scaled = (2 * q.numerator * 10 ** digits + q.denominator) // (2 * q.denominator)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10 ** digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def _record_payload(record, digits: int) -> dict:
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


_CONTAINERS = (dict, list, tuple, range, LazySequence)
_SLICE = 1024       # elements of a list per piece of JSON text
_PIECE = 64 * _SLICE    # most values in a slice of ranges made one piece; longer ranges are
                        # as fast one at a time, and a piece of them would hold more memory
_SCALARS = frozenset((str, int, bool, type(None)))


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _scalars(values: list, kinds: set, sep: str) -> str:
    """Scalars joined by sep (no %), by one C call if all str or all int (%d prints a bool as 1)."""
    if kinds == {int}:
        return ("%d" + (sep + "%d") * (len(values) - 1)) % tuple(values)
    return sep.join(map(_quote if kinds == {str} else _scalar, values))


def _rows(rows: list, inner: str, comma: str) -> str | None:
    """The text of ``rows``, nonempty dicts, joined by ``comma``, or None if a value is
    not a scalar.  Each key order fills one template ("key": %d for a column of ints,
    %s for the quoted rest) with its rows' values by one %; orders that interleave are
    joined at NUL (json escapes it in a str), split, and put back in row order."""
    orders = list(map(tuple, rows))
    texts, one = {}, len(distinct := dict.fromkeys(orders)) == 1
    for order in distinct:
        group = rows if one else list(compress(rows, map(order.__eq__, orders)))
        fields, columns = [], []
        for key in sorted(order):
            column = list(map(itemgetter(key), group))
            if not (kinds := set(map(type, column))) <= _SCALARS:
                return None
            fields.append(f"{inner}  {_quote(key).replace('%', '%%')}: %{'d' if kinds == {int} else 's'}")
            columns.append(column if kinds == {int} else map(_quote if kinds == {str} else _scalar, column))
        text = (comma if one else "\0").join(["{" + ",".join(fields) + inner + "}"] * len(group)) % tuple(
            chain.from_iterable(zip(*columns)))
        if one:
            return text
        texts[order] = iter(text.split("\0"))
    return comma.join(map(next, map(texts.__getitem__, orders)))


def _json(obj, indent: str = "\n", head: str = ""):
    """``head``, then the text of ``json.dumps(obj, sort_keys=True, indent=2)``
    in pieces, for report types (a range or ``LazySequence`` renders as its
    list): a list is read in slices of ``_SLICE`` elements; a slice of
    scalars, of flat dicts (dicts of scalars), or of ranges of at most
    ``_PIECE`` values in all is one piece, and a new piece starts after each
    other nested dict or list."""
    inner = indent + "  "
    comma = "," + inner
    if not isinstance(obj, _CONTAINERS):
        yield head + _scalar(obj)
    elif not obj:
        yield head + ("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            head += f"{sep}{_quote(key)}: "
            if isinstance(value, _CONTAINERS):
                yield from _json(value, inner, head)
                head = ""
            else:
                head += _scalar(value)
            sep = comma
        yield head + indent + "}"
    else:
        sep = head + "[" + inner
        items, ints = iter(obj), {int} if isinstance(obj, range) else None
        while chunk := list(islice(items, _SLICE)):
            if (kinds := ints or set(map(type, chunk))) <= _SCALARS:
                yield sep + _scalars(chunk, kinds, comma)
            elif kinds == {range} and sum(map(len, chunk)) <= _PIECE:
                # small ranges: one %d template for the slice, a form for each length
                cell = "," + inner + "  "
                forms = {n: f"[{cell[1:]}{cell.join(['%d'] * n)}{inner}]" if n else "[]"
                         for n in set(map(len, chunk))}
                yield sep + comma.join(map(forms.__getitem__, map(len, chunk))) % tuple(
                    chain.from_iterable(chunk))
            elif kinds == {dict} and all(chunk) and (rows := _rows(chunk, inner, comma)) is not None:
                yield sep + rows
            else:
                for x in chunk:
                    yield from _json(x, inner, sep)
                    sep = comma
            sep = comma
        yield indent + "]"


def _printable(*values) -> None:
    """Refuse, before anything is written, integers past the interpreter's limit
    for int-to-str conversion, which ``json.loads`` shares."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(abs, values)) >= 10 ** limit:
        raise ParameterError(f"integers of at most {limit} digits",
                             f"the report would print an integer of more than {limit} digits")


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


def _l2_range(text: str) -> range:
    body, tag = text.split(":", 1) if ":" in text else (text, None)
    if tag not in (None, "odd", "even"):
        raise argparse.ArgumentTypeError("range filter must be :odd or :even")
    if ".." not in body:
        raise argparse.ArgumentTypeError("ranges look like A..B or A..B:odd")
    lo_text, hi_text = body.split("..", 1)
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("need 1 <= A <= B")
    if tag is None:
        return range(lo, hi + 1)
    # from the first value of the wanted parity, every second one
    return range(lo + (lo % 2 != (tag == "odd")), hi + 1, 2)


def _add_common(parser) -> None:
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--table", dest="fmt", action="store_const", const="table")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")
    parser.set_defaults(fmt="table")
    parser.add_argument("--precision", type=_precision, default=12, metavar="D",
                        help="decimal digits for display approximations (1..1000)")
    parser.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="worker processes for sweeps")
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
    order = h4_order(params) if params.p > 1 else 0
    # every other integer of the payload is at most dim or |H^4|
    _printable(params.dim, payload["c1"], order)
    if params.p == 1:
        payload["dim5_type"] = diffeo_type_dim5(params.l1, params.l2,
                                                params.w1, params.w2)
    else:
        ring = cohomology_ring(params)
        payload["h4_order"] = order
        payload["ring"] = {
            "generators": [[g, d] for g, d in ring.generators],
            "relations": [str(r) for r in ring.relations],
        }
        payload["cohomology"] = [
            {"degree": k, "free_rank": group.free_rank, "torsion": list(group.torsion)}
            for k in range(params.dim + 1) for group in [cohomology_group(params, k)]
        ]
        if params.p == 2:
            payload["p1"] = p1_class(params)
            payload["linking_form"] = linking_form(params)
    return payload["params"], payload, []


def _invariants_table(payload: dict) -> list[str]:
    lines = [f"{_params_line(payload['params'])}  [dimension {payload['dim']}]",
             f"c1 coefficient: {payload['c1']}   spin: {payload['spin']}"]
    if "dim5_type" in payload:
        return lines + [f"diffeomorphism type: {payload['dim5_type']}"]
    order = payload["h4_order"]
    lines.append(f"|H^4| = {order}")
    lines.append(f"cohomology ring: Z[x,y]/({', '.join(payload['ring']['relations'])})")
    lines.extend(f"  H^{h['degree']:<2} = "
                 f"{AbelianGroupDescriptor(h['free_rank'], tuple(h['torsion']))}"
                 for h in payload["cohomology"])
    if "p1" in payload:
        lines.append(f"p1 residue: {payload['p1']} mod {order}")
        lines.append(f"linking form: {payload['linking_form']} mod {order}")
    return lines


def _csc(args):
    params = JoinParams(args.p, args.l1, args.l2, *args.w)
    fp = csc_polynomial(params)
    deflated, multiplicity = deflate_forbidden(fp)
    _printable(*fp.poly.coeffs, *deflated.coeffs)
    report = csc_rays((fp, deflated, multiplicity), args.precision)
    ends = [end for ray in report.rays for end in (
        (ray.record.value,) if ray.record.is_rational else (ray.record.value.lo, ray.record.value.hi))]
    _printable(*chain.from_iterable((end.numerator, end.denominator) for end in ends))
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
    return payload["params"], payload, []


def _csc_table(payload: dict) -> list[str]:
    lines = [_params_line(payload["params"]),
             "ray polynomial: " + format_poly(intpoly(payload["f_coeffs"]), var="b"),
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
        _printable(*chain.from_iterable(c.witness for c in verdict.conditions))
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
        return {"relation": "homotopy", "tuples": args.tuples}, payload, []
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
    _printable(modulus)
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
    return request, payload, []


def _classify_table(payload: dict) -> list[str]:
    return [f"relation: {payload['relation']}   verdict: {payload['overall']}",
            *(f"  {cond['label']:<22} {str(cond['holds']):<5} witness={cond['witness']}"
              for cond in payload["conditions"])]


def _sweep_request(args) -> dict:
    echo = {"target": args.target, "p": args.p, "l1": args.l1, "w": args.w,
            "l2_values": args.l2_values, "bound": args.bound}
    return {key: value for key, value in echo.items() if value is not None}


def _rays_row(task) -> dict:
    """The sweep row of one l2 that the threshold leaves open, by csc_rays; it
    loads its layers, as a spawn or forkserver pool worker runs no command."""
    _load(_KERNEL)
    report = csc_rays(JoinParams(*task))
    return {"l2": task[2], "valid": True, "unreduced": report.unreduced_count,
            "reduced": report.reduced_count}


def _l2_values(values: range | None, usage: str) -> range:
    """values, once nonempty and no longer than len() can count."""
    if not values:
        raise ParameterError("nonempty range", usage)
    if values.stop - values.start > sys.maxsize * values.step:
        raise ParameterError(f"at most {sys.maxsize} values",
                             f"the l2 range has more than {sys.maxsize} values")
    return values


def _sweep_csc(args):
    if args.p is None or args.l1 is None or args.w is None:
        raise ParameterError("flags -p -l1 -w", "sweep csc needs -p, -l1 and -w")
    if args.l2_values is not None and args.bound is not None:
        raise ParameterError("one range", "give either --l2 or --bound, not both")
    l2_values = _l2_values(args.l2_values if args.bound is None else range(1, args.bound + 1),
                           "sweep csc needs --l2 A..B or --bound N")
    p, l1, (w1, w2) = args.p, args.l1, args.w
    below, window, above = three_ray_split(p, l1, w1, w2, l2_values)
    # the rules on l2 are gcd(l2, l1*w1) = gcd(l2, l1*w2) = 1, so validity is
    # one answer per class of l2 mod l1*w1*w2; a bounded cache, as the period
    # can be far longer than the range when l1 is a large prime
    period = l1 * w1 * w2

    @lru_cache(maxsize=4096)
    def constraint(residue):
        try:
            JoinParams(p, l1, residue or period, w1, w2)
        except ParameterError as exc:
            return exc.constraint
        return None

    n = len(l2_values)
    open_tasks = [(p, l1, l2, w1, w2) for l2 in window if not constraint(l2 % period)]
    jobs = args.jobs
    usable = min(os.cpu_count() or 1, n)
    if jobs > usable:
        print(f"note: jobs {jobs} clamped to {usable}", file=sys.stderr)
        jobs = usable
    jobs = min(jobs, len(open_tasks))
    if jobs > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=jobs) as pool:
            found = list(pool.map(_rays_row, open_tasks))
    else:
        found = list(map(_rays_row, open_tasks))
    opened = {row["l2"]: row for row in found}
    maximal = maximal_ray_count(w1, w2)

    def rows():
        for part, counts in ((below, (1, 1)), (window, None), (above, (3, maximal))):
            for l2 in part:
                if c := constraint(l2 % period):
                    yield {"l2": l2, "valid": False, "constraint": c}
                elif counts:
                    yield {"l2": l2, "valid": True, "unreduced": counts[0], "reduced": counts[1]}
                else:
                    yield opened[l2]

    # the first maximal row: an open one, else the first valid row above the window
    threshold = next((row["l2"] for row in found if row["reduced"] == maximal), None)
    if threshold is None:
        threshold = next((l2 for l2 in above if not constraint(l2 % period)), None)
    warnings = [] if threshold is not None else \
        ["no l2 in the range reaches the maximal ray count"]
    payload = {
        "target": "csc",
        "p": p, "l1": l1, "w": [w1, w2],
        "rows": LazySequence(n, rows),
        "threshold_l2": threshold,
    }
    return _sweep_request(args), payload, warnings


def _sweep_csc_table(payload: dict):
    yield (f"csc sweep: p={payload['p']} l1={payload['l1']} "
           f"w=({payload['w'][0]},{payload['w'][1]})")
    yield "l2    valid  unreduced  reduced"
    for row in payload["rows"]:
        if row["valid"]:
            yield f"{row['l2']:<5} yes    {row['unreduced']:<10} {row['reduced']}"
        else:
            yield f"{row['l2']:<5} no     ({row['constraint']})"
    yield f"threshold l2: {payload['threshold_l2']}"


def _sweep_csc_rows(payload: dict):
    yield ["l2", "valid", "constraint", "unreduced", "reduced", "is_threshold"]
    for row in payload["rows"]:
        yield [row["l2"], row["valid"], row.get("constraint", ""), row.get("unreduced", ""),
               row.get("reduced", ""), row["l2"] == payload["threshold_l2"]]


def _sweep_diffeo(args):
    if args.l1 is None:
        raise ParameterError("flag -l1", "sweep diffeo needs -l1")
    l2_values = _l2_values(args.l2_values, "sweep diffeo needs --l2 A..B")
    if args.bound is not None:
        raise ParameterError("no --bound", "--bound is for sweep csc; sweep diffeo takes --l2")
    homeo_mod, diffeo_mod = ks_moduli(args.l1)
    _printable(homeo_mod, diffeo_mod)
    partition = partition_diffeo_types(args.l1, l2_values)
    payload = {
        "target": "diffeo",
        "l1": args.l1,
        "homeo_modulus": homeo_mod,
        "diffeo_modulus": diffeo_mod,
        "classes": partition.classes,
        "invalid": LazySequence(len(partition.invalid), lambda: (
            {"l2": l2, "constraint": c} for l2, c in partition.invalid)),
    }
    warnings = LazySequence(len(partition.invalid),
                            lambda: starmap("l2={} skipped: {}".format, partition.invalid))
    return _sweep_request(args), payload, warnings


def _sweep_diffeo_table(payload: dict):
    yield (f"diffeomorphism classes for l1={payload['l1']} "
           f"(modulus {payload['diffeo_modulus']}):")
    yield from (f"  class {i}: {list(cls)}" for i, cls in enumerate(payload["classes"]))
    yield from (f"  skipped l2={item['l2']}: {item['constraint']}"
                for item in payload["invalid"])


def _sweep_diffeo_rows(payload: dict):
    yield ["class_index", "l2"]
    yield from ([i, l2] for i, cls in enumerate(payload["classes"]) for l2 in cls)
    yield from (["invalid", item["l2"]] for item in payload["invalid"])


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

    args.jobs = max(1, args.jobs)
    if args.quote_caveat is None:
        args.quote_caveat = args.fmt == "table"

    command = f"sweep {args.target}" if args.subcommand == "sweep" else args.subcommand
    build, render, csv_rows = _COMMANDS[command]
    # the report is written as it is rendered, so once part of it is out, a
    # later failure shows only in the exit code
    out = sys.stdout
    try:
        _load(_LAYERS.get(command, ()))
        request, payload, warnings = build(args)
        if args.fmt == "json":
            report = {
                "schema_version": SCHEMA_VERSION,
                "request": {"subcommand": args.subcommand, "format": args.fmt,
                            "precision": args.precision, **request},
                "payload": payload,
                "warnings": warnings,
            }
            out.writelines(_json(report))
            out.write("\n")
        elif args.fmt == "csv":
            import csv
            csv.writer(out, lineterminator="\n").writerows(csv_rows(payload))
        else:
            out.writelines(line + "\n" for line in render(payload))
            out.writelines(f"warning: {warning}\n" for warning in warnings)
        out.flush()
    except ParameterError as exc:
        print(f"error [{exc.constraint}]: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # devnull takes what is still buffered, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the report was written", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other failure, in building or in writing, is a defect, not bad
        # input: one line, no traceback
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    """The ``sasakijoin`` command and ``python -m sasakijoin``."""
    # PYTHONUNBUFFERED makes each write to stdout a system call; without
    # write-through, the text stream joins the pieces of a report itself
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(write_through=False)
    raise SystemExit(main())
