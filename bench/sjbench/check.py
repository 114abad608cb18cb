"""Independent output check.

Shares no code with the package.  The ray polynomial is rebuilt from the
formula in :mod:`sjbench.gen` and every claim is judged with sympy:

* the distinct positive roots of sqf_part(f), less the forced root w2/w1
  when w1 > w2, must number ``unreduced_count``;
* every rational ray must be a root of f with exactly its stated
  multiplicity;
* every interval must be at most 10^-precision wide, have non-root
  endpoints, and the square-free factor with the stated multiplicity must
  change sign across it;
* the rays must be pairwise disjoint and avoid the forced root;
* a rejected tuple passes only if the benchmark's own rules reject it.

Together these give count_roots(lo, hi) == 1 for every interval without a
Sturm sequence, which sympy builds too slowly at degree 200: sqf_part(f)
has exactly as many positive roots as there are rays (plus the forced
root), each disjoint interval holds at least one of them (a sign change of
a square-free polynomial), and each rational ray is one, so each interval
holds exactly one.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from sympy import Poly, Rational, symbols
from sympy.polys.domains import ZZ

from .gen import CliOp, Query, ray_coefficients, valid

B = symbols("b")


@dataclass(frozen=True)
class Claim:
    """A ray report reduced to what it asserts."""

    rays: tuple  # (ray class, Fraction value or (lo, hi), multiplicity)
    unreduced: int
    reduced: int
    weyl_paired: bool


def claim_from_report(report) -> Claim:
    """Read a ``RayReport`` by attribute; nothing of the package is called."""
    rays = []
    for ray in report.rays:
        rec = ray.record
        value = rec.value if rec.is_rational else (rec.value.lo, rec.value.hi)
        rays.append((ray.ray_class, value, rec.multiplicity))
    return Claim(tuple(rays), report.unreduced_count, report.reduced_count,
                 report.weyl_paired)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def claim_from_payload(payload: dict) -> Claim:
    """Read the ``payload`` of ``sasakijoin csc --json``."""
    rays = []
    for ray in payload["rays"]:
        if ray["is_rational"]:
            value = _frac(ray["value"])
        else:
            value = (_frac(ray["interval"]["lo"]), _frac(ray["interval"]["hi"]))
        rays.append((ray["class"], value, ray["multiplicity"]))
    return Claim(tuple(rays), payload["unreduced_count"], payload["reduced_count"],
                 payload["weyl_paired"])


def ray_poly(tup) -> Poly:
    return Poly(list(reversed(ray_coefficients(*tup))), B, domain=ZZ)


def _q(x: Fraction) -> Rational:
    return Rational(x.numerator, x.denominator)


def _sign_change(poly: Poly, lo: Fraction, hi: Fraction) -> bool:
    return poly.eval(_q(lo)) * poly.eval(_q(hi)) < 0


def multiplicity(poly: Poly, x: Fraction) -> int:
    """Order of vanishing of poly at the rational x."""
    m = 0
    q = _q(x)
    while not poly.is_zero and poly.eval(q) == 0:
        poly = poly.diff(B)
        m += 1
    return m


def check_claim(tup, precision: int, claim: Claim, counts_only: bool = False) -> list[str]:
    """Judge a claim about the accepted tuple ``tup``."""
    p, l1, l2, w1, w2 = tup
    homogeneous = w1 == w2
    f = ray_poly(tup)
    sqf = f.sqf_part()
    positive = len(sqf.intervals(inf=0))
    expected = positive if homogeneous else positive - 1
    problems = []
    if claim.unreduced != expected:
        problems.append(f"unreduced_count {claim.unreduced} != {expected}")
    if homogeneous:
        pairs, odd = divmod(claim.unreduced - 1, 2)
        if odd or claim.reduced != 1 + pairs or not claim.weyl_paired:
            problems.append(f"reduced_count {claim.reduced} does not pair "
                            f"{claim.unreduced} unreduced rays")
    elif claim.reduced != claim.unreduced or claim.weyl_paired:
        problems.append("w1 > w2 must not pair rays")
    if counts_only:
        return problems
    if len(claim.rays) != claim.unreduced:
        problems.append(f"{len(claim.rays)} rays listed for {claim.unreduced}")

    forced = Fraction(w2, w1)
    factors = f.sqf_list()[1]
    width = Fraction(1, 10 ** precision)
    points, cells = [], []
    for ray_class, value, mult in claim.rays:
        if isinstance(value, Fraction):
            points.append(value)
            if value <= 0 or (value == forced and not homogeneous):
                problems.append(f"rational ray {value} is not an admissible root")
            want = "regular" if homogeneous and value == 1 else "quasi-regular"
            if ray_class != want:
                problems.append(f"ray {value} classed {ray_class}, expected {want}")
            found = multiplicity(f, value)
            if found != mult or mult < 1:
                problems.append(f"ray {value} has multiplicity {found}, stated {mult}")
            continue
        lo, hi = value
        cells.append((lo, hi))
        if ray_class != "irregular":
            problems.append(f"interval ray classed {ray_class}")
        if not 0 <= lo < hi or hi - lo > width:
            problems.append(f"interval ({lo}, {hi}) is empty or wider than 10^-{precision}")
            continue
        if f.eval(_q(lo)) == 0 or f.eval(_q(hi)) == 0:
            problems.append(f"interval ({lo}, {hi}) has a root endpoint")
            continue
        if not _sign_change(sqf, lo, hi):
            problems.append(f"interval ({lo}, {hi}) holds no root")
            continue
        owners = [m for g, m in factors if _sign_change(g, lo, hi)]
        if owners != [mult]:
            problems.append(f"interval ({lo}, {hi}) root has multiplicity {owners}, "
                            f"stated {mult}")
        if lo <= forced <= hi:
            problems.append(f"interval ({lo}, {hi}) contains the forced root")
    if homogeneous and points.count(Fraction(1)) != 1:
        problems.append("equal weights need exactly one regular ray at b = 1")
    if len(set(points)) != len(points):
        problems.append("a rational ray is listed twice")
    cells.sort()
    for (lo1, hi1), (lo2, hi2) in zip(cells, cells[1:]):
        if hi1 >= lo2:
            problems.append(f"intervals ({lo1}, {hi1}) and ({lo2}, {hi2}) overlap")
    for x in points:
        if any(lo <= x <= hi for lo, hi in cells):
            problems.append(f"rational ray {x} lies inside an interval")
    return problems


def check_query(query: Query, outcome) -> list[str]:
    """Judge the outcome of one in-process op.

    ``outcome`` is a ``RayReport``, the string ``"rejected"`` for a
    ``ParameterError``, or any other value for a failure.
    """
    if outcome == "rejected":
        return [] if not valid(*query.tup) else [f"valid tuple {query.tup} was rejected"]
    if not valid(*query.tup):
        return [f"invalid tuple {query.tup} was accepted"]
    if not hasattr(outcome, "rays"):
        return [f"op raised {outcome!r}"]
    return check_claim(query.tup, query.precision, claim_from_report(outcome))


# ----------------------------------------------------------------------
# cli outputs

def _payload(stdout: bytes) -> dict:
    return json.loads(stdout)["payload"]


def check_csc_output(query: Query, stdout: bytes) -> list[str]:
    payload = _payload(stdout)
    p, l1, l2, w1, w2 = query.tup
    problems = []
    if payload["params"] != {"p": p, "l1": l1, "l2": l2, "w": [w1, w2]}:
        problems.append("params echo differs from the request")
    f = ray_poly(query.tup)
    if payload["f_coeffs"] != ray_coefficients(*query.tup):
        problems.append("f_coeffs differ from the ray polynomial")
    k = multiplicity(f, Fraction(w2, w1))
    if payload["forbidden_multiplicity"] != k:
        problems.append(f"forbidden multiplicity {payload['forbidden_multiplicity']} != {k}")
    deflated = Poly(list(reversed(payload["deflated_coeffs"])), B, domain=ZZ)
    if deflated * Poly(w1 * B - w2, B, domain=ZZ) ** k != f:
        problems.append("deflated_coeffs times (w1 b - w2)^k is not f")
    tolerance = Fraction(1, 10 ** query.precision)
    for ray in payload["rays"]:
        if ray["is_rational"]:
            exact, approx = _frac(ray["value"]), ray["approx"]
        else:
            iv = ray["interval"]
            exact, approx = (_frac(iv["lo"]) + _frac(iv["hi"])) / 2, iv["approx"]
        if abs(Fraction(approx) - exact) > tolerance:
            problems.append(f"approx {approx} is not within 10^-{query.precision}")
    return problems + check_claim(query.tup, query.precision, claim_from_payload(payload))


def check_sweep_csc(op: CliOp, stdout: bytes, sample) -> list[str]:
    """Row structure, validity and threshold; sympy counts on sampled rows."""
    payload = _payload(stdout)
    p, l1, (w1, w2) = op.meta["p"], op.meta["l1"], op.meta["w"]
    start, stop = op.meta["l2"]
    rows = payload["rows"]
    problems = []
    if [row["l2"] for row in rows] != list(range(start, stop + 1)):
        problems.append("sweep rows do not cover the requested l2 range")
        return problems
    key, target = ("reduced", 2) if w1 == w2 else ("unreduced", 3)
    threshold = None
    for row in rows:
        if row["valid"] != valid(p, l1, row["l2"], w1, w2):
            problems.append(f"l2={row['l2']} validity is wrong")
        elif threshold is None and row["valid"] and row[key] == target:
            threshold = row["l2"]
    if payload["threshold_l2"] != threshold:
        problems.append(f"threshold_l2 {payload['threshold_l2']} != {threshold}")
    for row in sample(rows):
        if row["valid"]:
            claim = Claim((), row["unreduced"], row["reduced"], w1 == w2)
            problems += check_claim((p, l1, row["l2"], w1, w2), 12, claim, counts_only=True)
    return problems


def check_sweep_diffeo(op: CliOp, stdout: bytes) -> list[str]:
    """Every l2 once; invalid exactly when gcd(l1, l2) > 1; classes are the
    residue classes of the reported modulus, sorted by smallest member."""
    payload = _payload(stdout)
    l1 = op.meta["l1"]
    start, stop = op.meta["l2"]
    modulus = payload["diffeo_modulus"]
    problems = []
    if modulus % (l1 * l1) or modulus % payload["homeo_modulus"]:
        problems.append("moduli are not multiples of l1^2 and of each other")
    invalid = [item["l2"] for item in payload["invalid"]]
    if invalid != [v for v in range(start, stop + 1) if gcd(l1, v) != 1]:
        problems.append("invalid list differs from gcd(l1, l2) != 1")
    residues = []
    seen = 0
    for members in payload["classes"]:
        seen += len(members)
        if members != sorted(members) or len({v % modulus for v in members}) != 1:
            problems.append("a class is unsorted or mixes residues")
            break
        residues.append(members[0] % modulus)
    if len(set(residues)) != len(residues):
        problems.append("two classes share a residue")
    firsts = [members[0] for members in payload["classes"]]
    if firsts != sorted(firsts):
        problems.append("classes are not sorted by smallest member")
    if seen + len(invalid) != stop - start + 1:
        problems.append("classes and invalid values do not cover the range")
    return problems


def check_diffeo_table(json_stdout: bytes, table_stdout: bytes) -> list[str]:
    """The table lists the same classes as the JSON rendering."""
    classes = _payload(json_stdout)["classes"]
    rows = [line.split(": ", 1)[1] for line in table_stdout.decode().splitlines()
            if line.startswith("  class ")]
    if rows != [str(members) for members in classes]:
        return ["table classes differ from the JSON classes"]
    return []


def check_invariants(op: CliOp, stdout: bytes) -> list[str]:
    p, l1, l2, w1, w2 = op.meta["tup"]
    payload = _payload(stdout)
    c1 = l2 * (p + 1) - l1 * (w1 + w2)
    problems = []
    if payload["c1"] != c1 or payload["spin"] != (c1 % 2 == 0):
        problems.append(f"c1/spin {payload['c1']}/{payload['spin']} != {c1}")
    if payload["dim"] != 2 * p + 3 or payload["h4_order"] != w1 * w2 * l1 * l1:
        problems.append("dimension or |H^4| is wrong")
    return problems


def check_classify(op: CliOp, stdout: bytes) -> list[str]:
    a, b = op.meta["a"], op.meta["b"]
    payload = _payload(stdout)
    conditions = {c["label"]: c["holds"] for c in payload["conditions"]}
    problems = []
    if conditions.get("equal_h4_order") != (a[3] * a[4] * a[1] ** 2 == b[3] * b[4] * b[1] ** 2):
        problems.append("equal_h4_order is wrong")
    if conditions.get("l2_mod_2") != ((a[2] - b[2]) % 2 == 0):
        problems.append("l2_mod_2 is wrong")
    if payload["overall"] != all(conditions.values()):
        problems.append("overall verdict disagrees with its conditions")
    return problems
