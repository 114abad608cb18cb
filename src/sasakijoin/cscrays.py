"""Constant-scalar-curvature ray enumeration in the 2-dimensional weight cone.

Rays in the reduced weight cone of a join are parameterized by a positive
real number b.  Away from the distinguished value b = w2/w1 every ray
carries an admissible extremal structure, and that structure has constant
scalar curvature exactly when b is a root of a 7-term integer polynomial
of degree 2p+4 built from (p, l1, l2, w1, w2).  This module constructs the
polynomial exactly, splits off the forced root at w2/w1 (multiplicity at
least 3 for w1 > w2, at least 4 for w = (1,1), where it is the regular
ray), and classifies the surviving roots:

* rational root  -> quasi-regular CSC ray,
* irrational root -> irregular CSC ray,
* b = 1 for w = (1,1) -> the regular ray.

No reported isolating interval's closure contains w2/w1.

For w = (1,1) the coefficient vector is palindromic, so roots come in
reciprocal pairs {b, 1/b}; each pair is one ray of the reduced cone and is
counted once in ``reduced_count``.  For w1 > w2 no identification happens
and the unreduced and reduced counts agree.

One caveat applies to every report: a root certifies constant scalar
curvature for the admissible extremal representative of its ray.  Without
a uniqueness theorem for extremal structures in an isotopy class, CSC
metrics outside that family are neither confirmed nor excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactpoly import (
    IntPolynomial,
    RationalInterval,
    RootRecord,
    deflate_linear,
    intpoly,
    isolate_positive_roots,
    refine_interval,
    sturm_count,
)
from .joinspace import JoinParams, ParameterError

__all__ = [
    "InternalInvariantError",
    "CscPolynomial",
    "Ray",
    "RayReport",
    "RAY_CLASSES",
    "csc_polynomial",
    "csc_cubic_p1",
    "fourth_derivative_at_one",
    "wz_threshold",
    "deflate_forbidden",
    "csc_rays",
    "maximal_ray_count",
    "min_l2_multiple_csc",
    "quasireg_family",
    "CSC_CAVEAT",
]


class InternalInvariantError(RuntimeError):
    """A structural fact the construction guarantees failed to hold."""


CSC_CAVEAT = (
    "Roots of the ray polynomial certify constant scalar curvature for the "
    "admissible extremal representative of each ray; absent a uniqueness "
    "theorem for extremal structures, other CSC representatives are neither "
    "confirmed nor excluded.")

RAY_CLASSES = ("regular", "quasi-regular", "irregular")


@dataclass(frozen=True)
class CscPolynomial:
    """The exact degree-(2p+4) ray polynomial together with its provenance."""

    poly: IntPolynomial
    params: JoinParams
    forbidden_root: Fraction


@dataclass(frozen=True)
class Ray:
    """One CSC ray: the isolated root and its regularity class."""

    record: RootRecord
    ray_class: str

    def __post_init__(self) -> None:
        if self.ray_class not in RAY_CLASSES:
            raise ValueError(f"unknown ray class {self.ray_class!r}")


@dataclass(frozen=True)
class RayReport:
    """CSC verdict for one parameter tuple.

    Both counts follow from ``rays``.  ``unreduced_count`` counts distinct CSC
    values of b, one per ray; ``reduced_count`` counts rays of the reduced
    cone, where for w = (1,1) the reciprocal pair {b, 1/b} collapses to a
    single ray (``weyl_paired`` is True).
    """

    rays: tuple[Ray, ...]
    unreduced_count: int
    reduced_count: int
    weyl_paired: bool


def _raw_coefficients(p: int, l1: int, l2: int, w1: int, w2: int) -> tuple[int, ...]:
    """Dense coefficient vector of the 7-term ray polynomial, lowest first.

    No validation: tests exercise symmetry identities with swapped weights.
    """
    n = 2 * p + 4
    c = [0] * (n + 1)
    c[n] = -l1 * w1 ** (2 * p + 3)
    c[n - 1] = (l2 + l1 * w2) * w1 ** (2 * p + 2)
    c[p + 3] += -((p + 1) ** 2 * l2 - l1 * ((p + 1) * w1 + (p + 2) * w2)) \
        * w1 ** (p + 2) * w2 ** p
    c[p + 2] += (2 * p * (p + 2) * l2 - (2 * p + 3) * l1 * (w1 + w2)) \
        * w1 ** (p + 1) * w2 ** (p + 1)
    c[p + 1] += -((p + 1) ** 2 * l2 - l1 * ((p + 2) * w1 + (p + 1) * w2)) \
        * w1 ** p * w2 ** (p + 2)
    c[1] += (l2 + l1 * w1) * w2 ** (2 * p + 2)
    c[0] += -l1 * w2 ** (2 * p + 3)
    return tuple(c)


def csc_polynomial(params: JoinParams) -> CscPolynomial:
    """Build the exact ray polynomial for a validated parameter tuple."""
    coeffs = _raw_coefficients(params.p, params.l1, params.l2, params.w1, params.w2)
    poly = IntPolynomial(coeffs)
    if poly.coeffs[0] >= 0 or poly.coeffs[-1] >= 0:
        raise InternalInvariantError("ray polynomial must have negative constant "
                                     "and leading coefficients")
    return CscPolynomial(poly, params, Fraction(params.w2, params.w1))


def csc_cubic_p1(l1: int, l2: int, w1: int, w2: int) -> IntPolynomial:
    """The cubic cofactor of (w1*b - w2)^3 in the p = 1 ray polynomial:
    -l1*w1^2*b^3 + w1*(l2-2*l1*w2)*b^2 - w2*(l2-2*l1*w1)*b + l1*w2^2."""
    JoinParams(1, l1, l2, w1, w2)
    return intpoly((
        l1 * w2 ** 2,
        -w2 * (l2 - 2 * l1 * w1),
        w1 * (l2 - 2 * l1 * w2),
        -l1 * w1 ** 2,
    ))


def fourth_derivative_at_one(p: int, l1: int, l2: int) -> int:
    """Closed-form threshold indicator for the w = (1,1) family:
    2*(1+p)^2*(p+2)*(p*(p+1)*l2 - 2*(3+2*p)*l1).

    This equals (p+1) times the fourth derivative of the polynomial built by
    :func:`csc_polynomial` at b = 1 (the classical form was derived before an
    overall factor p+1 was dropped from the polynomial).  Only its sign
    matters: it is positive exactly when l2 exceeds :func:`wz_threshold`,
    which is when the extra pair of CSC rays appears.
    """
    JoinParams(p, l1, l2, 1, 1)
    return 2 * (1 + p) ** 2 * (p + 2) * (p * (p + 1) * l2 - 2 * (3 + 2 * p) * l1)


def wz_threshold(p: int, l1: int) -> Fraction:
    """The rational threshold 2*(3+2p)*l1 / (p*(p+1)) for the equal-weights
    (Wang-Ziller) family: a second reduced CSC ray exists exactly when l2
    lies strictly above it."""
    if p < 1 or l1 < 1:
        raise ParameterError("p,l1 >= 1", "p and l1 must be positive")
    return Fraction(2 * (3 + 2 * p) * l1, p * (p + 1))


def deflate_forbidden(fp: CscPolynomial) -> tuple[IntPolynomial, int]:
    """Divide out the full power of (w1*b - w2) and return (quotient, k).

    k is the exact multiplicity of the root w2/w1.  The construction forces
    k >= 3 for w1 > w2 and k >= 4 for w = (1,1); anything smaller means the
    polynomial was not built by :func:`csc_polynomial` and raises
    :class:`InternalInvariantError`.
    """
    w1, w2 = fp.params.w1, fp.params.w2
    floor = 4 if w1 == w2 else 3
    cur, k = deflate_linear(fp.poly, fp.forbidden_root)
    if k < floor:
        raise InternalInvariantError(
            f"root {w2}/{w1} has multiplicity {k} < {floor} in the ray polynomial")
    return cur, k


def _interval_avoiding(poly: IntPolynomial, record: RootRecord, point: Fraction) -> RootRecord:
    """Shrink an isolating interval until its closure excludes a non-root point."""
    if record.is_rational:
        return record
    lo, hi = record.value.lo, record.value.hi
    if not lo <= point <= hi:
        return record
    lo, hi = refine_interval(poly, lo, hi, hi - lo, [point])
    return RootRecord(RationalInterval(lo, hi), record.multiplicity, record.is_rational)


def _check_reciprocal_pairs(poly: IntPolynomial, records: list[RootRecord]) -> None:
    """Verify that the records pair up as reciprocals {b, 1/b}.

    ``records`` are the isolated roots of ``poly`` in ascending order, with 1
    excluded; for the palindromic homogeneous polynomial every root below 1
    must pair with its exact inverse above 1.
    """
    below = [r for r in records if r.position < 1]
    above = [r for r in reversed(records) if r.position > 1]
    if len(below) != len(above):
        raise InternalInvariantError("roots of the homogeneous ray polynomial "
                                     "must balance around b = 1")
    for low, high in zip(below, above):
        if low.is_rational != high.is_rational:
            raise InternalInvariantError("reciprocal partner differs in rationality")
        if low.is_rational:
            if low.value * high.value != 1:
                raise InternalInvariantError(
                    f"rational roots {low.value} and {high.value} are not reciprocal")
        else:
            # an interval reaching down to 0 inverts to one unbounded above
            inv_lo = 1 / low.value.hi
            inv_hi = 1 / low.value.lo if low.value.lo else high.value.hi
            a = max(high.value.lo, inv_lo)
            b = min(high.value.hi, inv_hi)
            if not a < b or sturm_count(poly, a, b) != 1:
                raise InternalInvariantError(
                    "inverted isolating interval fails to isolate the partner root")


def csc_rays(params: JoinParams | tuple[JoinParams, IntPolynomial, int],
             precision: int = 12) -> RayReport:
    """Enumerate and classify the CSC rays for one parameter tuple.

    ``params`` is a :class:`JoinParams`, or ``(params, quotient, k)`` when the
    caller has already built the ray polynomial and deflated it with
    :func:`deflate_forbidden`.  The counts of the report follow from its rays.
    """
    if isinstance(params, JoinParams):
        quotient, k = deflate_forbidden(csc_polynomial(params))
    else:
        params, quotient, k = params
    forced = Fraction(params.w2, params.w1)
    records = [_interval_avoiding(quotient, rec, forced)
               for rec in isolate_positive_roots(quotient, precision)]
    rays = [Ray(rec, "quasi-regular" if rec.is_rational else "irregular") for rec in records]
    paired = params.w1 == params.w2
    if paired:
        _check_reciprocal_pairs(quotient, records)
        # the records balance around b = 1, so the regular ray sits in the middle
        rays.insert(len(rays) // 2, Ray(RootRecord(forced, k, True), "regular"))
    reduced = (len(rays) + 1) // 2 if paired else len(rays)
    return RayReport(tuple(rays), len(rays), reduced, weyl_paired=paired)


def maximal_ray_count(w1: int, w2: int) -> int:
    """The largest reduced ray count: 2 for w = (1,1), else 3.

    For w1 > w2 the reduced and unreduced counts agree, so comparing
    ``RayReport.reduced_count`` with this number decides maximality.
    """
    return 2 if w1 == w2 else 3


def min_l2_multiple_csc(p: int, l1: int, w1: int, w2: int, search_bound: int):
    """Smallest valid l2 <= search_bound whose ray count is maximal.

    Maximal means 3 unreduced rays for w1 > w2 and 2 reduced rays for
    w = (1,1).  Values of l2 violating the gcd constraints are skipped.
    Returns None when no l2 within the bound qualifies.
    """
    if search_bound < 1:
        raise ParameterError("search_bound >= 1", "search bound must be positive")
    # l2 = 1 is coprime to everything, so this checks every rule not involving l2
    JoinParams(p, l1, 1, w1, w2)
    for l2 in range(1, search_bound + 1):
        try:
            params = JoinParams(p, l1, l2, w1, w2)
        except ParameterError:
            continue
        if csc_rays(params).reduced_count == maximal_ray_count(w1, w2):
            return l2
    return None


def quasireg_family(p: int) -> tuple[int, int]:
    """The primitive coprime (l1, l2) for which the homogeneous ray polynomial
    acquires the rational roots 1/2, 1, and 2.

    Solves A*l2 = B*l1 with A = 2*(1 + 2^p*(2^(p+2) - (p^2+2p+5))) and
    B = -1 + 2^(p+1)*(2^(p+2) - (2p+3)).
    """
    if p < 1:
        raise ParameterError("p >= 1", "p must be positive")
    # for p >= 1 neither vanishes: A/2 and B are odd
    a = 2 * (1 + 2 ** p * (2 ** (p + 2) - (p * p + 2 * p + 5)))
    b = -1 + 2 ** (p + 1) * (2 ** (p + 2) - (2 * p + 3))
    g = gcd(a, b)
    return a // g, b // g
