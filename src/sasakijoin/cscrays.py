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

Every coefficient of the ray polynomial is linear in (l1, l2), so
f = l2*A + l1*B.  The structure of R = -B/A is certified once per family
(p, w1, w2) and cached.  From it :func:`ray_threshold` reads the value t*
of l2/l1 at which the ray count jumps, from 1 to 3 (1 to 2 reduced for
w = (1,1); for w1 > w2, t* = R(c*) at the critical point c* of R below
w2/w1), and :func:`three_ray_split` splits a range of l2 at t* into the
values below it, the window not separated from it, and those above;
sweeps and :func:`min_l2_multiple_csc` call :func:`csc_rays` only in the
window.  The same entry lets :func:`csc_rays` skip dense isolation at high
degree: each branch of R holds at most one root, so the roots are
bracketed by signs of the sparse ray polynomial and isolated, with
byte-identical reports, by
:func:`~sasakijoin.exactpoly.isolate_bracketed_roots`.  Threshold and
brackets share one walk on c*, :func:`_critical_cells`: its counts, its bound.

One caveat applies to every report: a root certifies constant scalar
curvature for the admissible extremal representative of its ray.  Without
a uniqueness theorem for extremal structures in an isotopy class, CSC
metrics outside that family are neither confirmed nor excluded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd

from .exactpoly import (
    IntPolynomial,
    RationalInterval,
    RootRecord,
    SparseQuotient,
    cauchy_root_bound,
    certify_squarefree,
    deflate_linear,
    descartes_count,
    intpoly,
    isolate_bracketed_roots,
    isolate_positive_roots,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_sub,
    split_counts,
    sturm_count,
)
from .joinspace import InternalInvariantError, JoinParams, ParameterError, Record

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
    "ray_threshold",
    "three_ray_split",
    "THRESHOLD_WIDTH",
    "deflate_forbidden",
    "csc_rays",
    "maximal_ray_count",
    "min_l2_multiple_csc",
    "quasireg_family",
    "CSC_CAVEAT",
]


CSC_CAVEAT = (
    "Roots of the ray polynomial certify constant scalar curvature for the "
    "admissible extremal representative of each ray; absent a uniqueness "
    "theorem for extremal structures, other CSC representatives are neither "
    "confirmed nor excluded.")

RAY_CLASSES = ("regular", "quasi-regular", "irregular")


class CscPolynomial(Record):
    """The exact degree-(2p+4) ray polynomial together with its provenance."""

    __slots__ = ("poly", "params", "forbidden_root")    # IntPolynomial, JoinParams, Fraction


class Ray(Record):
    """One CSC ray: the isolated root and its regularity class."""

    __slots__ = ("record", "ray_class")     # RootRecord, str

    def __post_init__(self) -> None:
        if self.ray_class not in RAY_CLASSES:
            raise ValueError(f"unknown ray class {self.ray_class!r}")


class RayReport(Record):
    """CSC verdict for one parameter tuple.

    Both counts follow from ``rays``.  ``unreduced_count`` counts distinct CSC
    values of b, one per ray; ``reduced_count`` counts rays of the reduced
    cone, where for w = (1,1) the reciprocal pair {b, 1/b} collapses to a
    single ray (``weyl_paired`` is True).
    """

    # tuple[Ray, ...], int, int, bool
    __slots__ = ("rays", "unreduced_count", "reduced_count", "weyl_paired")


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
    JoinParams(p, l1, 1, 1, 1)
    return Fraction(2 * (3 + 2 * p) * l1, p * (p + 1))


# Width of the interval that ray_threshold certifies around an irrational t*.
THRESHOLD_WIDTH = Fraction(1, 10 ** 12)
# Bisection levels on c*; the thresholds of 1,289 families took at most 32.
_CELL_LEVELS = 64


def ray_threshold(p: int, w1: int, w2: int) -> Fraction | RationalInterval:
    """The three-ray threshold t* of the family (p, w1, w2), certified.

    Every coefficient of the ray polynomial is linear in (l1, l2), so
    f = l2*A + l1*B, and a CSC value b != w2/w1 solves R(b) = t for
    t = l2/l1 and R = -B/A.  The count changes only at critical values of R:
    roots of the Wronskian A'B - AB', deflated by (w1*b - w2).  This checks,
    by exact signs, Descartes counts on (0, oo) and prefix-sum counts on
    either side of w2/w1 (:func:`split_counts`), that w2/w1 is a root of A
    and B of the forced multiplicities, that A has no other positive root,
    that R tends to +oo at 0 and at oo, and that R has
    - for w = (1,1), no critical point but b = 1, where it is finite, so a
      reciprocal pair of rays joins the regular one exactly when
      t > t* = R(1) = wz_threshold(p, 1), which is returned;
    - for w1 > w2, one simple critical point c* in (0, w2/w1) between two
      infinite ends, and none above w2/w1, where R runs from -oo to +oo;
      so there is 1 ray for t < t* = R(c*), 2 at t = t* and 3 above.
      A RationalInterval (lo, hi) of width THRESHOLD_WIDTH with
      lo < t* < hi is returned.
    A failed check raises :class:`InternalInvariantError`.
    """
    big_a, big_b, wronskian = _certified_structure(p, w1, w2)
    if w1 == w2:
        return wz_threshold(p, 1)
    return _critical_value(p, w1, w2, big_a, big_b, wronskian)


@lru_cache(maxsize=32)
def _certified_structure(p: int, w1: int, w2: int):
    """(A, B, W) for the family, once the checks of :func:`ray_threshold`
    hold: f = l2*A + l1*B, and W is the Wronskian A'B - AB' deflated by
    (w1*x - w2), as a :class:`SparseQuotient` of the 13-term A'B - AB'.
    Raises :class:`InternalInvariantError` otherwise.  No count shifts W:
    each costs O(n) additions.  Cached per family (failures are not), for
    :func:`ray_threshold` and the branch path of :func:`csc_rays` alike."""
    JoinParams(p, 1, 1, w1, w2)
    big_a = intpoly(_raw_coefficients(p, 0, 1, w1, w2))
    big_b = intpoly(_raw_coefficients(p, 1, 0, w1, w2))
    forced = Fraction(w2, w1)
    paired = w1 == w2
    a_rest, ka = deflate_linear(big_a, forced)
    b_rest, kb = deflate_linear(big_b, forced)
    full = poly_sub(poly_mul(poly_derivative(big_a), big_b), poly_mul(big_a, poly_derivative(big_b)))
    wronskian = deflate_linear(full, forced)[0]
    # R = -B/A tends to +oo at 0 and at oo, and A has no other positive root
    certified = ((ka, kb) == ((4, 4) if paired else (4, 3))
                 and big_a.coeffs[0] == 0 < big_a.coeffs[1] and big_b.coeffs[0] < 0
                 and big_b.degree > big_a.degree and big_b.coeffs[-1] < 0 < big_a.coeffs[-1]
                 and descartes_count(a_rest, 0) == 0)
    if paired:
        certified = (certified and descartes_count(wronskian, 0) == 0
                     and -poly_eval(b_rest, 1) / poly_eval(a_rest, 1) == wz_threshold(p, 1))
    else:
        # R = -b_rest/((w1*x - w2)*a_rest): +oo just below w2/w1, -oo just above
        certified = (certified and poly_eval(a_rest, forced) * poly_eval(b_rest, forced) > 0
                     and split_counts(wronskian, forced) == (1, 0))
    if not certified:
        raise InternalInvariantError(
            f"the ray count structure of the family ({p}, {w1}, {w2}) is not certified")
    return big_a, big_b, SparseQuotient(full, wronskian, forced)


def _critical_cells(wronskian: SparseQuotient, forced: Fraction):
    """Bisect the cell of c*, the one root of W in (0, w2/w1), on the signs
    of W, at most ``_CELL_LEVELS`` times, yielding (lo, hi, mid, counted)
    for each: the new cell, its new end, and whether a Descartes count is due.
    Only levels 4, 8, 16, ... are counted: a count costs tens of levels and
    fails until the cell is small beside the complex pair it must exclude
    (two-circle theorem, Krandick & Mehlhorn 2006).  At mid = c* it yields
    the cell (c*, c*) and stops."""
    lo, hi, s_hi = Fraction(0), forced, wronskian.sign(forced)
    for level in range(1, _CELL_LEVELS + 1):
        mid = (lo + hi) / 2
        w = wronskian.sign(mid)
        lo, hi = (mid, mid) if not w else (lo, mid) if w == s_hi else (mid, hi)
        yield lo, hi, mid, level >= 4 and not level & (level - 1)
        if lo == hi:
            return


def _critical_value(p, w1, w2, big_a, big_b, wronskian) -> RationalInterval:
    """An interval of width THRESHOLD_WIDTH around R(c*), where c* is the one
    critical point of R = -B/A in (0, w2/w1) and the minimum of R there.

    R at an end of a cell of c* (:func:`_critical_cells`) inside (0, w2/w1)
    exceeds t*.  Below that value by the width, at t = n/d, f_t = n*A + d*B
    = A*(t - R) is negative at that end; once a Descartes count at a counted
    level shows it has no root in the cell, it is negative at c* too: t < t*.
    """
    forced = Fraction(w2, w1)

    def ratio(x: Fraction) -> Fraction:
        return -poly_eval(big_b, x) / poly_eval(big_a, x)

    for lo, hi, _, counted in _critical_cells(wronskian, forced):
        if lo == hi:        # c* = lo, so t* = R(lo) exactly
            t_star = ratio(lo)
            return RationalInterval(t_star - THRESHOLD_WIDTH / 2, t_star + THRESHOLD_WIDTH / 2)
        if counted:
            top = min(ratio(x) for x in (lo, hi) if 0 < x < forced)
            bottom = top - THRESHOLD_WIDTH
            f_bottom = IntPolynomial(_raw_coefficients(p, bottom.denominator, bottom.numerator,
                                                       w1, w2))
            if descartes_count(f_bottom, lo, hi) == 0:
                return RationalInterval(bottom, top)
    raise InternalInvariantError(
        f"the three-ray threshold of ({p}, {w1}, {w2}) was not separated "
        f"in {_CELL_LEVELS} levels")


def three_ray_split(p: int, l1: int, w1: int, w2: int, l2_values: range):
    """(below, window, above): the slices of the ascending range ``l2_values``
    whose l2/l1 lies below the :func:`ray_threshold` of the family, is not
    separated from it, and lies above it.  A valid tuple has 1 ray (1 reduced)
    below and 3 (:func:`maximal_ray_count` reduced) above; in the window, the
    whole range when the certificate fails, only :func:`csc_rays` can tell.
    l2 = 1, coprime to all, checks the join rules that do not involve l2."""
    JoinParams(p, l1, 1, w1, w2)
    try:
        t_star = ray_threshold(p, w1, w2)
    except InternalInvariantError:
        return l2_values[:0], l2_values, l2_values[:0]
    if isinstance(t_star, RationalInterval):    # below at l2/l1 <= lo, above at >= hi
        i, j = bisect_right(l2_values, t_star.lo * l1), bisect_left(l2_values, t_star.hi * l1)
    else:                                       # below at l2/l1 < t*, above at > t*
        i, j = bisect_left(l2_values, t_star * l1), bisect_right(l2_values, t_star * l1)
    return l2_values[:i], l2_values[i:j], l2_values[j:]


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


def _check_reciprocal_pairs(poly: IntPolynomial, records: list[RootRecord],
                            signs: SparseQuotient) -> None:
    """Verify that the records pair up as reciprocals {b, 1/b}.

    ``records`` are the isolated roots of ``poly`` in ascending order, with 1
    excluded; for the palindromic homogeneous polynomial every root below 1
    must pair with its exact inverse above 1.  The partner's interval holds
    one root, so a sign change of poly (read from ``signs``, its sign source)
    on the inverted interval places a root of odd multiplicity in it;
    :func:`sturm_count` counts a root of even one.
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
            if not a < b or not (sturm_count(poly, a, b) == 1 if high.multiplicity % 2 == 0
                                 else signs.sign(a) * signs.sign(b) < 0):
                raise InternalInvariantError(
                    "inverted isolating interval fails to isolate the partner root")


# From this p on, csc_rays finds the roots on the branches of R.  Against
# isolate_positive_roots it breaks even near p = 5 for w = (1,1) and p = 8
# for w = (3,2), with the family cached (best of 7 over l1 = 1, l2 = 1..12,
# mean per tuple); at p = 11 it takes 0.54 ms against 0.93 for (1,1) and
# 0.61 against 0.72 for (3,2), at p = 16 0.55 against 1.36 and 0.68 against
# 1.13.  12 keeps every query up to p = 11 on isolate_positive_roots.
_BRANCH_MIN_P = 12


def _roots_below(quotient: IntPolynomial, signs: SparseQuotient,
                 wronskian: SparseQuotient, forced: Fraction):
    """Brackets of the roots of the quotient in (0, w2/w1) for w1 > w2, or
    None when they are not certified.

    R = -B/A falls from +oo to its least value t* = R(c*) and rises to +oo
    again, so at t = l2/l1 the quotient has the sign it has at 0 wherever
    R > t.  On the cells of c* (:func:`_critical_cells`), a new end where the
    quotient has the other sign separates the two roots: brackets (0, s) and
    (s, w2/w1).  Otherwise R > t at both ends of the cell of c*, and so
    outside it; a Descartes count of 0 at a counted level leaves no root.
    """
    outer = signs.sign(Fraction(0))
    for lo, hi, mid, counted in _critical_cells(wronskian, forced):
        s = signs.sign(mid)
        if s != outer:
            return [(Fraction(0), mid), (mid, forced)] if s else None
        if lo == hi or counted and descartes_count(quotient, lo, hi) == 0:
            return []       # at lo == hi = c*, R is least, and R(c*) > t
    return None


def _branch_records(fp: CscPolynomial, signs: SparseQuotient, precision: int):
    """The records ``isolate_positive_roots(quotient, precision, [w2/w1])``
    gives, found on the certified branches of R by the quotient's ``signs``,
    or None when a certificate (family, square-free, brackets) fails.

    Each branch of R holds at most one root, a simple one: for w = (1,1),
    (0, 1) and (1, oo) hold one each for t > t* and none at or below t*;
    for w1 > w2, (w2/w1, oo) holds one, and (0, w2/w1) two or none.  So
    the signs at the ends of each bracket differ, as
    :func:`isolate_bracketed_roots` checks: the quotient is nonzero at 0,
    w2/w1 and its Cauchy bound, and a separator has the sign opposite to 0.
    """
    p, l1, l2, w1, w2 = fp.params.p, fp.params.l1, fp.params.l2, fp.params.w1, fp.params.w2
    quotient, forced = signs.quotient, fp.forbidden_root
    try:
        wronskian = _certified_structure(p, w1, w2)[2]
    except InternalInvariantError:
        return None
    if not certify_squarefree(quotient):
        return None
    top = (forced, cauchy_root_bound(quotient))
    if w1 == w2:
        brackets = [(Fraction(0), forced), top] if Fraction(l2, l1) > wz_threshold(p, 1) else []
    else:
        below = _roots_below(quotient, signs, wronskian, forced)
        if below is None:
            return None
        brackets = below + [top]
    return isolate_bracketed_roots(quotient, brackets, signs, precision, [forced])


def csc_rays(params: JoinParams | tuple[CscPolynomial, IntPolynomial, int],
             precision: int = 12) -> RayReport:
    """Enumerate and classify the CSC rays for one parameter tuple.

    ``params`` is a :class:`JoinParams`, or ``(fp, quotient, k)`` when the
    caller holds ``fp = csc_polynomial(params)`` and ``deflate_forbidden(fp)``.
    The counts of the report follow from its rays.  From p = 12 on, the
    roots are bracketed on the branches of R and located by signs of the
    sparse ray polynomial; otherwise, or when a certificate of that path
    fails, :func:`isolate_positive_roots` finds them by sign variations of
    the dense quotient.  Both give the same records.
    """
    if isinstance(params, JoinParams):
        fp = csc_polynomial(params)
        params = (fp, *deflate_forbidden(fp))
    fp, quotient, k = params
    params, forced = fp.params, fp.forbidden_root
    paired, branch = params.w1 == params.w2, params.p >= _BRANCH_MIN_P
    # one sign source for the branch path and the pairing of w = (1,1), read
    # off what the route isolates: the seven terms of f, or the dense quotient
    signs = SparseQuotient(fp.poly if branch else quotient, quotient, forced) \
        if branch or paired else None
    records = _branch_records(fp, signs, precision) if branch else None
    if records is None:
        records = isolate_positive_roots(quotient, precision, [forced])
    rays = [Ray(rec, "quasi-regular" if rec.is_rational else "irregular") for rec in records]
    if paired:
        _check_reciprocal_pairs(quotient, records, signs)
        # the records balance around b = 1, so the regular ray sits in the middle
        rays.insert(len(rays) // 2, Ray(RootRecord(forced, k, True), "regular"))
    reduced = (len(rays) + 1) // 2 if paired else len(rays)
    return RayReport(tuple(rays), len(rays), reduced, paired)


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
    :func:`three_ray_split`, the rule ``sweep csc`` shares, leaves no maximal
    row below its window and every valid row above it maximal, so only the
    window goes to :func:`csc_rays`.  Returns None when no l2 within the
    bound qualifies.
    """
    if not isinstance(search_bound, int) or isinstance(search_bound, bool) or search_bound < 1:
        raise ParameterError("search_bound >= 1", "search bound must be a positive integer")
    _, window, above = three_ray_split(p, l1, w1, w2, range(1, search_bound + 1))
    for l2 in chain(window, above):
        try:
            params = JoinParams(p, l1, l2, w1, w2)
        except ParameterError:
            continue
        if l2 in above or csc_rays(params).reduced_count == maximal_ray_count(w1, w2):
            return l2
    return None


def quasireg_family(p: int) -> tuple[int, int]:
    """The primitive coprime (l1, l2) for which the homogeneous ray polynomial
    acquires the rational roots 1/2, 1, and 2.

    Solves A*l2 = B*l1 with A = 2*(1 + 2^p*(2^(p+2) - (p^2+2p+5))) and
    B = -1 + 2^(p+1)*(2^(p+2) - (2p+3)).
    """
    JoinParams(p, 1, 1, 1, 1)
    # for p >= 1 neither vanishes: A/2 and B are odd
    a = 2 * (1 + 2 ** p * (2 ** (p + 2) - (p * p + 2 * p + 5)))
    b = -1 + 2 ** (p + 1) * (2 ** (p + 2) - (2 * p + 3))
    g = gcd(a, b)
    return a // g, b // g
