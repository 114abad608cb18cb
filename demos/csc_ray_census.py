#!/usr/bin/env python3
"""Census of constant-scalar-curvature rays across join parameters.

Walks the two regimes of the ray polynomial: distinct weights, where the
forced triple root at w2/w1 is split off and every surviving positive root
is a CSC ray, and equal weights, where b = 1 is the regular ray and the
other roots collapse in reciprocal pairs.  Ends with the threshold tables
and the quasi-regular family.
"""

from fractions import Fraction

from sasakijoin import (
    JoinParams,
    ParameterError,
    csc_polynomial,
    csc_rays,
    deflate_forbidden,
    min_l2_multiple_csc,
    quasireg_family,
    rational_roots,
    wz_threshold,
)
from sasakijoin.exactpoly import format_poly

print("=" * 72)
print("Distinct weights: (p, l1, l2, w) = (1, 1, 19, (3,2))")
print("=" * 72)

params = JoinParams(1, 1, 19, 3, 2)
fp = csc_polynomial(params)
print("ray polynomial f(b) =", format_poly(fp.poly, "b"))
quotient, multiplicity = deflate_forbidden(fp)
print(f"forced root at b = {fp.forbidden_root} has multiplicity {multiplicity};")
print("cofactor after deflation:", format_poly(quotient, "b"))

report = csc_rays(params)
print(f"\nCSC rays ({report.unreduced_count} unreduced, {report.reduced_count} reduced):")
for ray in report.rays:
    rec = ray.record
    if rec.is_rational:
        print(f"  {ray.ray_class:<14} b = {rec.value}")
    else:
        print(f"  {ray.ray_class:<14} b in ({float(rec.value.lo):.12f}, "
              f"{float(rec.value.hi):.12f})")

print("\nHow many rays as l2 grows (valid l2 only)?")
print("l2:", end=" ")
for l2 in range(1, 31):
    try:
        p = JoinParams(1, 1, l2, 3, 2)
    except ParameterError:
        continue
    n = csc_rays(p, precision=4).unreduced_count
    print(f"{l2}->{n}", end="  ")
print()
print("minimal l2 with three rays:", min_l2_multiple_csc(1, 1, 3, 2, 30))

print()
print("=" * 72)
print("Equal weights: the regular ray and its reciprocal companions")
print("=" * 72)

for p, l1, l2 in ((1, 1, 5), (1, 1, 6), (2, 1, 2), (1, 2, 11)):
    params = JoinParams(p, l1, l2, 1, 1)
    report = csc_rays(params)
    pieces = []
    for ray in report.rays:
        rec = ray.record
        value = str(rec.value) if rec.is_rational else f"~{float(rec.value.midpoint):.6f}"
        pieces.append(f"{ray.ray_class}@{value}(x{rec.multiplicity})")
    print(f"(p={p}, l1={l1}, l2={l2}): {report.unreduced_count} unreduced / "
          f"{report.reduced_count} reduced   {'; '.join(pieces)}")

print("\nReciprocal pairing: for equal weights the polynomial is palindromic,")
print("so any root b off 1 arrives with its inverse 1/b; the pair is a single")
print("ray of the reduced cone.")

print()
print("=" * 72)
print("Thresholds for a second reduced ray (equal weights, l1 = 1)")
print("=" * 72)
print(" p   threshold      minimal valid l2 above it")
for p in range(1, 9):
    threshold = wz_threshold(p, 1)
    minimal = min_l2_multiple_csc(p, 1, 1, 1, 12)
    print(f"{p:>2}   {str(threshold):>9}      {minimal}")

print("\nQuasi-regular family: coefficient pairs (l1, l2) forcing the rational")
print("roots 1/2, 1, 2 into the ray polynomial:")
for p in (1, 2, 3):
    l1, l2 = quasireg_family(p)
    poly = csc_polynomial(JoinParams(p, l1, l2, 1, 1)).poly
    roots = rational_roots(poly)
    planted = [r for r in roots if r[0] in (Fraction(1, 2), Fraction(1), Fraction(2))]
    print(f"  p={p}: (l1, l2) = ({l1}, {l2}); planted rational roots {planted}")
