"""Dimension-7 classification predicates for join manifolds.

Three layers of comparison between 7-dimensional joins (p = 2):

* homotopy equivalence, decided by Kruggel-style congruences on the order
  of H^4, the parity of l2, the weight-norm quantity l1^2*(w1+w2)^2, and
  the linking cubes l2^3 up to sign;
* homeomorphism and diffeomorphism in the homogeneous w = (1,1) family,
  decided by the Kreck-Stolz congruences l2' = l2 modulo an l1-dependent
  modulus built from the exponent tables lambda_2 and lambda_7.

The weight-norm condition is read as divisibility of the difference by
3*m, where m is the shared order of H^4; this is the reading under which
the mixed-shape families with equal m but different weights fail the test,
while divisibility by 3 inside Z/m could never fail when gcd(3, m) = 1.
Both signs are accepted in the linking-cube condition, matching the
definition of the linking form up to orientation.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import not_

from .joinspace import JoinParams, LazySequence, ParameterError, Record

__all__ = [
    "LambdaExponents",
    "Condition",
    "ClassificationVerdict",
    "DiffeoPartition",
    "LazySequence",
    "lambda_exponents",
    "ks_moduli",
    "ks_homeomorphic",
    "ks_diffeomorphic",
    "kruggel_homotopy_equivalent",
    "partition_diffeo_types",
]


class LambdaExponents(Record):
    """Exponents entering the diffeomorphism modulus 2^lambda2 * 7^lambda7 * l1^2."""

    __slots__ = ("lambda2", "lambda7")


class Condition(Record):
    """One tested congruence: label, outcome, and witness integers."""

    __slots__ = ("label", "holds", "witness")   # str, bool, tuple[int, ...]


class ClassificationVerdict(Record):
    """Per-condition breakdown of a pairwise classification decision."""

    __slots__ = ("relation", "overall", "conditions")   # str, bool, tuple[Condition, ...]

    def __post_init__(self) -> None:
        if self.overall != all(c.holds for c in self.conditions):
            raise ValueError("overall verdict must be the conjunction of its conditions")


def lambda_exponents(l1: int) -> LambdaExponents:
    """Case-table exponents: lambda2 from l1 mod 8, lambda7 from l1 mod 7."""
    if not isinstance(l1, int) or isinstance(l1, bool):
        raise ParameterError("l1 >= 1", f"l1 must be a positive integer, got {l1!r}")
    if l1 < 1:
        raise ParameterError("l1 >= 1", f"l1 must be positive, got {l1}")
    r8 = l1 % 8
    if r8 in (2, 6):
        lam2 = 0
    elif r8 in (1, 7):
        lam2 = 1
    elif r8 in (3, 5):
        lam2 = 2
    else:  # 0, 4
        lam2 = 3
    lam7 = 0 if l1 % 7 in (1, 2, 5, 6) else 1
    return LambdaExponents(lam2, lam7)


def ks_moduli(l1: int) -> tuple[int, int]:
    """(homeomorphism modulus, diffeomorphism modulus) for the w = (1,1),
    p = 2 family at fixed l1.

    Homeomorphism: 2*l1^2 when l1 is odd or divisible by 4, else l1^2.
    Diffeomorphism: 2^lambda2 * 7^lambda7 * l1^2.
    """
    lam = lambda_exponents(l1)  # rejects l1 < 1 and non-integers
    homeo = 2 * l1 ** 2 if l1 % 2 == 1 or l1 % 4 == 0 else l1 ** 2
    return homeo, 2 ** lam.lambda2 * 7 ** lam.lambda7 * l1 ** 2


def _check_ks_pair(l1: int, l2: int, l2prime: int) -> None:
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (l1, l2, l2prime)):
        raise ParameterError("l1,l2,l2' >= 1", "parameters must be positive integers")
    if l1 < 1 or l2 < 1 or l2prime < 1:
        raise ParameterError("l1,l2,l2' >= 1", "parameters must be positive")
    if gcd(l1, l2) != 1:
        raise ParameterError("gcd(l1,l2) = 1", f"gcd({l1},{l2}) = {gcd(l1, l2)} != 1")
    if gcd(l1, l2prime) != 1:
        raise ParameterError("gcd(l1,l2') = 1", f"gcd({l1},{l2prime}) = {gcd(l1, l2prime)} != 1")


def ks_homeomorphic(l1: int, l2: int, l2prime: int) -> bool:
    """Homeomorphism test for the homogeneous dimension-7 family at fixed l1."""
    _check_ks_pair(l1, l2, l2prime)
    homeo, _ = ks_moduli(l1)
    return (l2prime - l2) % homeo == 0


def ks_diffeomorphic(l1: int, l2: int, l2prime: int) -> bool:
    """Diffeomorphism test for the homogeneous dimension-7 family at fixed l1."""
    _check_ks_pair(l1, l2, l2prime)
    _, diffeo = ks_moduli(l1)
    return (l2prime - l2) % diffeo == 0


def kruggel_homotopy_equivalent(a: JoinParams, b: JoinParams) -> ClassificationVerdict:
    """Homotopy-equivalence verdict for two dimension-7 joins.

    Requires p = 2 and l1, w1, w2 all odd on both sides.  Four conditions:

    1. equal order of H^4;
    2. l2 congruent mod 2;
    3. l1^2*(w1+w2)^2 difference divisible by 3*m, m the shared H^4 order
       (witness: the residue of a's quantity minus b's, and the modulus);
    4. l2^3 sums or differences divisible by m (either sign accepted).
    """
    for label, params in (("first", a), ("second", b)):
        if params.p != 2:
            raise ParameterError("p = 2", f"{label} tuple must have p = 2, got {params.p}")
        for name in ("l1", "w1", "w2"):
            if getattr(params, name) % 2 == 0:
                raise ParameterError(f"{name} odd",
                                     f"{label} tuple needs odd {name}, got {getattr(params, name)}")

    m_a = a.w1 * a.w2 * a.l1 ** 2
    m_b = b.w1 * b.w2 * b.l1 ** 2
    cond1 = Condition("equal_h4_order", m_a == m_b, (m_a, m_b))

    cond2 = Condition("l2_mod_2", (a.l2 - b.l2) % 2 == 0, (a.l2 % 2, b.l2 % 2))

    m = m_a
    diff = a.l1 ** 2 * (a.w1 + a.w2) ** 2 - b.l1 ** 2 * (b.w1 + b.w2) ** 2
    cond3 = Condition("weight_norm_mod_3m", diff % (3 * m) == 0, (diff % (3 * m), 3 * m))

    minus = (a.l2 ** 3 - b.l2 ** 3) % m
    plus = (a.l2 ** 3 + b.l2 ** 3) % m
    cond4 = Condition("linking_cubes_mod_m", minus == 0 or plus == 0, (minus, plus, m))

    conditions = (cond1, cond2, cond3, cond4)
    return ClassificationVerdict(
        relation="homotopy",
        overall=all(c.holds for c in conditions),
        conditions=conditions,
    )


class DiffeoPartition(Record):
    """Partition of l2 values into diffeomorphism classes at fixed l1."""

    # tuple[tuple[int, ...], ...] and tuple[tuple[int, str], ...], or LazySequence
    __slots__ = ("classes", "invalid")


def partition_diffeo_types(l1: int, l2_values) -> DiffeoPartition:
    """Group l2 values by the diffeomorphism congruence at fixed l1.

    Values failing l2 >= 1 (bools and non-integers among them) or
    gcd(l1, l2) = 1 are reported individually, in their order, instead of
    aborting the partition.  Classes are sorted by their smallest member.
    From a range with a positive step, the classes (ranges) and the invalid
    values are each a ``LazySequence``, made afresh on each pass, so memory
    grows with the values only by a byte a value of one period of gcd(l1, l2).
    """
    _, diffeo = ks_moduli(l1)
    if isinstance(l2_values, range) and l2_values.step > 0:
        # diffeo is a multiple of l1, so gcd(l1, l2) is one value on a class: the first
        # period/step values l2 >= 1 head one class each, of period lcm(step, diffeo)
        step, stop = l2_values.step, l2_values.stop
        first = len(range(l2_values.start, 1, step))    # the values l2 < 1
        period = lcm(step, diffeo)
        heads, rest = l2_values[first:first + period // step], l2_values[first:]
        # gcd(l1, l2) has period l1/gcd(l1, step) along rest, which the heads span:
        # one gcd for each head of the first period masks the values sharing a factor
        mask = bytes(gcd(l1, r) != 1 for r in heads[:l1 // gcd(l1, step)])

        def shared():   # the mask along rest, repeated without cycle()'s copy
            return chain.from_iterable(repeat(mask, len(rest)))

        def count(n):   # how many of rest[:n] share a factor with l1
            return n // len(mask) * sum(mask) + sum(mask[:n % len(mask)]) if mask else 0

        def classes():
            return (range(r, stop, period) for r in compress(heads, map(not_, shared())))

        def skipped():
            return chain(zip(l2_values[:first], repeat("l2 >= 1")),
                         zip(compress(rest, shared()), repeat("gcd(l1,l2) = 1")))

        return DiffeoPartition(LazySequence(len(heads) - count(len(heads)), classes),
                               LazySequence(len(l2_values) - len(rest) + count(len(rest)), skipped))
    buckets: dict[int, set[int]] = {}
    invalid: list[tuple[int, str]] = []
    for l2 in l2_values:
        if not isinstance(l2, int) or isinstance(l2, bool) or l2 < 1:
            invalid.append((l2, "l2 >= 1"))
        elif gcd(l1, l2) != 1:
            invalid.append((l2, "gcd(l1,l2) = 1"))
        else:
            buckets.setdefault(l2 % diffeo, set()).add(l2)
    classes = sorted(tuple(sorted(members)) for members in buckets.values())
    return DiffeoPartition(tuple(classes), tuple(invalid))
