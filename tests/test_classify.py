"""Tests for the dimension-7 classification predicates."""

import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from sasakijoin import classify
from sasakijoin.classify import (
    ClassificationVerdict,
    Condition,
    ks_diffeomorphic,
    ks_homeomorphic,
    ks_moduli,
    kruggel_homotopy_equivalent,
    lambda_exponents,
    partition_diffeo_types,
)
from sasakijoin.joinspace import JoinParams, ParameterError


# ----------------------------------------------------------------------
# lambda exponents and moduli

def test_lambda_exponent_tables():
    assert (lambda_exponents(5).lambda2, lambda_exponents(5).lambda7) == (2, 0)
    assert (lambda_exponents(2).lambda2, lambda_exponents(2).lambda7) == (0, 0)
    assert (lambda_exponents(4).lambda2, lambda_exponents(4).lambda7) == (3, 1)
    assert lambda_exponents(1).lambda2 == 1
    assert lambda_exponents(7).lambda7 == 1
    assert lambda_exponents(6).lambda2 == 0
    assert lambda_exponents(8).lambda2 == 3
    table2 = {1: 1, 2: 0, 3: 2, 4: 3, 5: 2, 6: 0, 7: 1, 8: 3}
    table7 = {1: 0, 2: 0, 3: 1, 4: 1, 5: 0, 6: 0, 7: 1}
    for l1 in range(1, 60):
        lam = lambda_exponents(l1)
        assert lam.lambda2 == table2[(l1 - 1) % 8 + 1]
        assert lam.lambda7 == table7[(l1 - 1) % 7 + 1]


def test_ks_moduli():
    assert ks_moduli(5) == (50, 100)
    assert ks_moduli(2) == (4, 4)
    assert ks_moduli(1) == (2, 2)
    assert ks_moduli(4) == (32, 128 * 7)
    assert ks_moduli(6) == (36, 36)
    assert ks_moduli(7) == (98, 2 * 7 * 49)


def test_diffeo_modulus_is_multiple_of_homeo_modulus():
    for l1 in range(1, 13):
        homeo, diffeo = ks_moduli(l1)
        assert diffeo % homeo == 0


# ----------------------------------------------------------------------
# homeomorphism / diffeomorphism congruences

def test_ks_examples():
    assert ks_homeomorphic(5, 39, 89)
    assert not ks_diffeomorphic(5, 39, 89)
    assert ks_diffeomorphic(5, 39, 139)
    assert not ks_homeomorphic(5, 21, 29)
    assert ks_homeomorphic(1, 3, 5)
    assert ks_diffeomorphic(2, 1, 5) and ks_diffeomorphic(2, 3, 7)
    assert not ks_diffeomorphic(2, 1, 3)


def test_ks_rejects_invalid_pairs():
    with pytest.raises(ParameterError):
        ks_homeomorphic(5, 10, 39)
    with pytest.raises(ParameterError):
        ks_diffeomorphic(5, 39, 10)
    with pytest.raises(ParameterError):
        ks_homeomorphic(5, 0, 39)
    # a float or bool was read as an integer: ks_moduli(2.5) was (6.25, 350.0),
    # True counted as l1 = 1, and a float pair failed unnamed in math.gcd
    for call, constraint in ((lambda: lambda_exponents(2.5), "l1 >= 1"),
                             (lambda: lambda_exponents(True), "l1 >= 1"),
                             (lambda: ks_moduli(2.5), "l1 >= 1"),
                             (lambda: partition_diffeo_types(2.0, [1, 3]), "l1 >= 1"),
                             (lambda: ks_homeomorphic(True, 1, 3), "l1,l2,l2' >= 1"),
                             (lambda: ks_homeomorphic(1, 3, 5.0), "l1,l2,l2' >= 1"),
                             (lambda: ks_diffeomorphic(1.5, 2, 3), "l1,l2,l2' >= 1")):
        with pytest.raises(ParameterError) as info:
            call()
        assert info.value.constraint == constraint
    # an integer below 1 keeps its message
    with pytest.raises(ParameterError, match="^l1 must be positive, got 0$"):
        lambda_exponents(0)
    with pytest.raises(ParameterError, match="^parameters must be positive$"):
        ks_diffeomorphic(1, 3, -5)


def test_diffeo_implies_homeo_on_sampled_pairs():
    rng = random.Random(61)
    checked = 0
    while checked < 2000:
        l1 = rng.randint(1, 12)
        l2 = rng.randint(1, 400)
        l2p = rng.randint(1, 400)
        if gcd(l1, l2) != 1 or gcd(l1, l2p) != 1:
            continue
        if ks_diffeomorphic(l1, l2, l2p):
            assert ks_homeomorphic(l1, l2, l2p)
        checked += 1


def test_ks_congruences_are_equivalence_relations():
    rng = random.Random(67)
    for l1 in (1, 2, 3, 5, 8):
        values = [v for v in range(1, 120) if gcd(v, l1) == 1]
        sample = rng.sample(values, 25)
        for x in sample:
            assert ks_diffeomorphic(l1, x, x)
        for x, y in zip(sample, sample[1:]):
            assert ks_diffeomorphic(l1, x, y) == ks_diffeomorphic(l1, y, x)
        for x, y, z in zip(sample, sample[1:], sample[2:]):
            if ks_diffeomorphic(l1, x, y) and ks_diffeomorphic(l1, y, z):
                assert ks_diffeomorphic(l1, x, z)


# ----------------------------------------------------------------------
# homotopy equivalence

def P(l1, l2, w1, w2):
    return JoinParams(2, l1, l2, w1, w2)


def test_kruggel_known_equivalent_pairs():
    assert kruggel_homotopy_equivalent(P(5, 21, 1, 1), P(5, 29, 1, 1)).overall
    assert kruggel_homotopy_equivalent(P(5, 39, 1, 1), P(5, 89, 1, 1)).overall
    assert kruggel_homotopy_equivalent(P(1, 21, 25, 1), P(1, 29, 25, 1)).overall


def test_kruggel_cross_shape_fails_condition_three():
    for l2 in (1, 3, 7, 9, 11, 13, 17, 19, 21, 29, 99):
        verdict = kruggel_homotopy_equivalent(P(5, l2, 1, 1), P(1, l2, 25, 1))
        assert not verdict.overall
        by_label = {c.label: c for c in verdict.conditions}
        cond3 = by_label["weight_norm_mod_3m"]
        assert not cond3.holds
        assert cond3.witness == (24, 75)


def test_kruggel_reflexive_and_symmetric():
    rng = random.Random(71)
    tuples = []
    while len(tuples) < 40:
        l1 = rng.choice([1, 3, 5, 7, 9])
        w2 = rng.choice([1, 3, 5])
        w1 = rng.choice([w for w in (1, 3, 5, 7, 9, 15, 25) if w >= w2])
        l2 = rng.randint(1, 60)
        try:
            tuples.append(P(l1, l2, w1, w2))
        except ParameterError:
            continue
    for params in tuples:
        assert kruggel_homotopy_equivalent(params, params).overall
    for a, b in zip(tuples, tuples[1:]):
        assert kruggel_homotopy_equivalent(a, b).overall == \
            kruggel_homotopy_equivalent(b, a).overall


def test_kruggel_condition_witnesses():
    verdict = kruggel_homotopy_equivalent(P(5, 21, 1, 1), P(5, 29, 1, 1))
    by_label = {c.label: c for c in verdict.conditions}
    assert by_label["equal_h4_order"].witness == (25, 25)
    assert by_label["l2_mod_2"].witness == (1, 1)
    assert by_label["weight_norm_mod_3m"].witness == (0, 75)
    # 21^3 + 29^3 = 0 mod 25
    assert by_label["linking_cubes_mod_m"].witness == ((21 ** 3 - 29 ** 3) % 25, 0, 25)
    # unequal orders |H^4|: 9 for l1 = 3 and 5 for w1 = 5
    verdict = kruggel_homotopy_equivalent(P(3, 1, 1, 1), P(1, 1, 5, 1))
    assert verdict.conditions[0] == Condition("equal_h4_order", False, (9, 5))


def test_weight_norm_readings_coincide_given_equal_h4():
    # l1^2*(w1+w2)^2 - l1^2*(w1^2+w2^2) = 2*w1*w2*l1^2, so once the H^4
    # orders agree the squared-sum and sum-of-squares readings of the
    # weight-norm difference are literally the same integer
    rng = random.Random(79)
    pairs = 0
    while pairs < 50:
        l1a, l1b = rng.choice([1, 3, 5]), rng.choice([1, 3, 5])
        w1a, w2a = rng.choice([1, 3, 5, 9, 15, 25]), rng.choice([1, 3, 5])
        w1b, w2b = rng.choice([1, 3, 5, 9, 15, 25]), rng.choice([1, 3, 5])
        if w1a < w2a or w1b < w2b:
            continue
        if gcd(w1a, w2a) != 1 or gcd(w1b, w2b) != 1:
            continue
        if w1a * w2a * l1a ** 2 != w1b * w2b * l1b ** 2:
            continue
        sq_sum = l1a ** 2 * (w1a + w2a) ** 2 - l1b ** 2 * (w1b + w2b) ** 2
        sum_sq = l1a ** 2 * (w1a ** 2 + w2a ** 2) - l1b ** 2 * (w1b ** 2 + w2b ** 2)
        assert sq_sum == sum_sq
        pairs += 1


def test_kruggel_parity_condition():
    verdict = kruggel_homotopy_equivalent(P(1, 3, 1, 1), P(1, 4, 1, 1))
    by_label = {c.label: c for c in verdict.conditions}
    assert not by_label["l2_mod_2"].holds
    assert not verdict.overall


def test_kruggel_preconditions():
    with pytest.raises(ParameterError) as err:
        kruggel_homotopy_equivalent(P(4, 21, 1, 1), P(4, 29, 1, 1))
    assert err.value.constraint == "l1 odd"
    with pytest.raises(ParameterError) as err:
        kruggel_homotopy_equivalent(P(1, 3, 2, 1), P(1, 5, 2, 1))
    assert err.value.constraint == "w1 odd"
    with pytest.raises(ParameterError) as err:
        kruggel_homotopy_equivalent(JoinParams(3, 1, 3, 1, 1), JoinParams(3, 1, 5, 1, 1))
    assert err.value.constraint == "p = 2"


def test_verdict_conjunction_invariant():
    with pytest.raises(ValueError):
        ClassificationVerdict("homotopy", True,
                              (Condition("x", False, ()),))


# ----------------------------------------------------------------------
# partitions

def test_partition_examples():
    part = partition_diffeo_types(2, [1, 3, 5, 7, 9])
    assert part.classes == ((1, 5, 9), (3, 7))
    assert part.invalid == ()

    part = partition_diffeo_types(5, [39, 89, 139])
    assert part.classes == ((39, 139), (89,))

    part = partition_diffeo_types(3, [7])
    assert part.classes == ((7,),)

    # a repeated or unsorted value appears once, in order, in its class
    part = partition_diffeo_types(2, [9, 1, 5, 9, 3, 1])
    assert part.classes == ((1, 5, 9), (3,))


def test_partition_reports_invalid_members():
    part = partition_diffeo_types(2, [1, 2, 3, 4, 5])
    assert part.classes == ((1, 5), (3,))
    assert part.invalid == ((2, "gcd(l1,l2) = 1"), (4, "gcd(l1,l2) = 1"))


def test_partition_reports_nonpositive_members():
    part = partition_diffeo_types(3, [0, -2, 4, 3, 5])
    assert part.classes == ((4,), (5,))
    assert part.invalid == ((0, "l2 >= 1"), (-2, "l2 >= 1"), (3, "gcd(l1,l2) = 1"))


def test_partition_lists_bools_and_non_integers_as_invalid():
    # True was a class of its own, and 2.5 and "a" raised unnamed TypeErrors
    # from math.gcd and from <
    part = partition_diffeo_types(5, [True, 3, 2.5, "a", False, 7])
    assert part.classes == ((3,), (7,))
    assert part.invalid == ((True, "l2 >= 1"), (2.5, "l2 >= 1"), ("a", "l2 >= 1"),
                            (False, "l2 >= 1"))


@st.composite
def _l2_ranges(draw):
    l1 = draw(st.integers(1, 400))
    modulus = ks_moduli(l1)[1]
    step = draw(st.sampled_from([1, 2, 3, 7, modulus, 2 * modulus]))
    start = draw(st.integers(-30, 3 * modulus) | st.integers(-3, 3).map(lambda k: k * l1))
    return l1, range(start, start + step * draw(st.integers(0, 1500)), step)


@settings(max_examples=300, deadline=None)
@given(_l2_ranges())
@example((1, range(1, 1)))
@example((6, range(-7, 5, 1)))
@example((7, range(7, 8)))
@example((2, range(2, 500, 2)))
@example((12, range(-300, 30000, 3)))
# steps that share a factor with l1, so the gcd repeats within l1 values; a
# period longer than the range; l1 = 1; ranges that start at or below 0
@example((12, range(1, 3000, 2)))
@example((12, range(5, 3000, 3)))
@example((12, range(3, 3000, 4)))
@example((9999, range(1, 1001)))
@example((1, range(-4, 500, 3)))
@example((12, range(0, 400)))
@example((10, range(-9, 700, 4)))
def test_range_partition_equals_the_loop(case):
    # the closed form against the per-value loop on the same values
    l1, values = case
    fast, slow = partition_diffeo_types(l1, values), partition_diffeo_types(l1, list(values))
    assert all(type(cls) is range for cls in fast.classes)
    assert tuple(tuple(cls) for cls in fast.classes) == slow.classes
    assert len(fast.classes) == len(slow.classes)
    assert len(fast.invalid) == len(slow.invalid)
    assert list(fast.invalid) == list(fast.invalid) == list(slow.invalid)


@pytest.mark.parametrize("l1, values", [(9999, range(1, 30001)), (12, range(-5, 3000, 3)),
                                        (7, range(1, 100))])
def test_range_partition_takes_at_most_one_gcd_a_head(monkeypatch, l1, values):
    # the heads of the first period of gcd(l1, l2) take one gcd each, when the
    # partition is made, the later heads none (the mask repeats), and no pass
    # over its classes or invalid values takes one
    calls = []
    monkeypatch.setattr(classify, "gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    part = partition_diffeo_types(l1, values)
    made = len(calls)
    for _ in range(2):
        assert sum(map(len, part.classes)) + len(list(part.invalid)) == len(values)
    period = l1 // gcd(l1, values.step)
    heads = [(l1, r) for r in values if r >= 1][:period]
    assert len(calls) == made
    assert sorted(calls) == sorted(heads + [(l1, values.step)])


def test_range_partition_at_a_large_modulus_stays_small_in_memory():
    # the modulus at l1 = 9999 is 1,399,720,014, so each valid value heads a
    # class of its own; holding them took about 6.9 MB for these 10**5 values
    values = range(1, 10 ** 5 + 1)
    tracemalloc.start()
    try:
        part = partition_diffeo_types(9999, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert len(part.classes) == sum(1 for _ in part.classes) == 60007
    # more heads than are listed at once: the invalid values are filtered anew
    assert len(part.invalid) == 39993
    assert list(part.invalid) == [(v, "gcd(l1,l2) = 1") for v in values if gcd(9999, v) != 1]


def test_partition_agrees_with_pairwise_predicate():
    rng = random.Random(73)
    for l1 in (2, 3, 5, 7):
        values = sorted(rng.sample([v for v in range(1, 300) if gcd(v, l1) == 1], 30))
        part = partition_diffeo_types(l1, values)
        for cls in part.classes:
            for x, y in zip(cls, cls[1:]):
                assert ks_diffeomorphic(l1, x, y)
        for cls_a, cls_b in zip(part.classes, part.classes[1:]):
            assert not ks_diffeomorphic(l1, cls_a[0], cls_b[0])
        assert list(part.classes) == sorted(part.classes, key=lambda c: c[0])
