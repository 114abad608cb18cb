"""Unit and property tests for the exact polynomial kernel."""

import random
from fractions import Fraction as F
from math import isqrt, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from sasakijoin import exactpoly
from sasakijoin.exactpoly import (
    IntPolynomial,
    SparseQuotient,
    _SQUAREFREE_PRIMES,
    _SQUAREFREE_STEPS,
    _rational_roots_of,
    _squarefree_setup,
    cauchy_root_bound,
    certify_squarefree,
    cubic_discriminant,
    descartes_count,
    intpoly,
    isolate_bracketed_roots,
    isolate_positive_roots,
    poly_derivative,
    poly_divrem,
    poly_eval,
    poly_mul,
    primitive_part,
    rational_roots,
    refine_interval,
    sign_variations,
    split_counts,
    squarefree_decompose,
    sturm_count,
    taylor_shift,
)
from sasakijoin.cscrays import csc_polynomial, csc_rays, deflate_forbidden
from sasakijoin.joinspace import JoinParams

# the p=1 cubic cofactor for (l1, l2, w) = (1, 19, (3,2)) and its neighbour
# at l2 = 18 (the latter written out directly: l2 = 18 is not an admissible
# manifold parameter, but the cubic itself is a perfectly good polynomial)
G19 = intpoly((4, -26, 45, -9))
G18 = intpoly((4, -24, 42, -9))


def random_poly(rng, max_degree=10, bound=50):
    degree = rng.randint(1, max_degree)
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
    return intpoly(coeffs)


# ----------------------------------------------------------------------
# construction and arithmetic

def test_intpoly_canonicalizes():
    assert intpoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert intpoly([]).coeffs == ()
    assert intpoly([0, 0]).is_zero
    with pytest.raises(ValueError):
        intpoly([F(1, 2)])
    with pytest.raises(ValueError):
        IntPolynomial((1, 0))


def test_eval_examples():
    assert poly_eval(G19, F(1, 3)) == 0
    assert poly_eval(G19, F(2, 3)) == 4
    assert poly_eval(intpoly([]), F(7, 3)) == 0


def test_eval_matches_oracle_on_randoms():
    rng = random.Random(101)
    for _ in range(100):
        p = random_poly(rng, max_degree=8, bound=30)
        q = F(rng.randint(-20, 20), rng.randint(1, 20))
        assert poly_eval(p, q) == oracles.horner(p.coeffs, q)


def test_derivative_examples():
    assert poly_derivative(intpoly([0, 0, 1])).coeffs == (0, 2)
    assert poly_derivative(intpoly([5]), 1).is_zero
    assert poly_derivative(intpoly([5]), 3).is_zero
    p = intpoly([1, 2, 3])
    assert poly_derivative(p, 0) == p
    with pytest.raises(ValueError):
        poly_derivative(p, -1)


def test_fourth_derivative_of_ray_polynomial():
    # independent oracle: the classical closed form
    # 2*(1+p)^2*(p+2)*(p*(p+1)*l2 - 2*(3+2p)*l1) evaluates to -144 at
    # (p, l1, l2) = (2, 1, 2) and carries an extra factor (p+1) = 3
    # relative to the constructed polynomial, so the derivative itself
    # is -48 (verified term by term: -1680 + 2520 - 1320 + 432)
    f = csc_polynomial(JoinParams(2, 1, 2, 1, 1)).poly
    direct = poly_eval(poly_derivative(f, 4), 1)
    assert direct == -48
    assert direct * 3 == -144


def test_divrem_examples():
    f = csc_polynomial(JoinParams(1, 1, 19, 3, 2)).poly
    cube = intpoly(oracles.power((-2, 3), 3))
    q, r = poly_divrem(f, cube)
    assert q == tuple(map(F, (4, -26, 45, -9)))
    assert r == ()

    q, r = poly_divrem(intpoly([0, 0, 1]), intpoly([0, 1]))
    assert q == (F(0), F(1)) and r == ()

    f5 = csc_polynomial(JoinParams(1, 1, 5, 1, 1)).poly
    sixth = intpoly(oracles.power((-1, 1), 6))
    q, r = poly_divrem(f5, sixth)
    assert q == (F(-1),) and r == ()

    with pytest.raises(ZeroDivisionError):
        poly_divrem(f5, intpoly([]))


def test_divrem_reconstructs_on_randoms():
    rng = random.Random(7)
    for _ in range(120):
        num = random_poly(rng, 9, 20)
        den = random_poly(rng, 5, 10)
        q, r = poly_divrem(num, den)
        recon = oracles.multiply(q, den.coeffs)
        recon = [a + b for a, b in
                 zip(recon + [F(0)] * len(num.coeffs), list(r) + [F(0)] * len(num.coeffs))]
        assert oracles.strip(recon) == [F(c) for c in num.coeffs]
        assert len(r) < len(den.coeffs)


# ----------------------------------------------------------------------
# square-free decomposition

def test_squarefree_pure_power():
    f5 = csc_polynomial(JoinParams(1, 1, 5, 1, 1)).poly  # -(b-1)^6
    assert squarefree_decompose(f5) == [(intpoly([-1, 1]), 6)]


def test_squarefree_quasiregular_polynomial():
    # f for (p,l1,l2,w) = (1,2,11,(1,1)) carries roots 1/2 and 2 simply and
    # 1 with multiplicity 4; Yun groups the two simple roots in one factor
    f = csc_polynomial(JoinParams(1, 2, 11, 1, 1)).poly
    dec = squarefree_decompose(f)
    assert dec == [(intpoly([2, -5, 2]), 1), (intpoly([-1, 1]), 4)]
    simple = dec[0][0]
    assert poly_eval(simple, F(1, 2)) == 0 and poly_eval(simple, 2) == 0
    assert poly_eval(dec[1][0], 1) == 0


def test_squarefree_trivial_and_errors():
    p = intpoly([-2, 0, 1])
    assert squarefree_decompose(p) == [(p, 1)]
    with pytest.raises(ValueError):
        squarefree_decompose(intpoly([]))


def test_squarefree_reconstruction_randoms():
    rng = random.Random(31)
    for _ in range(150):
        a = random_poly(rng, 4, 8)
        b = random_poly(rng, 3, 6)
        p = poly_mul(poly_mul(a, a), b)
        dec = squarefree_decompose(p)
        recon = [F(1)]
        for fac, mult in dec:
            recon = oracles.multiply(recon, oracles.power(fac.coeffs, mult))
        lead = recon[-1]
        recon = [c / lead for c in recon]
        expect = [F(c) for c in p.coeffs]
        expect = [c / expect[-1] for c in expect]
        assert recon == expect
        for fac, _ in dec:
            assert fac.coeffs[-1] > 0
            assert primitive_part(fac) == fac


def test_squarefree_setup_starts_yun_from_the_chain_gcd():
    rng = random.Random(37)
    cases = [csc_polynomial(JoinParams(1, 2, 11, 1, 1)).poly,
             csc_polynomial(JoinParams(1, 1, 5, 1, 1)).poly,
             poly_mul(intpoly([0, 0, 1]), intpoly([-2, 1, 1]))]
    for _ in range(100):
        a, b, c = random_poly(rng, 3, 8), random_poly(rng, 3, 6), random_poly(rng, 2, 5)
        cases.append(poly_mul(poly_mul(poly_mul(a, a), b), poly_mul(c, poly_mul(c, c))))
    repeated = 0
    for poly in cases:
        cs = primitive_part(poly).coeffs
        p0 = IntPolynomial(cs[next(i for i, c in enumerate(cs) if c):])
        _, chain, factors = _squarefree_setup(poly)
        if chain[0] != p0.coeffs:
            repeated += 1
            assert factors == squarefree_decompose(p0), poly
    assert repeated >= 100


# ----------------------------------------------------------------------
# Taylor shift and Descartes counts

def test_taylor_shift_is_a_shift_by_one():
    rng = random.Random(41)
    for _ in range(100):
        p = random_poly(rng, 9, 40)
        shifted = taylor_shift(p)
        for x in (F(0), F(-3, 2), F(7, 5)):
            assert poly_eval(shifted, x) == poly_eval(p, x + 1)
    assert taylor_shift(intpoly([])) == intpoly([])


def test_descartes_count_examples():
    cubic = intpoly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    assert descartes_count(cubic, 0) == 3
    assert descartes_count(cubic, 0, F(3, 2)) == 1
    assert descartes_count(cubic, F(3, 2), 4) == 2
    assert descartes_count(cubic, 4) == 0
    assert descartes_count(cubic, 1, 2) == 0      # roots at the ends are outside
    assert descartes_count(intpoly([1, 0, 1]), 0) == 0
    for lo, hi in ((-1, 2), (2, 2), (3, 2)):
        with pytest.raises(ValueError):
            descartes_count(cubic, lo, hi)
    with pytest.raises(ValueError):
        descartes_count(intpoly([]), 0)


def test_descartes_count_bounds_the_roots_with_their_parity():
    rng = random.Random(43)
    for _ in range(400):
        p = random_poly(rng, 8, 9)
        lo = F(rng.randint(0, 20), rng.randint(1, 5))
        hi = None if rng.random() < 0.3 else lo + F(rng.randint(1, 20), rng.randint(1, 5))
        roots = 0
        for fac, mult in squarefree_decompose(p):
            inside = sturm_count(fac, lo, hi)
            if hi is not None and poly_eval(fac, hi) == 0:
                inside -= 1
            roots += mult * inside
        count = descartes_count(p, lo, hi)
        assert count >= roots and (count - roots) % 2 == 0, (p, lo, hi)


def _roots_with_multiplicity(poly, lo, hi):
    return sum(mult * sturm_count(fac, lo, hi) for fac, mult in squarefree_decompose(poly))


UNIT_SCALES = st.fractions(F(1, 50), F(49, 50), max_denominator=50)


@st.composite
def _split_cases(draw):
    """(poly, point): simple rational roots on both sides of the point,
    quadratic factors with real or complex roots centred near it."""
    point = draw(st.fractions(F(1, 20), 20, max_denominator=20))
    roots = [point * t for t in draw(st.lists(UNIT_SCALES, max_size=4, unique=True))]
    roots += [point / t for t in draw(st.lists(UNIT_SCALES, max_size=4, unique=True))]
    coeffs = [1]
    for r in roots:
        coeffs = oracles.multiply(coeffs, [-r.numerator, r.denominator])
    for _ in range(draw(st.integers(0, 3))):
        # (x - c)^2 - e: a real pair c +- sqrt(e) for e > 0, else a complex one
        c = point * draw(st.fractions(F(1, 2), F(3, 2), max_denominator=30))
        e = point ** 2 * draw(st.fractions(F(-1, 4), F(1, 4), max_denominator=30).filter(bool))
        cd, ed = c.denominator, e.denominator
        quad = [ed * c.numerator ** 2 - e.numerator * cd ** 2, -2 * ed * cd * c.numerator,
                ed * cd ** 2]
        coeffs = oracles.multiply(coeffs, quad)
    poly = intpoly(coeffs)
    assume(poly_eval(poly, point) != 0)
    return poly, point


@settings(max_examples=200, deadline=None)
@given(_split_cases())
def test_split_counts_bound_the_roots_with_their_parity(case):
    poly, point = case
    for count, (lo, hi) in zip(split_counts(poly, point), ((0, point), (point, None))):
        if count is None:
            continue
        roots = _roots_with_multiplicity(poly, lo, hi)
        assert count >= roots and (count - roots) % 2 == 0, (poly, point, lo)
        if count <= 1:
            assert count == roots


def test_split_counts_examples():
    cubic = intpoly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    assert split_counts(cubic, F(3, 2)) == (1, 2)
    assert split_counts(cubic, F(5, 2)) == (2, 1)
    assert split_counts(cubic, 4) == (3, 0)
    assert split_counts(intpoly([1, 0, 1]), 1) == (0, 0)


def test_split_counts_need_a_settled_tail():
    # 6y^2 - 5 sums twice to [-5, -10, -9], without a sign variation, yet
    # has the root sqrt(5/6) in (0, 1); scaled to any point it still does
    for point in (F(1), F(2), F(1, 3), F(7, 5)):
        n, d = point.numerator, point.denominator
        assert split_counts(intpoly([-5 * n * n, 0, 6 * d * d]), point) == (1, 0), point


def test_split_counts_reject_a_root_and_a_point_not_positive():
    cubic = intpoly([-6, 11, -6, 1])
    for point in (1, 2, 3, 0, -1):
        with pytest.raises(ValueError):
            split_counts(cubic, point)
    with pytest.raises(ValueError):
        split_counts(intpoly([]), 1)


# ----------------------------------------------------------------------
# Sturm counting

def test_sturm_examples():
    assert sturm_count(intpoly([-2, 0, 1]), 0, 2) == 1
    assert sturm_count(G19, 0, None) == 3
    assert sturm_count(G18, 0, None) == 1


def test_sturm_half_open_convention():
    p = intpoly([0, -3, 0, 1])  # roots -sqrt(3), 0, sqrt(3)
    assert sturm_count(p, None, None) == 3
    assert sturm_count(p, 0, None) == 1  # 0 itself excluded
    assert sturm_count(p, -2, 0) == 2    # 0 included
    assert sturm_count(p, F(-1, 7), F(1, 7)) == 1


def test_sturm_counts_distinct_roots_once():
    f = csc_polynomial(JoinParams(1, 2, 11, 1, 1)).poly  # roots 1/2, 1 (x4), 2
    assert sturm_count(f, 0, None) == 3
    assert sturm_count(f, F(3, 4), F(3, 2)) == 1


def test_sturm_input_validation():
    with pytest.raises(ValueError):
        sturm_count(intpoly([]), 0, 1)
    with pytest.raises(ValueError):
        sturm_count(G19, 1, 1)
    with pytest.raises(ValueError):
        sturm_count(G19, 2, 1)


def test_sturm_one_unbounded_side_beyond_the_cauchy_bound():
    p = intpoly(oracles.multiply(oracles.multiply([-1, 1], [-2, 1]), [-3, 1]))
    assert sturm_count(p, 10 ** 6, None) == 0
    assert sturm_count(p, None, -10 ** 6) == 0
    assert sturm_count(p, -10 ** 6, None) == 3
    assert sturm_count(p, None, 10 ** 6) == 3
    assert sturm_count(p, F(5, 2), None) == 1
    assert sturm_count(p, None, F(5, 2)) == 2
    # a constant has no root and no Cauchy bound
    assert sturm_count(intpoly([-7]), None, None) == 0
    assert sturm_count(intpoly([7]), 0, None) == 0


def test_sturm_rejects_float_endpoints():
    with pytest.raises(TypeError):
        sturm_count(G19, 0.5, None)
    with pytest.raises(TypeError):
        sturm_count(G19, None, 2.0)
    with pytest.raises(TypeError):
        sturm_count(G19, float("-inf"), float("inf"))


def test_counts_and_refinement_reject_float_points():
    # a float end used to fail on .numerator, and a float exclude point or
    # width was read as its binary fraction (1.4 is not 7/5); every count,
    # refinement and isolation rejects them alike
    quadratic = intpoly([-2, 0, 1])
    signs = SparseQuotient(poly_mul(quadratic, intpoly([-1, 1])), quadratic, 1)
    for call in (lambda: descartes_count(quadratic, 1, 2.5),
                 lambda: descartes_count(quadratic, 1.0),
                 lambda: split_counts(quadratic, 1.5),
                 lambda: refine_interval(quadratic, 1, 2.5, F(1, 100)),
                 lambda: refine_interval(quadratic, 1, 2, 0.01),
                 lambda: refine_interval(quadratic, 1, 2, F(1, 16), [1.4]),
                 lambda: isolate_positive_roots(quadratic, 1, [1.4]),
                 lambda: isolate_bracketed_roots(quadratic, [(1, 2.0)], signs, 1),
                 lambda: isolate_bracketed_roots(quadratic, [(1, 2)], signs, 1, [1.4])):
        with pytest.raises(TypeError, match="not floats"):
            call()
    assert descartes_count(quadratic, 1, F(5, 2)) == 1
    assert refine_interval(quadratic, 1, 2, F(1, 100)) == (F(181, 128), F(91, 64))
    cleared = isolate_positive_roots(quadratic, 1, [F(7, 5)])
    assert cleared == isolate_bracketed_roots(quadratic, [(1, 2)], signs, 1, [F(7, 5)])
    assert not cleared[0].value.lo <= F(7, 5) <= cleared[0].value.hi


def test_cauchy_bound_dominates_roots():
    rng = random.Random(5)
    for _ in range(80):
        p = random_poly(rng)
        bound = cauchy_root_bound(p)
        assert sturm_count(p, None, None) == sturm_count(p, -bound, bound)


# ----------------------------------------------------------------------
# rational roots

def test_rational_roots_examples():
    assert rational_roots(G19) == [(F(1, 3), 1)]
    f = csc_polynomial(JoinParams(1, 2, 11, 1, 1)).poly
    assert rational_roots(f) == [(F(1, 2), 1), (F(1), 4), (F(2), 1)]
    assert rational_roots(intpoly([-2, 0, 1])) == []


def test_rational_roots_zero_and_negative():
    # x^2 * (2x+3) * (x-2)^2
    p = intpoly(oracles.multiply(oracles.multiply([0, 0, 1], [3, 2]),
                                 oracles.power([-2, 1], 2)))
    assert rational_roots(p) == [(F(-3, 2), 1), (F(0), 2), (F(2), 2)]


def test_rational_roots_match_candidate_scan():
    rng = random.Random(13)
    for _ in range(120):
        p = random_poly(rng, 7, 12)
        found = dict(rational_roots(p))
        brute = {}
        for cand in oracles.rational_candidates(p.coeffs) + [F(0)]:
            if oracles.horner(p.coeffs, cand) == 0:
                mult = 0
                cs = [F(c) for c in p.coeffs]
                while True:
                    q, r = oracles.divmod_poly(cs, [-cand, 1])
                    if r:
                        break
                    mult += 1
                    cs = q
                brute[cand] = mult
        assert found == brute


def test_rational_roots_of_a_certified_squarefree_input_build_no_sturm_chain(monkeypatch):
    # the degree-401 quotient of (200,1,5,3,2), times x^2 (3x - 2), is
    # square-free off 0 by the certificate, so no remainder sequence is built;
    # the quotient of (13,7,1,1,1) has the factor (x+1)^2 and takes Yun's
    chains = []

    def spy(poly):
        chains.append(poly)
        return real(poly)

    real = exactpoly._sturm_chain
    monkeypatch.setattr(exactpoly, "_sturm_chain", spy)
    quotient, _ = deflate_forbidden(csc_polynomial(JoinParams(200, 1, 5, 3, 2)))
    assert rational_roots(quotient) == []
    assert rational_roots(poly_mul(quotient, intpoly([0, 0, -2, 3]))) == [(F(0), 2), (F(2, 3), 1)]
    assert chains == []
    quotient, _ = deflate_forbidden(csc_polynomial(JoinParams(13, 7, 1, 1, 1)))
    assert rational_roots(quotient) == [(F(-1), 2)]
    assert chains


# ----------------------------------------------------------------------
# isolation

def interval_signs(poly_coeffs, record):
    lo, hi = record.value.lo, record.value.hi
    return oracles.horner(poly_coeffs, lo), oracles.horner(poly_coeffs, hi)


def test_isolate_the_threshold_cubic():
    records = isolate_positive_roots(G19)
    assert len(records) == 3
    low, mid, high = records
    assert mid.is_rational and mid.value == F(1, 3) and mid.multiplicity == 1
    # irrational roots are (7 +- sqrt(37))/3, the roots of 3b^2 - 14b + 4
    quad = (4, -14, 3)
    for rec in (low, high):
        assert not rec.is_rational
        assert rec.value.width <= F(1, 10 ** 12)
        a, b = interval_signs(quad, rec)
        assert a * b < 0
    assert low.value.hi < F(1, 3) < high.value.lo


def test_isolate_simple_quadratic():
    records = isolate_positive_roots(intpoly([1, -3, 1]))
    assert [r.is_rational for r in records] == [False, False]
    for rec in records:
        a, b = interval_signs((1, -3, 1), rec)
        assert a * b < 0
    assert records[0].value.hi < 1 < records[1].value.lo


def test_isolate_no_real_roots():
    assert isolate_positive_roots(intpoly([1, 0, 1])) == []
    assert isolate_positive_roots(intpoly([7])) == []


def test_isolate_rejects_bad_input():
    with pytest.raises(ValueError):
        isolate_positive_roots(intpoly([]))
    with pytest.raises(ValueError):
        isolate_positive_roots(G19, precision=0)


def test_isolate_multiplicities_and_mixed_roots():
    # (3x-1)^3 * (x^2-2)^2 * (x+1)
    p = intpoly(oracles.multiply(
        oracles.multiply(oracles.power([-1, 3], 3), oracles.power([-2, 0, 1], 2)),
        [1, 1]))
    records = isolate_positive_roots(p)
    assert len(records) == 2
    first, second = records
    assert first.is_rational and first.value == F(1, 3) and first.multiplicity == 3
    assert not second.is_rational and second.multiplicity == 2
    assert second.value.lo ** 2 < 2 < second.value.hi ** 2


def test_isolation_invariants_on_seeded_randoms():
    rng = random.Random(424242)
    for _ in range(150):
        p = random_poly(rng)
        records = isolate_positive_roots(p, precision=9)
        # completeness
        assert len(records) == sturm_count(p, 0, None)
        # soundness
        for rec in records:
            if rec.is_rational:
                assert poly_eval(p, rec.value) == 0
            else:
                assert sturm_count(p, rec.value.lo, rec.value.hi) == 1
                assert poly_eval(p, rec.value.lo) != 0
                assert poly_eval(p, rec.value.hi) != 0
        # ascending and pairwise disjoint closures
        for a, b in zip(records, records[1:]):
            left = a.value if a.is_rational else a.value.hi
            right = b.value if b.is_rational else b.value.lo
            assert left < right
        # Descartes bound
        with_mult = sum(rec.multiplicity for rec in records)
        assert with_mult <= sign_variations(p.coeffs)


def test_closures_avoid_a_root_at_zero():
    # positive roots within 10^-precision of the root 0: sqrt(1/500), and a
    # root near 0.036 of a quintic sharing no factor with x
    for cs in ((0, 0, -2, 0, 1000), (0, -16, 440, -105, 3, -9, 2)):
        p = intpoly(cs)
        for precision in (1, 2, 3, 12):
            records = isolate_positive_roots(p, precision)
            assert len(records) == sturm_count(p, 0, None)
            for rec in records:
                if not rec.is_rational:
                    lo, hi = rec.value.lo, rec.value.hi
                    assert 0 < lo and hi - lo <= F(1, 10 ** precision)
                    assert sturm_count(p, lo, hi) == 1
                    assert poly_eval(p, lo) != 0 and poly_eval(p, hi) != 0


def test_adjacent_closures_are_separated():
    # 289x^2 - 170x + 23 = (17x - 5)^2 - 2: at one digit the two roots keep
    # their isolating cells, which share the endpoint 81/272, until each is
    # halved once
    records = isolate_positive_roots(intpoly([23, -170, 289]), 1)
    assert [(rec.value.lo, rec.value.hi) for rec in records] == \
        [(F(27, 136), F(135, 544)), (F(189, 544), F(27, 68))]


def test_multiplicity_soundness_by_deflation():
    rng = random.Random(99)
    for _ in range(60):
        p = random_poly(rng, 6, 9)
        extra = intpoly([-rng.randint(1, 9), rng.randint(1, 6)])
        p = poly_mul(p, poly_mul(extra, extra))
        for value, mult in rational_roots(p):
            lin = [-value, 1]
            cs = [F(c) for c in p.coeffs]
            for _ in range(mult):
                cs, r = oracles.divmod_poly(cs, lin)
                assert not r
            _, r = oracles.divmod_poly(cs, lin)
            assert r


def test_oracle_equivalence_200_random_polynomials():
    """Count, order, and rationality agree with a sign-scan bisection oracle."""
    rng = random.Random(987654321)
    for _ in range(200):
        p = random_poly(rng)
        records = isolate_positive_roots(p, precision=10)
        oracles.compare_with_signscan(p.coeffs, records)


# ----------------------------------------------------------------------
# discriminant

def test_cubic_discriminant_threshold():
    assert cubic_discriminant(-9, 45, -26, 4) == 1332
    assert cubic_discriminant(-9, 42, -24, 4) == -48816
    assert cubic_discriminant(1, -3, 3, -1) == 0
    with pytest.raises(ValueError):
        cubic_discriminant(0, 1, 1, 1)


def test_cubic_discriminant_sign_matches_root_count():
    rng = random.Random(55)
    for _ in range(120):
        coeffs = [rng.randint(-9, 9) for _ in range(3)]
        coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = intpoly(coeffs)
        disc = cubic_discriminant(coeffs[3], coeffs[2], coeffs[1], coeffs[0])
        distinct = sturm_count(p, None, None)
        if disc > 0:
            assert distinct == 3
        elif disc < 0:
            assert distinct == 1
        else:
            assert distinct in (1, 2)


# ----------------------------------------------------------------------
# roots known by construction (hypothesis)

# large primes and smooth numbers: the denominators that made divisor search slow
DENOMINATORS = st.one_of(
    st.sampled_from([1, 2, 7, 97, 1_000_003, 2_147_483_647, 10_000_000_000_000_061,
                     2 ** 40, 3 ** 25, 720_720, 2 ** 10 * 3 ** 6 * 5 ** 4]),
    st.integers(1, 10 ** 9))
LINEAR = st.tuples(DENOMINATORS, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 3))


def sign(v):
    return (v > 0) - (v < 0)


def check_interval(record, witness, precision):
    """The interval is narrow enough and brackets a sign change of witness,
    a square-free factor holding the root."""
    iv = record.value
    assert not record.is_rational
    assert iv.width <= F(1, 10 ** precision)
    assert sign(oracles.horner(witness, iv.lo)) * sign(oracles.horner(witness, iv.hi)) < 0


@settings(max_examples=60, deadline=None)
@given(st.lists(LINEAR, min_size=1, max_size=4), st.booleans())
def test_products_of_linear_factors(linears, with_quadratic):
    expected = {}
    coeffs = [1]
    for d, n, m in linears:
        coeffs = oracles.multiply(coeffs, oracles.power([-n, d], m))
        expected[F(n, d)] = expected.get(F(n, d), 0) + m
    if with_quadratic:  # x^2 - 2 adds irrational roots at +-sqrt(2)
        coeffs = oracles.multiply(coeffs, [-2, 0, 1])
    p = intpoly(coeffs)
    assert rational_roots(p) == sorted(expected.items())
    records = isolate_positive_roots(p, precision=15)
    positive = sorted((r, m) for r, m in expected.items() if r > 0)
    assert [(rec.value, rec.multiplicity) for rec in records if rec.is_rational] == positive
    irrational = [rec for rec in records if not rec.is_rational]
    assert len(irrational) == with_quadratic
    for rec in irrational:
        check_interval(rec, (-2, 0, 1), 15)
        assert rec.multiplicity == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50).filter(bool), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 6, 10 ** 6).filter(bool), st.sampled_from([1, 2]),
       st.sampled_from([3, 12, 60, 300]))
def test_irreducible_quadratics(a, b, c, power, precision):
    disc = b * b - 4 * a * c
    if disc <= 0 or isqrt(disc) ** 2 == disc:
        return
    quad = (c, b, a)
    p = intpoly(oracles.power(quad, power))
    assert rational_roots(p) == []
    records = isolate_positive_roots(p, precision)
    # both roots positive when their product and sum are; one when c/a < 0
    positive = 2 if c * a > 0 and -b * a > 0 else (1 if c * a < 0 else 0)
    assert len(records) == positive
    for rec in records:
        check_interval(rec, quad, precision)
        assert rec.multiplicity == power


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 10 ** 12), st.sampled_from([10 ** 6, 10 ** 12, 2 ** 60]),
       st.sampled_from([2, 3, 5]))
def test_near_coincident_pairs(a, scale, k):
    # (scale*x - a)^2 - k: irrational roots (a -+ sqrt(k))/scale, a few
    # 1/scale apart, around the rationals a/scale and (a+1)/scale
    near = (a * a - k, -2 * a * scale, scale * scale)
    rational_pair = oracles.multiply([-a, scale], [-(a + 1), scale])
    p = intpoly(oracles.multiply(near, rational_pair))
    assert rational_roots(p) == [(F(a, scale), 1), (F(a + 1, scale), 1)]
    records = isolate_positive_roots(p, precision=30)
    assert [rec.is_rational for rec in records] == [False, True, True, False]
    assert records[1].value == F(a, scale) and records[2].value == F(a + 1, scale)
    for rec in (records[0], records[3]):
        check_interval(rec, near, 30)
        assert rec.multiplicity == 1
    for left, right in zip(records, records[1:]):
        assert (left.value if left.is_rational else left.value.hi) < right.position


def bisection_cell(coeffs, lo, hi, max_width):
    # the cell of (lo, hi] = (a, a + width] / den that plain bisection reaches
    # at the first level no wider than max_width, on integer signs alone
    den = lo.denominator * hi.denominator
    a = lo.numerator * hi.denominator
    width = hi.numerator * lo.denominator - a
    levels = 0
    while width * max_width.denominator > max_width.numerator * (den << levels):
        levels += 1
    signs = SimpleNamespace(value=lambda x, y: oracles.scaled_sign(coeffs, x, y))
    a, den = oracles.bisection_reference(signs, a, den, width, signs.value(a + width, den), levels)
    return F(a, den), F(a + width, den)


# digits 1 and 2 descend 4-10 levels, mostly inside the plain bisections
# that start quadratic interval refinement
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10 ** 6), st.sampled_from([2, 3, 7, 10 ** 9 + 7]),
       st.sampled_from([1, 2, 5, 40, 200, 1000]))
def test_refinement_reaches_the_bisection_cell(n, k, digits):
    # n^2 x^2 - k has the root sqrt(k)/n in (0, (isqrt(k) + 1)/n]
    coeffs = (-k, 0, n * n)
    hi = F(isqrt(k) + 1, n)
    cell = refine_interval(intpoly(coeffs), F(0), hi, F(1, 10 ** digits))
    assert cell == bisection_cell(coeffs, F(0), hi, F(1, 10 ** digits))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10 ** 4), st.sampled_from([2, 3, 7, 10 ** 9 + 7]),
       st.sampled_from([10 ** 6, 10 ** 12, 2 ** 60]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)), min_size=1, max_size=3,
                unique_by=lambda t: t[0]),
       st.lists(st.tuples(st.integers(2, 4), st.integers(1, 2)), max_size=3,
                unique_by=lambda t: t[0]),
       st.sampled_from([1, 10, 1000]), st.sampled_from([1, 2, 5, 40, 200, 1000]))
def test_refinement_reaches_the_bisection_cell_among_clustered_roots(n, k, scale, below, above,
                                                                     spread, digits):
    # degree 3-8: the root sqrt(k)/n of n^2 x^2 - k lies in (g, g + 1]/scale,
    # at the left of the cell (g, g + spread]/scale; rational roots
    # (g - i)/scale and (g + spread - 1 + i)/scale crowd it, and a root at
    # i = 0 below makes lo = g/scale a root, which bends the secant steps
    assume(sum(m for _, m in below + above) <= 6)
    g = isqrt(k * scale * scale // (n * n))
    coeffs = (-k, 0, n * n)
    for offset, mult in below:
        coeffs = oracles.multiply(coeffs, oracles.power([offset - g, scale], mult))
    for offset, mult in above:
        coeffs = oracles.multiply(coeffs, oracles.power([-(g + spread - 1 + offset), scale], mult))
    lo, hi = F(g, scale), F(g + spread, scale)
    cell = refine_interval(intpoly(coeffs), lo, hi, F(1, 10 ** digits))
    assert cell == bisection_cell(coeffs, lo, hi, F(1, 10 ** digits))


def test_refinement_rejects_a_root_at_the_right_end():
    # x^2 - 1 has its root 1 at hi, where the sign that steers bisection is 0
    with pytest.raises(ValueError, match="end 1 is a root"):
        refine_interval(intpoly([-1, 0, 1]), F(1, 2), F(1), F(1, 10))


def test_refinement_clears_an_excluded_point():
    # the cell of width 1/16 holding sqrt(2) also holds 7/5, and one more
    # level clears it
    quadratic = intpoly([-2, 0, 1])
    assert refine_interval(quadratic, 1, 2, F(1, 16)) == (F(11, 8), F(23, 16))
    assert refine_interval(quadratic, 1, 2, F(1, 16), [F(7, 5)]) == (F(45, 32), F(23, 16))


def test_refinement_rejects_an_excluded_root():
    # no cell holding the root 1 has a closure without 1
    with pytest.raises(ValueError, match="a point of exclude is a root"):
        refine_interval(intpoly([-1, 0, 1]), F(1, 2), F(3, 2), F(1, 10), [F(1)])


def test_refinement_rejects_an_interval_without_a_sign_change():
    # (x^2 - 2)^2 has the double root sqrt(2) in (1, 2] and is positive at both
    # ends, so signs cannot steer bisection towards it
    with pytest.raises(ValueError, match="no sign change"):
        refine_interval(intpoly([4, 0, -4, 0, 1]), F(1), F(2), F(1, 10))


# ----------------------------------------------------------------------
# isolation from brackets, without a remainder sequence

@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 12), min_size=1, max_size=6), st.integers(0, 12),
       st.integers(1, 4), st.integers(1, 30), st.data())
def test_bracketed_isolation_matches_the_sturm_path(units, forced_unit, k, precision, data):
    # one root in each chosen (u, u + 1): sqrt(u^2 + 1), or u + 1/3 where a
    # drawn flag says rational; f multiplies in (2x - 2v - 1)^k, v = forced_unit
    rational = {u for u in units if data.draw(st.booleans())}
    quotient = intpoly([1])
    for u in units:
        factor = [-(3 * u + 1), 3] if u in rational else [-(u * u + 1), 0, 1]
        quotient = poly_mul(quotient, intpoly(factor))
    forced = F(2 * forced_unit + 1, 2)
    f = poly_mul(quotient, intpoly(oracles.power([-(2 * forced_unit + 1), 2], k)))
    brackets = [(F(u), F(u + 1)) for u in sorted(units)]
    signs = SparseQuotient(f, quotient, forced)
    assert certify_squarefree(quotient)
    assert isolate_bracketed_roots(quotient, brackets, signs, precision, [forced]) \
        == isolate_positive_roots(quotient, precision, [forced])


def test_bracketed_isolation_rejects_a_bracket_without_a_sign_change():
    # x^2 - 1 vanishes at the end 1 of the bracket (0, 1)
    quotient = intpoly([-1, 0, 1])
    signs = SparseQuotient(poly_mul(quotient, intpoly([-1, 2])), quotient, F(1, 2))
    with pytest.raises(ValueError, match="ends of a bracket"):
        isolate_bracketed_roots(quotient, [(F(0), F(1))], signs)


def test_squarefree_certificate():
    assert certify_squarefree(intpoly([-2, 0, 1]))
    assert not certify_squarefree(intpoly([4, 0, -4, 0, 1]))     # (x^2 - 2)^2
    assert not certify_squarefree(intpoly([5]))


# a coefficient divisible by this is 0 modulo every prime of the certificate
SQUAREFREE_MODULUS = prod(oracles.SQUAREFREE_PRIMES)


def test_squarefree_certificate_keeps_its_primes():
    # another prime list could move a tuple between the isolation paths
    assert _SQUAREFREE_PRIMES == oracles.SQUAREFREE_PRIMES


def _coefficients(max_degree, bound=60):
    return st.lists(st.integers(-bound, bound), min_size=1, max_size=max_degree + 1)


@settings(max_examples=150, deadline=None)
@given(_coefficients(12), _coefficients(4), st.integers(1, 9),
       st.sampled_from([1, -1, 7, 32749, -32749 * 32719, 32749 * 32719 * 5]),
       st.booleans())
def test_packed_squarefree_certificate_matches_the_list_euclid(h, g, g_lead, lead, square):
    # h*g or h*g^2; a lead divisible by 32749 (and 32719) leaves the decision
    # to a later prime
    h, g = intpoly(h + [lead]), intpoly(g + [g_lead])
    f = poly_mul(h, poly_mul(g, g) if square else g)
    assert certify_squarefree(f) == oracles.squarefree_mod_primes(f.coeffs)
    if square:
        assert not certify_squarefree(f)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40), st.integers(1, 10 ** 6))
def test_squarefree_certificate_on_a_power_of_x_modulo_every_prime(multiples, lead):
    # every coefficient below the leading one is 0 mod l: f = lead * x^n mod l,
    # so gcd(f, f') is a power of x and nothing is certified from degree 2 on
    assume(all(lead % ell for ell in _SQUAREFREE_PRIMES))
    f = intpoly([SQUAREFREE_MODULUS * k for k in multiples] + [lead])
    assert certify_squarefree(f) == oracles.squarefree_mod_primes(f.coeffs)
    assert certify_squarefree(f) == (f.degree == 1)


def _long_remainder(n, d, low, lead=1, square=True):
    """lead*x^n + (x+1)^2*low(x) - lead*(-1)^n*(1 - n - n*x), deg low = d - 2,
    which has the double root -1 (without the last term when not square).
    Modulo l its remainder by its derivative has degree d, so the next
    remainder takes n - d steps of Euclid on the derivative."""
    coeffs = list(poly_mul(intpoly([1, 2, 1]), intpoly(low)).coeffs) + [0] * (n - d - 1)
    if square:
        coeffs[0] -= lead * (-1) ** n * (1 - n)
        coeffs[1] += lead * (-1) ** n * n
    return intpoly(coeffs + [lead])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(-2, 2), st.integers(4, 12), st.data())
def test_squarefree_certificate_across_the_reduction_interval(times, offset, d, data):
    # a remainder of n - d = times * _SQUAREFREE_STEPS + offset steps crosses
    # the periodic reduction of the slots, or stops just short of it
    n = times * _SQUAREFREE_STEPS + offset + d
    low = data.draw(st.lists(st.integers(-30, 30), min_size=d - 2, max_size=d - 2)) + [1]
    square = data.draw(st.booleans())
    f = _long_remainder(n, d, low, square=square)
    assert certify_squarefree(f) == oracles.squarefree_mod_primes(f.coeffs)
    if square:
        assert not certify_squarefree(f)


def test_squarefree_certificate_at_degree_above_two_thousand():
    # the p = 1000 ray quotient, certified, as by the list Euclid
    quotient, _ = deflate_forbidden(csc_polynomial(JoinParams(1000, 1, 5, 3, 2)))
    assert quotient.degree > 2000
    assert certify_squarefree(quotient) and oracles.squarefree_mod_primes(quotient.coeffs)
    # about 2,400 products reach each middle slot in one remainder, past the
    # 2**24 * l that one Barrett quotient reduces: only the periodic reduction
    # keeps the double root -1 found; the lead leaves l = 32717 to decide
    rng = random.Random(16)
    low = [rng.randint(-9, 9) for _ in range(2398)] + [1]
    f = _long_remainder(4800, 2400, low, lead=32749 * 32719)
    assert f.degree > 2000 and not certify_squarefree(f)


# ----------------------------------------------------------------------
# the rational-root search by p-adic lifting

# denominators above 31, and products of small primes, which the search
# skips (the last two are divisible by every prime up to 31 and up to 97,
# so the last sends the walk past 97)
CERT_DENOMINATORS = st.one_of(
    st.sampled_from([37, 97, 1_000_003, 2_147_483_647, 2 ** 10 * 31,
                     2 * 3 * 5 * 7 * 11 * 13, 200_560_490_130,
                     2_305_567_963_945_518_424_753_102_147_331_756_070]),
    st.integers(1, 10 ** 6))
SMALL_COFACTOR = st.lists(st.integers(-30, 30), min_size=1, max_size=8).filter(lambda cs: cs[-1])


def scanned_roots(coeffs):
    """The rational roots of an integer polynomial, ascending, by evaluating
    every candidate of the rational root theorem, and 0."""
    return sorted(c for c in oracles.rational_candidates(coeffs) + [F(0)]
                  if oracles.horner(coeffs, c) == 0)


@settings(max_examples=100, deadline=None)
@given(CERT_DENOMINATORS, st.integers(-10 ** 6, 10 ** 6), SMALL_COFACTOR)
def test_search_finds_a_constructed_rational_root(d, n, cofactor):
    poly = poly_mul(intpoly((-n, d)), intpoly(cofactor))
    expected = sorted({F(n, d), *scanned_roots(cofactor)})
    assert [r for r, _ in rational_roots(poly)] == expected


@settings(max_examples=200, deadline=None)
@given(SMALL_COFACTOR, st.none() | st.tuples(st.integers(1, 12), st.integers(-12, 12)))
def test_search_agrees_with_a_divisor_scan(cofactor, linear):
    poly = intpoly(cofactor)
    if linear:
        poly = poly_mul(poly, intpoly((-linear[1], linear[0])))
    assert [r for r, _ in rational_roots(poly)] == scanned_roots(poly.coeffs)


@pytest.mark.parametrize("linears", [
    [(1, 1), (3, 1)],               # one double root mod 2
    [(1, 1), (4, 1), (1, 2)],       # lc 2, and one double root mod 3
    [(-5, 1), (1, 1), (7, 1)],      # one triple root mod 2 and mod 3
    [(1, 1), (211, 1)],             # one double root mod 2, 3, 5 and 7
    [(1, 3), (90091, 3)],           # lc 9, and one double root mod 2, 5, 7, 11, 13
])
def test_search_skips_primes_with_repeated_roots(linears):
    poly = intpoly([1])
    for n, d in linears:
        poly = poly_mul(poly, intpoly((-n, d)))
    assert rational_roots(poly) == [(F(n, d), 1) for n, d in sorted(linears, key=lambda t: F(*t))]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(-50, 50), st.sampled_from([2, 6, 30, 210, 2310]),
       st.integers(-3, 3).filter(bool), SMALL_COFACTOR)
def test_search_finds_roots_that_collide_modulo_small_primes(d, n, m, k, cofactor):
    # n/d and n/d + m*k agree modulo every prime that divides m and not d
    poly = poly_mul(poly_mul(intpoly((-n, d)), intpoly((-n - d * m * k, d))), intpoly(cofactor))
    expected = sorted({F(n, d), F(n, d) + m * k, *scanned_roots(cofactor)})
    assert [r for r, _ in rational_roots(poly)] == expected


def test_no_rational_root_on_the_degree_801_ray_quotient():
    # the quotient of (400,1,5,3,2) has a root modulo every prime up to 37
    # that does not divide lc (3 does), so the search must lift, here the
    # simple root 1 mod 5.  rational_roots would first build the Sturm chain,
    # tens of seconds at this degree; the search needs only square-freeness
    quotient, _ = deflate_forbidden(csc_polynomial(JoinParams(400, 1, 5, 3, 2)))
    sf = primitive_part(quotient)
    primes = (2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert all(any(oracles.horner(sf.coeffs, x) % ell == 0 for x in range(ell)) for ell in primes)
    assert certify_squarefree(quotient) and _rational_roots_of(sf) == []
    report = csc_rays(JoinParams(400, 1, 5, 3, 2))
    assert [(ray.record.value.lo, ray.record.value.hi) for ray in report.rays] == [
        (F(2199023255549, 8796093022208), F(29686813949981, 118747255799808)),
        (F(52776161310833, 79164837199872), F(79164241966319, 118747255799808)),
        (F(554153860399043, 237494511599616), F(92358976733197, 39582418599936)),
    ]
    assert all(ray.ray_class == "irregular" for ray in report.rays)
