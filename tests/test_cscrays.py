"""Tests for ray-polynomial construction, deflation, and CSC ray reports."""

import hashlib
import random
import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from sasakijoin import cscrays, exactpoly
from sasakijoin.cscrays import (
    THRESHOLD_WIDTH,
    InternalInvariantError,
    _raw_coefficients,
    csc_cubic_p1,
    csc_polynomial,
    csc_rays,
    deflate_forbidden,
    fourth_derivative_at_one,
    min_l2_multiple_csc,
    quasireg_family,
    ray_threshold,
    threshold_ray_counts,
    wz_threshold,
)
from sasakijoin.exactpoly import (
    RationalInterval,
    RootRecord,
    _sturm_chain,
    cubic_discriminant,
    deflate_linear,
    descartes_count,
    intpoly,
    isolate_positive_roots,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_sub,
    rational_roots,
    sturm_count,
)
from sasakijoin.joinspace import JoinParams, ParameterError, c1_coefficient


def sample_params(rng, count, p_max=5, entry_max=15, homogeneous=None):
    out = []
    while len(out) < count:
        p = rng.randint(1, p_max)
        l1 = rng.randint(1, entry_max)
        l2 = rng.randint(1, entry_max)
        if homogeneous is True:
            w1 = w2 = 1
        else:
            w2 = rng.randint(1, entry_max)
            w1 = rng.randint(w2, entry_max)
            if homogeneous is False and w1 == w2:
                continue
        try:
            out.append(JoinParams(p, l1, l2, w1, w2))
        except ParameterError:
            continue
    return out


# ----------------------------------------------------------------------
# construction

def test_polynomial_for_threshold_example():
    fp = csc_polynomial(JoinParams(1, 1, 19, 3, 2))
    assert fp.poly.coeffs == (-32, 352, -1512, 3204, -3456, 1701, -243)
    assert fp.forbidden_root == F(2, 3)
    # triple root at the forbidden value
    for order in range(3):
        assert poly_eval(poly_derivative(fp.poly, order), F(2, 3)) == 0
    assert poly_eval(poly_derivative(fp.poly, 3), F(2, 3)) != 0


def test_polynomial_degenerate_sixth_power():
    fp = csc_polynomial(JoinParams(1, 1, 5, 1, 1))
    assert fp.poly.coeffs == (-1, 6, -15, 20, -15, 6, -1)


def test_polynomial_slot_pattern_p2():
    fp = csc_polynomial(JoinParams(2, 1, 5, 3, 1))
    assert fp.poly.degree == 8
    nonzero = {i for i, c in enumerate(fp.poly.coeffs) if c}
    assert nonzero == {8, 7, 5, 4, 3, 1, 0}
    assert fp.poly.coeffs[0] < 0 and fp.poly.coeffs[-1] < 0


def test_cubic_cofactor_identity():
    g = csc_cubic_p1(1, 19, 3, 2)
    assert g.coeffs == (4, -26, 45, -9)
    cube = oracles.power((-2, 3), 3)
    product = oracles.multiply(cube, g.coeffs)
    f = csc_polynomial(JoinParams(1, 1, 19, 3, 2)).poly
    assert oracles.strip(product) == [F(c) for c in f.coeffs]
    # boundary value 3*l1*w2^2*(w1-w2)/w1
    assert poly_eval(g, F(2, 3)) == F(3 * 1 * 4 * 1, 3)


def test_cubic_cofactor_identity_on_samples():
    rng = random.Random(83)
    for params in sample_params(rng, 40, p_max=1, homogeneous=None):
        g = csc_cubic_p1(params.l1, params.l2, params.w1, params.w2)
        cube = oracles.power((-params.w2, params.w1), 3)
        product = oracles.strip(oracles.multiply(cube, g.coeffs))
        f = csc_polynomial(params).poly
        assert product == [F(c) for c in f.coeffs]


def test_boundary_signs_always_negative():
    rng = random.Random(89)
    for params in sample_params(rng, 80):
        poly = csc_polynomial(params).poly
        assert poly.coeffs[0] == -params.l1 * params.w2 ** (2 * params.p + 3)
        assert poly.coeffs[-1] == -params.l1 * params.w1 ** (2 * params.p + 3)


def test_palindrome_for_homogeneous_weights():
    rng = random.Random(97)
    for params in sample_params(rng, 60, p_max=6, entry_max=12, homogeneous=True):
        coeffs = csc_polynomial(params).poly.coeffs
        assert coeffs == coeffs[::-1]


def test_weight_swap_reversal_identity():
    # reversing the coefficient vector swaps the weight arguments exactly
    rng = random.Random(101)
    for _ in range(60):
        p = rng.randint(1, 5)
        l1, l2 = rng.randint(1, 15), rng.randint(1, 15)
        w1, w2 = rng.randint(1, 15), rng.randint(1, 15)
        direct = _raw_coefficients(p, l1, l2, w1, w2)
        swapped = _raw_coefficients(p, l1, l2, w2, w1)
        assert direct == swapped[::-1]


# ----------------------------------------------------------------------
# closed form and thresholds

def test_fourth_derivative_closed_form_values():
    assert fourth_derivative_at_one(1, 1, 5) == 0
    assert fourth_derivative_at_one(1, 1, 6) == 48
    assert fourth_derivative_at_one(2, 1, 2) == -144


def test_fourth_derivative_scaled_identity():
    # the closed form is (p+1) times the derivative of the constructed
    # polynomial; the sign is what the threshold logic consumes
    rng = random.Random(103)
    for params in sample_params(rng, 60, p_max=6, entry_max=12, homogeneous=True):
        poly = csc_polynomial(params).poly
        direct = poly_eval(poly_derivative(poly, 4), 1)
        closed = fourth_derivative_at_one(params.p, params.l1, params.l2)
        assert closed == (params.p + 1) * direct


def test_threshold_values():
    assert wz_threshold(1, 1) == 5
    assert wz_threshold(2, 1) == F(7, 3)
    assert wz_threshold(5, 1) == F(13, 15)
    assert wz_threshold(3, 2) == F(3)
    with pytest.raises(ParameterError):
        wz_threshold(0, 1)


def test_threshold_matches_closed_form_sign():
    rng = random.Random(107)
    for params in sample_params(rng, 120, p_max=6, entry_max=12, homogeneous=True):
        closed = fourth_derivative_at_one(params.p, params.l1, params.l2)
        above = params.l2 > wz_threshold(params.p, params.l1)
        assert (closed > 0) == above


# ----------------------------------------------------------------------
# deflation

def test_deflate_examples():
    fp = csc_polynomial(JoinParams(1, 1, 19, 3, 2))
    quotient, k = deflate_forbidden(fp)
    assert quotient.coeffs == (4, -26, 45, -9) and k == 3

    fp = csc_polynomial(JoinParams(1, 1, 5, 1, 1))
    quotient, k = deflate_forbidden(fp)
    assert quotient.coeffs == (-1,) and k == 6

    fp = csc_polynomial(JoinParams(1, 2, 11, 1, 1))
    quotient, k = deflate_forbidden(fp)
    assert quotient.coeffs == (-2, 5, -2) and k == 4
    assert poly_eval(quotient, F(1, 2)) == 0 and poly_eval(quotient, 2) == 0


def test_deflation_floors_on_samples():
    rng = random.Random(109)
    for params in sample_params(rng, 120):
        quotient, k = deflate_forbidden(csc_polynomial(params))
        if params.w1 == params.w2:
            assert k >= 4
        else:
            assert k >= 3
        forbidden = F(params.w2, params.w1)
        assert poly_eval(quotient, forbidden) != 0


def test_deflate_rejects_malformed_polynomial():
    from sasakijoin.cscrays import CscPolynomial
    params = JoinParams(1, 1, 19, 3, 2)
    bogus = CscPolynomial(intpoly((1, 1)), params, F(2, 3))
    with pytest.raises(InternalInvariantError):
        deflate_forbidden(bogus)


def test_positive_root_mass_at_most_six():
    rng = random.Random(113)
    for params in sample_params(rng, 100):
        poly = csc_polynomial(params).poly
        records = isolate_positive_roots(poly, precision=6)
        assert sum(r.multiplicity for r in records) <= 6


# ----------------------------------------------------------------------
# ray reports

def test_rays_threshold_example():
    report = csc_rays(JoinParams(1, 1, 19, 3, 2))
    assert not report.weyl_paired
    assert report.unreduced_count == 3 and report.reduced_count == 3
    classes = [ray.ray_class for ray in report.rays]
    assert classes == ["irregular", "quasi-regular", "irregular"]
    assert report.rays[1].record.value == F(1, 3)
    # irregular rays sit at the roots of 3b^2 - 14b + 4
    for ray in (report.rays[0], report.rays[2]):
        iv = ray.record.value
        assert iv.width <= F(1, 10 ** 12)
        lo_sign = oracles.horner((4, -14, 3), iv.lo)
        hi_sign = oracles.horner((4, -14, 3), iv.hi)
        assert lo_sign * hi_sign < 0


def test_rays_homogeneous_pairing():
    report = csc_rays(JoinParams(1, 1, 6, 1, 1))
    assert report.weyl_paired
    assert report.unreduced_count == 3 and report.reduced_count == 2
    classes = [ray.ray_class for ray in report.rays]
    assert classes == ["irregular", "regular", "irregular"]
    assert report.rays[1].record.multiplicity == 4
    low, high = report.rays[0].record.value, report.rays[2].record.value
    # reciprocal pair around 1: intervals invert into one another
    assert low.hi < 1 < high.lo
    assert 1 / high.hi < low.hi and low.lo < 1 / high.lo


def test_homogeneous_rays_build_one_remainder_sequence():
    # below the branch path's degree, isolation builds the Sturm chain; the
    # pairing's root count reuses it
    params = JoinParams(cscrays._BRANCH_MIN_P - 1, 1, 3, 1, 1)
    assert params.l2 > wz_threshold(params.p, params.l1)
    _sturm_chain.cache_clear()
    report = csc_rays(params)
    assert report.reduced_count == 2 and report.rays[0].ray_class == "irregular"
    info = _sturm_chain.cache_info()
    assert info.misses == 1 and info.hits == 1


@pytest.mark.parametrize("tup", [(82, 1, 5, 3, 2), (88, 1, 4, 1, 1)])
def test_high_degree_rays_build_no_remainder_sequence(tup):
    # the rays are bracketed on the branches of R, and the pairing of
    # w = (1,1) is checked by signs, so no Sturm chain is built
    _sturm_chain.cache_clear()
    report = csc_rays(JoinParams(*tup))
    assert report.unreduced_count == 3
    info = _sturm_chain.cache_info()
    assert info.misses == 0 and info.hits == 0


@pytest.mark.parametrize("tup", [(12, 26, 9, 1, 1), (40, 820, 83, 1, 1), (120, 2420, 81, 1, 1)])
def test_rows_at_the_wang_ziller_threshold_build_no_remainder_sequence(monkeypatch, tup):
    # at t = t* the reciprocal pair merges into the regular ray (k = 6), and
    # the certified structure of R leaves the quotient no positive root
    params = JoinParams(*tup)
    assert wz_threshold(params.p, params.l1) == params.l2
    _sturm_chain.cache_clear()
    report = csc_rays(params)
    assert _sturm_chain.cache_info().misses == 0
    assert report.unreduced_count == 1 and report.rays[0].record.multiplicity == 6
    monkeypatch.setattr(cscrays, "_BRANCH_MIN_P", params.p + 1)
    assert repr(csc_rays(params)) == repr(report)


BRANCH_WEIGHTS = [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (5, 3)]
# a 14-digit prime, so that l2/l1 can come within 10**-12 of t*
NEAR_L1 = 10_000_000_000_037


@st.composite
def _branch_degree_tuples(draw):
    """(params, precision) from the branch path's degrees up to p = 40: small
    (l1, l2) on either side of t*, l2/l1 within 10**-12 of t* or equal to it,
    or a rational root r != w2/w1, for which l2/l1 = R(r) (p <= 24 there: the
    Sturm path takes about a second at p = 40 on such large l1 and l2)."""
    kind = draw(st.sampled_from(["small", "near", "rational"]))
    p = draw(st.integers(cscrays._BRANCH_MIN_P, 24 if kind == "rational" else 40))
    w1, w2 = draw(st.sampled_from(BRANCH_WEIGHTS))
    if kind == "small":
        l1, l2 = draw(st.integers(1, 30)), draw(st.integers(1, 60))
    elif kind == "near":
        threshold = ray_threshold(p, w1, w2)
        lo, hi = (threshold, threshold) if w1 == w2 else (threshold.lo, threshold.hi)
        if w1 == w2 and draw(st.booleans()):
            l1, l2 = lo.denominator, lo.numerator
        else:
            l1 = NEAR_L1
            l2 = draw(st.sampled_from([int(lo * l1) - 1, int(lo * l1), int(hi * l1) + 1,
                                       int(hi * l1) + 2]))
    else:
        r = draw(st.sampled_from([F(1, 3), F(1, 2), F(5, 4), F(2), F(3)]))
        assume(r != F(w2, w1))
        t = -poly_eval(intpoly(_raw_coefficients(p, 1, 0, w1, w2)), r) \
            / poly_eval(intpoly(_raw_coefficients(p, 0, 1, w1, w2)), r)
        assume(t > 0)
        l1, l2 = t.denominator, t.numerator
    try:
        params = JoinParams(p, l1, l2, w1, w2)
    except ParameterError:
        assume(False)
    return params, draw(st.integers(1, 12))


@settings(max_examples=40, deadline=None)
@given(_branch_degree_tuples())
def test_branch_path_reports_equal_the_sturm_path(case):
    params, precision = case
    report = csc_rays(params, precision)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cscrays, "_BRANCH_MIN_P", params.p + 1)
        assert repr(report) == repr(csc_rays(params, precision))


def test_rays_quasiregular_family_case():
    report = csc_rays(JoinParams(1, 2, 11, 1, 1))
    values = [(ray.ray_class, ray.record.value) for ray in report.rays]
    assert values == [("quasi-regular", F(1, 2)), ("regular", F(1)),
                      ("quasi-regular", F(2))]
    assert report.unreduced_count == 3 and report.reduced_count == 2


def test_rays_unique_when_chern_nonpositive():
    report = csc_rays(JoinParams(1, 5, 1, 3, 2))
    assert report.unreduced_count == 1 and report.reduced_count == 1
    assert report.rays[0].ray_class == "irregular"


def test_rays_below_threshold_only_regular():
    report = csc_rays(JoinParams(2, 1, 2, 1, 1))
    assert report.unreduced_count == 1 and report.reduced_count == 1
    assert report.rays[0].ray_class == "regular"


def test_rays_degenerate_boundary_multiplicity():
    report = csc_rays(JoinParams(1, 1, 5, 1, 1))
    assert report.unreduced_count == 1 and report.reduced_count == 1
    only = report.rays[0]
    assert only.ray_class == "regular" and only.record.multiplicity == 6


def test_ray_classes_match_rationality():
    rng = random.Random(127)
    for params in sample_params(rng, 60, p_max=3, entry_max=10):
        report = csc_rays(params, precision=6)
        for ray in report.rays:
            if ray.ray_class == "regular":
                assert params.w1 == params.w2 == 1
                assert ray.record.value == 1
            elif ray.ray_class == "quasi-regular":
                assert ray.record.is_rational
            else:
                assert not ray.record.is_rational


def test_threshold_law_for_homogeneous_weights():
    for p in range(1, 6):
        for l1 in range(1, 7):
            threshold = wz_threshold(p, l1)
            for l2 in range(1, 61):
                if gcd(l1, l2) != 1:
                    continue
                report = csc_rays(JoinParams(p, l1, l2, 1, 1), precision=4)
                expected = 2 if l2 > threshold else 1
                assert report.reduced_count == expected, (p, l1, l2)


def test_unique_ray_when_chern_nonpositive_small_scan():
    rng = random.Random(131)
    checked = 0
    while checked < 60:
        params = sample_params(rng, 1, p_max=4, entry_max=8, homogeneous=False)[0]
        if c1_coefficient(params) > 0:
            continue
        report = csc_rays(params, precision=4)
        assert report.unreduced_count == 1
        checked += 1


# ----------------------------------------------------------------------
# sweeps and special families

def test_min_l2_examples():
    assert min_l2_multiple_csc(1, 1, 3, 2, 30) == 19
    assert min_l2_multiple_csc(1, 1, 1, 1, 10) == 6
    assert min_l2_multiple_csc(2, 1, 1, 1, 10) == 3
    assert min_l2_multiple_csc(1, 1, 3, 2, 10) is None
    with pytest.raises(ParameterError):
        min_l2_multiple_csc(1, 1, 3, 2, 0)
    with pytest.raises(ParameterError):
        min_l2_multiple_csc(1, 1, 2, 3, 10)


def test_min_l2_certifies_its_family_once():
    # l2 = 9 gives t = t* = 9/26 exactly, so csc_rays takes that row on the
    # branch path, which reads the certificate ray_threshold cached
    assert min_l2_multiple_csc(12, 26, 1, 1, 12) == 11
    assert cscrays._certified_structure.cache_info().misses == 1


def test_min_l2_rejects_with_the_join_constraint():
    for args, constraint in (((0, 1, 3, 2), "p >= 1"), ((1, 0, 3, 2), "l1 >= 1"),
                             ((1, 1, 2, 3), "w1 >= w2"), ((1, 1, 4, 2), "gcd(w1,w2) = 1")):
        with pytest.raises(ParameterError) as info:
            min_l2_multiple_csc(*args, 10)
        assert info.value.constraint == constraint


def test_quasiregular_family_small_p():
    assert quasireg_family(1) == (2, 11)
    assert quasireg_family(2) == (26, 71)
    for p in (1, 2, 3):
        l1, l2 = quasireg_family(p)
        assert gcd(l1, l2) == 1
        poly = csc_polynomial(JoinParams(p, l1, l2, 1, 1)).poly
        roots = dict(rational_roots(poly))
        assert {F(1, 2), F(1), F(2)} <= set(roots)
    with pytest.raises(ParameterError):
        quasireg_family(0)


def test_quasiregular_family_solves_the_linear_identity():
    for p in range(1, 7):
        l1, l2 = quasireg_family(p)
        a = 2 * (1 + 2 ** p * (2 ** (p + 2) - (p * p + 2 * p + 5)))
        b = -1 + 2 ** (p + 1) * (2 ** (p + 2) - (2 * p + 3))
        assert a * l2 == b * l1


def test_prime_l1_without_factoring():
    # a 17-digit prime l1 took ~17 s of trial division with divisor search
    start = time.perf_counter()
    for params in (JoinParams(1, 10_000_000_000_000_061, 2, 1, 1),
                   JoinParams(2, 10_000_000_000_000_061, 5, 3, 2)):
        report = csc_rays(params)
        quotient, _ = deflate_forbidden(csc_polynomial(params))
        for ray in report.rays:
            if not ray.record.is_rational:
                iv = ray.record.value
                assert sturm_count(quotient, iv.lo, iv.hi) == 1
    assert time.perf_counter() - start < 5


def test_pairing_with_interval_reaching_zero():
    # at one digit the root near 0.04 keeps the cell (0, 95/1024]
    report = csc_rays(JoinParams(2, 1, 25, 1, 1), precision=1)
    assert report.unreduced_count == 3 and report.reduced_count == 2
    low = report.rays[0].record.value
    assert low.lo == 0 and low.width <= F(1, 10)


@pytest.mark.parametrize("l2", [5, 6])
@pytest.mark.parametrize("precision", [0, 1001])
def test_precision_checked_even_for_a_constant_quotient(l2, precision):
    # at l2 = 5 the ray polynomial is -(b-1)^6 and the quotient is constant
    with pytest.raises(ValueError, match="precision"):
        csc_rays(JoinParams(1, 1, l2, 1, 1), precision)


def _interval(lo, hi):
    return RootRecord(RationalInterval(lo, hi), 1, False)


# The quotient of (1,1,6,1,1) is -b^2 + 3b - 1, with roots (3 -+ sqrt(5))/2,
# about 0.382 and 2.618; each case hands csc_rays records that break pairing.
@pytest.mark.parametrize("records, message", [
    ([RootRecord(F(1, 2), 1, True)], "balance"),
    ([RootRecord(F(1, 2), 1, True), _interval(F(2), F(3))], "rationality"),
    ([RootRecord(F(1, 2), 1, True), RootRecord(F(3), 1, True)], "not reciprocal"),
    ([_interval(F(1, 4), F(1, 3)), _interval(F(5), F(6))], "fails to isolate"),
    # (1/3, 2/5] inverts to [5/2, 3), which meets (11/4, 4] only past 2.618
    ([_interval(F(1, 3), F(2, 5)), _interval(F(11, 4), F(4))], "fails to isolate"),
], ids=["unpartnered", "rationality", "rationals", "disjoint", "rootless-overlap"])
def test_pairing_certificate_rejects_broken_records(monkeypatch, records, message):
    monkeypatch.setattr(cscrays, "isolate_positive_roots",
                        lambda poly, precision, exclude: records)
    with pytest.raises(InternalInvariantError, match=message):
        csc_rays(JoinParams(1, 1, 6, 1, 1))


def test_branch_path_pairing_rejects_a_rootless_partner(monkeypatch):
    # at (40,1,3,1,1) and precision 2 the low ray's interval inverts to about
    # (3.903, 4.029) and the partner root lies above 4189105/1048576; a partner
    # interval below that overlaps the inverse without a sign change
    records = [_interval(F(260245, 1048576), F(8395, 32768)),
               _interval(F(32768, 8395), F(4189105, 1048576))]
    monkeypatch.setattr(cscrays, "isolate_bracketed_roots", lambda *args: records)
    with pytest.raises(InternalInvariantError, match="fails to isolate"):
        csc_rays(JoinParams(40, 1, 3, 1, 1), 2)


def _uncertified(p, w1, w2):
    raise InternalInvariantError(f"the family ({p}, {w1}, {w2}) is not certified")


@pytest.mark.parametrize("tup", [(40, 1, 3, 1, 1), (40, 1, 5, 3, 2)])
@pytest.mark.parametrize("patch", [("certify_squarefree", lambda poly: False),
                                   ("_certified_structure", _uncertified),
                                   ("_SEPARATOR_LEVELS", 0)],
                         ids=["squarefree", "structure", "separator"])
def test_branch_path_falls_back_when_a_certificate_fails(monkeypatch, tup, patch):
    report = repr(csc_rays(JoinParams(*tup)))
    monkeypatch.setattr(cscrays, *patch)
    _sturm_chain.cache_clear()
    assert repr(csc_rays(JoinParams(*tup))) == report
    # the Sturm path ran, except that no separator is sought for w = (1,1)
    separator_only = patch[0] == "_SEPARATOR_LEVELS" and tup[3] == tup[4]
    assert _sturm_chain.cache_info().misses == (0 if separator_only else 1)


@pytest.mark.parametrize("power", [1, 2], ids=["simple-roots", "double-roots"])
def test_excluded_point_is_cleared_after_the_other_finishing_steps(power):
    # 100x^2 - 190x + 89 has the roots (19 -+ sqrt(5))/20, about 0.838 and 1.062;
    # the signs of its square, which do not change there, must not steer bisection
    poly = intpoly([1])
    for _ in range(power):
        poly = poly_mul(poly, intpoly([89, -190, 100]))
    first, second = isolate_positive_roots(poly, 1, [F(1)])
    assert first == RootRecord(RationalInterval(F(261, 320), F(29, 32)), power, False)
    # the first sub-cell of (319/320, 87/80] whose closure does not hold 1
    assert second == RootRecord(RationalInterval(F(667, 640), F(87, 80)), power, False)


def _closure_holds(ray, point):
    rec = ray.record
    return not rec.is_rational and rec.value.lo <= point <= rec.value.hi


def test_no_closure_holds_the_forced_root():
    # as l2/l1 grows one root of the quotient approaches w2/w1
    small = [(p, l1, l2, precision) for p in (1, 2, 3) for l1 in (1, 2, 3)
             for l2 in range(1, 40) for precision in (1, 2, 3)]
    large = [(p, 1, l2, 12) for p in (1, 2, 3) for e in range(9, 16)
             for l2 in range(10 ** e + 1, 10 ** e + 8)]
    for w1, w2 in ((1, 1), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (5, 3)):
        for p, l1, l2, precision in small + large:
            try:
                params = JoinParams(p, l1, l2, w1, w2)
            except ParameterError:
                continue
            report = csc_rays(params, precision)
            assert not any(_closure_holds(ray, F(w2, w1)) for ray in report.rays), \
                (params, precision)


# ----------------------------------------------------------------------
# the three-ray threshold t*(p, w1, w2)

def test_criterion_8_holds_for_every_l1_and_l2():
    # c1 <= 0 exactly when t = l2/l1 <= t0 = (w1+w2)/(p+1).  With the family's
    # structure certified (R = -B/A continuous on (0, w2/w1), +oo at both
    # ends), f at t0 having no root there puts R above t0 on (0, w2/w1), so
    # every t <= t0 leaves only the one root above w2/w1.
    families = [(p, w1, w2) for p in range(1, 13) for w1 in range(2, 21)
                for w2 in range(1, w1) if gcd(w1, w2) == 1]
    assert len(families) == 1524
    for p, w1, w2 in families:
        cscrays._certified_structure(p, w1, w2)
        f = intpoly(_raw_coefficients(p, p + 1, w1 + w2, w1, w2))
        assert descartes_count(f, 0, F(w2, w1)) == 0, (p, w1, w2)


def test_mixed_families_are_certified_at_higher_degree():
    # p = 1..12 is covered by the criterion-8 scan above
    families = [(p, w1, w2) for p in (20, 30, 40) for w1 in range(2, 21)
                for w2 in range(1, w1) if gcd(w1, w2) == 1]
    families += [(p, w1, w1 - 1) for w1 in (101, 1000) for p in (12, 60)]
    assert len(families) == 385
    for family in families:
        cscrays._certified_structure(*family)


def test_mixed_certificate_runs_no_taylor_shift(monkeypatch):
    calls = []
    real = exactpoly._taylor_shift
    monkeypatch.setattr(exactpoly, "_taylor_shift", lambda cs: calls.append(len(cs)) or real(cs))
    for family in ((1000, 3, 2), (400, 13, 12)):
        cscrays._certified_structure(*family)
    assert calls == []


@pytest.mark.parametrize("counts", [(0, 0), (2, 0), (3, 0), (1, 1), (1, 2), (None, 0), (1, None)])
def test_mixed_certificate_needs_one_critical_point_below_and_none_above(monkeypatch, counts):
    monkeypatch.setattr(cscrays, "split_counts", lambda *args: counts)
    with pytest.raises(InternalInvariantError):
        cscrays._certified_structure(12, 3, 2)


def test_wang_ziller_law_for_every_p_up_to_30():
    # R = -B/A has no critical point in (0, oo) but b = 1 when the deflated
    # Wronskian has no sign variation; then t* = R(1)
    for p in range(1, 31):
        big_a = intpoly(_raw_coefficients(p, 0, 1, 1, 1))
        big_b = intpoly(_raw_coefficients(p, 1, 0, 1, 1))
        wronskian = poly_sub(poly_mul(poly_derivative(big_a), big_b),
                             poly_mul(big_a, poly_derivative(big_b)))
        assert descartes_count(deflate_linear(wronskian, 1)[0], 0) == 0, p
        assert ray_threshold(p, 1, 1) == wz_threshold(p, 1), p


def _valid_pair(l1, l2, w1, w2, step):
    """The first (l1, l2 + k*step), k >= 0, that is a valid p = 1 tuple."""
    while True:
        try:
            JoinParams(1, l1, l2, w1, w2)
            return l1, l2
        except ParameterError:
            l2 += step


def test_threshold_at_p1_matches_the_cubic_discriminant():
    threshold = ray_threshold(1, 3, 2)
    assert F(18979, 1000) < threshold.lo < threshold.hi < F(18980, 1000)
    assert threshold.width == THRESHOLD_WIDTH
    # one real root of the cubic cofactor below t*, three above
    l1 = 10 ** 9 + 7
    below = _valid_pair(l1, threshold.lo.numerator * l1 // threshold.lo.denominator, 3, 2, -1)
    above = _valid_pair(l1, -(-threshold.hi.numerator * l1 // threshold.hi.denominator), 3, 2, 1)
    for (l1, l2), sign in ((below, -1), (above, 1)):
        cubic = csc_cubic_p1(l1, l2, 3, 2)
        assert cubic_discriminant(*reversed(cubic.coeffs)) * sign > 0
        assert abs(F(l2, l1) - threshold.midpoint) < F(1, 10 ** 8)


# sha256 of f"{lo} {hi}" for the interval ray_threshold(p, w1, w2) certifies
# around t*; the exact Fractions at p = 40 run to about 1,000 digits each
PINNED_THRESHOLDS = [
    # p = 1
    ((1, 2, 1), "81cacce2e4ec9e40e8a00644caf41771fffa2c4c5e4d421b0053df8303b6bad3"),
    ((1, 3, 1), "50b0f30a4931783d28c278e08b1c5fd80048d5d7fd530338037cc0ce699ff74e"),
    ((1, 3, 2), "4468e210df7ab86ef3bc979da836ce4a0d9516795b95089a8020d10164b67a11"),
    ((1, 4, 3), "9fe53e3a105c90a4ae89d8d15c4180f45f29785a1aeb18660cd49b09c8d718af"),
    ((1, 5, 2), "581de75b03c6b56042fd9c14f358e87588421de6b59a0db225582b7ff5a2fd71"),
    ((1, 5, 3), "6969e44491b073edbe33b3a1d1c81316cc2adf6214b23e1d19aa4be48290926b"),
    ((1, 7, 5), "a37735c949f30c682d78a482d575a13dc42f4fa859236df643df7ed060bbda69"),
    ((1, 13, 12), "8915d3d10a5f483547efdfbc455a47d8ca0f7ff61dc7f47d641d606b92a3f1ae"),
    # p = 2
    ((2, 2, 1), "4e462255b6e4bb55178ccfb4361bd2eb5e8215dd32f5279cfa3a358e1b633e61"),
    ((2, 3, 1), "c527455364d3b2e11937677f5f0cd3ccba7fa5ce3356bcfeeb3149232ec22919"),
    ((2, 3, 2), "5bde1bcf5a8e99e927a33213515d33081bdbce6198bb8a715be36674a82dfa00"),
    ((2, 4, 3), "69c2bd830c2b1584263ce436ea5464796f89d07e732c54f5176e268bd1b94b18"),
    ((2, 5, 2), "8312b32300d14c85f6a7b70bcde122858188a006c7e7432d3f8ef60c1e60e467"),
    ((2, 5, 3), "7b4b7da0dc0af22c28ab9972fb345252de647f34e6b827fc7382e7ac91b36bb6"),
    ((2, 7, 5), "869f76693bc4a49f1880ef1afd9504e66ea0c60f7d6fa991f6bbee06f29c3789"),
    ((2, 13, 12), "83b151c9c0f940ca6e833998e001149868a6ff3a5789bd4c5ee6dca976af5e09"),
    # p = 3
    ((3, 2, 1), "08683244e0667f5021f946eb09d48cf2d24ca137895e76f10338ba955b0b1fb4"),
    ((3, 3, 1), "1e5ce50753967197af5467afb0eac7b24f6f116810b4e70a0ea608f44b1d2cbe"),
    ((3, 3, 2), "ab39fce024f801ea3d5a1db24bb62873b6ac81f00bd4df554dde78ecddb57e0f"),
    ((3, 4, 3), "a11b0c407bf3ac61a16cc4ec7a0d6aca4bbde236f17118f11b5565a3411e10ec"),
    ((3, 5, 2), "d1c4300fd3205f7f86f6d7a0b34d82d85cfd3d5d6a3ebc5227bf9d27f45fc498"),
    ((3, 5, 3), "b204f3968849da34b22aeafe757d8384cd7e4789858cb2c7e8cbbb431d706d64"),
    ((3, 7, 5), "f07e5e0be57e9b666df630d23a3c199b2483f5055384a2abb730c735142180c4"),
    ((3, 13, 12), "1ae46e576fd7e4311bab447132cad8a59f1a055b4e1c634c9aa4ad56d0ed6b6e"),
    # p = 5
    ((5, 2, 1), "79314a839f869f5125aff39c0812fbb8c8be953f2705ed5cbd9e17a9e7539cca"),
    ((5, 3, 1), "a5bc30ae707b033b0a02b7f1e8485b73475f28b214667cbbc9f1715d8c966212"),
    ((5, 3, 2), "474713bf3dd8e3b153533ac435b351276aa487ac040c7f557109cdec0ce07d24"),
    ((5, 4, 3), "06c07b3cc2229ecf9bd618ca05df1cfb6299b38bc56c9e39cb764a3c2dc1ae23"),
    ((5, 5, 2), "1817cbcf42209efc533aea922d2f86276e1367f964f86e8f4f385ea1118576c2"),
    ((5, 5, 3), "c07f346038a0d169f3bb16f50ee43fc5ea929fe8a3030e25bce64afe954c4859"),
    ((5, 7, 5), "e1ad055a980ca48d38e3bd1f6162d6116c14416a8087c26435d5d6ebe23ea652"),
    ((5, 13, 12), "6478927a026de3e31c4c71426676b7500e4aa63ea0c9002c32e7ccc11b3bf9fb"),
    # p = 8
    ((8, 2, 1), "0f86fc46091068c09738ac6c987d0f25e427acb0dc8e00d9649635246cd37fe1"),
    ((8, 3, 1), "6fc12977706f8b24ea198742b2f4c55c70ced5527e69e7e8e28eeec3ebf8a759"),
    ((8, 3, 2), "1dda825fd6484f1eb23b259458431e5df2e2ba9346bf432c1abcb520d3a32d0b"),
    ((8, 4, 3), "5970b635de30b87287b69f5fd21eea4660a3fe41822a758c22a97bf93d2c5a94"),
    ((8, 5, 2), "1236027db5d2e993d67d412801f2d68b8eecd28b1639e10a19afad6c6ec84bad"),
    ((8, 5, 3), "9f85015c0510512ada4dd75ed03ce03c2163186edb93614caccde41d8dac4abb"),
    ((8, 7, 5), "82867637dc1896e904b195928088ad84689c42221e40ec2b3c1b10112751bc44"),
    ((8, 13, 12), "1163be90e11486344d4501af01a181b13033daf740ff122a2f95a7a5f17de895"),
    # p = 12
    ((12, 2, 1), "29e7dea619ff2c54da3ac005f599f35065c816f89224115acf456dc4b946e71e"),
    ((12, 3, 1), "6d1eedfc197086319b116d14873ec54a37607b0803f97db00f6444fb25c2936e"),
    ((12, 3, 2), "b06d5063f2642201cf1d7666153b202edb85a935ed3465eb17e5c183a01f4cde"),
    ((12, 4, 3), "f58f7c90e269c7823f3406ea816f3cc42d67f6837e7710b2a651637df58cba8f"),
    ((12, 5, 2), "bd6efbf88f37866ae0c1d70413d6a2a8940b780406f4ae77b385834514dfa489"),
    ((12, 5, 3), "6e6e6037153830d621e918821019c0491a181b8761c83580f7a0c4b60d80fcda"),
    ((12, 7, 5), "a56280fa1a4a9f448961c34018697f30cf1f4bb7461c68c5218cbf3a765fce14"),
    ((12, 13, 12), "92c6ac3409a0cd74d1d6faeca206072140eecfd3c21b678346718919debe2373"),
    # p = 20
    ((20, 2, 1), "8cb347e175a841743ac6fef5cc7ffde45728645a118918376a4846a8b21ae42b"),
    ((20, 3, 1), "75643438e58848f31f4457207548a636c8181999f5ffa406c53e0f584f10c7d5"),
    ((20, 3, 2), "6f36280ddaaf3d0a62d350fd0f4e14ca88149847f203c8597e394b370ddcc603"),
    ((20, 4, 3), "4255122a3f204bbbb28374157c41d7b08a7f1efcfdf336a490f3af56b508da0a"),
    ((20, 5, 2), "dc18292144e2b9802d2410faa3dab5d9199ad5f74d48bb17b27ab7f819271b0c"),
    ((20, 5, 3), "5b25da1cb37250e2e6e09ffccc36ac845be56ff1f1056fdf9c31ab5c6e336ad6"),
    ((20, 7, 5), "697239204ecf90e680344b8e4fce2cbe1bd3c23ed96d5532567b9ad6bc62e066"),
    ((20, 13, 12), "773672f8df1503d0690ac815b1a416b69e9b6db957e8436f372af2e8b0a70946"),
    # p = 40
    ((40, 2, 1), "10830bef0fc891d67e4146094dbd90d22f8d69d832d9ac476ef5cc78b1acc2a4"),
    ((40, 3, 1), "0dea05585c1aaff44927ef99788862a998744d7d080b756ba2ebbbb41a5fa71e"),
    ((40, 3, 2), "90ce5ce3109fd61845edec562b1c4d6e39f06a456b8e1932fff27d67394469d5"),
    ((40, 4, 3), "6af6df883159e2e89b7afd41f289c27d11ed504707f39e67359ceae43e0fed93"),
    ((40, 5, 2), "2ddd57f814b18e399fbdb5e2b02837a77085ee6a0987710eace7cad4f76c0fbe"),
    ((40, 5, 3), "1473bd88614f8c184a41d5a2fd7ce1109b0b40e55e7f0271b64f9a751d908a5e"),
    ((40, 7, 5), "d22994dd6bb3d6b642a7cc3e9f3c3b30da0550c78c73ae9c8c9332048b413fd2"),
    ((40, 13, 12), "65292a404da598d95f89e67d27d300fc2ef5d48bdd01b02cc20e967e3f3a41fd"),
]


def test_threshold_intervals_match_pinned_values():
    for family, digest in PINNED_THRESHOLDS:
        threshold = ray_threshold(*family)
        text = f"{threshold.lo} {threshold.hi}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, family


def test_threshold_validates_the_family():
    with pytest.raises(ParameterError):
        ray_threshold(0, 3, 2)
    with pytest.raises(ParameterError):
        ray_threshold(1, 2, 3)
    with pytest.raises(ParameterError):
        ray_threshold(1, 4, 2)


def test_rows_at_the_threshold_are_left_to_csc_rays():
    # (2,3,7,1,1) has t = 7/3 = t* exactly; the mixed tuple lies within
    # THRESHOLD_WIDTH of t*(1, 3, 2)
    for params in (JoinParams(2, 3, 7, 1, 1),
                   JoinParams(1, 10000000000001, 189792026486741, 3, 2)):
        threshold = ray_threshold(params.p, params.w1, params.w2)
        assert threshold_ray_counts(params, threshold) is None
    assert csc_rays(JoinParams(2, 3, 7, 1, 1)).unreduced_count == 1
    assert threshold_ray_counts(JoinParams(2, 3, 7, 1, 1), None) is None


def test_threshold_certificate_failure_raises(monkeypatch):
    real = descartes_count
    monkeypatch.setattr(cscrays, "descartes_count", lambda *args: real(*args) + 1)
    for family in ((1, 3, 2), (2, 1, 1)):
        with pytest.raises(InternalInvariantError):
            ray_threshold(*family)
    # min_l2_multiple_csc then asks csc_rays for every l2
    assert min_l2_multiple_csc(1, 1, 3, 2, 30) == 19
    assert min_l2_multiple_csc(2, 1, 1, 1, 10) == 3


@st.composite
def _family_tuples(draw):
    p = draw(st.integers(1, 8))
    w1 = draw(st.integers(1, 30))
    w2 = draw(st.integers(1, w1))
    assume(gcd(w1, w2) == 1)
    threshold = ray_threshold(p, w1, w2)
    if draw(st.booleans()):
        l1, l2 = draw(st.integers(1, 30)), draw(st.integers(1, 600))
    elif w1 == w2:
        # t = t* exactly
        l1, l2 = threshold.denominator, threshold.numerator
    else:
        # l2/l1 within 10**-12 of t*: inside the threshold interval or just outside
        l1 = draw(st.integers(10 ** 13, 10 ** 13 + 10 ** 6))
        l2 = round(threshold.midpoint * l1) + draw(st.integers(-10, 10))
    try:
        params = JoinParams(p, l1, l2, w1, w2)
    except ParameterError:
        assume(False)
    return params, threshold


@settings(max_examples=80, deadline=None)
@given(_family_tuples())
def test_threshold_counts_match_csc_rays(case):
    params, threshold = case
    report = csc_rays(params)
    counts = threshold_ray_counts(params, threshold)
    if counts is None:
        counts = report.unreduced_count, report.reduced_count
    assert counts == (report.unreduced_count, report.reduced_count)
