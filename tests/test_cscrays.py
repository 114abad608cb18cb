"""Tests for ray-polynomial construction, deflation, and CSC ray reports."""

import hashlib
import random
import time
from fractions import Fraction as F
from itertools import chain
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    maximal_ray_count,
    min_l2_multiple_csc,
    quasireg_family,
    ray_threshold,
    three_ray_split,
    wz_threshold,
)
from sasakijoin.exactpoly import (
    RationalInterval,
    RootRecord,
    certify_squarefree,
    cubic_discriminant,
    deflate_linear,
    descartes_count,
    intpoly,
    isolate_positive_roots,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_sub,
    primitive_part,
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
    for p, l1 in ((0, 1), (True, 1), (1, True), (2.5, 1), (1, 0)):
        with pytest.raises(ParameterError):
            wz_threshold(p, l1)


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


def _calls(monkeypatch, module, name):
    """The argument tuples of the calls of module.name from here on."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_a_tuple_builds_its_ray_polynomial_once(monkeypatch):
    # the branch path built the coefficients of f a second time for its signs
    params = JoinParams(40, 1, 5, 3, 2)
    report = repr(csc_rays(params))     # the family's structure is cached
    built = _calls(monkeypatch, cscrays, "_raw_coefficients")
    assert repr(csc_rays(params)) == report and len(built) == 1
    # a caller that holds f and its quotient builds nothing more
    fp = csc_polynomial(params)
    assert repr(csc_rays((fp, *deflate_forbidden(fp)))) == report and len(built) == 2


def test_pairing_reads_the_one_sign_source(monkeypatch):
    # below the branch path, the pairing read its signs through poly_sign, a
    # second sign path; it reads the tuple's one source, built on the dense
    # quotient there (on f, of twice its degree at p = 2, the two signs at
    # precision 1000 took about four times as long)
    params = JoinParams(2, 1, 5, 1, 1)
    quotient = deflate_forbidden(csc_polynomial(params))[0]
    sources = []
    real = exactpoly.SparseQuotient
    monkeypatch.setattr(cscrays, "SparseQuotient",
                        lambda *args: sources.append(real(*args)) or sources[-1])
    checked = _calls(monkeypatch, cscrays, "_check_reciprocal_pairs")
    report = csc_rays(params)
    assert report.reduced_count == 2 and report.rays[0].ray_class == "irregular"
    assert len(sources) == 1 and [args[2] for args in checked] == sources
    assert sources[0].degree == quotient.degree


def test_homogeneous_rays_below_the_branch_path_build_no_remainder_sequence(monkeypatch):
    # below the branch path's degree, isolation finds its cells by sign
    # variations, and the pairing of simple roots is checked by signs
    params = JoinParams(cscrays._BRANCH_MIN_P - 1, 1, 3, 1, 1)
    assert params.l2 > wz_threshold(params.p, params.l1)
    isolated = _calls(monkeypatch, cscrays, "isolate_positive_roots")
    bracketed = _calls(monkeypatch, cscrays, "isolate_bracketed_roots")
    chains = _calls(monkeypatch, exactpoly, "_sturm_chain")
    report = csc_rays(params)
    assert report.reduced_count == 2 and report.rays[0].ray_class == "irregular"
    assert len(isolated) == 1 and bracketed == [] and chains == []


@pytest.mark.parametrize("tup", [(82, 1, 5, 3, 2), (88, 1, 4, 1, 1)])
def test_high_degree_rays_build_no_remainder_sequence(monkeypatch, tup):
    # the rays are bracketed on the branches of R, and the pairing of
    # w = (1,1) is checked by signs, so no Sturm chain is built
    isolated = _calls(monkeypatch, cscrays, "isolate_positive_roots")
    bracketed = _calls(monkeypatch, cscrays, "isolate_bracketed_roots")
    chains = _calls(monkeypatch, exactpoly, "_sturm_chain")
    report = csc_rays(JoinParams(*tup))
    assert report.unreduced_count == 3
    assert isolated == [] and len(bracketed) == 1 and chains == []


@pytest.mark.parametrize("tup", [(12, 26, 9, 1, 1), (40, 820, 83, 1, 1), (120, 2420, 81, 1, 1)])
def test_rows_at_the_wang_ziller_threshold_build_no_remainder_sequence(monkeypatch, tup):
    # at t = t* the reciprocal pair merges into the regular ray (k = 6), and
    # the certified structure of R leaves the quotient no positive root
    params = JoinParams(*tup)
    assert wz_threshold(params.p, params.l1) == params.l2
    chains = _calls(monkeypatch, exactpoly, "_sturm_chain")
    report = csc_rays(params)
    assert chains == []
    assert report.unreduced_count == 1 and report.rays[0].record.multiplicity == 6
    monkeypatch.setattr(cscrays, "_BRANCH_MIN_P", params.p + 1)
    assert repr(csc_rays(params)) == repr(report)


BRANCH_WEIGHTS = [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (5, 3)]
# a 14-digit prime, so that l2/l1 can come within 10**-12 of t*
NEAR_L1 = 10_000_000_000_037


def planted_ratio(p, r, w1, w2):
    """The l2/l1 = R(r) = -B(r)/A(r) at which the ray polynomial of the family
    (p, w1, w2) has the root r, with A and B as in ``_certified_structure``."""
    return -poly_eval(intpoly(_raw_coefficients(p, 1, 0, w1, w2)), r) \
        / poly_eval(intpoly(_raw_coefficients(p, 0, 1, w1, w2)), r)


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


# l2/l1 just above t* at p = 12, w = (2,1): the two roots below w2/w1 lie
# close to c*, where a search for them that skips its Descartes count stops
# too early; random draws seldom give a valid tuple of this kind
@settings(max_examples=40, deadline=None)
@given(_branch_degree_tuples())
@example((JoinParams(12, NEAR_L1, 8643287565811, 2, 1), 3))
def test_branch_path_reports_equal_the_sturm_path(case):
    params, precision = case
    report = csc_rays(params, precision)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cscrays, "_BRANCH_MIN_P", params.p + 1)
        assert repr(report) == repr(csc_rays(params, precision))


# sha256 of repr(csc_rays(params, precision)) for rays planted at a rational
# root r beyond the degrees the test above draws: l2/l1 = R(r) in lowest terms
PINNED_PLANTED = {
    (60, F(3), (3, 2), 3): "505445841ee08586c5519459b5fafd65d213d35e583ca8006e606acf21a1b825",
    (60, F(3), (3, 2), 12): "cdbb679671ab36c0491517229d37963a227345f987190210089a777717959ef4",
    (60, F(5, 4), (3, 2), 3): "e4d2dd5beb964a4999916a3b024c2bf820602842fc60f3b1d95aad5e43dc1556",
    (60, F(5, 4), (3, 2), 12): "9c3e6cc16c49155dc5929e208631f79db92ef24d05de26561fe77e6d86b32044",
    (60, F(2), (1, 1), 3): "5d83ffda248a8ee84cb57814bee00e82fe163c0e62819317a950e854c0ebe16b",
    (60, F(2), (1, 1), 12): "5d83ffda248a8ee84cb57814bee00e82fe163c0e62819317a950e854c0ebe16b",
    (120, F(3), (3, 2), 3): "1dffd77eb0e55370b23e41ec610492effb18a7e128aa8c6509d4dcd3ee3d524e",
    (120, F(3), (3, 2), 12): "0b8554695c1c8592a802f07cee1ab414b53ebf5eca699dbca08f807c6d5c7bf1",
    (120, F(5, 4), (3, 2), 3): "0450eecb28671df0df56e39b83e53416997dda98b3e412f56a685d68a8f074b9",
    (120, F(5, 4), (3, 2), 12): "50015532b22b0bbe01ae64b63df4524bf06454f8f8548244003a27bd8fdfd57b",
    (120, F(2), (1, 1), 3): "5d83ffda248a8ee84cb57814bee00e82fe163c0e62819317a950e854c0ebe16b",
    (120, F(2), (1, 1), 12): "5d83ffda248a8ee84cb57814bee00e82fe163c0e62819317a950e854c0ebe16b",
}


@pytest.mark.parametrize("case", PINNED_PLANTED,
                         ids=lambda c: f"p{c[0]}-r{c[1]}-w{c[2][0]}{c[2][1]}-d{c[3]}")
def test_planted_rational_rays_match_pinned_reports(case):
    p, r, (w1, w2), precision = case
    t = planted_ratio(p, r, w1, w2)
    report = csc_rays(JoinParams(p, t.denominator, t.numerator, w1, w2), precision)
    assert any(ray.record.value == r for ray in report.rays if ray.record.is_rational)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == PINNED_PLANTED[case]


@pytest.mark.parametrize("p, r, w", [(60, F(3), (3, 2)), (60, F(5, 4), (3, 2)),
                                     (40, F(1, 3), (2, 1))])
def test_branch_path_evaluates_irr_densely_only_at_a_divided_out_root(monkeypatch, p, r, w):
    # once the rational root r is divided out of the quotient, the signs of
    # the rest, irr, come from the terms of f, but at w2/w1 and at r
    t = planted_ratio(p, r, *w)
    params = JoinParams(p, t.denominator, t.numerator, *w)
    report = csc_rays(params)
    forced = F(w[1], w[0])
    irr = deflate_linear(primitive_part(deflate_forbidden(csc_polynomial(params))[0]), r)[0]
    # every dense value is a _Horner.value
    dense = []
    real = exactpoly._Horner.value

    def value(signs, x, y):
        dense.append((signs.coeffs, F(x, y)))
        return real(signs, x, y)

    monkeypatch.setattr(exactpoly._Horner, "value", value)
    bracketed = _calls(monkeypatch, cscrays, "isolate_bracketed_roots")
    assert repr(csc_rays(params)) == repr(report) and len(bracketed) == 1
    assert sum(ray.record.value == r for ray in report.rays if ray.record.is_rational) == 1
    points = [x for coeffs, x in dense if coeffs == irr.coeffs]
    assert sorted(points) == sorted(set(points)) and set(points) <= {r, forced}


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
    for search_bound in (0, True, 30.5):
        with pytest.raises(ParameterError):
            min_l2_multiple_csc(1, 1, 3, 2, search_bound)
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
    for p in (0, True, 2.5):
        with pytest.raises(ParameterError):
            quasireg_family(p)


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


def test_pairing_counts_a_partner_of_even_multiplicity(monkeypatch):
    # (x^2 - 3x + 1)^2 has the double roots (3 -+ sqrt(5))/2, about 0.382 and
    # 2.618, where it keeps its sign: only a root count places the partner
    square = intpoly(oracles.power([1, -3, 1], 2))
    records = [RootRecord(RationalInterval(F(1, 3), F(2, 5)), 2, False),
               RootRecord(RationalInterval(F(2), F(3)), 2, False)]
    # the signs of square, read as its own quotient by (x - 1)**0
    signs = exactpoly.SparseQuotient(square, square, 1)
    counted = _calls(monkeypatch, cscrays, "sturm_count")
    cscrays._check_reciprocal_pairs(square, records, signs)
    assert len(counted) == 1
    # read as simple roots, the partner shows no sign change
    simple = [RootRecord(rec.value, 1, False) for rec in records]
    with pytest.raises(InternalInvariantError, match="fails to isolate"):
        cscrays._check_reciprocal_pairs(square, simple, signs)
    # (1/3, 2/5] inverts to [5/2, 3), which meets (11/4, 4] only past 2.618
    rootless = [records[0], RootRecord(RationalInterval(F(11, 4), F(4)), 2, False)]
    with pytest.raises(InternalInvariantError, match="fails to isolate"):
        cscrays._check_reciprocal_pairs(square, rootless, signs)
    assert len(counted) == 2


def test_branch_path_pairing_rejects_a_rootless_partner(monkeypatch):
    # at (40,1,3,1,1) and precision 2 the low ray's interval inverts to about
    # (3.903, 4.029) and the partner root lies above 4189105/1048576; a partner
    # interval below that overlaps the inverse without a sign change
    records = [_interval(F(260245, 1048576), F(8395, 32768)),
               _interval(F(32768, 8395), F(4189105, 1048576))]
    monkeypatch.setattr(cscrays, "isolate_bracketed_roots", lambda *args: records)
    with pytest.raises(InternalInvariantError, match="fails to isolate"):
        csc_rays(JoinParams(40, 1, 3, 1, 1), 2)


def test_branch_path_pairing_rejects_intervals_on_both_sides_of_the_partner(monkeypatch):
    # the partner root of (40,1,3,1,1) lies in (3.995, 4.029); a partner
    # interval below it and an inverted low interval, (25/6, 5), above it
    # do not overlap, although the signs at 7/2 and 25/6 differ
    records = [_interval(F(1, 5), F(6, 25)), _interval(F(3), F(7, 2))]
    monkeypatch.setattr(cscrays, "isolate_bracketed_roots", lambda *args: records)
    with pytest.raises(InternalInvariantError, match="fails to isolate"):
        csc_rays(JoinParams(40, 1, 3, 1, 1), 2)


def _uncertified(p, w1, w2):
    raise InternalInvariantError(f"the family ({p}, {w1}, {w2}) is not certified")


@pytest.mark.parametrize("tup", [(40, 1, 3, 1, 1), (40, 1, 5, 3, 2)])
@pytest.mark.parametrize("patch", [("certify_squarefree", lambda poly: False),
                                   ("_certified_structure", _uncertified),
                                   ("_CELL_LEVELS", 0)],
                         ids=["squarefree", "structure", "separator"])
def test_branch_path_falls_back_when_a_certificate_fails(monkeypatch, tup, patch):
    report = repr(csc_rays(JoinParams(*tup)))
    monkeypatch.setattr(cscrays, *patch)
    isolated = _calls(monkeypatch, cscrays, "isolate_positive_roots")
    chains = _calls(monkeypatch, exactpoly, "_sturm_chain")
    assert repr(csc_rays(JoinParams(*tup))) == report
    # the fallback ran, except that no separator is sought for w = (1,1);
    # neither route builds a Sturm chain for these square-free quotients
    separator_only = patch[0] == "_CELL_LEVELS" and tup[3] == tup[4]
    assert len(isolated) == (0 if separator_only else 1)
    assert chains == []


def test_branch_path_falls_back_on_a_repeated_negative_root(monkeypatch):
    # the quotient of (13,7,1,1,1) has the factor (x+1)^2, so no prime certifies
    # it square-free and the tuple falls back to isolate_positive_roots, unpatched
    params = JoinParams(13, 7, 1, 1, 1)
    quotient, _ = deflate_forbidden(csc_polynomial(params))
    assert poly_eval(quotient, -1) == poly_eval(poly_derivative(quotient), -1) == 0
    assert not certify_squarefree(quotient)
    report = csc_rays(params)
    isolated = _calls(monkeypatch, cscrays, "isolate_positive_roots")
    decomposed = _calls(monkeypatch, exactpoly, "squarefree_decompose")
    chains = _calls(monkeypatch, exactpoly, "_sturm_chain")
    assert repr(csc_rays(params)) == repr(report) == (
        "RayReport(rays=(Ray(record=RootRecord(value=Fraction(1, 1), multiplicity=4, "
        "is_rational=True), ray_class='regular'),), unreduced_count=1, "
        "reduced_count=1, weyl_paired=True)")
    # the fallback ran: its square-free part is the product of the Yun
    # factors of the quotient, and no Sturm chain is built
    assert len(isolated) == 1 and len(decomposed) == 1 and chains == []


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


def test_mixed_certificate_needs_no_pole_but_the_forced_root(monkeypatch):
    # a positive root of A besides w2/w1 would be a pole of R = -B/A; for
    # w1 > w2 the one Descartes count of the certificate rules it out
    monkeypatch.setattr(cscrays, "descartes_count", lambda *args: 1)
    for family in ((1, 3, 2), (12, 3, 2)):
        with pytest.raises(InternalInvariantError, match="not certified"):
            cscrays._certified_structure(*family)


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
# around t*; the exact Fractions at p = 40 run to about 1,500 digits each
PINNED_THRESHOLDS = [
    # p = 1
    ((1, 2, 1), "e5be2126be8bba172c76417d247455e5a3743c8e249b71299b6080a5daf30caf"),
    ((1, 3, 1), "53c335601366e1f6d030273b56d0634bdbca48274b14769d603572efaeedd6dc"),
    ((1, 3, 2), "ab1da7eae85652dc8821792789dcd4551500ddd91eff7e56583ea2bf25a68971"),
    ((1, 4, 3), "94fd33ea5e09a187d81c0b5dbaff1c94632695558b6104c3c3115f21da105917"),
    ((1, 5, 2), "c3357e517dbc1616015d32140d481b180159ee5e1500c567f97b069ecd59659a"),
    ((1, 5, 3), "258da1661a9ded1fa7ed8511557fb7dfdc9d52234405192844b28dbc38d77240"),
    ((1, 7, 5), "811be6612ff09a96e173d3b0109644a4a7176bfc77be1b67476ba2cce6a8f63a"),
    ((1, 13, 12), "1b0fa3572a31186a832a6c454d7f83044784626bbbc0e98cbd2287ec3768d26a"),
    # p = 2
    ((2, 2, 1), "3e58e9493a8836d2fc675ffd7ef6b87c9018075e60dd3e43b2e741a8eb36f0b5"),
    ((2, 3, 1), "82051b794ea1b7c58625c13058d17df554253a49d4137f4f35f9fc05aa710097"),
    ((2, 3, 2), "42d2d5f81348428fe61c1f132412516d5d2f16ae75e50148c531af381997181c"),
    ((2, 4, 3), "e2a5d89a280aa60ab800544fb88a23447660eec3af3b37a775cf990f60fb7ea3"),
    ((2, 5, 2), "d06b42448a89699c296fa78300309c9615e4d02bef5c1f588185143ca8b16a9b"),
    ((2, 5, 3), "7b3e3c925010a823a83f9bb09a4a911878bd2df60619bad3e6f2549dc178ca58"),
    ((2, 7, 5), "166c1e086cbcf54fd59ce2dd75ef7c64c5ce1a4474e02f789a1f9ae8aa245eeb"),
    ((2, 13, 12), "b48a9633461989fa310a08e4b89767a0b669a93e8e020226e34aa1fa6e704f2b"),
    # p = 3
    ((3, 2, 1), "bba6bdc40fdf694b3673a0eddcd1ef66f9cedf8ea9db87696c9e2c1b834e230b"),
    ((3, 3, 1), "1f35cf5b4dc0ebd2cdebe8ab9938082814be8f5e6a7c12a25d23c2d91836c87b"),
    ((3, 3, 2), "7b11ccc3e79cec643c35ec67a8fb1335b23922c89cf390c55de92c48d77dfc50"),
    ((3, 4, 3), "f8dceba8a25e3cbaf44a5c38d124369c71d58312482334058088529b2843a1c7"),
    ((3, 5, 2), "7e6f8aceb93767a113d9e31a2aaa1ffc61b7be54a607698de87bac54859f4827"),
    ((3, 5, 3), "ba47d41313abffe3952047abbc7b1a35a093ad7cc02bbdef95d26a334427538b"),
    ((3, 7, 5), "9772bc1b91cc0917e1f6ced3f48c151492d98e76cff0bdc229e8b73c2818134f"),
    ((3, 13, 12), "f7e65e1bc568e909b03c5f9f403aa0d5c342db400d0f80d8e228fc6abdc211ee"),
    # p = 5
    ((5, 2, 1), "da430fafd81ecbc40a7127aa4f6bc34c84759f424dc8cdca050f14ff848fe9e5"),
    ((5, 3, 1), "9f981c0e39e7e0f51556253dc1e8b787a5213493cc0e13c901f69b9bdd3e8698"),
    ((5, 3, 2), "031b135d6919481ccbd1aba3d93042a9f10c275b7d84fdbb5ef55a5cacc097c0"),
    ((5, 4, 3), "028063c3456c9d85c3a63097d6a3d27225cce65f957e1e3f510f287f076f4ce2"),
    ((5, 5, 2), "fef52b12c43266c6d18f82872e23dd959f701292a7cb421ff6f5d2bd8658a19b"),
    ((5, 5, 3), "26dedf295917e93f244366070060ddc9a989e38fc95882c3f69f7d432aac72d1"),
    ((5, 7, 5), "476a93be2be6200cbe9a2fe6888b4b17e46afc28d0a20c90094cb04224cdb9f3"),
    ((5, 13, 12), "bac3db24e575f55294065cd4271cb66a900bac850312fa14d543ae813e07c1da"),
    # p = 8
    ((8, 2, 1), "31bedd8be8b0babe9defeec26d51cbf428d52cf63a2c98150f17392e3e7e9308"),
    ((8, 3, 1), "510f1afef180e7e37a54607bbbe202d70edf15e330561c6213eac90c00d203e6"),
    ((8, 3, 2), "9a89ac11da573eba28d8c55e9dbb61f9d08f6f217fe30925cc0821eacb08adde"),
    ((8, 4, 3), "6a3766e9f04a94bdb88efdd6ecf70a95dacae824705e985e902a709f07f21cd8"),
    ((8, 5, 2), "637953238651fc9a6642253fcb9c0d7a8aafdc194a53c0ca1d9699a5b33ecac5"),
    ((8, 5, 3), "4f73c81748a0f5ed541957113b17fe3d65c9b3b346bcae86919d964ef8e8b064"),
    ((8, 7, 5), "2ee540281cda72adb284158b130bdd2a22dd15b4c30b888b3c4563b269814ca0"),
    ((8, 13, 12), "a40188fa35141e1a03949dfaa8278fd8d47a51a3038d6ada8aff1ae70c85646b"),
    # p = 12
    ((12, 2, 1), "2cdc36b29cfb36028b225f0cbada160357741a521c3b29bd432d64c90829b706"),
    ((12, 3, 1), "97e5513f59e6c3c8f4c01450d943fa332727b6860fdfce1687befc0065c7fa61"),
    ((12, 3, 2), "520079f69d520a51cae343d7768b3e58c121937dd2c372ef948844f9006205a0"),
    ((12, 4, 3), "7098a25f336421df281086a1c89d25b3d1d60c3c2faf8c5d3e7c766f1ff9141e"),
    ((12, 5, 2), "2092ef4bcd05436255b3ec6b47cf757430009c557080a76fa04c65470ae0ee3f"),
    ((12, 5, 3), "3f8a2b4694ad4ee0762dbe5e8413353c2f1b072835bd6d1c778196920ab5193b"),
    ((12, 7, 5), "a980933199dbb8c26fd7f424838e6676bbb1c8a9549746de02490785036daa72"),
    ((12, 13, 12), "77c15140fe84556d6312cbec93c09fe022be2312dacda39d6f85b65a66b9cb4a"),
    # p = 20
    ((20, 2, 1), "7eb3b827ddf9574268092cc8d7cd20fed87942e3ff17b82c9912f16c4e7fb346"),
    ((20, 3, 1), "0516f3ee4d383351fc69bb9d6bfe41c5c8cce353eecbda0bff7f1e8e2eecf59d"),
    ((20, 3, 2), "dcbbde376d8d8b5f2a54426a18c542f82d4fb4f0a0b644ed40a1db933d7b23f5"),
    ((20, 4, 3), "f330406f0a30947f1bbe34db90d8a6a615c0eee9bd7c6fb36dd6da270c4ff89e"),
    ((20, 5, 2), "6cc5e31df6fed917be7e1756998970c1e45896308c4ac956d655dbd5d4bed620"),
    ((20, 5, 3), "ea0fe4eb9e1bfcd75470627f510122ddcb38850b8afb09116d94361dcef86512"),
    ((20, 7, 5), "4289269deba26ddddfb3f4be49794207083096106b4ca9dedfc1132ec0df5f55"),
    ((20, 13, 12), "2794520470a7756fb63ff1c569fd8f8a9dce4ee0d0f51e25b5f1cff8b7d0f31f"),
    # p = 40
    ((40, 2, 1), "bd3f3805bfc65b299d0843d7bc78831a009cdfade22876fef5cfcbc9bd247d1b"),
    ((40, 3, 1), "6e1d66b58db0f9ad38c07b5f39a76ba74ef830a5164688d88c8f7be52646a91d"),
    ((40, 3, 2), "d0bcfdeef04315ef52e5cf76d8008527cdb6ee7c4ea095980d30a945be4ca686"),
    ((40, 4, 3), "c497b8540d6f185b2d5aa83338f14437ce2610e13d4c15232a7caa4a438db1bd"),
    ((40, 5, 2), "f55b0b1b568fd15a9a4f0388de32976990d021afad0d66d98848eb66fc7a369e"),
    ((40, 5, 3), "a91b68349820e4fa7ecb0e7015baddc2153aa11c8ae700956c112e3490a10bf3"),
    ((40, 7, 5), "d3ea41afd6433b1992b2b12e04b214e423da558064e6ea98989836bb3292b142"),
    ((40, 13, 12), "4eddba682fe7b2fc3813249e696b76b4f2076ce8d5525638d95c05e89262ba10"),
]


def test_threshold_intervals_match_pinned_values():
    for family, digest in PINNED_THRESHOLDS:
        threshold = ray_threshold(*family)
        text = f"{threshold.lo} {threshold.hi}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest, family


def test_pinned_thresholds_walk_half_the_cell_levels(monkeypatch):
    # every pinned threshold is separated at the counted level 32, so both
    # walks on c* keep a margin of 32 levels under their one bound
    real = cscrays._critical_cells
    depths = []

    def walked(*args):
        depths.append(0)
        for cell in real(*args):
            depths[-1] += 1
            yield cell

    monkeypatch.setattr(cscrays, "_critical_cells", walked)
    for family, _ in PINNED_THRESHOLDS:
        ray_threshold(*family)
    assert len(depths) == len(PINNED_THRESHOLDS)
    assert max(depths) <= 32 <= cscrays._CELL_LEVELS // 2


def _assert_threshold_overlaps_the_every_level_oracle(p, w1, w2):
    threshold = ray_threshold(p, w1, w2)
    lo, hi = oracles.critical_value_every_level(
        _raw_coefficients(p, 0, 1, w1, w2), _raw_coefficients(p, 1, 0, w1, w2),
        w1, w2, THRESHOLD_WIDTH)
    assert threshold.width == hi - lo == THRESHOLD_WIDTH, (p, w1, w2)
    assert max(threshold.lo, lo) < min(threshold.hi, hi), (p, w1, w2)


def test_threshold_intervals_overlap_the_every_level_oracle():
    for family, _ in PINNED_THRESHOLDS:
        _assert_threshold_overlaps_the_every_level_oracle(*family)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(2, 30), st.data())
def test_threshold_overlaps_the_every_level_oracle_on_samples(p, w1, data):
    w2 = data.draw(st.integers(1, w1 - 1))
    assume(gcd(w1, w2) == 1)
    _assert_threshold_overlaps_the_every_level_oracle(p, w1, w2)


def _count_levels(monkeypatch, w1, w2):
    """Spy on the Descartes counts on bounded cells, each read as the level
    of the bisection of (0, w2/w1) that made it."""
    levels = []
    real = descartes_count

    def spy(poly, lo, hi=None):
        if hi is not None:
            levels.append((F(w2, w1) / (hi - lo)).numerator.bit_length() - 1)
        return real(poly, lo, hi)

    monkeypatch.setattr(cscrays, "descartes_count", spy)
    return levels


@pytest.mark.parametrize("family", [(2, 3, 2), (20, 7, 5), (90, 3, 2)])
def test_threshold_counts_only_at_levels_four_eight_sixteen(monkeypatch, family):
    cscrays._certified_structure(*family)
    levels = _count_levels(monkeypatch, *family[1:])
    ray_threshold(*family)
    assert 1 <= len(levels) <= 4
    assert levels == [4 << i for i in range(len(levels))], levels


@pytest.mark.parametrize("tup, expected", [((40, 106, 25, 2, 1), [4]),
                                           ((20, 10001, 16913, 7, 5), [4, 8]),
                                           ((12, 1000004, 1247177, 3, 2), [4, 8, 16])])
def test_branch_path_counts_below_the_forced_root_at_the_same_levels(monkeypatch, tup, expected):
    # l2/l1 just below t*: no separator, so the cell of c* is counted until
    # the count shows no root in it
    cscrays._certified_structure(*tup[:1], *tup[3:])
    levels = _count_levels(monkeypatch, *tup[3:])
    assert csc_rays(JoinParams(*tup)).unreduced_count == 1
    assert levels == expected


def test_critical_walk_stops_at_an_exact_critical_point(monkeypatch):
    # c* = 5/24 = (5/16)*(2/3) is the midpoint of the fourth level, a counted one
    forced, c_star = F(2, 3), F(5, 24)
    # stub sign sources: W vanishes at c*, and the quotient's sign is set below
    wronskian = SimpleNamespace(sign=lambda x: (x > c_star) - (x < c_star))
    cells = list(cscrays._critical_cells(wronskian, forced))
    assert len(cells) == 4 and cells[-1][:3] == (c_star, c_star, c_star)
    assert [cell[2] for cell in cells] == [F(1, 3), F(1, 6), F(1, 4), c_star]
    # neither consumer counts an empty cell
    levels = _count_levels(monkeypatch, 3, 2)
    big_a, big_b, _ = cscrays._certified_structure(2, 3, 2)
    t_star = -poly_eval(big_b, c_star) / poly_eval(big_a, c_star)
    threshold = cscrays._critical_value(2, 3, 2, big_a, big_b, wronskian)
    assert (threshold.lo, threshold.hi) == (t_star - THRESHOLD_WIDTH / 2,
                                            t_star + THRESHOLD_WIDTH / 2)
    quotient = deflate_forbidden(csc_polynomial(JoinParams(2, 1, 5, 3, 2)))[0]
    # the quotient's sign at c* against its sign at 0 decides the outcome
    for at_c_star, below in ((-1, []), (1, [(0, c_star), (c_star, forced)]), (0, None)):
        signs = SimpleNamespace(sign=lambda x: at_c_star if x == c_star else -1)
        assert cscrays._roots_below(quotient, signs, wronskian, forced) == below
    assert levels == []


def test_family_with_an_exact_critical_point(monkeypatch):
    # for (1, 11, 8), c* = 4/11 is the first midpoint and t* = R(c*) = 68
    forced, c_star = F(8, 11), F(4, 11)
    levels = _count_levels(monkeypatch, 11, 8)
    threshold = ray_threshold(1, 11, 8)
    assert threshold.midpoint == 68 and threshold.width == THRESHOLD_WIDTH
    wronskian = cscrays._certified_structure(1, 11, 8)[2]
    assert list(cscrays._critical_cells(wronskian, forced))[0][:2] == (c_star, c_star)
    for l2, below in ((67, []), (69, [(0, c_star), (c_star, forced)])):
        params = JoinParams(1, 1, l2, 11, 8)
        quotient = deflate_forbidden(csc_polynomial(params))[0]
        signs = exactpoly.SparseQuotient(csc_polynomial(params).poly, quotient, forced)
        assert cscrays._roots_below(quotient, signs, wronskian, forced) == below
        assert csc_rays(params).unreduced_count == 1 + len(below)
    assert levels == []


@pytest.mark.parametrize("tup", [(82, 1, 5, 3, 2), (81, 1, 3, 1, 1)])
def test_branch_path_evaluates_densely_once_at_the_forced_root(monkeypatch, tup):
    # the quotient once per call, and the Wronskian once per family
    params = JoinParams(*tup)
    quotient = deflate_forbidden(csc_polynomial(params))[0]
    wronskian = cscrays._certified_structure(params.p, params.w1, params.w2)[2].quotient
    # every dense value is a _Horner.value
    seen = []
    real = exactpoly._Horner.value

    def value(signs, x, y):
        if x * params.w1 == y * params.w2:
            seen.append(signs.coeffs)
        return real(signs, x, y)

    monkeypatch.setattr(exactpoly._Horner, "value", value)
    for calls in (1, 2):
        report = csc_rays(params)
        assert seen.count(quotient.coeffs) == calls
        assert seen.count(wronskian.coeffs) == (params.w1 != params.w2)
    assert report.unreduced_count == 3


@pytest.mark.parametrize("tup", [(82, 1, 5, 3, 2), (88, 1, 1, 2, 1)])
def test_branch_path_evaluates_the_sign_at_zero_once(monkeypatch, tup):
    # the search for roots below w2/w1 and the bracket counts both ask for
    # the signs at 0 and at the separator (which a refinement may also ask
    # for as the end of a cell, by value)
    params = JoinParams(*tup)
    report = repr(csc_rays(params))
    quotient = deflate_forbidden(csc_polynomial(params))[0]
    points = []
    real = exactpoly.SparseQuotient.value
    monkeypatch.setattr(exactpoly.SparseQuotient, "value", lambda signs, x, y: (
        points.append(F(x, y)) if signs.quotient == quotient else None) or real(signs, x, y))
    assert repr(csc_rays(params)) == report
    assert points.count(F(0)) == 1


def test_threshold_validates_the_family():
    with pytest.raises(ParameterError):
        ray_threshold(0, 3, 2)
    with pytest.raises(ParameterError):
        ray_threshold(1, 2, 3)
    with pytest.raises(ParameterError):
        ray_threshold(1, 4, 2)


def no_threshold(p, w1, w2):
    raise InternalInvariantError("no certified threshold")


def test_rows_at_the_threshold_are_left_to_csc_rays(monkeypatch):
    # (2,3,7,1,1) has t = 7/3 = t* exactly; the mixed tuple lies within
    # THRESHOLD_WIDTH of t*(1, 3, 2)
    for params in (JoinParams(2, 3, 7, 1, 1),
                   JoinParams(1, 10000000000001, 189792026486741, 3, 2)):
        _, window, _ = three_ray_split(params.p, params.l1, params.w1, params.w2,
                                       range(1, params.l2 + 3))
        assert params.l2 in window
    assert csc_rays(JoinParams(2, 3, 7, 1, 1)).unreduced_count == 1
    # a bound past 10**14 reads the rows of the window and the first above it
    assert min_l2_multiple_csc(1, 10000000000001, 3, 2, 10 ** 15) == 189792026486747
    # a failed certificate leaves every l2 in the window
    monkeypatch.setattr(cscrays, "ray_threshold", no_threshold)
    values = range(2, 9, 3)
    assert three_ray_split(2, 3, 1, 1, values) == (values[:0], values, values[:0])


@settings(max_examples=300, deadline=None)
@given(st.fractions(F(1, 10), F(100), max_denominator=10 ** 6), st.integers(1, 10 ** 3),
       st.booleans(), st.integers(1, 10 ** 6), st.integers(-30, 30))
@example(F(7, 3), 1, True, 3, 0)
@example(F(5, 2), 4, True, 2, 0)
@example(F(7, 3), 1000, False, 3, 0)
def test_threshold_window_edges_are_the_comparisons(t_star, width, exact, l1, offset):
    # the rule three_ray_split applies at the drawn threshold: t <= lo is
    # below and t >= hi above for an interval, t < t* and t > t* for a value;
    # l2 runs over the integers next to lo * l1 and hi * l1, and one further
    # off, in a range of every l2 and in one of its parity
    threshold = t_star if exact else RationalInterval(t_star, t_star + F(width, 10 ** 3))
    lo, hi = (threshold, threshold) if exact else (threshold.lo, threshold.hi)
    l2s = {max(1, round(x * l1) + d) for x in (lo, hi) for d in (-1, 0, 1, offset)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cscrays, "ray_threshold", lambda p, w1, w2: threshold)
        for l2 in l2s:
            t = F(l2, l1)
            below, above = (t < lo, t > hi) if exact else (t <= lo, t >= hi)
            for values in (range(1, max(l2s) + 1), range(2 - l2 % 2, max(l2s) + 1, 2)):
                parts = three_ray_split(1, l1, 3, 2, values)
                assert [l2 in part for part in parts] == [below, not below and not above, above]
                assert sum(map(len, parts)) == len(values)


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
    # (1, 1) below the window and (3, maximal) above it
    params, _ = case
    report = csc_rays(params)
    below, _, above = three_ray_split(params.p, params.l1, params.w1, params.w2,
                                      range(1, params.l2 + 1))
    counts = report.unreduced_count, report.reduced_count
    if params.l2 in below:
        assert counts == (1, 1)
    if params.l2 in above:
        assert counts == (3, maximal_ray_count(params.w1, params.w2))


def first_maximal_l2(p, l1, w1, w2, search_bound):
    """The first valid l2 <= search_bound whose csc_rays reduced count is maximal."""
    for l2 in range(1, search_bound + 1):
        try:
            params = JoinParams(p, l1, l2, w1, w2)
        except ParameterError:
            continue
        if csc_rays(params).reduced_count == (2 if w1 == w2 else 3):
            return l2
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.sampled_from([(1, 1), (2, 1), (3, 1), (3, 2), (5, 3)]),
       st.integers(1, 40), st.booleans())
@example(1, 1, (3, 2), 30, False)
@example(2, 3, (1, 1), 40, True)
def test_min_l2_equals_the_first_maximal_row(p, l1, w, search_bound, certified):
    with pytest.MonkeyPatch.context() as patch:
        if not certified:
            patch.setattr(cscrays, "ray_threshold", no_threshold)
        assert min_l2_multiple_csc(p, l1, *w, search_bound) == first_maximal_l2(p, l1, *w, search_bound)


@pytest.mark.parametrize("args, search_bound, certified", [
    ((2, 3, 1, 1), 10, True), ((3, 4, 1, 1), 12, True), ((1, 1, 3, 2), 30, True),
    ((1, 1, 3, 2), 30, False), ((2, 1, 1, 1), 10, False)])
def test_min_l2_builds_rows_from_the_window_and_counts_only_in_it(monkeypatch, args, search_bound,
                                                                  certified):
    # JoinParams at l2 = 1 for the family's rules, then at each l2 of the
    # window and above it up to the answer; csc_rays only in the window
    p, l1, w1, w2 = args
    threshold = ray_threshold(p, w1, w2)
    monkeypatch.setattr(cscrays, "ray_threshold",
                        (lambda *_: threshold) if certified else no_threshold)
    below, window, above = three_ray_split(*args, range(1, search_bound + 1))
    least = first_maximal_l2(*args, search_bound)
    built, counted = [], []
    monkeypatch.setattr(JoinParams, "__post_init__", lambda params, real=JoinParams.__post_init__:
                        built.append(params.l2) or real(params))
    monkeypatch.setattr(cscrays, "csc_rays", lambda params: counted.append(params.l2) or csc_rays(params))
    assert min_l2_multiple_csc(*args, search_bound) == least
    assert built[0] == 1 and not any(l2 in below for l2 in built[1:])
    assert not any(l2 >= window.stop for l2 in counted)
    assert built[1:] == [l2 for l2 in chain(window, above) if least is None or l2 <= least]
    assert counted == [l2 for l2 in window if (least is None or l2 <= least)
                       and gcd(l2, l1 * w1) == gcd(l2, l1 * w2) == 1]


# the degree ops of the stress benchmark at seed 1, and the tuples of
# test_cli.PINNED_CSC_HIGH_DEGREE
STRESS_DEGREE_TUPLES = [(81, 1, 3, 1, 1), (82, 1, 5, 3, 2), (86, 1, 1, 1, 1), (88, 1, 1, 2, 1),
                        (70, 1, 3, 1, 1), (78, 1, 4, 3, 1), (76, 1, 2, 1, 1), (73, 1, 1, 2, 1)]
HIGH_DEGREE_TUPLES = [(120, 1, 5, 1, 1), (120, 2, 7, 3, 2), (200, 1, 4, 1, 1), (200, 1, 5, 3, 2),
                      (400, 1, 5, 3, 2), (400, 1, 5, 1, 1)]


def assert_bisection_gives_the_same_reports(monkeypatch, precision, tuples):
    # the whole reports, with every descent by quadratic interval refinement
    # and with plain bisection in its place
    for tup in tuples:
        report = repr(csc_rays(JoinParams(*tup), precision))
        with monkeypatch.context() as patched:
            patched.setattr(exactpoly, "_qir_levels", oracles.bisection_reference)
            assert repr(csc_rays(JoinParams(*tup), precision)) == report, tup


# Bisection alone descends one sparse evaluation a level, each costlier than
# the last: at precision 200 it takes 1-19 s a tuple, so the deep precisions
# run on fewer tuples.
@pytest.mark.parametrize("precision, tuples", [
    (1, STRESS_DEGREE_TUPLES + HIGH_DEGREE_TUPLES),
    (12, STRESS_DEGREE_TUPLES + HIGH_DEGREE_TUPLES),
    (50, STRESS_DEGREE_TUPLES + HIGH_DEGREE_TUPLES[:2]),
    (200, [(86, 1, 1, 1, 1), (73, 1, 1, 2, 1)]),
], ids=["p1", "p12", "p50", "p200"])
def test_sparse_refinement_schedules_give_the_same_reports(monkeypatch, precision, tuples):
    assert_bisection_gives_the_same_reports(monkeypatch, precision, tuples)


# census-like tuples (p 1-4, entries up to 20, each with an irrational ray),
# and the precision ops of the stress benchmark at seeds 1 and 2
CENSUS_LIKE_TUPLES = [(1, 11, 7, 17, 11), (1, 1, 1, 11, 9), (1, 1, 2, 5, 3), (1, 1, 8, 1, 1),
                      (2, 17, 11, 15, 13), (2, 5, 19, 7, 2), (3, 20, 11, 7, 4), (3, 1, 4, 5, 3),
                      (4, 3, 1, 18, 7), (4, 9, 5, 13, 8)]
PRECISION_TUPLES = [(1, 1, 25, 2, 1), (2, 1, 25, 1, 1), (2, 1, 27, 1, 1), (1, 1, 24, 1, 1),
                    (1, 1, 23, 3, 2), (1, 1, 25, 3, 2), (1, 1, 23, 3, 1), (1, 1, 26, 3, 1)]


@pytest.mark.parametrize("precision, tuples", [
    (12, CENSUS_LIKE_TUPLES),
    (200, PRECISION_TUPLES),
    (1000, PRECISION_TUPLES),
], ids=["p12", "p200", "p1000"])
def test_dense_refinement_schedules_give_the_same_reports(monkeypatch, precision, tuples):
    # the Sturm path refines by dense Horner
    assert_bisection_gives_the_same_reports(monkeypatch, precision, tuples)


def test_branch_path_reaches_its_intervals_by_secant_steps(monkeypatch):
    # the cells of the sparse ray polynomial at precision 12, about 40
    # levels deep, are refined on its sparse signs
    params = JoinParams(88, 1, 4, 1, 1)
    report = csc_rays(params, 12)
    descents = []
    real = exactpoly._qir_levels

    def spy(signs, a, den, width, s_hi, levels):
        cell = real(signs, a, den, width, s_hi, levels)
        descents.append((type(signs), F(cell[0], cell[1])))
        return cell

    monkeypatch.setattr(exactpoly, "_qir_levels", spy)
    warm = csc_rays(params, 12)
    assert repr(warm) == repr(report)
    ends = {ray.record.value.lo for ray in warm.rays if not ray.record.is_rational}
    assert len(ends) == 2
    assert ends <= {lo for kind, lo in descents if kind is exactpoly.SparseQuotient}
