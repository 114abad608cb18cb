"""Tests for parameter validation and topological invariants."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sasakijoin import classify, cscrays, exactpoly, joinspace
from sasakijoin.joinspace import (
    AbelianGroupDescriptor,
    JoinParams,
    ParameterError,
    Relation,
    bundle_type_wz,
    c1_coefficient,
    cohomology_group,
    cohomology_ring,
    diffeo_type_dim5,
    h4_order,
    homotopy_group,
    is_spin,
    iterated_join_ring,
    linking_form,
    p1_class,
    validate,
)


def valid_tuples(rng, count, p_max=4, entry_max=12):
    out = []
    while len(out) < count:
        p = rng.randint(1, p_max)
        l1 = rng.randint(1, entry_max)
        l2 = rng.randint(1, entry_max)
        w2 = rng.randint(1, entry_max)
        w1 = rng.randint(w2, entry_max)
        try:
            out.append(JoinParams(p, l1, l2, w1, w2))
        except ParameterError:
            continue
    return out


# ----------------------------------------------------------------------
# validation

def test_validate_accepts_known_good_tuples():
    assert validate(2, 5, 21, 1, 1) == JoinParams(2, 5, 21, 1, 1)
    assert validate(1, 1, 19, 3, 2).dim == 5


def test_validate_rejections_name_the_constraint():
    with pytest.raises(ParameterError) as err:
        validate(1, 1, 10, 3, 2)
    assert err.value.constraint == "gcd(l2,l1*w2) = 1"
    with pytest.raises(ParameterError) as err:
        validate(1, 1, 9, 3, 2)
    assert err.value.constraint == "gcd(l2,l1*w1) = 1"
    with pytest.raises(ParameterError) as err:
        validate(1, 1, 5, 2, 3)
    assert err.value.constraint == "w1 >= w2"
    with pytest.raises(ParameterError) as err:
        validate(1, 1, 5, 4, 2)
    assert err.value.constraint == "gcd(w1,w2) = 1"
    with pytest.raises(ParameterError) as err:
        validate(0, 1, 5, 1, 1)
    assert err.value.constraint == "p >= 1"
    with pytest.raises(ParameterError):
        validate(1, -1, 5, 1, 1)


def test_validation_implies_coprime_l1_l2():
    rng = random.Random(17)
    for params in valid_tuples(rng, 100):
        assert gcd(params.l1, params.l2) == 1


# ----------------------------------------------------------------------
# Chern coefficient and spin

def test_c1_examples():
    assert c1_coefficient(JoinParams(2, 1, 7, 1, 1)) == 19
    assert c1_coefficient(JoinParams(2, 2, 1, 1, 1)) == -1
    # balanced case: l2*(p+1) = l1*(w1+w2)
    assert c1_coefficient(JoinParams(1, 2, 3, 2, 1)) == 0


def test_spin_examples():
    assert not is_spin(JoinParams(2, 5, 21, 1, 1))
    assert is_spin(JoinParams(2, 1, 8, 1, 1))
    assert not is_spin(JoinParams(2, 1, 7, 1, 1))
    # p odd and l1 even: spin regardless of the rest
    assert is_spin(JoinParams(3, 2, 5, 3, 1))
    assert is_spin(JoinParams(1, 4, 3, 5, 1))


def test_spin_parity_link():
    rng = random.Random(29)
    for params in valid_tuples(rng, 200, p_max=5, entry_max=20):
        assert is_spin(params) == (c1_coefficient(params) % 2 == 0)


def test_spin_odd_p_characterization():
    # for odd p: spin iff l1 even or both weights odd
    rng = random.Random(31)
    for params in valid_tuples(rng, 200, p_max=5, entry_max=15):
        if params.p % 2 == 0:
            continue
        expected = params.l1 % 2 == 0 or (params.w1 % 2 == 1 and params.w2 % 2 == 1)
        assert is_spin(params) == expected


# ----------------------------------------------------------------------
# cohomology

def test_h4_order_examples():
    assert h4_order(JoinParams(2, 5, 21, 1, 1)) == 25
    assert h4_order(JoinParams(2, 1, 21, 25, 1)) == 25
    assert h4_order(JoinParams(2, 1, 3, 1, 1)) == 1
    with pytest.raises(ParameterError) as err:
        h4_order(JoinParams(1, 5, 21, 1, 1))
    assert err.value.constraint == "p > 1"


def test_h4_order_collision():
    # the square-order collision: (l1=a, w=(b,c)) vs (l1=1, w=(a^2*b*c, 1))
    rng = random.Random(43)
    for params in valid_tuples(rng, 120, p_max=3, entry_max=8):
        if params.p == 1:
            continue
        mirrored_w1 = params.l1 ** 2 * params.w1 * params.w2
        try:
            mirrored = JoinParams(params.p, 1, params.l2, mirrored_w1, 1)
        except ParameterError:
            continue
        assert h4_order(params) == h4_order(mirrored)


def test_cohomology_ring_presentations():
    assert str(cohomology_ring(JoinParams(2, 5, 21, 1, 1))) == \
        "Z[x,y]/(25*x^2, x^3, x^2*y, y^2)"
    assert str(cohomology_ring(JoinParams(3, 1, 1, 3, 2))) == \
        "Z[x,y]/(6*x^2, x^4, x^2*y, y^2)"
    assert str(cohomology_ring(JoinParams(2, 1, 3, 1, 1))) == \
        "Z[x,y]/(x^2, x^3, x^2*y, y^2)"
    ring = cohomology_ring(JoinParams(3, 2, 3, 5, 1))
    assert ring.generators == (("x", 2), ("y", 7))
    with pytest.raises(ParameterError) as err:
        cohomology_ring(JoinParams(1, 2, 3, 5, 1))
    assert "diffeo_type_dim5" in str(err.value)


def test_cohomology_groups():
    params = JoinParams(2, 5, 21, 1, 1)
    assert cohomology_group(params, 4) == AbelianGroupDescriptor(torsion=(25,))
    assert cohomology_group(params, 7) == AbelianGroupDescriptor(free_rank=1)
    assert cohomology_group(params, 1).is_trivial
    assert cohomology_group(params, 2) == AbelianGroupDescriptor(free_rank=1)
    assert cohomology_group(params, 5) == AbelianGroupDescriptor(free_rank=1)
    assert cohomology_group(params, 3).is_trivial
    assert cohomology_group(params, 6).is_trivial
    # torsion-free H^4 when w1*w2*l1^2 = 1
    assert cohomology_group(JoinParams(2, 1, 3, 1, 1), 4).is_trivial
    with pytest.raises(ParameterError):
        cohomology_group(params, 8)
    with pytest.raises(ParameterError):
        cohomology_group(params, -1)


def test_cohomology_euler_characteristic_and_duality():
    rng = random.Random(47)
    seen = 0
    for params in valid_tuples(rng, 300, p_max=4, entry_max=10):
        if params.p == 1:
            continue
        seen += 1
        groups = [cohomology_group(params, k) for k in range(params.dim + 1)]
        euler = sum((-1) ** k * g.free_rank for k, g in enumerate(groups))
        assert euler == 0
        for k, g in enumerate(groups):
            assert g.free_rank == groups[params.dim - k].free_rank
    assert seen > 100


def test_homotopy_groups():
    params = JoinParams(2, 5, 21, 1, 1)
    assert homotopy_group(params, 1).is_trivial
    assert homotopy_group(params, 2) == AbelianGroupDescriptor(free_rank=1)
    assert homotopy_group(params, 3) == AbelianGroupDescriptor(free_rank=1)
    assert homotopy_group(params, 4) == AbelianGroupDescriptor(torsion=(2,))
    with pytest.raises(ParameterError):
        homotopy_group(params, 5)
    with pytest.raises(ParameterError):
        homotopy_group(params, 0)
    with pytest.raises(ParameterError):
        homotopy_group(JoinParams(1, 1, 2, 1, 1), 2)


# ----------------------------------------------------------------------
# dimension-7 residues

def test_p1_residues():
    assert p1_class(JoinParams(2, 5, 21, 1, 1)) == 23
    assert p1_class(JoinParams(2, 1, 21, 25, 1)) == 22
    assert p1_class(JoinParams(2, 5, 29, 1, 1)) == 23
    with pytest.raises(ParameterError):
        p1_class(JoinParams(3, 5, 21, 1, 1))


def test_linking_form_residues():
    assert linking_form(JoinParams(2, 5, 21, 1, 1)) == 11
    assert linking_form(JoinParams(2, 5, 29, 1, 1)) == 14
    assert (11 + 14) % 25 == 0
    assert linking_form(JoinParams(2, 1, 7, 1, 1)) == 0
    with pytest.raises(ParameterError):
        linking_form(JoinParams(1, 5, 21, 1, 1))


def test_residues_agree_when_integers_and_modulus_agree():
    # same integer before reduction and same modulus force the same residue
    a = JoinParams(2, 5, 21, 1, 1)
    b = JoinParams(2, 5, 29, 1, 1)
    assert h4_order(a) == h4_order(b)
    pa = 3 * a.l2 ** 2 - a.l1 ** 2 * (a.w1 ** 2 + a.w2 ** 2)
    pb = 3 * b.l2 ** 2 - b.l1 ** 2 * (b.w1 ** 2 + b.w2 ** 2)
    assert pa % 25 == pb % 25 == p1_class(a)


# ----------------------------------------------------------------------
# special-case bundle types

def test_bundle_type_wz():
    assert bundle_type_wz(3, 4) == "trivial"
    assert bundle_type_wz(2, 5) == "nontrivial"
    assert bundle_type_wz(2, 4) == "trivial"
    assert bundle_type_wz(5, 7) == "trivial"
    with pytest.raises(ParameterError):
        bundle_type_wz(0, 4)


def test_diffeo_type_dim5():
    assert diffeo_type_dim5(1, 19, 3, 2) == "twisted"
    assert diffeo_type_dim5(2, 3, 1, 1) == "S2xS3"
    assert diffeo_type_dim5(1, 7, 1, 1) == "S2xS3"
    with pytest.raises(ParameterError):
        diffeo_type_dim5(1, 10, 3, 2)


def test_iterated_join_ring():
    ring = iterated_join_ring(1, 1, 2, 1)
    rendered = [str(r) for r in ring.relations]
    assert rendered == ["x^2", "x*y", "2*y^2", "z^2", "u^2", "z*u", "z*x", "u*x", "u*y"]
    assert dict(ring.generators) == {"x": 2, "y": 2, "z": 5, "u": 5}

    ring = iterated_join_ring(3, 2, 2, 1)
    rendered = [str(r) for r in ring.relations]
    assert "2*x*y" in rendered and "18*y^2" in rendered

    ring = iterated_join_ring(1, 1, 1, 1)
    assert str(ring.relations[2]) == "y^2"

    with pytest.raises(ParameterError):
        iterated_join_ring(2, 4, 1, 1)
    with pytest.raises(ParameterError):
        iterated_join_ring(1, 1, 2, 4)


def test_relation_and_group_invariants():
    with pytest.raises(ValueError):
        Relation(0, (("x", 2),))
    with pytest.raises(ValueError):
        Relation(1, (("x", 0),))
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(torsion=(1,))
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(free_rank=-1)
    assert str(AbelianGroupDescriptor(free_rank=1, torsion=(25,))) == "Z + Z/25"


# ----------------------------------------------------------------------
# records: each class on joinspace.Record against the frozen dataclass it
# replaced, whose definition is kept here as it was

@dataclasses.dataclass(frozen=True)
class OldJoinParams:
    p: int
    l1: int
    l2: int
    w1: int
    w2: int

    def __post_init__(self) -> None:
        for name in ("p", "l1", "l2", "w1", "w2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ParameterError(f"{name} >= 1", f"{name} must be a positive integer, got {value!r}")
        if self.w1 < self.w2:
            raise ParameterError("w1 >= w2", f"weights must satisfy w1 >= w2, got ({self.w1},{self.w2})")
        if gcd(self.w1, self.w2) != 1:
            raise ParameterError("gcd(w1,w2) = 1",
                                 f"gcd(w1,w2) = {gcd(self.w1, self.w2)} != 1")
        if gcd(self.l2, self.l1 * self.w1) != 1:
            raise ParameterError("gcd(l2,l1*w1) = 1",
                                 f"gcd(l2, l1*w1) = {gcd(self.l2, self.l1 * self.w1)} != 1")
        if gcd(self.l2, self.l1 * self.w2) != 1:
            raise ParameterError("gcd(l2,l1*w2) = 1",
                                 f"gcd(l2, l1*w2) = {gcd(self.l2, self.l1 * self.w2)} != 1")


@dataclasses.dataclass(frozen=True)
class OldRelation:
    coefficient: int
    monomial: tuple

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("relation coefficient must be nonzero")
        for _, power in self.monomial:
            if power < 1:
                raise ValueError("monomial powers must be positive")


@dataclasses.dataclass(frozen=True)
class OldRingPresentation:
    generators: tuple
    relations: tuple

    def __post_init__(self) -> None:
        for _, degree in self.generators:
            if degree < 1:
                raise ValueError("generator degrees must be positive")


@dataclasses.dataclass(frozen=True)
class OldAbelianGroupDescriptor:
    free_rank: int = 0
    torsion: tuple = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for t in self.torsion:
            if t <= 1:
                raise ValueError("torsion orders must exceed 1")


@dataclasses.dataclass(frozen=True)
class OldLambdaExponents:
    lambda2: int
    lambda7: int


@dataclasses.dataclass(frozen=True)
class OldCondition:
    label: str
    holds: bool
    witness: tuple


@dataclasses.dataclass(frozen=True)
class OldClassificationVerdict:
    relation: str
    overall: bool
    conditions: tuple

    def __post_init__(self) -> None:
        if self.overall != all(c.holds for c in self.conditions):
            raise ValueError("overall verdict must be the conjunction of its conditions")


@dataclasses.dataclass(frozen=True)
class OldDiffeoPartition:
    classes: tuple
    invalid: tuple


@dataclasses.dataclass(frozen=True)
class OldIntPolynomial:
    coeffs: tuple = ()

    def __post_init__(self) -> None:
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {c!r}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero; use intpoly()")


@dataclasses.dataclass(frozen=True)
class OldRationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("interval needs lo < hi")


@dataclasses.dataclass(frozen=True)
class OldRootRecord:
    value: object
    multiplicity: int
    is_rational: bool


@dataclasses.dataclass(frozen=True)
class OldCscPolynomial:
    poly: object
    params: object
    forbidden_root: Fraction


@dataclasses.dataclass(frozen=True)
class OldRay:
    record: object
    ray_class: str

    def __post_init__(self) -> None:
        if self.ray_class not in cscrays.RAY_CLASSES:
            raise ValueError(f"unknown ray class {self.ray_class!r}")


@dataclasses.dataclass(frozen=True)
class OldRayReport:
    rays: tuple
    unreduced_count: int
    reduced_count: int
    weyl_paired: bool


_INT = st.integers(-2, 13) | st.booleans()
_NAMES = st.sampled_from(("x", "y", "z"))
_CONDITIONS = st.lists(st.builds(classify.Condition, st.text(max_size=3), st.booleans(),
                                 st.lists(_INT, max_size=3).map(tuple)), max_size=3).map(tuple)
_FRACTIONS = st.fractions(-2, 2, max_denominator=3)
_ROOT_VALUES = _FRACTIONS | st.builds(exactpoly.RationalInterval, st.just(Fraction(0)),
                                      st.fractions(1, 2))
_ROOTS = st.builds(exactpoly.RootRecord, _ROOT_VALUES, _INT, st.booleans())
_RAYS = st.builds(cscrays.Ray, _ROOTS, st.sampled_from(cscrays.RAY_CLASSES))
# each replaced class, its old dataclass, and a strategy for its field values
RECORDS = [
    (joinspace.JoinParams, OldJoinParams, st.tuples(_INT, _INT, _INT, _INT, _INT)),
    (joinspace.Relation, OldRelation,
     st.tuples(_INT, st.lists(st.tuples(_NAMES, _INT), max_size=3).map(tuple))),
    (joinspace.RingPresentation, OldRingPresentation,
     st.tuples(st.lists(st.tuples(_NAMES, _INT), max_size=3).map(tuple),
               st.lists(_INT, max_size=2).map(tuple))),
    (joinspace.AbelianGroupDescriptor, OldAbelianGroupDescriptor,
     st.tuples(_INT, st.lists(_INT, max_size=3).map(tuple))),
    (classify.LambdaExponents, OldLambdaExponents, st.tuples(_INT, _INT)),
    (classify.Condition, OldCondition,
     st.tuples(st.text(max_size=4), st.booleans(), st.lists(_INT, max_size=3).map(tuple))),
    (classify.ClassificationVerdict, OldClassificationVerdict,
     st.tuples(st.sampled_from(("homotopy", "homeo")), st.booleans(), _CONDITIONS)),
    (classify.DiffeoPartition, OldDiffeoPartition,
     st.tuples(st.lists(st.lists(_INT, max_size=2).map(tuple), max_size=2).map(tuple),
               st.lists(st.tuples(_INT, st.just("l2 >= 1")), max_size=2).map(tuple))),
    (exactpoly.IntPolynomial, OldIntPolynomial,
     st.tuples(st.lists(_INT | st.just(0.5), max_size=3).map(tuple))),
    (exactpoly.RationalInterval, OldRationalInterval, st.tuples(_FRACTIONS, _FRACTIONS)),
    (exactpoly.RootRecord, OldRootRecord, st.tuples(_ROOT_VALUES, _INT, st.booleans())),
    (cscrays.CscPolynomial, OldCscPolynomial,
     st.tuples(st.sampled_from((exactpoly.IntPolynomial(), exactpoly.intpoly([-1, 2, -3]))),
               st.sampled_from((JoinParams(1, 1, 19, 3, 2), JoinParams(2, 3, 40, 1, 1))),
               _FRACTIONS)),
    (cscrays.Ray, OldRay, st.tuples(_ROOTS, st.sampled_from(cscrays.RAY_CLASSES + ("other",)))),
    (cscrays.RayReport, OldRayReport,
     st.tuples(st.lists(_RAYS, max_size=2).map(tuple), _INT, _INT, st.booleans())),
]


def _made(cls, values, keywords):
    """cls on the values, by keyword from index ``keywords`` on, or the error it raised."""
    names = cls.__match_args__
    try:
        return cls(*values[:keywords], **dict(zip(names[keywords:], values[keywords:])))
    except (TypeError, ValueError) as exc:  # ParameterError among them
        return exc


def _replaced(obj, changes):
    """dataclasses.replace(obj, **changes), or the error it raised."""
    try:
        return dataclasses.replace(obj, **changes)
    except (TypeError, ValueError) as exc:
        return exc


def _same(new, old, new_cls, old_cls):
    """new and old are the same errors, or records of equal repr."""
    if isinstance(old, Exception):
        return type(new) is type(old) and str(new) == str(old)
    return repr(new) == repr(old).replace(old_cls.__name__, new_cls.__name__, 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_records_match_the_dataclasses_they_replaced(data):
    new_cls, old_cls, fields = data.draw(st.sampled_from(RECORDS))
    values, other = data.draw(fields), data.draw(fields)
    keywords = data.draw(st.integers(0, len(values)))
    new, old = _made(new_cls, values, keywords), _made(old_cls, values, keywords)
    assert _same(new, old, new_cls, old_cls)
    if isinstance(old, Exception):
        assert getattr(new, "constraint", None) == getattr(old, "constraint", None)
        return
    assert new_cls.__match_args__ == old_cls.__match_args__
    assert dataclasses.is_dataclass(new) and dataclasses.is_dataclass(new_cls)
    for fields in (dataclasses.fields(new), dataclasses.fields(new_cls)):
        assert ([(f.name, f.default) for f in fields]
                == [(f.name, f.default) for f in dataclasses.fields(old)])
    assert dataclasses.asdict(new) == dataclasses.asdict(old)
    assert dataclasses.astuple(new) == dataclasses.astuple(old)
    index = data.draw(st.integers(0, len(values) - 1))
    changes = {new_cls.__match_args__[index]: other[index]}
    assert _same(_replaced(new, changes), _replaced(old, changes), new_cls, old_cls)
    assert hash(new) == hash(old)
    assert new != old and new == _made(new_cls, values, 0)
    new_other, old_other = _made(new_cls, other, 0), _made(old_cls, other, 0)
    if not isinstance(old_other, Exception):
        assert (new == new_other) == (old == old_other)
    for twin in (pickle.loads(pickle.dumps(new)), copy.copy(new), copy.deepcopy(new)):
        assert type(twin) is new_cls and twin == new and repr(twin) == repr(new)
    name = data.draw(st.sampled_from(new_cls.__match_args__ + ("other",)))
    for change in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
        with pytest.raises(AttributeError) as refused:
            change(new)
        with pytest.raises(dataclasses.FrozenInstanceError) as expected:
            change(old)
        assert str(refused.value) == str(expected.value)
    assert repr(new) == repr(_made(new_cls, values, keywords))


def test_a_record_takes_its_defaults_and_refuses_a_wrong_call():
    assert AbelianGroupDescriptor() == AbelianGroupDescriptor(0, ()) == joinspace.TRIVIAL_GROUP
    assert AbelianGroupDescriptor(torsion=(2,)) == AbelianGroupDescriptor(0, (2,))
    assert repr(exactpoly.IntPolynomial()) == "IntPolynomial(coeffs=())"
    assert repr(exactpoly.IntPolynomial((1, 2))) == "IntPolynomial(coeffs=(1, 2))"
    # the messages are the dataclass's, as the generated __init__ is
    for args, kwargs in (((1, 2, 3, 4), {}), ((1, 2, 3, 4, 5, 6), {}), ((1, 2, 3, 4), {"p": 1}),
                         ((1, 2, 3, 4), {"w3": 1})):
        with pytest.raises(TypeError) as refused:
            JoinParams(*args, **kwargs)
        with pytest.raises(TypeError) as expected:
            OldJoinParams(*args, **kwargs)
        assert str(refused.value) == str(expected.value).replace("OldJoinParams", "JoinParams")
    with pytest.raises(TypeError):
        AbelianGroupDescriptor(1, (), 3)
    assert not hasattr(JoinParams(1, 1, 1, 1, 1), "__dict__")


def test_asking_the_base_for_its_fields_leaves_each_record_its_own():
    class Pair(joinspace.Record):
        __slots__ = ("first", "second")
        _defaults = {"second": 0}

    assert dataclasses.fields(joinspace.Record) == ()
    assert [(f.name, f.default) for f in dataclasses.fields(Pair(1))] == [
        ("first", dataclasses.MISSING), ("second", 0)]
    assert [f.name for f in dataclasses.fields(Relation)] == ["coefficient", "monomial"]
    assert dataclasses.fields(joinspace.Record) == ()
    assert dataclasses.replace(Pair(1), second=2) == Pair(1, 2)
