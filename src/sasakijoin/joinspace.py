"""Parameter model and topological invariants of sphere-join manifolds.

The manifolds are the total spaces M obtained by joining the standard
Sasaki sphere S^(2p+1) with a weighted 3-sphere along a circle action
determined by positive integers (l1, l2) and a coprime weight pair
w = (w1, w2).  A tuple (p, l1, l2, w1, w2) pins the manifold down; its
dimension is 2p + 3.

This module validates tuples and computes what can be read off the join:
the first Chern coefficient of the contact bundle and the spin condition,
the integral cohomology ring and graded groups (p > 1), low homotopy
groups, and in dimension 7 the first Pontryagin residue and linking-form
residue used by the classification predicates in :mod:`sasakijoin.classify`.
For p = 1 the topology collapses to the two S^3-bundles over S^2 and is
answered by :func:`diffeo_type_dim5`.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter

__all__ = [
    "Record",
    "ParameterError",
    "JoinParams",
    "Relation",
    "RingPresentation",
    "AbelianGroupDescriptor",
    "validate",
    "c1_coefficient",
    "is_spin",
    "h4_order",
    "cohomology_ring",
    "cohomology_group",
    "homotopy_group",
    "p1_class",
    "linking_form",
    "bundle_type_wz",
    "diffeo_type_dim5",
    "iterated_join_ring",
]


class ParameterError(ValueError):
    """Rejected parameters; ``constraint`` names the violated condition."""

    def __init__(self, constraint: str, message: str):
        self.constraint = constraint
        super().__init__(message)


class InternalInvariantError(RuntimeError):
    """A structural fact the construction guarantees failed to hold."""


class LazySequence:
    """``len`` and iteration of a sequence whose ``items()`` makes it afresh."""

    def __init__(self, length: int, items):
        self._length, self._items = length, items

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return self._items()


class _DataclassFields:
    """A record's ``__dataclass_fields__``: real ``dataclasses.Field``s, made
    on first request and kept on the class asked, unless the class holds this
    descriptor itself, so that its subclasses still reach it."""

    def __get__(self, record, cls):
        from dataclasses import MISSING, field, make_dataclass
        found = make_dataclass(cls.__name__, [
            (name, object, field(default=cls._defaults.get(name, MISSING)))
            for name in cls.__slots__]).__dataclass_fields__
        if "__dataclass_fields__" not in vars(cls):
            cls.__dataclass_fields__ = found
        return found


class Record:
    """``dataclass(frozen=True)`` for a class naming its fields in ``__slots__``
    (defaults in ``_defaults``), without importing ``dataclasses`` and
    ``inspect``: construction by position or keyword, ``__post_init__``,
    ``repr``, ``==`` and ``hash`` on the fields within one class, pickle and
    copy, and no assignment or deletion.  ``dataclasses.fields``, ``replace``
    and ``asdict`` see the fields.  Each class gets an ``__init__`` generated
    as the dataclass's is, setting its slots through their descriptors."""

    __slots__ = ()
    _defaults: dict = {}
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        names = cls.__match_args__ = cls.__slots__
        get = attrgetter(*names)
        cls._values = property(get if len(names) > 1 else lambda self: (get(self),))
        # generated, as dataclass does it, for the dataclass's speed and messages
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in cls._defaults else name
                           for name in names)
        body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        scope = {"_defaults": cls._defaults,
                 **{f"_set_{name}": cls.__dict__[name].__set__ for name in names}}
        exec(f"def __init__(self, {params}):\n{body}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values


def _require_positive(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParameterError(f"{name} >= 1", f"{name} must be a positive integer, got {value!r}")
    return value


class JoinParams(Record):
    """A validated join parameter tuple (p, l1, l2, w1, w2).

    Constraints: all entries positive, w1 >= w2 with gcd(w1, w2) = 1, and
    gcd(l2, l1*w1) = gcd(l2, l1*w2) = 1 (which forces gcd(l1, l2) = 1).
    A tuple with w1 < w2 is rejected, never silently swapped, so that ray
    labels stay tied to the caller's weight order.
    """

    __slots__ = ("p", "l1", "l2", "w1", "w2")

    def __post_init__(self) -> None:
        for name in self.__slots__:     # a call only for a value that is not a plain int >= 1
            if (value := getattr(self, name)).__class__ is not int or value < 1:
                _require_positive(name, value)
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

    @property
    def dim(self) -> int:
        return 2 * self.p + 3


def validate(p, l1, l2, w1, w2) -> JoinParams:
    """Validate raw integers into a :class:`JoinParams` or raise ParameterError."""
    return JoinParams(p, l1, l2, w1, w2)


# ----------------------------------------------------------------------
# characteristic data

def c1_coefficient(params: JoinParams) -> int:
    """Coefficient of the contact bundle's first Chern class on the positive
    degree-2 generator: l2*(p+1) - l1*(w1+w2)."""
    return params.l2 * (params.p + 1) - params.l1 * (params.w1 + params.w2)


def is_spin(params: JoinParams) -> bool:
    """Spin iff the second Stiefel-Whitney class vanishes, i.e. c1 is even."""
    return c1_coefficient(params) % 2 == 0


def _require_p_above_one(params: JoinParams, what: str) -> None:
    if params.p == 1:
        raise ParameterError(
            "p > 1",
            f"{what} requires p > 1; for p = 1 the manifold is one of the two "
            "S^3-bundles over S^2, see diffeo_type_dim5")


def h4_order(params: JoinParams) -> int:
    """Order of the degree-4 integral cohomology group: w1*w2*l1^2 (p > 1)."""
    _require_p_above_one(params, "h4_order")
    return params.w1 * params.w2 * params.l1 ** 2


# ----------------------------------------------------------------------
# presentations and graded groups

class Relation(Record):
    """A monomial relation coefficient * prod(gen**power) = 0."""

    __slots__ = ("coefficient", "monomial")  # int, tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("relation coefficient must be nonzero")
        for _, power in self.monomial:
            if power < 1:
                raise ValueError("monomial powers must be positive")

    def __str__(self) -> str:
        body = "*".join(g if e == 1 else f"{g}^{e}" for g, e in self.monomial)
        if self.coefficient == 1:
            return body
        return f"{self.coefficient}*{body}"


class RingPresentation(Record):
    """Graded ring presentation Z[generators]/(relations)."""

    __slots__ = ("generators", "relations")  # tuple[tuple[str, int], ...], tuple[Relation, ...]

    def __post_init__(self) -> None:
        for _, degree in self.generators:
            if degree < 1:
                raise ValueError("generator degrees must be positive")

    def __str__(self) -> str:
        gens = ",".join(g for g, _ in self.generators)
        rels = ", ".join(str(r) for r in self.relations)
        return f"Z[{gens}]/({rels})"


class AbelianGroupDescriptor(Record):
    """Finitely generated abelian group Z^free_rank + sum of cyclic torsion."""

    __slots__ = ("free_rank", "torsion")    # int, tuple[int, ...]
    _defaults = {"free_rank": 0, "torsion": ()}

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for t in self.torsion:
            if t <= 1:
                raise ValueError("torsion orders must exceed 1")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianGroupDescriptor()
Z = AbelianGroupDescriptor(free_rank=1)


def cohomology_ring(params: JoinParams) -> RingPresentation:
    """Integral cohomology ring Z[x,y]/(m*x^2, x^(p+1), x^2*y, y^2) for p > 1,
    with x of degree 2, y of degree 2p+1, and m = w1*w2*l1^2."""
    _require_p_above_one(params, "cohomology_ring")
    m = h4_order(params)
    return RingPresentation(
        generators=(("x", 2), ("y", 2 * params.p + 1)),
        relations=(
            Relation(m, (("x", 2),)),
            Relation(1, (("x", params.p + 1),)),
            Relation(1, (("x", 2), ("y", 1))),
            Relation(1, (("y", 2),)),
        ),
    )


def cohomology_group(params: JoinParams, degree: int) -> AbelianGroupDescriptor:
    """Integral cohomology in one degree, read off the ring presentation.

    H^0 = H^2 = Z, H^(2k) = Z/(w1*w2*l1^2) for 2 <= k <= p, and
    H^(2p+1) = H^(2p+3) = Z; everything else vanishes.  Requires p > 1.
    """
    _require_p_above_one(params, "cohomology_group")
    if not 0 <= degree <= params.dim:
        raise ParameterError("0 <= degree <= 2p+3",
                             f"degree {degree} outside 0..{params.dim}")
    if degree in (0, 2, 2 * params.p + 1, 2 * params.p + 3):
        return Z
    if degree % 2 == 0 and 4 <= degree <= 2 * params.p:
        m = h4_order(params)
        if m == 1:
            return TRIVIAL_GROUP
        return AbelianGroupDescriptor(torsion=(m,))
    return TRIVIAL_GROUP


def homotopy_group(params: JoinParams, i: int) -> AbelianGroupDescriptor:
    """Homotopy group pi_i for 1 <= i <= 4 and p > 1.

    pi_1 = 0, pi_2 = pi_3 = Z, pi_4 = Z/2.  Higher groups would need tables
    of sphere homotopy groups and are deliberately out of reach.
    """
    _require_p_above_one(params, "homotopy_group")
    if not 1 <= i <= 4:
        raise ParameterError("1 <= i <= 4", f"homotopy index {i} outside 1..4")
    if i == 1:
        return TRIVIAL_GROUP
    if i in (2, 3):
        return Z
    return AbelianGroupDescriptor(torsion=(2,))


# ----------------------------------------------------------------------
# dimension-7 residues

def _require_dim7(params: JoinParams, what: str) -> None:
    if params.p != 2:
        raise ParameterError("p = 2", f"{what} is defined in dimension 7 only (p = 2)")


def p1_class(params: JoinParams) -> int:
    """First Pontryagin residue (3*l2^2 - l1^2*(w1^2+w2^2)) mod w1*w2*l1^2,
    reduced to [0, m).  Defined for p = 2."""
    _require_dim7(params, "p1_class")
    m = h4_order(params)
    return (3 * params.l2 ** 2 - params.l1 ** 2 * (params.w1 ** 2 + params.w2 ** 2)) % m


def linking_form(params: JoinParams) -> int:
    """Linking-form residue l2^3 mod w1*w2*l1^2, reduced to [0, m) (p = 2)."""
    _require_dim7(params, "linking_form")
    return params.l2 ** 3 % h4_order(params)


# ----------------------------------------------------------------------
# special-case bundle types

def bundle_type_wz(p: int, l2: int) -> str:
    """Bundle type of the l1 = 1, w = (1,1) join over S^2: "trivial" when the
    manifold is the product S^2 x S^(2p+1) (p odd, or p and l2 both even),
    "nontrivial" for the twisted S^(2p+1)-bundle (p even, l2 odd)."""
    _require_positive("p", p)
    _require_positive("l2", l2)
    if p % 2 == 1 or l2 % 2 == 0:
        return "trivial"
    return "nontrivial"


def diffeo_type_dim5(l1: int, l2: int, w1: int, w2: int) -> str:
    """Diffeomorphism type for p = 1: "S2xS3" when l1*(w1+w2) is even,
    "twisted" (the nontrivial S^3-bundle over S^2) when it is odd."""
    params = JoinParams(1, l1, l2, w1, w2)
    return "S2xS3" if params.l1 * (params.w1 + params.w2) % 2 == 0 else "twisted"


def iterated_join_ring(l1: int, l2: int, w1: int, w2: int) -> RingPresentation:
    """Cohomology ring of the twice-iterated join in dimension 7:
    Z[x,y,u,z]/(x^2, l2*x*y, w1*w2*l1^2*y^2, z^2, u^2, z*u, z*x, u*x, u*y)
    with x, y of degree 2 and z, u of degree 5."""
    for name, value in (("l1", l1), ("l2", l2), ("w1", w1), ("w2", w2)):
        _require_positive(name, value)
    if gcd(l1, l2) != 1:
        raise ParameterError("gcd(l1,l2) = 1", f"gcd(l1,l2) = {gcd(l1, l2)} != 1")
    if gcd(w1, w2) != 1:
        raise ParameterError("gcd(w1,w2) = 1", f"gcd(w1,w2) = {gcd(w1, w2)} != 1")
    m = w1 * w2 * l1 ** 2
    return RingPresentation(
        generators=(("x", 2), ("y", 2), ("z", 5), ("u", 5)),
        relations=(
            Relation(1, (("x", 2),)),
            Relation(l2, (("x", 1), ("y", 1))),
            Relation(m, (("y", 2),)),
            Relation(1, (("z", 2),)),
            Relation(1, (("u", 2),)),
            Relation(1, (("z", 1), ("u", 1))),
            Relation(1, (("z", 1), ("x", 1))),
            Relation(1, (("u", 1), ("x", 1))),
            Relation(1, (("u", 1), ("y", 1))),
        ),
    )
