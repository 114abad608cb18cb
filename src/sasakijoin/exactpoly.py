"""Exact univariate polynomial arithmetic over Z and Q.

Evaluation, formal derivatives, division, Yun square-free decomposition,
Sturm chains, rational roots, and certified isolation and refinement of
real roots.  Every decision made here (root counting, rationality, interval
certification) uses exact integer or rational arithmetic; floating point
never enters a decision path.  Decimal output is the caller's problem.

A polynomial is a dense tuple of arbitrary-precision integer coefficients,
lowest degree first, wrapped in :class:`IntPolynomial`.  The zero polynomial
is the empty tuple.  Build values with :func:`intpoly`.

Roots are isolated by Sturm-chain bisection of (0, B], B a Cauchy bound;
one remainder sequence gives both the chain and the square-free test, and
the last chain built is kept for root counting.  No integer is factored:
rational roots are found first, by p-adic lifting (Loos 1983).  A rational
root n/d has d | lc, so it reduces to a root modulo every prime l not
dividing lc.  The first l at which there is none proves no root rational;
at the first l whose roots are all simple, each lifts to the numerator of
one candidate, and exact division decides it.  Rational roots are divided
out before isolation, so no bisection point is a root and every reported
interval has non-root rational endpoints.  Cells are refined by secant
steps certified by exact signs (quadratic interval refinement), which reach
the dyadic cell bisection would.  Reported intervals are finished in order:
width and other roots, then adjacent closures pair by pair, then exclusions.

:func:`isolate_bracketed_roots` runs the same stages without a remainder
sequence, for a square-free polynomial whose roots the caller has
bracketed one per interval: cells are counted from signs at bracket
points, and signs come from a :class:`SparseQuotient`, which evaluates a
sparse f for its quotient by a power of a linear factor.
:func:`certify_squarefree` checks gcd(f, f') = 1 modulo a prime, by
Euclid's algorithm on residues packed into one integer.

A Taylor shift by 1 and Descartes' rule of signs on Moebius-mapped
intervals certify, without a remainder sequence, that an interval holds no
root or exactly one simple root.  :func:`split_counts` bounds the roots on
both sides of a point from prefix sums instead, with no Taylor shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, count
from math import ceil, gcd, isqrt
from operator import mul, ne
from struct import pack

__all__ = [
    "IntPolynomial",
    "RationalInterval",
    "RootRecord",
    "intpoly",
    "poly_add",
    "poly_sub",
    "poly_neg",
    "poly_mul",
    "poly_eval",
    "poly_derivative",
    "poly_divrem",
    "poly_exact_div",
    "content",
    "primitive_part",
    "poly_gcd",
    "squarefree_decompose",
    "sturm_count",
    "sign_variations",
    "taylor_shift",
    "descartes_count",
    "split_counts",
    "cauchy_root_bound",
    "deflate_linear",
    "rational_roots",
    "refine_interval",
    "isolate_positive_roots",
    "SparseQuotient",
    "certify_squarefree",
    "isolate_bracketed_roots",
    "cubic_discriminant",
    "format_poly",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies x**i.

    Canonical form: no trailing zero coefficients, so ``coeffs`` is empty
    exactly for the zero polynomial.  Use :func:`intpoly` to build one from
    an arbitrary coefficient sequence.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {c!r}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero; use intpoly()")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        return format_poly(self)


ZERO = IntPolynomial()


def intpoly(coeffs) -> IntPolynomial:
    """Build an :class:`IntPolynomial`, canonicalizing the sequence.

    Accepts any iterable of integers (or integer-valued rationals); trailing
    zeros are stripped.  Raises ValueError on non-integral values.
    """
    out = []
    for c in coeffs:
        ic = int(c)
        if ic != c:
            raise ValueError(f"non-integral coefficient {c!r}")
        out.append(ic)
    while out and out[-1] == 0:
        out.pop()
    return IntPolynomial(tuple(out))


# ----------------------------------------------------------------------
# ring operations

def poly_neg(p: IntPolynomial) -> IntPolynomial:
    return IntPolynomial(tuple(-c for c in p.coeffs))


def poly_add(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    n = max(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i, c in enumerate(a.coeffs):
        out[i] += c
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return intpoly(out)


def poly_sub(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    return poly_add(a, poly_neg(b))


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if a.is_zero or b.is_zero:
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
    return IntPolynomial(tuple(out))


def poly_derivative(poly: IntPolynomial, order: int = 1) -> IntPolynomial:
    """Formal derivative of the given order; order 0 returns the input."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    cs = poly.coeffs
    for _ in range(order):
        if len(cs) <= 1:
            return ZERO
        cs = tuple(i * cs[i] for i in range(1, len(cs)))
    return IntPolynomial(cs)


def _scaled_value(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den**deg * f(num/den) as an exact integer (den > 0)."""
    acc = coeffs[-1]
    dp = 1
    for c in reversed(coeffs[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return acc


def poly_eval(poly: IntPolynomial, q) -> Fraction:
    """Exact value of the polynomial at the rational point q."""
    if poly.is_zero:
        return Fraction(0)
    q = Fraction(q)
    s = _scaled_value(poly.coeffs, q.numerator, q.denominator)
    return Fraction(s, q.denominator ** poly.degree)


def _sign_at(coeffs: tuple[int, ...], q: Fraction) -> int:
    s = _scaled_value(coeffs, q.numerator, q.denominator)
    return (s > 0) - (s < 0)


# Quadratic interval refinement starts with _QIR_WARMUP plain bisections, one
# exact sign a level, whose values start its secant; a step then takes two.
_QIR_WARMUP = 4


class _Signs:
    """Signs of a polynomial q with integer coefficients.

    ``value(x, y)`` is an integer with the sign of q(x/y), for y > 0, and
    off finitely many points y**degree * g(x/y) for some g with the positive
    roots of q.  :func:`_refine` decides by the signs alone, and steers its
    secant steps by the magnitudes.
    """

    def sign(self, x: Fraction) -> int:
        """The sign of q at the rational x."""
        v = self.value(x.numerator, x.denominator)
        return (v > 0) - (v < 0)


class _Horner(_Signs):
    """Signs and values of a dense polynomial, by Horner's rule."""

    def __init__(self, cs: tuple[int, ...]) -> None:
        self.degree = len(cs) - 1
        self.value = partial(_scaled_value, cs)


def _sparse_value(terms, n: int, x: int, y: int) -> int:
    """y**n * f(x/y) for the nonzero terms (i, c) of f, ascending in i, by
    Horner's rule over the gaps between exponents: a gap of 1 costs a
    product with x and y, not with whole powers, and equal gaps share one."""
    top, acc = terms[-1]
    y_power, last, steps = 1, top, {}
    for i, c in reversed(terms[:-1]):
        gap = last - i
        if gap not in steps:
            steps[gap] = x ** gap, y ** gap
        x_step, y_step = steps[gap]
        y_power *= y_step
        acc = acc * x_step + c * y_power
        last = i
    return acc * x ** last * y ** (n - top)


class SparseQuotient(_Signs):
    """Signs of q = f / (d*x - n)**k, for a root n/d of f of multiplicity k,
    read off the nonzero terms of f: a few powers instead of deg(f) Horner
    steps when f is sparse and deg(f) large.

    ``value(x, y)`` is y**deg(f) * f(x/y) times sign(d*x - n*y)**k, or at
    n/d the cached d**deg(q) * q(n/d), of the same sign.
    """

    def __init__(self, f: IntPolynomial, quotient: IntPolynomial, root) -> None:
        root = Fraction(root)
        self.quotient = quotient
        self.terms = [(i, c) for i, c in enumerate(f.coeffs) if c]
        self.degree = f.degree
        self.odd = (f.degree - quotient.degree) % 2
        self.num, self.den = root.numerator, root.denominator

    def value(self, x: int, y: int) -> int:
        side = self.den * x - self.num * y
        if not side:
            return self.at_root
        v = _sparse_value(self.terms, self.degree, x, y)
        return -v if self.odd and side < 0 else v

    @cached_property
    def at_root(self) -> int:
        return _scaled_value(self.quotient.coeffs, self.num, self.den)


def poly_divrem(num: IntPolynomial, den: IntPolynomial):
    """Euclidean division over Q: num = quotient*den + remainder.

    Returns (quotient, remainder) as tuples of Fraction, lowest degree
    first, with deg(remainder) < deg(den).  Raises ZeroDivisionError when
    den is the zero polynomial.
    """
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    r = [Fraction(c) for c in num.coeffs]
    dd = den.degree
    lead = Fraction(den.coeffs[-1])
    q = [Fraction(0)] * max(len(r) - dd, 0)
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i]
        if not c:
            continue
        f = c / lead
        q[i - dd] = f
        r[i] = Fraction(0)
        for j in range(dd):
            r[i - dd + j] -= f * den.coeffs[j]
    while r and not r[-1]:
        r.pop()
    return tuple(q), tuple(r)


def poly_exact_div(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Exact division with integer result; raises ValueError otherwise."""
    q, r = poly_divrem(num, den)
    if r:
        raise ValueError("polynomial division is not exact")
    return intpoly(q)


def content(poly: IntPolynomial) -> int:
    """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
    return gcd(*poly.coeffs)


def primitive_part(poly: IntPolynomial) -> IntPolynomial:
    """poly divided by its content; sign of the leading coefficient kept."""
    if poly.is_zero:
        return ZERO
    g = content(poly)
    return IntPolynomial(tuple(c // g for c in poly.coeffs))


def _normalized(poly: IntPolynomial) -> IntPolynomial:
    """Primitive part with positive leading coefficient."""
    p = primitive_part(poly)
    return poly_neg(p) if p.coeffs and p.coeffs[-1] < 0 else p


def _neg_rem_like(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive integer multiple of -rem(a, b) with the correct sign.

    Computes the pseudo-remainder while tracking the sign of the scaling
    factor lc(b)**steps, so the result is a *positive* rational multiple of
    the negated true remainder.  This is exactly what a Sturm chain needs.
    """
    lb = b[-1]
    db = len(b) - 1
    r = list(a)
    steps = 0
    while r and len(r) - 1 >= db:
        lead = r[-1]
        r = [lb * c for c in r]
        shift = len(r) - 1 - db
        for j, bc in enumerate(b):
            r[shift + j] -= lead * bc
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    if not r:
        return ()
    if lb > 0 or steps % 2 == 0:
        r = [-c for c in r]
    g = gcd(*r)
    return tuple(c // g for c in r)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor over Z, primitive with positive leading coeff."""
    x = _normalized(a)
    y = _normalized(b)
    while not y.is_zero:
        if y.degree == 0:
            return IntPolynomial((1,))
        r = IntPolynomial(_neg_rem_like(x.coeffs, y.coeffs))
        x, y = y, r
    return _normalized(x)


def squarefree_decompose(poly: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun decomposition: poly = unit * prod(factor**multiplicity).

    Each returned factor is square-free, primitive with positive leading
    coefficient, and the factors are pairwise coprime; there is at most one
    factor per multiplicity and they come in increasing multiplicity order.
    The discarded unit is a rational number.  Constant input yields [].
    """
    if poly.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    p = _normalized(poly)
    if p.degree == 0:
        return []
    g = poly_gcd(p, poly_derivative(p))
    return [(p, 1)] if g.degree == 0 else _yun(p, g)


def _yun(p: IntPolynomial, g: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun's loop for a normalized p, given g = gcd(p, p') of positive degree."""
    c = poly_exact_div(p, g)
    d = poly_sub(poly_exact_div(poly_derivative(p), g), poly_derivative(c))
    out: list[tuple[IntPolynomial, int]] = []
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = poly_exact_div(c, a)
        d = poly_sub(poly_exact_div(d, a), poly_derivative(c))
        i += 1
    return out


# ----------------------------------------------------------------------
# Sturm chains and root counting

def _variation_count(chain: tuple[tuple[int, ...], ...], pt: Fraction) -> int:
    return sign_variations(_sign_at(cs, pt) for cs in chain)


@lru_cache(maxsize=1)
def _sturm_chain(poly: IntPolynomial) -> tuple[tuple[int, ...], ...]:
    """Sturm chain over Z of the square-free part of poly, which heads it.

    Entries are sign-equivalent to the true remainder chain f, f',
    -rem(f, f'), ...  That sequence for poly ends in gcd(poly, poly'): when
    the gcd is a constant, poly is square-free and the sequence is its
    chain; otherwise (rarely) the chain of poly / gcd is built instead.
    The last chain built is kept for the next caller.
    """
    chain = [poly.coeffs]
    d = poly_derivative(poly)
    if d.is_zero:
        return tuple(chain)
    chain.append(d.coeffs)
    while len(chain[-1]) > 1:
        nxt = _neg_rem_like(chain[-2], chain[-1])
        if not nxt:
            common = primitive_part(IntPolynomial(chain[-1]))
            return _sturm_chain(poly_exact_div(poly, common))
        chain.append(nxt)
    return tuple(chain)


def sign_variations(coeffs) -> int:
    """Sign changes in a coefficient sequence, zeros skipped (Descartes)."""
    signs = [c > 0 for c in coeffs if c]
    return sum(map(ne, signs, signs[1:]))


def _exact(*points) -> list:
    """The points as Fractions, None kept; floats are rejected as inexact."""
    if any(isinstance(v, float) for v in points):
        raise TypeError("points must be exact rationals, not floats")
    return [None if v is None else Fraction(v) for v in points]


def sturm_count(poly: IntPolynomial, lo, hi) -> int:
    """Number of distinct real roots in the interval (lo, hi].

    lo and hi are exact rationals; only None means an unbounded side, and
    floats are rejected.  Multiple roots count once.  Endpoints are allowed to
    be roots: a root at lo is excluded, a root at hi is included.
    """
    if poly.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    a, b = _exact(lo, hi)
    if a is not None and b is not None and not a < b:
        raise ValueError("lo < hi required")
    if poly.degree == 0:
        return 0
    if a is None or b is None:
        # past every root and the other endpoint the count is the one at
        # infinity; the chain is cheapest to evaluate at a power of two
        far = 1 << ceil(cauchy_root_bound(poly) + abs(a or 0) + abs(b or 0)).bit_length()
        a, b = (-far if a is None else a), (far if b is None else b)
    chain = _sturm_chain(primitive_part(poly))
    return _variation_count(chain, a) - _variation_count(chain, b)


def _taylor_shift(cs) -> list[int]:
    """Coefficients of f(x + 1) for the coefficients cs of f, lowest first."""
    a = list(cs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _scaled(cs, s: Fraction) -> list[int]:
    """Coefficients of den**n * f(s*x) for the rational s = num/den > 0,
    by running powers of num upwards and of den downwards."""
    ups = accumulate([s.numerator] * (len(cs) - 1), mul, initial=1)
    downs = list(accumulate([s.denominator] * (len(cs) - 1), mul, initial=1))
    return [c * u * d for c, u, d in zip(cs, ups, reversed(downs))]


def taylor_shift(poly: IntPolynomial) -> IntPolynomial:
    """poly(x + 1), by n(n+1)/2 integer additions."""
    return IntPolynomial(tuple(_taylor_shift(poly.coeffs)))


def descartes_count(poly: IntPolynomial, lo, hi=None) -> int:
    """Sign variations of (1+x)**n * poly((lo + hi*x)/(1 + x)), the image of
    the open interval (lo, hi) under the Moebius map onto (0, oo).

    By Descartes' rule this bounds the number of roots in (lo, hi), counted
    with multiplicity, and has the same parity: 0 proves there is none and
    1 that there is exactly one, a simple one.  hi = None means an unbounded
    interval; 0 <= lo < hi is required, and floats are rejected.
    """
    if poly.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    lo, hi = _exact(lo, hi)
    if lo < 0 or hi is not None and not lo < hi:
        raise ValueError("0 <= lo < hi required")
    cs = poly.coeffs
    if lo:
        cs = _taylor_shift(_scaled(cs, lo))         # poly(lo*(1 + x))
    if hi is None:
        return sign_variations(cs)
    cs = _scaled(cs, (hi - lo) / lo if lo else hi)  # poly(lo + (hi-lo)*x)
    # x -> 1/x then x -> x + 1 carries (0, 1) onto (0, oo)
    return sign_variations(_taylor_shift(cs[::-1]))


def split_counts(poly: IntPolynomial, point) -> tuple[int | None, int | None]:
    """Bounds on the roots of poly in (0, point) and in (point, oo), for a
    rational point > 0 that is not a root (a float is rejected), or None
    where none was found.

    Each bound has the parity of the roots counted with multiplicity, as a
    :func:`descartes_count` has, at n additions a level, not a Taylor shift.
    For V(y) = den**n * poly(point*y), Descartes' rule for power series
    (Laguerre; Polya and Szego II, Part V) bounds the roots of V in (0, 1)
    by the sign variations of V(y)/(1 - y)**s, whose coefficients are the
    s-fold prefix sums of V's; the reversed coefficients bound (1, oo).
    """
    if poly.is_zero:
        raise ValueError("root counting needs a nonzero polynomial")
    point, = _exact(point)
    if point <= 0:
        raise ValueError("point > 0 required")
    cs = _scaled(poly.coeffs, point)
    total = sum(cs)
    if not total:
        raise ValueError(f"{point} is a root")
    return _series_variations(cs, total), _series_variations(cs[::-1], total)


def _series_variations(cs, total: int) -> int | None:
    """Sign variations of cs(y)/(1 - y)**s for the largest s <= 3 whose tail
    has settled, else None: past the last index level 1 stays at total and
    level j adds level j-1, so once levels 1..s end with the sign of total
    no entry changes sign.  6y**2 - 5 sums twice to [-5, -10, -9]: no bound."""
    count = None
    for _ in range(3):
        cs = list(accumulate(cs))
        if cs[-1] * total <= 0:
            break
        count = sign_variations(cs)
    return count


def cauchy_root_bound(poly: IntPolynomial) -> Fraction:
    """A rational B with |r| < B for every real root r (degree >= 1)."""
    if poly.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    an = abs(poly.coeffs[-1])
    mx = max(abs(c) for c in poly.coeffs[:-1])
    return 1 + Fraction(mx, an)


def deflate_linear(poly: IntPolynomial, root) -> tuple[IntPolynomial, int]:
    """Divide out the full power of (den*x - num) for the rational root
    num/den; return (quotient, k), k the exact multiplicity (0 for a non-root).

    Synthetic division from the top: by Gauss's lemma every step of an exact
    division is integral, so a fraction or a nonzero remainder ends it.
    """
    root = Fraction(root)
    num, den = root.numerator, root.denominator
    cs = poly.coeffs
    k = 0
    while len(cs) > 1:
        quot = [0] * (len(cs) - 1)
        r = cs[-1]
        for i in range(len(cs) - 1, 0, -1):
            qi, rem = divmod(r, den)
            if rem:
                return IntPolynomial(cs), k
            quot[i - 1] = qi
            r = cs[i - 1] + num * qi
        if r:
            break
        cs = tuple(quot)
        k += 1
    return IntPolynomial(cs), k


# ----------------------------------------------------------------------
# isolation and refinement of real roots, and rational roots

@dataclass(frozen=True)
class RationalInterval:
    """Open-ended certificate interval with exact rational endpoints.

    The endpoints are never roots of the certified polynomial; the interval
    contains exactly one of its distinct real roots.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("interval needs lo < hi")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class RootRecord:
    """One distinct positive real root: exact rational or isolating interval."""

    value: "Fraction | RationalInterval"
    multiplicity: int
    is_rational: bool

    @property
    def position(self) -> Fraction:
        """A sort key below the root for rationals, below-left for intervals."""
        return self.value if self.is_rational else self.value.lo


def _isolate_cells(above, lo: Fraction, hi: Fraction, known=()) -> list[tuple[Fraction, Fraction]]:
    """Cells (a, b] of the bisection of (lo, hi], ascending: for each root not
    in known, the first cell holding no other such root.

    ``above(x)`` is, up to a constant, the number of roots above x: a Sturm
    variation count, or the count over brackets of :func:`_bracket_above`.
    """
    cells = []
    work = [(lo, hi, above(lo), above(hi))]
    while work:
        a, b, va, vb = work.pop()
        n = va - vb - sum(a < r <= b for r in known)
        if n == 1:
            cells.append((a, b))
        elif n > 1:
            mid = (a + b) / 2
            vm = above(mid)
            work.append((mid, b, vm, vb))
            work.append((a, mid, va, vm))
    return cells


def _bracket_above(brackets, signs):
    """The number of roots above x, for one root in each bracket (lo, hi)
    whose ends have opposite signs (ValueError otherwise): a root lies above
    a point of its bracket exactly when the point has the sign of lo."""
    ends = [(lo, hi, signs.sign(lo)) for lo, hi in brackets]
    if any(s * signs.sign(hi) >= 0 for _, hi, s in ends):
        raise ValueError("the signs at the ends of a bracket must differ")
    return lambda x: sum(x <= lo or x < hi and signs.sign(x) == s for lo, hi, s in ends)


def _qir_levels(signs, a: int, den: int, width: int, vb: int, levels: int):
    """Descend ``levels`` levels from the cell (a, a + width] / den, vb the
    value at its right end, to the cell bisection reaches, by quadratic
    interval refinement (Abbott 2006).  After _QIR_WARMUP bisections, a step
    of k levels rounds the secant's root to a point m of the 2**k times
    finer grid and keeps the window (m - 1, m] or (m, m + 1] if the signs at
    its ends bracket the root.  k doubles after a kept window and halves
    after a missed one, which one bisection replaces.  Magnitudes only
    steer; a cell end carried to a finer grid is rescaled by a shift."""
    value, degree, s_hi = signs.value, signs.degree, (vb > 0) - (vb < 0)
    va, done, step, missed = None, 0, 1, False    # va: None until evaluated, never 0
    while done < levels:
        k = 1 if missed or va is None or done < _QIR_WARMUP else min(step, levels - done)
        n, base, fine = 1 << k, a << k, den << k
        # the secant's root, rounded on the finer grid; the midpoint when k is 1
        m = min(max(((va << k + 1) // (va - vb) + 1) >> 1, 1), n - 1) if k > 1 else 1
        vm = value(base + m * width, fine)
        # a grid point lies left of the root exactly when its value * s_hi < 0
        j = m + 1 if vm * s_hi < 0 else m - 1
        if 0 < j < n:
            vj = value(base + j * width, fine)
            if (vj * s_hi < 0) != (j < m):      # missed: bisect next
                step, missed = max(1, k // 2), True
                continue
        else:                                   # an end of the cell, whose side is known
            vj = vb << degree * k if j else va and va << degree * k
        a, den, done = base + min(m, j) * width, fine, done + k
        va, vb = (vj, vm) if j < m else (vm, vj)
        step, missed = step if missed else 2 * k, False
    return a, den


def refine_interval(poly: IntPolynomial, lo: Fraction, hi: Fraction, max_width,
                    exclude=()) -> tuple[Fraction, Fraction]:
    """Shrink the isolating interval (lo, hi] of one root of poly.

    (lo, hi] must hold exactly one root of poly, of odd multiplicity; hi
    and the points of exclude must not be roots, and lo, unless it is a
    root, must differ in sign from hi (ValueError otherwise).  Float ends are
    rejected, and so are float points of exclude and a float max_width.  The
    result is the interval bisection reaches: the cell
    (lo + i*w/2**t, lo + (i+1)*w/2**t], w = hi - lo, that holds the root, for
    the least t at which the width is at most max_width and the closure holds
    no point of exclude.  Secant steps reach it (:func:`_qir_levels`).
    """
    lo, hi, max_width, *exclude = _exact(lo, hi, max_width, *exclude)
    signs = _Horner(poly.coeffs)
    if signs.sign(lo) == signs.sign(hi) != 0:
        raise ValueError(f"no sign change on ({lo}, {hi}]: no root of odd multiplicity")
    return _refine(signs, lo, hi, max_width, exclude)


def _refine(signs, lo: Fraction, hi: Fraction, max_width: Fraction,
            exclude=()) -> tuple[Fraction, Fraction]:
    """:func:`refine_interval` on Fractions, for the isolating cells of this
    module, whose ends differ in sign, with the signs and values of ``signs``."""
    den = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    width = hi.numerator * (den // hi.denominator) - a
    # every cell below is (a, a + width] / den, den doubling per level
    vb = signs.value(a + width, den)
    if not vb:
        raise ValueError(f"the interval end {hi} is a root")
    if any(lo < r <= hi and not signs.sign(r) for r in exclude):
        raise ValueError("a point of exclude is a root")
    ratio = -(-width * max_width.denominator // (max_width.numerator * den))
    levels = (ratio - 1).bit_length() if ratio > 1 else 0
    a, den = _qir_levels(signs, a, den, width, vb, levels)
    points = [(r.numerator, r.denominator) for r in exclude]
    while any(a * rd <= rn * den <= (a + width) * rd for rn, rd in points):
        a, den = _qir_levels(signs, a, den, width, vb, 1)
    return Fraction(a, den), Fraction(a + width, den)


def _mod_value(cs, x: int, mod: int) -> int:
    """f(x) mod ``mod`` for the coefficients cs of f, by Horner's rule mod ``mod``."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % mod
    return acc


def _rational_roots_of(poly: IntPolynomial) -> list[Fraction]:
    """The rational roots, ascending, of a square-free integer polynomial f,
    by p-adic lifting (Loos 1983).

    A root n/d has d | lc, so modulo each prime l not dividing lc it reduces
    to the root n * d**-1: where f has no root mod l, none is rational.  A
    square-free f has only simple roots mod all but finitely many l.  At the
    first such l, Newton steps lift each root r uniquely mod l**(2**i) until
    the modulus passes 2*|lc|*B, B the Cauchy bound.  The symmetric residue m
    of lc*r is then the one numerator with |m| < |lc|*B, and exact division
    decides the candidate m/lc.
    """
    cs = poly.coeffs
    if len(cs) < 2:
        return []
    slopes = poly_derivative(poly).coeffs
    for ell in count(2):
        if cs[-1] % ell and all(ell % q for q in range(2, isqrt(ell) + 1)):
            roots = [x for x in range(ell) if not _mod_value(cs, x, ell)]
            if all(_mod_value(slopes, x, ell) for x in roots):
                break
    bound = abs(cs[-1]) + max(map(abs, cs[:-1]))     # |lc| * B
    out = []
    for r in roots:
        mod = ell
        while mod <= 2 * bound:
            # f'(r)**-1 mod the old modulus suffices, as f(r) is 0 there
            inv = pow(_mod_value(slopes, r, mod), -1, mod)
            mod *= mod
            r = (r - _mod_value(cs, r, mod) * inv) % mod
        m = cs[-1] * r % mod
        m -= mod if 2 * m > mod else 0
        if abs(m) < bound and deflate_linear(poly, Fraction(m, cs[-1]))[1]:
            out.append(Fraction(m, cs[-1]))
    return sorted(out)


# Primes for the square-free certificate, below 2**15.  It reduces each 64-bit
# slot of residues mod l at least every _SQUAREFREE_STEPS = 512 products of two
# residues, so a slot stays below 512 * l**2 < 2**24 * l.  There, with m =
# 2**40 // l, slot * m < 2**64, the Barrett quotient (slot * m) >> 40 fits 24
# bits and is exact or one less, and bit 63 of slot + 2**63 - l marks slot >= l.
_SQUAREFREE_PRIMES = (32749, 32719, 32717)
_SQUAREFREE_STEPS = 512
_SLOT = 2 ** 64 - 1


def certify_squarefree(poly: IntPolynomial) -> bool:
    """Whether a prime l not dividing lc shows that poly is square-free:
    gcd(poly, poly') = 1 mod l.  A square factor g**2 of poly would leave
    g mod l, of the same positive degree, in that gcd.  False means unknown.
    Euclid runs on one int per polynomial, a slot per residue and the
    leading one lowest: a step is a multiply, an add and a shift."""
    for ell in (e for e in _SQUAREFREE_PRIMES if poly.degree >= 1 and poly.coeffs[-1] % e):
        res = [c % ell for c in poly.coeffs]
        a, b = (int.from_bytes(pack(f">{len(r)}Q", *r), "big")
                for r in (res, [i * c % ell for i, c in enumerate(res)][1:]))
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * len(res), "little")
        m, low24, top = (1 << 40) // ell, ones * 0xFFFFFF, ones * ((1 << 63) - ell)
        da, db = len(res) - 1, len(res) - 2
        while b and db:     # until b is 0 after the gcd a, or a constant
            if zeros := ((b & -b).bit_length() - 1) // 64:
                b, db = b >> 64 * zeros, db - zeros     # leading slots of 0
                continue
            neg_inv = ell - pow(b & _SLOT, -1, ell)
            for left in range(da - db + 1, 0, -_SQUAREFREE_STEPS):
                for _ in range(min(left, _SQUAREFREE_STEPS)):
                    if lead := (a & _SLOT) % ell:
                        a += lead * neg_inv % ell * b
                    a >>= 64
                a -= (((a * m) >> 40) & low24) * ell
                a -= (((a + top) >> 63) & ones) * ell
            a, b, da, db = b, a, db, db - 1
        if b:
            return True
    return False


def _zero_root(poly: IntPolynomial) -> tuple[int, IntPolynomial]:
    """(k, p0) for a nonzero poly = x**k * p0 up to a constant, p0 primitive."""
    cs = primitive_part(poly).coeffs
    k = next(i for i, c in enumerate(cs) if c)
    return k, IntPolynomial(cs[k:])


def _squarefree_setup(poly: IntPolynomial):
    """(k, chain, factors) for a nonzero poly = x**k * p0 up to a constant:
    the Sturm chain of the square-free part of p0 and the Yun factors of p0
    (p0 itself when it is square-free).

    The chain is headed by p0 / gcd(p0, p0'), so Yun starts from the gcd
    that one exact division recovers.
    """
    k, p0 = _zero_root(poly)
    chain = _sturm_chain(p0)
    if chain[0] == p0.coeffs:
        return k, chain, [(p0, 1)]
    p = _normalized(p0)
    return k, chain, _yun(p, _normalized(poly_exact_div(p, IntPolynomial(chain[0]))))


def _multiplicity(factors, lo: Fraction, hi: Fraction | None = None) -> int:
    """Multiplicity of the Yun factor vanishing at lo, or changing sign on (lo, hi)."""
    if len(factors) == 1:
        return factors[0][1]
    for fac, m in factors:
        s = _sign_at(fac.coeffs, lo)
        if (s == 0) if hi is None else s * _sign_at(fac.coeffs, hi) < 0:
            return m
    raise RuntimeError("root matches no square-free factor")


def rational_roots(poly: IntPolynomial) -> list[tuple[Fraction, int]]:
    """All rational roots with exact multiplicities, ascending.

    Each Yun factor of p0 = poly / x**k is searched by p-adic lifting; when
    :func:`certify_squarefree` holds, p0 is the one factor and no chain is built.
    """
    if poly.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    k, p0 = _zero_root(poly)
    factors = [(p0, 1)] if certify_squarefree(p0) else _squarefree_setup(poly)[2]
    out = [(Fraction(0), k)] if k else []
    out += [(r, m) for fac, m in factors for r in _rational_roots_of(fac)]
    return sorted(out)


def _check_isolation_input(poly: IntPolynomial, precision: int) -> None:
    if poly.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if not 1 <= precision <= 1000:
        raise ValueError("precision must be between 1 and 1000")


def isolate_positive_roots(poly: IntPolynomial, precision: int = 12,
                           exclude=()) -> list[RootRecord]:
    """Certified records of all distinct positive real roots, ascending.

    Rational roots are reported exactly.  Every other root gets an isolating
    interval, finished in order: width at most 10**-precision and a closure
    clear of all other roots; then adjacent closures separated pair by pair;
    then a closure clear of each point of exclude, which must not be a root
    (nor a float).  Multiplicities are read off the Yun decomposition.
    """
    _check_isolation_input(poly, precision)
    exclude = _exact(*exclude)
    if poly.degree == 0:
        return []
    k, chain, factors = _squarefree_setup(poly)
    sf = IntPolynomial(chain[0])
    return _finish_roots(sf, partial(_variation_count, chain), _Horner(sf.coeffs),
                         factors, k, precision, exclude)


def isolate_bracketed_roots(poly: IntPolynomial, brackets, signs, precision: int = 12,
                            exclude=()) -> list[RootRecord]:
    """The records of ``isolate_positive_roots(poly, precision, exclude)``,
    found without a remainder sequence.

    poly must be square-free (:func:`certify_squarefree`) and nonzero at 0.
    ``brackets`` are disjoint intervals (lo, hi), 0 <= lo < hi, ascending,
    whose ends differ in sign (ValueError otherwise); each holds exactly one
    root, and together they hold every positive root, which the caller
    certifies.  Float bracket ends and points of exclude are rejected.
    ``signs`` gives the signs and values of poly, as :class:`SparseQuotient`
    does.  Cells and refinements are the same; only root counts come from
    the brackets and signs from ``signs``.
    """
    _check_isolation_input(poly, precision)
    brackets = [_exact(lo, hi) for lo, hi in brackets]
    sf = primitive_part(poly)
    return _finish_roots(sf, _bracket_above(brackets, signs), signs, [(sf, 1)], 0,
                         precision, _exact(*exclude))


def _finish_roots(sf: IntPolynomial, above, signs, factors, k: int, precision: int,
                  exclude) -> list[RootRecord]:
    """Records of the positive roots of the square-free part sf of a
    polynomial x**k * p0 with the Yun factors of p0; ``above`` counts roots
    of sf as :func:`_isolate_cells` needs and ``signs`` gives sf's signs."""
    max_width = Fraction(1, 10 ** precision)
    # The rational roots are divided out and the quotient irr is isolated from
    # its own Cauchy bound, so that no bisection point is a root.
    rationals = [r for r in _rational_roots_of(sf) if r > 0]
    irr = sf
    if rationals:
        for r in rationals:
            irr = deflate_linear(irr, r)[0]
        signs = _Horner(irr.coeffs)
    cells = _isolate_cells(above, Fraction(0), cauchy_root_bound(irr), rationals) \
        if irr.degree >= 1 else []
    # closures must also avoid a root at 0, which is not a root of irr
    avoid = rationals + [Fraction(0)] if k else rationals
    intervals = [_refine(signs, lo, hi, max_width, avoid) for lo, hi in cells]

    # Separate the closures of adjacent cells, which may share an endpoint,
    # by halving both.  One level leaves a cell touching at most one
    # neighbour, so each pair takes the same levels in any visiting order.
    for i in range(len(intervals) - 1):
        while intervals[i][1] >= intervals[i + 1][0]:
            intervals[i:i + 2] = [_refine(signs, lo, hi, (hi - lo) / 2)
                                  for lo, hi in intervals[i:i + 2]]
    # Clearing exclude must come last: a cell refined before the separation
    # changes how far its touching neighbour is halved, and so the reports.
    intervals = [_refine(signs, lo, hi, hi - lo, exclude)
                 if any(lo <= r <= hi for r in exclude) else (lo, hi) for lo, hi in intervals]
    records = [RootRecord(r, _multiplicity(factors, r), True) for r in rationals]
    records.extend(RootRecord(RationalInterval(lo, hi), _multiplicity(factors, lo, hi), False)
                   for lo, hi in intervals)
    records.sort(key=lambda rec: rec.position)
    return records


# ----------------------------------------------------------------------
# discriminant

def cubic_discriminant(a3, a2, a1, a0) -> Fraction:
    """Discriminant of a3*x^3 + a2*x^2 + a1*x + a0 (a3 != 0)."""
    a3, a2, a1, a0 = Fraction(a3), Fraction(a2), Fraction(a1), Fraction(a0)
    if a3 == 0:
        raise ValueError("leading cubic coefficient must be nonzero")
    return (18 * a3 * a2 * a1 * a0
            - 4 * a2 ** 3 * a0
            + a2 ** 2 * a1 ** 2
            - 4 * a3 * a1 ** 3
            - 27 * a3 ** 2 * a0 ** 2)


def format_poly(poly: IntPolynomial, var: str = "x") -> str:
    """Human-readable rendering, highest degree first."""
    if poly.is_zero:
        return "0"
    parts = []
    for i in range(poly.degree, -1, -1):
        c = poly.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            x = var if i == 1 else f"{var}^{i}"
            body = x if mag == 1 else f"{mag}*{x}"
        parts.append((sign, body))
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
