"""Independent brute-force oracles for pinning expected test values.

Everything here is deliberately written from scratch on plain Fraction
lists, sharing no code path with the package under test: Horner evaluation,
naive polynomial algebra, a monic Euclidean gcd for square-free reduction,
a fine-grid sign-scan + bisection root finder, a rational-root candidate
enumeration, plain bisection of a refined cell, the three-ray threshold
searched with a Descartes count at every bisection level, and the
square-free certificate as Euclid's algorithm on lists of residues modulo a
prime.  Simple wins; only the sign-scan, the bisection, the threshold's
Wronskian signs and counts, and the residues work on integers (the
polynomial scaled to integer coefficients, each point num/den cleared by
den**degree), since signs and residues are all they read.  The bisection
reads its signs from the sign source it is handed.
"""

from fractions import Fraction
from math import gcd


def horner(coeffs, x):
    """Evaluate sum(coeffs[i] * x**i) exactly (coeffs lowest first)."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + Fraction(c)
    return acc


def derivative(coeffs):
    return [i * Fraction(c) for i, c in enumerate(coeffs)][1:]


def multiply(a, b):
    a, b = list(a), list(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return out


def power(coeffs, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = multiply(out, coeffs)
    return out


def strip(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def divmod_poly(num, den):
    num, den = strip(num), strip(den)
    if not den:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    r = list(num)
    while len(r) >= len(den) and r:
        f = r[-1] / den[-1]
        k = len(r) - len(den)
        q[k] = f
        for j, dc in enumerate(den):
            r[k + j] -= f * dc
        r = strip(r)
    return strip(q), r


def monic_gcd(a, b):
    a, b = strip(a), strip(b)
    while b:
        _, r = divmod_poly(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree(coeffs):
    """Square-free part via gcd with the derivative (monic)."""
    cs = strip(coeffs)
    if len(cs) <= 1:
        return cs
    g = monic_gcd(cs, derivative(cs))
    if len(g) <= 1:
        return cs
    q, r = divmod_poly(cs, g)
    assert not r
    return q


def root_bound(coeffs):
    cs = strip(coeffs)
    return 1 + max(abs(Fraction(c)) for c in cs[:-1]) / abs(Fraction(cs[-1]))


def rational_candidates(coeffs):
    """All rational-root-theorem candidates of an integer polynomial."""
    cs = [int(c) for c in coeffs]
    while cs and cs[0] == 0:
        cs = cs[1:]
    if len(cs) <= 1:
        return []

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    cands = set()
    for nm in divisors(cs[0]):
        for dn in divisors(cs[-1]):
            if gcd(nm, dn) == 1:
                cands.add(Fraction(nm, dn))
                cands.add(Fraction(-nm, dn))
    return sorted(cands)


def compare_with_signscan(coeffs, records):
    """Check isolation records against the sign-scan oracle.

    Agreement means: same number of positive roots, same order, and the
    same rationality verdict for each, with rationality confirmed by direct
    evaluation and irrationality by exhausting the rational candidates that
    fall inside the isolating interval.
    """
    events = signscan_positive_roots(coeffs)
    assert len(records) == len(events), (coeffs, len(records), len(events))
    for rec, event in zip(records, events):
        if event[0] == "exact":
            assert rec.is_rational and rec.value == event[1], (coeffs, event)
            continue
        _, lo, hi = event
        if rec.is_rational:
            assert lo < rec.value < hi, (coeffs, event)
            assert horner(coeffs, rec.value) == 0
        else:
            assert max(lo, rec.value.lo) < min(hi, rec.value.hi), (coeffs, event)
            for cand in rational_candidates(coeffs):
                if rec.value.lo <= cand <= rec.value.hi:
                    assert horner(coeffs, cand) != 0


def integer_multiple(coeffs):
    """The coefficients times their least common denominator: integers,
    with the same sign as the polynomial at every point."""
    cs = [Fraction(c) for c in coeffs]
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in cs]


def scaled_sign(icoeffs, num, den):
    """Sign of the integer-coefficient polynomial at num/den, den > 0, read
    off den**degree * p(num/den) by integer Horner."""
    acc = 0
    power = 1
    for c in reversed(icoeffs):
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def sign_at(icoeffs, q):
    q = Fraction(q)
    return scaled_sign(icoeffs, q.numerator, q.denominator)


def bisection_reference(signs, a, den, width, vb, levels):
    """Plain bisection of the cell (a, a + width] / den by ``levels``
    levels, den doubling, where vb is the value at its right end: a midpoint
    left of the root has the sign opposite to vb.  Reads only the signs of
    ``signs.value(x, y)``, and takes the arguments of the package's descent
    ``exactpoly._qir_levels``, so that it can stand in for it."""
    s_hi = (vb > 0) - (vb < 0)
    for _ in range(levels):
        a, den = 2 * a, 2 * den
        v = signs.value(a + width, den)
        if (v > 0) - (v < 0) == -s_hi:
            a += width
    return a, den


def signscan_positive_roots(coeffs, width=Fraction(1, 10 ** 9)):
    """Distinct positive real roots by fine-grid sign scan plus bisection.

    Works on the square-free part.  Returns ascending events, each either
    ("exact", q) for a root hit head-on or ("bracket", lo, hi) with a sign
    change across an interval of width <= width.  The grid is doubled until
    the number of events stabilizes twice, so closely spaced roots are not
    silently merged for any reasonable input.
    """
    sf = squarefree(coeffs)
    if len(sf) <= 1:
        return []
    bound = root_bound(sf)
    icoeffs = integer_multiple(sf)

    def scan(n):
        # grid point k is bound*k/n = num*k/den
        num, den = bound.numerator, bound.denominator * n
        events = []
        prev_sign = 0
        prev_k = 0
        for k in range(n + 1):
            x = num * k
            s = scaled_sign(icoeffs, x, den)
            if s == 0:
                if k > 0:
                    events.append(("exact", Fraction(x, den)))
                prev_sign = 0
                prev_k = k
                continue
            if prev_sign and s != prev_sign:
                events.append(("bracket", Fraction(num * prev_k, den), Fraction(x, den)))
            prev_sign = s
            prev_k = k
        return events

    n = 256
    events = scan(n)
    stable = 0
    while stable < 2:
        n *= 2
        nxt = scan(n)
        if len(nxt) == len(events):
            stable += 1
        else:
            stable = 0
        events = nxt
        if n > 1 << 22:
            raise RuntimeError("sign scan failed to stabilize")

    out = []
    for event in events:
        if event[0] == "exact":
            out.append(event)
            continue
        lo, hi = event[1], event[2]
        s_lo = sign_at(icoeffs, lo)
        exact = None
        while hi - lo > width:
            mid = (lo + hi) / 2
            s_mid = sign_at(icoeffs, mid)
            if s_mid == 0:
                exact = mid
                break
            if (s_mid > 0) == (s_lo > 0):
                lo, s_lo = mid, s_mid
            else:
                hi = mid
        if exact is not None:
            out.append(("exact", exact))
        else:
            out.append(("bracket", lo, hi))
    return out



def sign_variations(icoeffs):
    signs = [c > 0 for c in icoeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def int_multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def divide_linear(icoeffs, w1, w2):
    """The integer quotient of p by (w1*x - w2), top down, or None when
    that factor does not divide p (by Gauss's lemma the quotient of an
    integer polynomial by a primitive factor is integral)."""
    quotient, carry = [], 0
    for c in reversed(icoeffs[1:]):
        carry, rest = divmod(c + w2 * carry, w1)
        if rest:
            return None
        quotient.append(carry)
    return quotient[::-1] if icoeffs[0] == -w2 * carry else None


def moebius_variations(icoeffs, lo, hi):
    """Sign variations of (1+x)**n * p((lo*x + hi)/(1+x)) for the integer
    coefficients of p: the positive roots of that polynomial are the images
    of p's roots in (lo, hi), so by Descartes' rule 0 proves there is none.
    Built by homogeneous Horner on u = m*(hi + lo*x) and v = m*(1 + x)."""
    lo, hi = Fraction(lo), Fraction(hi)
    m = lo.denominator * hi.denominator
    u, v = [int(hi * m), int(lo * m)], [m, m]
    acc, v_power = [icoeffs[-1]], [1]
    for c in reversed(icoeffs[:-1]):
        v_power = int_multiply(v_power, v)
        acc = [s + c * t for s, t in zip(int_multiply(acc, u), v_power)]
    return sign_variations(acc)


def critical_value_every_level(a_coeffs, b_coeffs, w1, w2, width, levels=200):
    """(lo, hi) of the given width around t* = R(c*), for R = -B/A with one
    critical point c* in (0, w2/w1), where R is least: the three-ray
    threshold of a mixed-weight family, f = l2*A + l1*B, for the integer
    coefficients of A and B.

    c* is bisected on the sign of the Wronskian A'B - AB' with every factor
    (w1*x - w2) divided out, and at every level the cell is tested: with top
    the lesser value of R at an end of the cell inside (0, w2/w1), and
    bottom = top - width, (bottom, top) is returned once bottom*A + B has no
    root in the cell by a Descartes count.  None after ``levels`` levels."""
    forced = Fraction(w2, w1)
    slope_a = [i * c for i, c in enumerate(a_coeffs)][1:]
    slope_b = [i * c for i, c in enumerate(b_coeffs)][1:]
    wronskian = [s - t for s, t in zip(int_multiply(slope_a, b_coeffs),
                                       int_multiply(a_coeffs, slope_b))]
    while (quotient := divide_linear(wronskian, w1, w2)) is not None:
        wronskian = quotient

    def ratio(x):
        return -horner(b_coeffs, x) / horner(a_coeffs, x)

    lo, hi = Fraction(0), forced
    s_hi = sign_at(wronskian, hi)
    for _ in range(levels):
        mid = (lo + hi) / 2
        w = sign_at(wronskian, mid)
        if not w:
            return ratio(mid) - width / 2, ratio(mid) + width / 2
        lo, hi = (lo, mid) if w == s_hi else (mid, hi)
        top = min(ratio(x) for x in (lo, hi) if 0 < x < forced)
        bottom = top - width
        f_bottom = [bottom.numerator * a + bottom.denominator * b
                    for a, b in zip(a_coeffs, b_coeffs)]
        if moebius_variations(f_bottom, lo, hi) == 0:
            return bottom, top
    return None


# the primes of the square-free certificate, restated
SQUAREFREE_PRIMES = (32749, 32719, 32717)


def squarefree_mod_primes(coeffs):
    """Whether a prime l not dividing lc gives gcd(f, f') = 1 mod l for the
    integer coefficients ``coeffs`` (no trailing zero); False means unknown.
    Euclid's algorithm over Z/l on lists of residues, one element at a time."""
    for ell in SQUAREFREE_PRIMES if len(coeffs) >= 2 else ():
        a = [c % ell for c in coeffs]
        b = [i * c % ell for i, c in enumerate(a)][1:]
        if not a[-1]:
            continue
        # Euclid's algorithm over Z/ell; it ends at a constant b, or at b = 0
        # after the gcd of positive degree
        while len(b) > 1:
            inv = pow(b[-1], -1, ell)
            while len(a) >= len(b):
                f = a[-1] * inv % ell
                shift = len(a) - len(b)
                a[shift:] = [(u - f * v) % ell for u, v in zip(a[shift:], b)]
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        if b:
            return True
    return False
