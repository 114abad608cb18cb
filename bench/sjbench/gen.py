"""Seeded input generators and the properties recorded with each workload.

The same seed always gives the same inputs.  Everything here is written
from the paper's formulas and shares no code with the package: the
validity rules, the ray polynomial and the Wang-Ziller threshold are
restated so that the generator can choose inputs, and the output check
can judge results, without trusting the code under test.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from math import gcd, log2, prod

# census: a sample of the criterion-8 scan's csc_rays calls
CENSUS_OPS = 4000
CENSUS_PRECISION = 12
SCAN_P = range(1, 5)
SCAN_MAX = 20     # w1, l1 and l2 run up to 20 in the scan

# stress: three expensive kinds, sized so each takes a comparable share
STRESS_DEGREE_RANGE = (70, 90)
STRESS_DEGREE_OPS = 8
STRESS_PRIME_DECADES = (12.5, 13.5)   # 13- and 14-digit primes
STRESS_PRIME_OPS = 7
STRESS_PRECISIONS = ((200, 6), (1000, 8))   # (digits, ops)

# cli
CLI_CSC_QUERIES = 20
CLI_HIGH_PRECISION = 500
CLI_SWEEP_VALUES = 3000
CLI_DIFFEO_VALUES = 100_000
CLI_DIFFEO_L1 = 7
CLI_SWEEP_SHAPES = (("homogeneous", 2, 3, (1, 1)), ("mixed", 2, 1, (3, 2)))
FRONT_END_CSC_QUERIES = 9

MIXED_WEIGHTS = ((2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (5, 3))


@dataclass(frozen=True)
class Query:
    """One in-process op: validate the raw tuple, then ``csc_rays`` on it."""

    kind: str
    tup: tuple[int, int, int, int, int]
    precision: int


@dataclass(frozen=True)
class CliOp:
    """One ``python -m sasakijoin`` invocation.

    ``query`` is set for ``csc`` ops; ``pair`` groups the two ``--jobs``
    runs of one sweep so their outputs can be byte-compared.
    """

    kind: str
    argv: tuple[str, ...]
    query: Query | None = None
    pair: str | None = None
    meta: dict = field(default_factory=dict, hash=False, compare=False)


# ----------------------------------------------------------------------
# restated mathematics

def valid(p: int, l1: int, l2: int, w1: int, w2: int) -> bool:
    """The join constraints: positive entries, w1 >= w2, gcd(w1, w2) = 1
    and gcd(l2, l1*w1) = gcd(l2, l1*w2) = 1."""
    return (min(p, l1, l2, w1, w2) >= 1 and w1 >= w2 and gcd(w1, w2) == 1
            and gcd(l2, l1 * w1) == 1 and gcd(l2, l1 * w2) == 1)


def ray_coefficients(p: int, l1: int, l2: int, w1: int, w2: int) -> list[int]:
    """Coefficients of the degree-(2p+4) ray polynomial in b, lowest first.

    f(b) = -l1 w1^(2p+3) b^(2p+4) + (l2 + l1 w2) w1^(2p+2) b^(2p+3)
         - ((p+1)^2 l2 - l1((p+1)w1 + (p+2)w2)) w1^(p+2) w2^p b^(p+3)
         + (2p(p+2) l2 - (2p+3) l1 (w1+w2)) w1^(p+1) w2^(p+1) b^(p+2)
         - ((p+1)^2 l2 - l1((p+2)w1 + (p+1)w2)) w1^p w2^(p+2) b^(p+1)
         + (l2 + l1 w1) w2^(2p+2) b - l1 w2^(2p+3)
    """
    top = 2 * p + 4
    terms = {
        top: -l1 * w1 ** (2 * p + 3),
        top - 1: (l2 + l1 * w2) * w1 ** (2 * p + 2),
        p + 3: -((p + 1) ** 2 * l2 - l1 * ((p + 1) * w1 + (p + 2) * w2))
        * w1 ** (p + 2) * w2 ** p,
        p + 2: (2 * p * (p + 2) * l2 - (2 * p + 3) * l1 * (w1 + w2))
        * w1 ** (p + 1) * w2 ** (p + 1),
        p + 1: -((p + 1) ** 2 * l2 - l1 * ((p + 2) * w1 + (p + 1) * w2))
        * w1 ** p * w2 ** (p + 2),
        1: (l2 + l1 * w1) * w2 ** (2 * p + 2),
        0: -l1 * w2 ** (2 * p + 3),
    }
    coeffs = [0] * (top + 1)
    for degree, value in terms.items():
        coeffs[degree] += value
    return coeffs


def above_wz_threshold(p: int, l1: int, l2: int) -> bool:
    """l2 > 2(3+2p) l1 / (p(p+1)): the equal-weights family has a second ray."""
    return l2 * p * (p + 1) > 2 * (3 + 2 * p) * l1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# ----------------------------------------------------------------------
# generators

def _draw_valid(rng: random.Random, draw, wanted=lambda tup: True) -> tuple[int, ...]:
    while True:
        tup = draw()
        if valid(*tup) and wanted(tup):
            return tup


def _mixed_weights(rng: random.Random) -> tuple[int, int]:
    return MIXED_WEIGHTS[rng.randrange(len(MIXED_WEIGHTS))]


def scan_tuples():
    """Every tuple the criterion-8 acceptance scan passes to ``csc_rays``,
    in scan order.

    The scan walks p 1..4, coprime w2 < w1 <= 20 and l1, l2 <= 20, skips
    the tuples that fail validation and those with c1 = l2(p+1) -
    l1(w1+w2) > 0; then it walks the homogeneous tuples (w = (1,1)) with
    gcd(l1, l2) = 1 and l2 at or below the Wang-Ziller threshold.  This is
    a generator so that the census can sample it without holding it.
    """
    top = SCAN_MAX + 1
    for p in SCAN_P:
        for w1 in range(2, top):
            for w2 in range(1, w1):
                if gcd(w1, w2) != 1:
                    continue
                for l1 in range(1, top):
                    for l2 in range(1, top):
                        if valid(p, l1, l2, w1, w2) and l2 * (p + 1) <= l1 * (w1 + w2):
                            yield (p, l1, l2, w1, w2)
    for p in SCAN_P:
        for l1 in range(1, top):
            for l2 in range(1, top):
                if gcd(l1, l2) == 1 and not above_wz_threshold(p, l1, l2):
                    yield (p, l1, l2, 1, 1)


def _factor(n: int) -> Counter:
    out: Counter = Counter()
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] += 1
            n //= q
        q += 1
    if n > 1:
        out[n] += 1
    return out


@cache
def _divisor_count(l1: int, w: int, e: int) -> int:
    """Number of divisors of l1 * w^e."""
    exps = _factor(l1)
    for q, a in _factor(w).items():
        exps[q] += e * a
    return prod(a + 1 for a in exps.values())


def _stratum(tup) -> tuple[int, bool, int]:
    """p, weight shape and, in half-powers of two, the number of divisor
    pairs of the ray polynomial's leading and constant coefficients
    (l1 w1^(2p+3) and l1 w2^(2p+3)), which the rational-root search tries
    and which set most of a census op's cost."""
    p, l1, _, w1, w2 = tup
    pairs = _divisor_count(l1, w1, 2 * p + 3) * _divisor_count(l1, w2, 2 * p + 3)
    return p, w1 == w2, round(2 * log2(pairs))


def census_queries(seed: int) -> list[Query]:
    """A seeded sample of the criterion-8 scan's ``csc_rays`` calls,
    stratified (see :func:`_stratum`) so that every seed has the scan's own
    mix (about 1% homogeneous, a quarter per p) and draws its slowest ops
    from the same strata."""
    rng = random.Random(f"census:{seed}")
    sizes = Counter(_stratum(tup) for tup in scan_tuples())
    total = sum(sizes.values())
    picks = {key: set(rng.sample(range(n), round(CENSUS_OPS * n / total)))
             for key, n in sorted(sizes.items())}
    seen: Counter = Counter()
    out = []
    for tup in scan_tuples():
        key = _stratum(tup)
        if seen[key] in picks[key]:
            out.append(Query("homogeneous" if key[1] else "grid", tup, CENSUS_PRECISION))
        seen[key] += 1
    rng.shuffle(out)
    return out


def stress_queries(seed: int) -> list[Query]:
    """Three expensive kinds: high degree, a large prime l1, and high
    precision.  Each slot fixes the parameters that set an op's cost (p,
    the prime's size, the precision, the shape) within a narrow band and
    the seed draws the rest, so that the cost of each slot, and so the
    order of the latencies, moves little from seed to seed."""
    rng = random.Random(f"stress:{seed}")
    out = []

    lo, hi = STRESS_DEGREE_RANGE
    step = (hi - lo) / STRESS_DEGREE_OPS
    for i in range(STRESS_DEGREE_OPS):
        p = lo + int(i * step) + rng.randint(0, 1)
        w1, w2 = (1, 1) if i % 2 == 0 else MIXED_WEIGHTS[i // 2 % 3]
        tup = _draw_valid(rng, lambda: (p, 1, rng.randint(1, 5), w1, w2))
        out.append(Query("degree", tup, 12))

    d_lo, d_hi = STRESS_PRIME_DECADES
    step = (d_hi - d_lo) / STRESS_PRIME_OPS
    for i in range(STRESS_PRIME_OPS):
        l1 = next_prime(int(10 ** (d_lo + (i + 0.4 + 0.2 * rng.random()) * step)))
        w1, w2 = (1, 1) if i % 2 == 0 else MIXED_WEIGHTS[i // 2 % 3]
        tup = _draw_valid(rng, lambda: (1 + i % 2, l1, rng.randint(2, 6), w1, w2))
        out.append(Query("prime", tup, 12))

    for digits, count in STRESS_PRECISIONS:
        for i in range(count):
            if i % 2 == 0:
                # equal weights above the Wang-Ziller threshold: a pair of
                # irrational rays besides the regular one
                p = 1 + i // 2 % 2 if digits < 1000 else 2
                tup = _draw_valid(rng, lambda: (p, 1, rng.randint(23, 27), 1, 1),
                                  lambda t: above_wz_threshold(*t[:3]))
            else:
                # l2 >= 23 > 3(w1 + w2): one or three irrational rays
                w1, w2 = MIXED_WEIGHTS[i // 2 % 3]
                tup = _draw_valid(rng, lambda: (1, 1, rng.randint(23, 27), w1, w2))
            out.append(Query("precision", tup, digits))
    rng.shuffle(out)
    return out


def _csc_argv(q: Query) -> tuple[str, ...]:
    p, l1, l2, w1, w2 = q.tup
    argv = ["csc", "-p", str(p), "-l1", str(l1), "-l2", str(l2), "-w", f"{w1},{w2}", "--json"]
    if q.precision != 12:
        argv += ["--precision", str(q.precision)]
    return tuple(argv)


def _csc_ops(rng: random.Random, count: int) -> list[CliOp]:
    ops = []
    for i in range(count):
        if i % 4 == 3:
            tup = _draw_valid(rng, lambda: (rng.randint(1, 8), rng.randint(1, 20),
                                            rng.randint(1, 60), 1, 1))
        else:
            tup = _draw_valid(rng, lambda: (rng.randint(1, 4), rng.randint(1, 20),
                                            rng.randint(1, 20), *_mixed_weights(rng)))
        q = Query("csc", tup, 12)
        ops.append(CliOp("csc", _csc_argv(q), query=q))
    return ops


def _sweep_ops(rng: random.Random) -> list[CliOp]:
    ops = []
    for shape, p, l1, (w1, w2) in CLI_SWEEP_SHAPES:
        start = rng.randint(1, 500)
        stop = start + CLI_SWEEP_VALUES - 1
        for jobs in (1, 2):
            argv = ("sweep", "csc", "-p", str(p), "-l1", str(l1), "-w", f"{w1},{w2}",
                    "--l2", f"{start}..{stop}", "--json", "--jobs", str(jobs))
            ops.append(CliOp(f"sweep_csc_jobs{jobs}", argv, pair=shape,
                             meta={"p": p, "l1": l1, "w": (w1, w2), "l2": (start, stop)}))
    return ops


def cli_ops(seed: int) -> list[CliOp]:
    """The cli mix: cold csc queries (one at high precision), sweep csc at
    --jobs 1 and 2 for both weight shapes, sweep diffeo as JSON and as a
    table, one invariants and one classify homotopy query."""
    rng = random.Random(f"cli:{seed}")
    ops = _csc_ops(rng, CLI_CSC_QUERIES)
    p = rng.randint(1, 2)
    tup = _draw_valid(rng, lambda: (p, rng.randint(1, 3), rng.randint(1, 60), 1, 1),
                      lambda t: above_wz_threshold(*t[:3]))
    q = Query("csc_high_precision", tup, CLI_HIGH_PRECISION)
    ops.append(CliOp("csc_high_precision", _csc_argv(q), query=q))

    tup = _draw_valid(rng, lambda: (2, rng.randint(1, 9), rng.randint(1, 60), *_mixed_weights(rng)))
    ops.append(CliOp("invariants", ("invariants", "-p", "2", "-l1", str(tup[1]),
                                    "-l2", str(tup[2]), "-w", f"{tup[3]},{tup[4]}", "--json"),
                     meta={"tup": tup}))

    odd_weights = ((1, 1), (3, 1), (5, 3), (5, 1))

    def odd_tuple():
        w1, w2 = odd_weights[rng.randrange(len(odd_weights))]
        return (2, rng.choice((1, 3, 5)), rng.randint(1, 60), w1, w2)

    a = _draw_valid(rng, odd_tuple)
    b = _draw_valid(rng, odd_tuple)
    ops.append(CliOp("classify", ("classify", "homotopy", ",".join(map(str, a[1:])),
                                  ",".join(map(str, b[1:])), "--json"),
                     meta={"a": a, "b": b}))

    return ops + _sweep_ops(rng) + _diffeo_ops(rng)


def _diffeo_ops(rng: random.Random, formats=("json", "table")) -> list[CliOp]:
    l1 = CLI_DIFFEO_L1
    start = rng.randint(1, 1000)
    l2 = (start, start + CLI_DIFFEO_VALUES - 1)
    return [CliOp(f"sweep_diffeo_{fmt}",
                  ("sweep", "diffeo", "-l1", str(l1), "--l2", f"{l2[0]}..{l2[1]}", f"--{fmt}"),
                  pair="diffeo", meta={"l1": l1, "l2": l2})
            for fmt in formats]


def front_end_ops(seed: int) -> list[CliOp]:
    """The cli ops behind csc_query_ms and the sweep metrics, run after
    the passes of the in-process workloads so that every workload reports
    them."""
    rng = random.Random(f"front:{seed}")
    return (_csc_ops(rng, FRONT_END_CSC_QUERIES) + _sweep_ops(rng)
            + _diffeo_ops(rng, ("json",)))


# ----------------------------------------------------------------------
# recorded properties

def _bits(tup) -> int:
    return max(abs(c).bit_length() for c in ray_coefficients(*tup))


def query_properties(queries: list[Query]) -> dict:
    """Shares and histograms of a list of in-process queries."""
    n = len(queries)
    accepted = [q for q in queries if valid(*q.tup)]
    degrees = Counter(2 * q.tup[0] + 4 for q in accepted)
    bits = Counter(16 * (_bits(q.tup) // 16) for q in accepted)
    kinds = Counter(q.kind for q in queries)
    props = {
        "ops": n,
        "kinds": dict(sorted(kinds.items())),
        "homogeneous_share": sum(q.tup[3] == q.tup[4] for q in queries) / n,
        "rejected_share": 1 - len(accepted) / n,
        "degree_histogram": {str(k): v for k, v in sorted(degrees.items())},
        "coeff_bits_histogram": {f"{k}-{k + 15}": v for k, v in sorted(bits.items())},
        "precisions": dict(sorted(Counter(q.precision for q in queries).items())),
    }
    primes = [q.tup[1] for q in queries if q.kind == "prime"]
    if primes:
        props["prime_digits"] = sorted(len(str(l1)) for l1 in primes)
        props["primes"] = sorted(primes)
    degree_ps = [q.tup[0] for q in queries if q.kind == "degree"]
    if degree_ps:
        props["degree_p"] = sorted(degree_ps)
    return props


def cli_properties(ops: list[CliOp]) -> dict:
    return {
        "ops": len(ops),
        "kinds": dict(sorted(Counter(op.kind for op in ops).items())),
        "csc_queries": query_properties([op.query for op in ops if op.query]),
        "sweeps": [{"kind": op.kind, "pair": op.pair, **op.meta}
                   for op in ops if op.kind.startswith("sweep")],
    }
