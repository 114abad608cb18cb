"""Spans recorded around calls into each layer, from outside the package.

A probe rebinds a name that a calling module imported (for example
``sasakijoin.cscrays.isolate_positive_roots``) to a wrapper that opens a
span, calls the original and closes the span.  :func:`install` returns a
function that puts every original back.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the id of the benchmark op it served.
Spans stay in memory until the run ends.  Calls made in forked worker
processes are not recorded.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("exactpoly", "joinspace", "classify", "cscrays", "cli")

INVARIANT_FUNCTIONS = ("c1_coefficient", "cohomology_group", "cohomology_ring",
                       "diffeo_type_dim5", "h4_order", "is_spin", "linking_form",
                       "p1_class")
PAIRWISE_FUNCTIONS = ("ks_diffeomorphic", "ks_homeomorphic", "ks_moduli",
                      "kruggel_homotopy_equivalent")

# (calling module, imported name, span name)
PROBES = (
    ("sasakijoin.cscrays", "csc_polynomial", "cscrays.csc_polynomial"),
    ("sasakijoin.cscrays", "deflate_forbidden", "cscrays.deflate_forbidden"),
    ("sasakijoin.cscrays", "isolate_positive_roots", "exactpoly.isolate_positive_roots"),
    ("sasakijoin.cscrays", "sturm_count", "exactpoly.sturm_count"),
    ("sasakijoin.cli", "JoinParams", "joinspace.JoinParams"),
    ("sasakijoin.cli", "csc_rays", "cscrays.csc_rays"),
    ("sasakijoin.cli", "csc_polynomial", "cscrays.csc_polynomial"),
    ("sasakijoin.cli", "deflate_forbidden", "cscrays.deflate_forbidden"),
    ("sasakijoin.cli", "partition_diffeo_types", "classify.partition_diffeo_types"),
    *(("sasakijoin.cli", fn, "joinspace.invariants") for fn in INVARIANT_FUNCTIONS),
    *(("sasakijoin.cli", fn, "classify.pairwise") for fn in PAIRWISE_FUNCTIONS),
)


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self.stack.pop()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, name: str, fn, hook=None):
        """A wrapper that records a span named ``name`` around ``fn``.

        ``hook(tracer, args, result, error)`` runs after the span closes.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index)
                if hook:
                    hook(tracer, args, None, exc)
                raise
            tracer.close(index)
            if hook:
                hook(tracer, args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# ----------------------------------------------------------------------
# counters read at the span boundaries

def _isolate_hook(tracer, args, result, error):
    poly = args[0]
    tracer.counts["exactpoly.input_degree.sum"] += poly.degree
    tracer.note_max("exactpoly.input_degree.max", poly.degree)
    tracer.note_max("exactpoly.input_coeff_bits.max",
                    max(abs(c).bit_length() for c in poly.coeffs))
    for rec in result or ():
        key = "exactpoly.roots_rational" if rec.is_rational else "exactpoly.roots_irrational"
        tracer.counts[key] += 1


def _deflate_hook(tracer, args, result, error):
    if result is not None:
        tracer.counts["cscrays.forced_multiplicity.sum"] += result[1]


def _rays_hook(tracer, args, result, error):
    for ray in result.rays if result is not None else ():
        tracer.counts["cscrays.rays." + ray.ray_class.replace("-", "_")] += 1


def _join_hook(tracer, args, result, error):
    if error is not None and type(error).__name__ == "ParameterError":
        tracer.counts["joinspace.JoinParams.rejected"] += 1


def _partition_hook(tracer, args, result, error):
    tracer.counts["classify.partition_diffeo_types.values"] += len(args[1])


HOOKS = {
    "exactpoly.isolate_positive_roots": _isolate_hook,
    "cscrays.deflate_forbidden": _deflate_hook,
    "cscrays.csc_rays": _rays_hook,
    "joinspace.JoinParams": _join_hook,
    "classify.partition_diffeo_types": _partition_hook,
}


class _TracedPool:
    """Stands in for ``ProcessPoolExecutor``: one ``cli.pool_wait`` span from
    construction until the ``with`` block has shut the pool down."""

    def __init__(self, tracer: Tracer, real, *args, **kwargs):
        self._tracer = tracer
        self._index = tracer.open("cli.pool_wait")
        self._pool = real(*args, **kwargs)

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.close(self._index)


def install(tracer: Tracer):
    """Rebind every probe to a wrapper; return a function that undoes it."""
    saved = []
    for module_name, attr, span in PROBES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span, original, HOOKS.get(span)))
    cli = importlib.import_module("sasakijoin.cli")
    real_pool = cli.ProcessPoolExecutor
    saved.append((cli, "ProcessPoolExecutor", real_pool))
    cli.ProcessPoolExecutor = lambda *a, **kw: _TracedPool(tracer, real_pool, *a, **kw)

    def undo():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return undo


# ----------------------------------------------------------------------
# self time

def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_ns(children[i], start, end)
            for i, (name, start, end, parent, op) in enumerate(spans)]


def self_ms_by_name(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, *_), ns in zip(spans, self_times(spans)):
        out[name] += ns / 1e6
    return dict(out)


def total_ms_by_name(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, op in spans:
        out[name] += (end - start) / 1e6
    return dict(out)
