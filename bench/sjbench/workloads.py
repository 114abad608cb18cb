"""Timed passes over each workload, the metrics taken from them, and the
traced replay.

Every workload is a closed loop: one client in one process sends the next
op when the previous one has finished.  A pass is one walk over the
workload's inputs; the number of passes is fixed by ``--seconds`` and the
workload's nominal pass time, so that a run always does the same ops.

Times are speed-scaled (see :class:`Speed`): on a host whose cores slow
down and speed up with their neighbours' load, a raw wall time says as
much about the neighbours as about the package.  Raw times are kept in
the run's details.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import gen, spans

NOMINAL_PASS_S = {"census": 8.0, "stress": 12.0, "cli": 8.0}
FRONT_END_ROUNDS = {"census": 3, "stress": 2}
CHUNK_OPS = {"census": 200, "stress": 1, "cli": 1}
SETUP_PROBES = 5
IMPORT_PROBES = 5
CENSUS_CHECK_SAMPLE = 500
SWEEP_ROWS_CHECKED = 3
TAIL_BEYOND = 10
TRACED_PASSES = 2
SUBPROCESS_TIMEOUT_S = 150

REFERENCE_PROBE_S = 0.0015
PROBE_REPEATS = 5
PROBE_COEFFS = (3, -7, 11, 5, -2, 9, 4, -6, 1, 8, -3, 2)

WARM_UP = {
    "census": "from sasakijoin import JoinParams, csc_rays\n"
              "csc_rays(JoinParams(2, 3, 7, 5, 3), 12)\n",
    "stress": "from sasakijoin import JoinParams, csc_rays\n"
              "csc_rays(JoinParams(2, 3, 40, 1, 1), 200)\n",
    "cli": "import contextlib, io\n"
           "from sasakijoin.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    main(['csc', '-p', '1', '-l1', '1', '-l2', '19', '-w', '3,2', '--json'])\n",
}
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t = time.perf_counter()\n"
                "import sasakijoin.cli\n"
                "print(time.perf_counter() - t)\n")

PER_LAYER_COUNTS = (
    "exactpoly.isolate_positive_roots.calls", "exactpoly.sturm_count.calls",
    "exactpoly.input_degree.sum", "exactpoly.roots_rational", "exactpoly.roots_irrational",
    "cscrays.csc_rays.calls", "cscrays.forced_multiplicity.sum",
    "cscrays.rays.regular", "cscrays.rays.quasi_regular", "cscrays.rays.irregular",
    "joinspace.JoinParams.calls", "joinspace.JoinParams.rejected",
    "classify.partition_diffeo_types.calls", "classify.partition_diffeo_types.values",
    "cli.main.calls", "cli.stdout_bytes",
)
PER_LAYER_MAXIMA = ("exactpoly.input_degree.max", "exactpoly.input_coeff_bits.max")
PER_LAYER_SELF_MS = (
    "exactpoly.isolate_positive_roots", "exactpoly.sturm_count", "cscrays.csc_rays",
    "cscrays.csc_polynomial", "cscrays.deflate_forbidden", "joinspace.JoinParams",
    "joinspace.invariants", "classify.partition_diffeo_types", "classify.pairwise",
    "cli.main",
)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


class Failure:
    """An op that raised; never equal to anything, so it always counts."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"Failure({self.text})"


class Speed:
    """How fast a core runs now, against a fixed reference speed.

    The probe is a fixed integer Horner loop plus a burst of allocation, a
    stand-in for the package's hot path that shares no code with it.  A
    time measured between two probes is multiplied by REFERENCE_PROBE_S over
    their mean, which gives the time the same work takes when the probe
    takes REFERENCE_PROBE_S.  Work that runs on one core is pinned to the
    core the probe runs on; work that spreads over every core (a sweep at
    --jobs 2) is scaled by the mean probe of all cores.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[float] = []

    @staticmethod
    def _probe_once() -> float:
        t0 = perf_counter()
        acc = 0
        for x in range(1, 700):
            v = 0
            for c in PROBE_COEFFS:
                v = v * x + c
            acc ^= v
        rows = {i: (i, str(i), [i] * 3) for i in range(2000)}
        sorted(rows.values(), key=lambda row: row[1])
        return perf_counter() - t0

    def probe(self, wide: bool = False) -> float:
        """Probe the home core (and pin there), or every core when wide."""
        times = []
        for cpu in self.cpus if wide else self.cpus[:1]:
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.median(self._probe_once() for _ in range(PROBE_REPEATS)))
        if wide:
            os.sched_setaffinity(0, self.cpus)
        self.samples.append(statistics.mean(times))
        return self.samples[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        return REFERENCE_PROBE_S / ((before + after) / 2)

    def summary(self) -> dict:
        return {"probe_ms_median": 1000 * statistics.median(self.samples),
                "probe_ms_min": 1000 * min(self.samples),
                "probe_ms_max": 1000 * max(self.samples),
                "probes": len(self.samples)}


@dataclass
class Pass:
    wall_s: float           # speed-scaled
    raw_wall_s: float
    latencies_s: list       # speed-scaled, one per item
    outcomes: list | None   # dropped once compared with the first pass

    @property
    def factor(self) -> float:
        return self.wall_s / self.raw_wall_s


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    root: Path
    speed: Speed = field(default_factory=Speed)

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def out_dir(self) -> Path:
        return self.root / ".bench_out"

    @property
    def passes(self) -> int:
        return max(1, round(self.seconds / NOMINAL_PASS_S[self.workload]))

    def child_env(self) -> dict:
        env = dict(os.environ)
        env.pop("SASAKI_JOBS", None)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + old if old else "")
        return env


# ----------------------------------------------------------------------
# ops and passes

def query_op(join, rays, parameter_error):
    def op(query):
        try:
            params = join(*query.tup)
        except parameter_error:
            return "rejected"
        return rays(params, query.precision)
    return op


def subprocess_op(ctx: Context):
    env = ctx.child_env()

    def op(cli_op):
        proc = subprocess.run([sys.executable, "-m", "sasakijoin", *cli_op.argv],
                              cwd=ctx.root, env=env, capture_output=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)
    return op


def inprocess_op(main):
    def op(cli_op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(cli_op.argv))
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode())
    return op


def uses_all_cores(item) -> bool:
    argv = getattr(item, "argv", ())
    return "--jobs" in argv and argv[argv.index("--jobs") + 1] != "1"


def timed_pass(items, op, speed: Speed, chunk: int) -> Pass:
    """Run every item once, probing the core's speed around each chunk."""
    latencies, outcomes = [], []
    wall = raw_wall = 0.0
    for k in range(0, len(items), chunk):
        wide = any(uses_all_cores(item) for item in items[k:k + chunk])
        before = speed.probe(wide)
        raw = []
        start = perf_counter()
        for item in items[k:k + chunk]:
            t0 = perf_counter()
            try:
                outcome = op(item)
            except Exception as exc:  # an op that raises is a failed op
                outcome = Failure(repr(exc))
            raw.append(perf_counter() - t0)
            outcomes.append(outcome)
        elapsed = perf_counter() - start
        factor = speed.factor(before, speed.probe(wide))
        latencies += [x * factor for x in raw]
        wall += elapsed * factor
        raw_wall += elapsed
    return Pass(wall, raw_wall, latencies, outcomes)


def traced_op(tracer: spans.Tracer, op):
    def run(item):
        tracer.op += 1
        index = tracer.open("bench.op")
        try:
            return op(item)
        finally:
            tracer.close(index)
    return run


def child_seconds(ctx: Context, code: str, *args: str) -> tuple[float, float, str]:
    """Run ``python -c code``; return (scaled wall, scale factor, stdout)."""
    before = ctx.speed.probe()
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ctx.root,
                          env=ctx.child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, check=True)
    wall = perf_counter() - t0
    factor = ctx.speed.factor(before, ctx.speed.probe())
    return wall * factor, factor, proc.stdout


def setup_seconds(ctx: Context) -> list[float]:
    """Fresh interpreters that import the package and run one warm-up op."""
    code = f"import sys\nsys.path.insert(0, {str(ctx.src)!r})\n" + WARM_UP[ctx.workload]
    return [child_seconds(ctx, code)[0] for _ in range(SETUP_PROBES)]


def import_ms(ctx: Context) -> list[float]:
    """Cold import of ``sasakijoin.cli``, timed inside fresh interpreters."""
    out = []
    for _ in range(IMPORT_PROBES):
        _, factor, stdout = child_seconds(ctx, IMPORT_PROBE, str(ctx.src))
        out.append(1000 * float(stdout) * factor)
    return out


def peak_rss_mb(ctx: Context) -> float:
    """Peak resident memory of the workload process; for ``cli``, whose ops
    are child processes, of the benchmark process or its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if ctx.workload != "cli":
        return own / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


# ----------------------------------------------------------------------
# statistics

def latency_summary(per_item_s: list[float]) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(per_item_s)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return {
        "samples": n,
        "p50_ms": 1000 * statistics.median(xs),
        "tail_ms": 1000 * xs[k],
        "tail_percentile": 100 * (k + 1) / n,
        "tail_beyond": n - k - 1,
    }


def per_item_medians(passes: list[Pass]) -> list[float]:
    return [statistics.median(column) for column in zip(*(p.latencies_s for p in passes))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# checks

def settle(passes: list[Pass], differs: set[int]) -> None:
    """Add to ``differs`` the indices where the newest pass raised or
    differs from the first, then drop the newest pass's outcomes unless it
    is the first, so that at most two passes' results are ever held."""
    newest, first = passes[-1], passes[0].outcomes
    differs.update(i for i, x in enumerate(newest.outcomes)
                   if isinstance(x, Failure) or x != first[i])
    if len(passes) > 1:
        newest.outcomes = None


def check_queries(ctx: Context, queries, outcomes) -> tuple[set[int], int, list[str]]:
    """Check a seeded sample of the census (every stress op is checked)."""
    from . import check

    rng = random.Random(f"check:{ctx.seed}")
    picked = list(range(len(queries)))
    if ctx.workload == "census":
        accepted = [i for i in picked if outcomes[i] != "rejected"]
        sample = set(rng.sample(accepted, min(CENSUS_CHECK_SAMPLE, len(accepted))))
        picked = [i for i in picked if outcomes[i] == "rejected" or i in sample]
    bad, notes = set(), []
    for i in picked:
        problems = check.check_query(queries[i], outcomes[i])
        if problems:
            bad.add(i)
            notes.append(f"{queries[i].tup}: {problems[0]}")
    return bad, len(picked), notes


def check_cli(ctx: Context, ops, outcomes) -> tuple[set[int], int, list[str]]:
    """Exit codes, sympy checks of csc output, byte-equal sweeps at --jobs 1
    and 2, and structural checks of the other subcommands."""
    from . import check

    rng = random.Random(f"check:{ctx.seed}")

    def sample(rows):
        return rng.sample(rows, min(SWEEP_ROWS_CHECKED, len(rows)))

    by_key = {(op.kind, op.pair): outcomes[i] for i, op in enumerate(ops)}
    bad, notes = set(), []
    for i, (op, result) in enumerate(zip(ops, outcomes)):
        if isinstance(result, Failure):
            problems = [repr(result)]
        elif result.code != 0:
            problems = [f"exit {result.code}: {result.stderr.decode()[-200:]}"]
        elif op.query is not None:
            problems = check.check_csc_output(op.query, result.stdout)
        elif op.kind == "sweep_csc_jobs1":
            problems = check.check_sweep_csc(op, result.stdout, sample)
        elif op.kind == "sweep_csc_jobs2":
            jobs1 = by_key[("sweep_csc_jobs1", op.pair)]
            same = getattr(jobs1, "stdout", None) == result.stdout
            problems = [] if same else ["output differs from --jobs 1"]
        elif op.kind == "sweep_diffeo_json":
            problems = check.check_sweep_diffeo(op, result.stdout)
        elif op.kind == "sweep_diffeo_table":
            problems = check.check_diffeo_table(
                by_key[("sweep_diffeo_json", op.pair)].stdout, result.stdout)
        elif op.kind == "invariants":
            problems = check.check_invariants(op, result.stdout)
        else:
            problems = check.check_classify(op, result.stdout)
        if problems:
            bad.add(i)
            notes.append(f"{' '.join(op.argv)}: {problems[0]}")
    return bad, len(ops), notes


def check_items(ctx: Context, items, outcomes):
    if ctx.workload == "cli":
        return check_cli(ctx, items, outcomes)
    return check_queries(ctx, items, outcomes)


# ----------------------------------------------------------------------
# runs

def _inputs(ctx: Context):
    if ctx.workload == "census":
        items = gen.census_queries(ctx.seed)
        return items, gen.query_properties(items)
    if ctx.workload == "stress":
        items = gen.stress_queries(ctx.seed)
        return items, gen.query_properties(items)
    items = gen.cli_ops(ctx.seed)
    return items, gen.cli_properties(items)


def _front_end_figures(ops, passes: list[Pass]) -> dict:
    """csc_query_ms and the sweep times from the cli ops of some passes."""
    per_item = per_item_medians(passes)

    def pass_sum(kind):
        return statistics.median(sum(s for op, s in zip(ops, p.latencies_s) if op.kind == kind)
                                 for p in passes)

    return {
        "csc_query_ms": 1000 * statistics.median(
            s for op, s in zip(ops, per_item) if op.query is not None),
        "sweep_jobs1_s": pass_sum("sweep_csc_jobs1"),
        "sweep_jobs2_s": pass_sum("sweep_csc_jobs2"),
        "sweep_diffeo_s": pass_sum("sweep_diffeo_json"),
    }


def _kind_shares(items, per_item_s) -> dict:
    totals: dict[str, float] = {}
    for item, seconds in zip(items, per_item_s):
        totals[item.kind] = totals.get(item.kind, 0.0) + seconds
    whole = sum(totals.values())
    return {kind: value / whole for kind, value in sorted(totals.items())}


def run_untraced(ctx: Context) -> tuple[dict, dict]:
    setup = setup_seconds(ctx)
    items, props = _inputs(ctx)
    if ctx.workload == "cli":
        op = subprocess_op(ctx)
    else:
        from sasakijoin import JoinParams, ParameterError, csc_rays
        op = query_op(JoinParams, csc_rays, ParameterError)
    op(items[0])  # warm-up, not timed

    passes, differs = [], set()
    for _ in range(ctx.passes):
        passes.append(timed_pass(items, op, ctx.speed, CHUNK_OPS[ctx.workload]))
        settle(passes, differs)
    rss = peak_rss_mb(ctx)

    # the in-process workloads follow their passes with rounds of the cli
    # ops behind the cli metrics, so that every workload reports every
    # metric
    front_ops = items if ctx.workload == "cli" else gen.front_end_ops(ctx.seed)
    front_passes, front_differs = [], set()
    for _ in range(FRONT_END_ROUNDS.get(ctx.workload, 0)):
        front_passes.append(timed_pass(front_ops, subprocess_op(ctx), ctx.speed, 1))
        settle(front_passes, front_differs)
    front = _front_end_figures(front_ops, front_passes or passes)
    per_item = per_item_medians(passes)
    lat = latency_summary(per_item)

    bad, checked, notes = check_items(ctx, items, passes[0].outcomes)
    failed = len(bad | differs) * len(passes)
    attempted = len(items) * len(passes)
    if front_passes:
        front_bad, front_checked, front_notes = check_cli(ctx, front_ops,
                                                          front_passes[0].outcomes)
        failed += len(front_bad | front_differs) * len(front_passes)
        attempted += len(front_ops) * len(front_passes)
        checked += front_checked
        notes += front_notes

    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(statistics.median(len(items) / p.wall_s for p in passes), "1/s"),
        "latency_ms_p50": metric(lat["p50_ms"], "ms"),
        "latency_ms_tail": metric(lat["tail_ms"], "ms"),
        "ok_ratio": metric(1 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
        "csc_query_ms": metric(front["csc_query_ms"], "ms"),
        "sweep_jobs1_s": metric(front["sweep_jobs1_s"], "s"),
        "sweep_jobs2_s": metric(front["sweep_jobs2_s"], "s"),
        "sweep_diffeo_s": metric(front["sweep_diffeo_s"], "s"),
    }
    if ctx.workload == "stress":
        props["time_share_by_kind"] = _kind_shares(items, per_item)
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "raw_pass_wall_s": [p.raw_wall_s for p in passes],
        "speed": ctx.speed.summary(),
        "latency": lat,
        "setup_samples_s": setup,
        "failed_ratio": failed / attempted,
        "checked_ops": checked,
        "problems": notes[:20],
        "properties": props,
    }
    return _summary(failed == 0, attempted, failed, metrics), detail


def run_traced(ctx: Context) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes over the same inputs."""
    imports = import_ms(ctx)
    items, props = _inputs(ctx)
    chunk = CHUNK_OPS[ctx.workload]
    tracer = spans.Tracer()
    from sasakijoin import cli
    if ctx.workload == "cli":
        plain = inprocess_op(cli.main)
    else:
        from sasakijoin import JoinParams, ParameterError, csc_rays
        plain = query_op(JoinParams, csc_rays, ParameterError)
        hooked = query_op(tracer.wrap("joinspace.JoinParams", JoinParams,
                                      spans.HOOKS["joinspace.JoinParams"]),
                          tracer.wrap("cscrays.csc_rays", csc_rays,
                                      spans.HOOKS["cscrays.csc_rays"]),
                          ParameterError)
    plain(items[0])  # warm-up, not timed

    # at least two traced passes, so that the counts can be seen to repeat
    passes, differs = [], set()
    untraced, traced, figures, span_passes = [], [], [], []
    for i in range(max(2 * TRACED_PASSES, ctx.passes)):
        if i % 2 == 0:
            untraced.append(timed_pass(items, plain, ctx.speed, chunk))
            passes.append(untraced[-1])
            settle(passes, differs)
            continue
        tracer.reset()
        undo = spans.install(tracer)
        try:
            if ctx.workload == "cli":
                hooked = inprocess_op(tracer.wrap("cli.main", cli.main))
            p = timed_pass(items, traced_op(tracer, hooked), ctx.speed, chunk)
        finally:
            undo()
        if ctx.workload == "cli":
            tracer.counts["cli.stdout_bytes"] = sum(
                len(x.stdout) for x in p.outcomes if isinstance(x, CliResult))
        traced.append(p)
        passes.append(p)
        settle(passes, differs)
        figures.append(_layer_figures(tracer, p))
        span_passes.append(tracer.spans)

    bad, checked, notes = check_items(ctx, items, passes[0].outcomes)
    attempted = len(items) * len(passes)
    failed = len(bad | differs) * len(passes)

    counts_repeat = all(f["counts"] == figures[0]["counts"] for f in figures)
    metrics = {name: metric(value, "count") for name, value in figures[0]["counts"].items()}
    metrics["cli.stdout_bytes"]["unit"] = "bytes"
    for name in figures[0]["times"]:
        unit = "ratio" if name.startswith("trace.") else "ms"
        metrics[name] = metric(statistics.median(f["times"][name] for f in figures), unit)
    metrics["cli.import_ms"] = metric(statistics.median(imports), "ms")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced), "ratio")
    detail = {
        "passes": len(passes),
        "untraced_wall_s": [p.wall_s for p in untraced],
        "traced_wall_s": [p.wall_s for p in traced],
        "speed": ctx.speed.summary(),
        "import_samples_ms": imports,
        "traced_passes": len(traced),
        "counts_repeat_across_passes": counts_repeat,
        "checked_ops": checked,
        "problems": notes[:20],
        "properties": props,
    }
    return _summary(failed == 0 and counts_repeat, attempted, failed, metrics), detail, span_passes


def _layer_figures(tracer: spans.Tracer, p: Pass) -> dict:
    """Counts, and speed-scaled self times, of one traced pass."""
    self_ms = spans.self_ms_by_name(tracer.spans)
    total_ms = spans.total_ms_by_name(tracer.spans)
    counts = {name: tracer.counts.get(name, 0) for name in PER_LAYER_COUNTS}
    counts.update({name: tracer.maxima.get(name, 0) for name in PER_LAYER_MAXIMA})
    times = {f"{name}.self_ms": p.factor * self_ms.get(name, 0.0) for name in PER_LAYER_SELF_MS}
    times["cli.pool_wait_ms"] = p.factor * total_ms.get("cli.pool_wait", 0.0)
    layered = sum(ms for name, ms in self_ms.items() if name.split(".")[0] in spans.LAYERS)
    times["trace.layer_share"] = layered / (1000 * p.raw_wall_s)
    return {"counts": counts, "times": times}


def _summary(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(ctx: Context, trace: bool) -> tuple[dict, dict]:
    if not trace:
        return run_untraced(ctx)
    summary, detail, span_passes = run_traced(ctx)
    ctx.out_dir.mkdir(exist_ok=True)
    path = ctx.out_dir / f"spans-{ctx.workload}-seed{ctx.seed}.jsonl"
    with open(path, "w") as fh:
        for number, recorded in enumerate(span_passes):
            for name, start, end, parent, op in recorded:
                fh.write(json.dumps([name, start, end, parent, op, number]) + "\n")
    detail["spans_file"] = str(path.relative_to(ctx.root))
    return summary, detail
