"""Tests of the benchmark itself: seeded inputs, the output check, span
self time and the undoing of the traced run's rebinding.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import dataclasses
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import pytest  # noqa: E402

from sasakijoin import JoinParams, RationalInterval, csc_rays  # noqa: E402
from sasakijoin import cli, cscrays  # noqa: E402
from sjbench import check, gen, spans  # noqa: E402


@pytest.mark.parametrize("make", [gen.census_queries, gen.stress_queries, gen.cli_ops,
                                  gen.front_end_ops])
def test_generator_is_seeded(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_census_samples_the_scan_in_its_own_mix():
    scan = list(gen.scan_tuples())
    assert len(scan) == len(set(scan)) == 69454
    a, b = gen.census_queries(3), gen.census_queries(4)
    assert {q.tup for q in a} <= set(scan)
    assert abs(len(a) - gen.CENSUS_OPS) <= 4
    props = gen.query_properties(a)
    assert props == gen.query_properties(b) | {
        "coeff_bits_histogram": props["coeff_bits_histogram"]}
    assert props["rejected_share"] == 0
    assert props["homogeneous_share"] == pytest.approx(740 / 69454, abs=1e-3)


def _report(tup):
    return csc_rays(JoinParams(*tup), 12)


def _replace_ray(report, index, **record_changes):
    rays = list(report.rays)
    record = dataclasses.replace(rays[index].record, **record_changes)
    rays[index] = dataclasses.replace(rays[index], record=record)
    return dataclasses.replace(report, rays=tuple(rays))


@pytest.mark.parametrize("tup", [(1, 1, 19, 3, 2), (2, 3, 40, 1, 1)])
def test_check_accepts_the_true_report(tup):
    assert check.check_query(gen.Query("t", tup, 12), _report(tup)) == []


def test_check_rejects_an_interval_shifted_off_its_root():
    tup = (1, 1, 19, 3, 2)
    report = _report(tup)
    index = next(i for i, ray in enumerate(report.rays) if not ray.record.is_rational)
    iv = report.rays[index].record.value
    shift = 1000 * iv.width
    wrong = _replace_ray(report, index, value=RationalInterval(iv.lo + shift, iv.hi + shift))
    assert check.check_query(gen.Query("t", tup, 12), wrong)


def test_check_rejects_a_count_increased_by_one():
    tup = (2, 3, 40, 1, 1)
    report = _report(tup)
    wrong = dataclasses.replace(report, unreduced_count=report.unreduced_count + 1)
    assert check.check_query(gen.Query("t", tup, 12), wrong)


def test_check_rejects_a_wrong_multiplicity():
    tup = (1, 1, 19, 3, 2)
    report = _report(tup)
    index = next(i for i, ray in enumerate(report.rays) if ray.record.is_rational)
    wrong = _replace_ray(report, index, multiplicity=report.rays[index].record.multiplicity + 1)
    assert check.check_query(gen.Query("t", tup, 12), wrong)


def test_check_judges_rejections_by_its_own_rules():
    assert check.check_query(gen.Query("t", (1, 2, 4, 3, 2), 12), "rejected") == []
    assert check.check_query(gen.Query("t", (1, 1, 19, 3, 2), 12), "rejected")


def test_self_time_on_a_nested_tree():
    # root [0,100] holds a [10,40] (which holds g [20,30]), b [50,90] and
    # c [60,95]; b and c overlap, so root loses their union, not their sum
    tree = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["g", 20, 30, 1, 0],
        ["b", 50, 90, 0, 0],
        ["c", 60, 95, 0, 0],
    ]
    assert spans.self_times(tree) == [100 - 30 - 45, 30 - 10, 10, 40, 35]
    assert spans.self_ms_by_name(tree)["a"] == 20 / 1e6


def test_install_is_undone():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.PROBES}
    pool = cli.ProcessPoolExecutor
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    assert cscrays.isolate_positive_roots is not originals[("sasakijoin.cscrays",
                                                            "isolate_positive_roots")]
    cscrays.csc_rays(JoinParams(1, 1, 19, 3, 2))
    undo()
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.PROBES} == originals
    assert cli.ProcessPoolExecutor is pool
    assert tracer.counts["exactpoly.isolate_positive_roots.calls"] == 1
    assert tracer.counts["exactpoly.roots_rational"] == 1
    assert tracer.counts["exactpoly.roots_irrational"] == 2
