"""End-to-end tests of the command-line surface and its output contract."""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sasakijoin import cli, cscrays
from sasakijoin.cscrays import InternalInvariantError


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


# ----------------------------------------------------------------------
# invariants

def test_invariants_dim7_payload(capsys):
    report = run_json(capsys, ["invariants", "-p", "2", "-l1", "5", "-l2", "21",
                               "-w", "1,1"])
    assert report["schema_version"] == "1"
    payload = report["payload"]
    assert payload["c1"] == 53
    assert payload["spin"] is False
    assert payload["h4_order"] == 25
    assert payload["p1"] == 23
    assert payload["linking_form"] == 11
    assert payload["ring"]["relations"] == ["25*x^2", "x^3", "x^2*y", "y^2"]
    degree4 = next(g for g in payload["cohomology"] if g["degree"] == 4)
    assert degree4["torsion"] == [25]
    assert report["request"]["subcommand"] == "invariants"


def test_invariants_dim5_payload(capsys):
    report = run_json(capsys, ["invariants", "-p", "1", "-l1", "1", "-l2", "19",
                               "-w", "3,2"])
    payload = report["payload"]
    assert payload["dim5_type"] == "twisted"
    assert "h4_order" not in payload


def test_invariants_invalid_input_exits_one(capsys):
    code, out, err = run_cli(capsys, ["invariants", "-p", "1", "-l1", "1",
                                      "-l2", "10", "-w", "3,2"])
    assert code == 1
    assert "gcd(l2,l1*w2)" in err


# ----------------------------------------------------------------------
# csc

def test_csc_threshold_example(capsys):
    report = run_json(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", "19",
                               "-w", "3,2"])
    payload = report["payload"]
    assert payload["forbidden_root"] == "2/3"
    assert payload["forbidden_multiplicity"] == 3
    assert payload["unreduced_count"] == 3
    assert payload["reduced_count"] == 3
    classes = [ray["class"] for ray in payload["rays"]]
    assert classes == ["irregular", "quasi-regular", "irregular"]
    assert payload["rays"][1]["value"] == "1/3"
    # midpoints of width-1e-12 intervals around (7 -+ sqrt(37))/3
    assert payload["rays"][0]["interval"]["approx"] == "0.305745823234"
    assert payload["rays"][2]["interval"]["approx"] == "4.360920843433"
    assert payload["deflated_coeffs"] == [4, -26, 45, -9]


def test_csc_homogeneous_pairing(capsys):
    report = run_json(capsys, ["csc", "-p", "1", "-l1", "2", "-l2", "11",
                               "-w", "1,1"])
    payload = report["payload"]
    values = [ray.get("value") for ray in payload["rays"]]
    assert values == ["1/2", "1/1", "2/1"]
    assert [r["class"] for r in payload["rays"]] == \
        ["quasi-regular", "regular", "quasi-regular"]
    assert payload["reduced_count"] == 2


def test_csc_single_regular_ray(capsys):
    report = run_json(capsys, ["csc", "-p", "2", "-l1", "1", "-l2", "2",
                               "-w", "1,1"])
    payload = report["payload"]
    assert [r["class"] for r in payload["rays"]] == ["regular"]
    assert payload["unreduced_count"] == payload["reduced_count"] == 1


def test_csc_caveat_default_by_format(capsys):
    code, out, _ = run_cli(capsys, ["csc", "-p", "2", "-l1", "1", "-l2", "2",
                                    "-w", "1,1"])
    assert code == 0 and "note:" in out
    report = run_json(capsys, ["csc", "-p", "2", "-l1", "1", "-l2", "2",
                               "-w", "1,1"])
    assert "caveat" not in report["payload"]
    report = run_json(capsys, ["csc", "-p", "2", "-l1", "1", "-l2", "2",
                               "-w", "1,1", "--quote-caveat"])
    assert "caveat" in report["payload"]


def test_csc_internal_invariant_exits_two(capsys, monkeypatch):
    def boom(params, precision=12):
        raise InternalInvariantError("forced failure for the exit-code contract")

    monkeypatch.setattr(cli, "csc_rays", boom)
    code, out, err = run_cli(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", "19",
                                      "-w", "3,2"])
    assert code == 2
    assert "internal invariant" in err


# ----------------------------------------------------------------------
# classify

def test_classify_homotopy_tuples(capsys):
    report = run_json(capsys, ["classify", "homotopy", "5,21,1,1", "5,29,1,1"])
    assert report["payload"]["overall"] is True
    report = run_json(capsys, ["classify", "homotopy", "(5,21,1,1)", "(1,21,25,1)"])
    assert report["payload"]["overall"] is False
    failing = [c for c in report["payload"]["conditions"] if not c["holds"]]
    assert [c["label"] for c in failing] == ["weight_norm_mod_3m"]
    assert failing[0]["witness"] == [24, 75]


def test_classify_homotopy_rejects_even_l1(capsys):
    code, out, err = run_cli(capsys, ["classify", "homotopy", "4,21,1,1",
                                      "4,29,1,1"])
    assert code == 1
    assert "l1" in err


def test_classify_homotopy_rejects_a_non_integer_entry(capsys):
    code, out, err = run_cli(capsys, ["classify", "homotopy", "5,x,1,1", "1,21,25,1"])
    assert code == 1 and out == ""
    assert "invalid literal for int() with base 10: 'x'" in err


def test_classify_homeo_diffeo_flags(capsys):
    report = run_json(capsys, ["classify", "diffeo", "-l1", "5", "-l2", "39",
                               "-l2p", "89"])
    assert report["payload"]["overall"] is False
    report = run_json(capsys, ["classify", "homeo", "-l1", "5", "-l2", "39",
                               "-l2p", "89"])
    assert report["payload"]["overall"] is True
    report = run_json(capsys, ["classify", "diffeo", "-l1", "5", "-l2", "39",
                               "-l2p", "139"])
    assert report["payload"]["overall"] is True
    assert report["payload"]["conditions"][0]["witness"] == [0, 100]


def test_classify_missing_flags(capsys):
    code, _, err = run_cli(capsys, ["classify", "diffeo", "-l1", "5"])
    assert code == 1


# ----------------------------------------------------------------------
# sweep

def test_sweep_csc_threshold_detection(capsys):
    report = run_json(capsys, ["sweep", "csc", "-p", "1", "-l1", "1",
                               "-w", "3,2", "--l2", "1..30"])
    payload = report["payload"]
    assert payload["threshold_l2"] == 19
    rows = {row["l2"]: row for row in payload["rows"]}
    assert rows[19]["unreduced"] == 3
    assert rows[18]["valid"] is False
    assert rows[17]["unreduced"] == 1
    assert [row["l2"] for row in payload["rows"]] == list(range(1, 31))


def test_sweep_csc_bound_shorthand(capsys):
    report = run_json(capsys, ["sweep", "csc", "-p", "2", "-l1", "1",
                               "-w", "1,1", "--bound", "10"])
    assert report["payload"]["threshold_l2"] == 3


def test_sweep_diffeo_partition(capsys):
    report = run_json(capsys, ["sweep", "diffeo", "-l1", "2", "--l2", "1..9:odd"])
    assert report["payload"]["classes"] == [[1, 5, 9], [3, 7]]


def test_sweep_requires_range(capsys):
    code, _, err = run_cli(capsys, ["sweep", "csc", "-p", "1", "-l1", "1",
                                    "-w", "3,2"])
    assert code == 1


def test_sweep_warns_when_no_threshold(capsys):
    report = run_json(capsys, ["sweep", "csc", "-p", "1", "-l1", "1",
                               "-w", "3,2", "--l2", "1..5"])
    assert report["payload"]["threshold_l2"] is None
    assert report["warnings"]


def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "csc", "-p", "1", "-l1", "1",
                                    "-w", "3,2", "--l2", "17..20", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l2,valid,constraint,unreduced,reduced,is_threshold"
    assert lines[3].startswith("19,True,,3,3,True")


# ----------------------------------------------------------------------
# output contract

def test_reports_are_byte_deterministic(capsys):
    argv = ["csc", "-p", "1", "-l1", "1", "-l2", "19", "-w", "3,2", "--json"]
    code, first, _ = run_cli(capsys, argv)
    code, second, _ = run_cli(capsys, argv)
    assert first == second


def test_sweep_identical_across_worker_counts(capsys):
    base = ["sweep", "csc", "-p", "1", "-l1", "1", "-w", "1,1",
            "--l2", "1..12", "--json"]
    _, serial, _ = run_cli(capsys, base + ["--jobs", "1"])
    _, parallel, _ = run_cli(capsys, base + ["--jobs", "2"])
    assert serial == parallel


def test_env_var_overrides_jobs(capsys, monkeypatch):
    base = ["sweep", "csc", "-p", "1", "-l1", "1", "-w", "1,1",
            "--l2", "1..8", "--json"]
    _, expected, _ = run_cli(capsys, base)
    monkeypatch.setenv("SASAKI_JOBS", "2")
    _, with_env, _ = run_cli(capsys, base + ["--jobs", "1"])
    assert with_env == expected
    monkeypatch.setenv("SASAKI_JOBS", "nonsense")
    code, _, err = run_cli(capsys, base)
    assert code == 1 and "SASAKI_JOBS" in err


def test_json_round_trip(capsys):
    argv = ["invariants", "-p", "2", "-l1", "5", "-l2", "21", "-w", "1,1",
            "--json"]
    _, out, _ = run_cli(capsys, argv)
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


def test_precision_flag_bounds(capsys):
    code, _, err = run_cli(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", "19",
                                    "-w", "3,2", "--precision", "0"])
    assert code == 1
    code, _, err = run_cli(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", "19",
                                    "-w", "3,2", "--precision", "1001"])
    assert code == 1
    report = run_json(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", "19",
                               "-w", "3,2", "--precision", "4"])
    assert report["payload"]["rays"][1]["approx"] == "0.3333"


def test_precision_flag_rejects_non_integers_with_the_range(capsys):
    code, _, err = run_cli(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", "19",
                                    "-w", "3,2", "--precision", "abc"])
    assert code == 1
    assert err.splitlines()[-1] == (
        "sasakijoin csc: error: argument --precision: precision must be between 1 and 1000")


def test_rationals_serialize_as_fraction_strings(capsys):
    report = run_json(capsys, ["csc", "-p", "1", "-l1", "2", "-l2", "11",
                               "-w", "1,1"])
    for ray in report["payload"]["rays"]:
        if ray["is_rational"]:
            num, den = ray["value"].split("/")
            int(num), int(den)
        else:
            int(ray["interval"]["lo"].split("/")[0])


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run_cli(capsys, ["invariants", "--bogus"])
    assert code == 1


def test_module_invocation_is_deterministic():
    argv = [sys.executable, "-m", "sasakijoin", "csc", "-p", "1", "-l1", "1",
            "-l2", "19", "-w", "3,2", "--json"]
    first = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    second = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_decimal_rendering_is_exact_integer_arithmetic():
    from fractions import Fraction
    assert cli.decimal_str(Fraction(1, 3), 6) == "0.333333"
    assert cli.decimal_str(Fraction(2, 3), 6) == "0.666667"
    assert cli.decimal_str(Fraction(-1, 8), 3) == "-0.125"
    assert cli.decimal_str(Fraction(5, 1), 2) == "5.00"
    assert cli.decimal_str(Fraction(1, 2), 0) == "1"


def test_decimal_rendering_rounds_half_up_with_no_negative_zero():
    from fractions import Fraction
    assert cli.decimal_str(Fraction(-1, 1000), 2) == "0.00"
    assert cli.decimal_str(Fraction(-1, 200), 2) == "0.00"
    assert cli.decimal_str(Fraction(-1, 8), 2) == "-0.12"
    assert cli.decimal_str(Fraction(1, 8), 2) == "0.13"
    assert cli.decimal_str(Fraction(-3, 2), 0) == "-1"
    assert cli.decimal_str(Fraction(-3, 500), 2) == "-0.01"


# ----------------------------------------------------------------------
# JSON rendering, the process pool import, a closed stdout

_JSON_TEXT = st.text(st.sampled_from('az"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\u20ac\U0001f600'),
                     max_size=5) | st.text(max_size=5)
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
                | _JSON_TEXT | st.just([]) | st.just(()) | st.just({}))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)
                   | st.lists(st.integers(-2 ** 70, 2 ** 70) | st.booleans(), max_size=6)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES)
def test_json_rendering_equals_json_dumps(tree):
    assert cli._json(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_json_rendering_fails_where_json_dumps_fails():
    huge = 10 ** 5000    # beyond the 4,300-digit limit of int -> str
    for bad in (huge, [1, huge], {"a": [True, huge]}, {"q": Fraction(1, 3)}, [None, {1j}]):
        with pytest.raises((TypeError, ValueError)) as expected:
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(expected.type):
            cli._json(bad)


def test_importing_cli_leaves_the_process_pool_unimported():
    code = ("import sys\n"
            "from sasakijoin import cli\n"
            "assert 'concurrent.futures' not in sys.modules, 'imported early'\n"
            "import concurrent.futures\n"
            "assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_exits_two_on_one_line():
    argv = [sys.executable, "-m", "sasakijoin", "sweep", "diffeo", "-l1", "7",
            "--l2", "1..100000", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()     # like `| head -c 1`, long before the 4.2 MB are written
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == "error: stdout closed before the report was written\n"


# ----------------------------------------------------------------------
# internal failures, worker clamp, pinned outputs

def test_internal_failure_exits_two_on_one_line(capsys, monkeypatch):
    for error in (RuntimeError("kernel\nbroke"), ValueError("internal value")):
        def boom(params, precision=12, error=error):
            raise error

        monkeypatch.setattr(cli, "csc_rays", boom)
        code, out, err = run_cli(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", "19",
                                          "-w", "3,2", "--json"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("internal error: ")
        assert "Traceback" not in err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    created: list = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def no_threshold(p, w1, w2):
    raise InternalInvariantError("no certified threshold")


def test_jobs_clamped_to_cpus_and_tasks(capsys, monkeypatch):
    # with no threshold every valid row is open: l2 = 1, 5, 7, 11, ... for
    # w = (3, 2), so 1..6 has two open rows and 1..2 one
    base = ["sweep", "csc", "-p", "1", "-l1", "1", "-w", "3,2", "--json"]
    _, expected, _ = run_cli(capsys, base + ["--l2", "1..30"])
    monkeypatch.setattr(cli, "ray_threshold", no_threshold)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    RecordingPool.created = []
    code, out, err = run_cli(capsys, base + ["--l2", "1..30", "--jobs", "5000"])
    assert code == 0 and out == expected
    assert "clamped to 3" in err
    monkeypatch.setenv("SASAKI_JOBS", "5000")
    code, out, _ = run_cli(capsys, base + ["--l2", "1..30"])
    assert code == 0 and out == expected
    code, _, err = run_cli(capsys, base + ["--l2", "1..6"])
    assert code == 0 and "clamped to 3" in err
    code, _, err = run_cli(capsys, base + ["--l2", "1..2"])
    assert code == 0 and "clamped to 2" in err
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    code, _, err = run_cli(capsys, base + ["--l2", "1..30"])
    assert code == 0 and "clamped to 1" in err
    # one worker per open row at most, and no pool for a single open row
    assert RecordingPool.created == [3, 3, 2]


class SpyPool(RecordingPool):
    """A RecordingPool that also records the tasks it maps."""

    mapped: list = []

    def map(self, fn, tasks, chunksize=1):
        tasks = list(tasks)
        SpyPool.mapped.extend(tasks)
        return map(fn, tasks)


@pytest.mark.parametrize("flags, sent", [("-w 1,1 --l2 1..12", [5]),
                                         ("-w 3,2 --l2 1..30", [])])
def test_pool_gets_only_the_rows_the_threshold_leaves_open(capsys, monkeypatch, flags, sent):
    # t* = 5 for (1, 1, 1), so l2 = 5 sits exactly at it; (1, 3, 2) separates every l2.
    # sent: the open rows, which go to csc_rays
    base = ["sweep", "csc", "-p", "1", "-l1", "1", *flags.split(), "--json"]
    _, expected, _ = run_cli(capsys, base)
    valid = [row["l2"] for row in json.loads(expected)["payload"]["rows"] if row["valid"]]
    ran = []
    monkeypatch.setattr(cli, "_rays_row", lambda task, real=cli._rays_row:
                        ran.append(task[2]) or real(task))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    RecordingPool.created, SpyPool.mapped = [], []
    code, out, _ = run_cli(capsys, base + ["--jobs", "2"])
    assert code == 0 and out == expected
    # 0 or 1 open rows start no pool
    assert RecordingPool.created == [] and ran == sent
    # with no threshold every valid row is open, and the pool gets them all
    monkeypatch.setattr(cli, "ray_threshold", no_threshold)
    code, out, _ = run_cli(capsys, base + ["--jobs", "2"])
    assert code == 0 and out == expected
    assert RecordingPool.created == [2]
    assert [task[2] for task in SpyPool.mapped] == valid


# sha256 of `csc ... --json` stdout, computed with the divisor-search kernel
# (degree 174-184 and 1000-digit queries, and a 17-digit prime l1)
PINNED_CSC = [
    ("-p 90 -l1 1 -l2 5 -w 3,2",
     "80e054672e1855469983bac2be1cd69727e1d88cd8cf3124181581b90c9cc719"),
    ("-p 89 -l1 1 -l2 7 -w 5,3",
     "15bc5484cc6b0cd316a7531d4806d88e9902353340d6f7ef2e24d13dceb789d6"),
    ("-p 88 -l1 1 -l2 4 -w 1,1",
     "eef7d3621d0ef49fd90ba2f1de368dbb3c611f1c7d19c5c10f049f28b3dfaeb3"),
    ("-p 85 -l1 2 -l2 5 -w 4,3",
     "90fe52d64501cbd33b22f93692003be95f263d21f163e81b01e8dd149a61b96e"),
    ("-p 2 -l1 1 -l2 25 -w 1,1 --precision 1000",
     "2ca9a784846a613987c564394fd8b2ed7806ca926b5a0e863770ccaf277de3d1"),
    ("-p 1 -l1 1 -l2 23 -w 3,2 --precision 1000",
     "2beb78f41f95c3d71ffb3da1d4ac0eb6f3e9f143c06e025f1ea88fc8a9c8190f"),
    ("-p 1 -l1 1 -l2 19 -w 3,2 --precision 1000",
     "b3e9bd1ad9ca50c73aff993aedbb504cba6ea2aed9bbdd6fd375df296a9bac63"),
    ("-p 1 -l1 10000000000000061 -l2 2 -w 1,1",
     "c9bf95d187ca5356a5bc5fed182f97d3bd687cd3f998ab8a49e5065e01d47902"),
    ("-p 2 -l1 10000000000000061 -l2 5 -w 3,2",
     "b085ae9a2be44edb7f42ffd98844de5ed91f10a34398369097ff5b9a98e61d8a"),
]


def test_csc_reports_match_pinned_bytes(capsys):
    for flags, digest in PINNED_CSC:
        code, out, err = run_cli(capsys, ["csc", *flags.split(), "--json"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


# sha256 of `csc ... --json` stdout, computed with the kernel that identifies
# every mixed-weight root in a cell of width 1/|lc|: p = 70-90 at precision
# 12 and 50, 13-14 digit primes l1, and two quasi-regular tuples whose
# leading coefficient exceeds 10**precision
PINNED_CSC_MIXED = [
    ("-p 90 -l1 1 -l2 7 -w 2,1",
     "ec46ee986db554b85b0bbf800ac93403e6f64387fc3306aef6b40d6a44f1d17c"),
    ("-p 90 -l1 1 -l2 7 -w 2,1 --precision 50",
     "7c7784bdea75a0b154411b2669ed447adfd48a49a62874f32240c5163af85d31"),
    ("-p 80 -l1 3 -l2 5 -w 3,1",
     "dbc2661f9be2bbf66d85eb4994d2fb87b8a870059ef494730911ea703b96cf86"),
    ("-p 80 -l1 3 -l2 5 -w 3,1 --precision 50",
     "57d4f7e9cfda22b9e018e3694b4ae9c32b5654bd3fc74a1a0dc4af26b14931f4"),
    ("-p 70 -l1 2 -l2 7 -w 3,2",
     "36ff5cf78d1f1a1332c2558e516e0d7868e32eac3049655e44738c73f41a7f3e"),
    ("-p 70 -l1 2 -l2 7 -w 3,2 --precision 50",
     "33135ef2482d4fb3944b9be7c0c6b4855c9b400fb93082b1cb573c9653106ec2"),
    ("-p 1 -l1 1000000000039 -l2 19000000000745 -w 3,2",
     "4c8a689629f76abb5cb69b569402c97ac5a166a439a121101e40d19bb8ec21d2"),
    ("-p 2 -l1 10000000000037 -l2 400000000001483 -w 3,1 --precision 50",
     "b453574ba7b8250717caf3478d51e501cd86c249cd3bca17263413ced390061b"),
    ("-p 1 -l1 2 -l2 43 -w 3,1 --precision 1",
     "b253a5ed4a1bd237d30b067c23ec99d6c202802a06e2214b6544308337991794"),
    ("-p 1 -l1 3 -l2 47 -w 2,1 --precision 1",
     "d6f96e901364e965654434da06aff5c8d7130cbe8fdfe8da6b03a8974e7880a8"),
]


def test_mixed_weight_reports_match_pinned_bytes(capsys):
    for flags, digest in PINNED_CSC_MIXED:
        code, out, err = run_cli(capsys, ["csc", *flags.split(), "--json"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


# sha256 of `csc ... --json` stdout once no interval's closure may hold the
# forced root w2/w1; before that the middle interval of each held 1/2
PINNED_CSC_FORCED_ROOT = [
    ("-p 1 -l1 1 -l2 37 -w 2,1 --precision 1",
     "538cd995aa259dea17967b0fecf3e669ceb0e76d44f41d3c73afea8631dfd002"),
    ("-p 1 -l1 1 -l2 10000000000001 -w 2,1",
     "cce6018053765c26adce80ea8d39d0cc2283256f7ee4efa365ea41daec5965d0"),
]


def test_mixed_weight_closures_avoid_the_forced_root(capsys):
    for flags, digest in PINNED_CSC_FORCED_ROOT:
        code, out, err = run_cli(capsys, ["csc", *flags.split(), "--json"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags
        for ray in json.loads(out)["payload"]["rays"]:
            lo, hi = (Fraction(ray["interval"][end]) for end in ("lo", "hi"))
            assert not lo <= Fraction(1, 2) <= hi, flags


# sha256 of `csc ... --json` stdout for w = (1,1) tuples near t* whose bytes
# depend on the order of the finishing steps: an interval whose closure holds
# w2/w1 = 1 is refined only after adjacent closures are separated.  Clearing
# 1 together with the other roots leaves some neighbours a level coarser.
PINNED_CSC_FINISHING_ORDER = [
    ("-p 1 -l1 1001 -l2 5006 -w 1,1 --precision 1",
     "de1049b7cde1760afb8af892c563da6c83e2d3176544c08f07e8e7f11eeef82a"),
    ("-p 2 -l1 10001 -l2 23336 -w 1,1 --precision 2",
     "8cfacd60a45a582d7b5d5456b9c55510707cc6dd6e8a9db0ca64af0d77a3c99d"),
    ("-p 4 -l1 1000003 -l2 1100004 -w 1,1 --precision 3",
     "91cdb0a31bc1422e83c2c31d01c5088c3ce2b0a2cf7c65652b941f63d4b63c8f"),
    ("-p 5 -l1 1001 -l2 870 -w 1,1 --precision 1",
     "f8917d2141bc8b1ff027f3f0a58b5804590fab6b69585836de130e07d788744c"),
]


def test_forced_root_is_cleared_after_closures_are_separated(capsys):
    for flags, digest in PINNED_CSC_FINISHING_ORDER:
        code, out, err = run_cli(capsys, ["csc", *flags.split(), "--json"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


# sha256 of `csc ... --json` stdout at degrees 244-804 in both weight shapes,
# computed with the kernel that isolates every ray with the quotient's Sturm
# chain (it took about 105 s at p = 400 with w = (3,2))
PINNED_CSC_HIGH_DEGREE = [
    ("-p 120 -l1 1 -l2 5 -w 1,1",
     "042434833cc092cc07764a4c13703f5000b801aeff2d2b6c9ea9b5bf3a3530eb"),
    ("-p 120 -l1 2 -l2 7 -w 3,2",
     "341f4087f9e9236a10f74bda82d347307c14166e228fd35da03911b8cfb2e539"),
    ("-p 200 -l1 1 -l2 4 -w 1,1",
     "c42f8e39bdec96e8294a59abd4747666665769cac6b0b303bb8ea51fa75963f4"),
    ("-p 200 -l1 1 -l2 5 -w 3,2",
     "855d9c37951d45f17294b6f5dd8ab1b2caa2e7fadf4056b883d7eac902c3aec6"),
    ("-p 400 -l1 1 -l2 5 -w 3,2",
     "6e55abaa2914ac9756f4d90f0e234388d6e3851a585526b10fa8a88de8d29a71"),
    ("-p 400 -l1 1 -l2 5 -w 1,1",
     "5bca246ef15984df3ff82b68c0fbcd4f7a865446a2046b7aa5386fc14935fec8"),
]


def test_high_degree_reports_match_pinned_bytes(capsys):
    for flags, digest in PINNED_CSC_HIGH_DEGREE:
        code, out, err = run_cli(capsys, ["csc", *flags.split(), "--json"])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


def test_degree_804_query_stays_fast(capsys):
    # the family's structure certificate is not cached yet
    cscrays._certified_structure.cache_clear()
    flags = "-p 400 -l1 1 -l2 5 -w 3,2"
    digest = dict(PINNED_CSC_HIGH_DEGREE)[flags]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["csc", *flags.split(), "--json"])
    assert time.perf_counter() - start < 5
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


# sha256 of `sweep csc ...` stdout, computed with one csc_rays call per row:
# families whose l2 range straddles the three-ray threshold t*, for p = 3, 7
# and 20, w = (2,1), (5,3) and (1,1), l1 = 1 and 4, and two w = (1,1) ranges
# through t = t* exactly, (3,2,3,1,1) and (2,3,7,1,1)
PINNED_SWEEP_CSC = [
    ("-p 3 -l1 1 -w 2,1 --l2 1..8 --json",
     "1e9ac4c20ea998ce4105d1d45ad6c33ea49bd684e5f8e73c4489a472f843fa47"),
    ("-p 3 -l1 1 -w 2,1 --l2 1..8 --csv",
     "7352f7ab7c1d2e912457c65d76de09021801d15fe1d4979fed489d4419e13ff3"),
    ("-p 3 -l1 4 -w 2,1 --l2 10..22 --json",
     "42726dc0e6016040aca89882b027659613df3658b3f6ae9eb42fa8cf1c23847c"),
    ("-p 3 -l1 4 -w 2,1 --l2 10..22 --csv",
     "d186d807bbe1b3a9d538383fde6ca678e015fcfdcdc6dd83df0fbaa54856fc73"),
    ("-p 3 -l1 1 -w 5,3 --l2 5..14 --json",
     "aa8dfa6b0ce557f6cc912229d604c2d265d8a1cf66c4a4dfc18ed5f9591e9a44"),
    ("-p 3 -l1 1 -w 5,3 --l2 5..14 --csv",
     "de3e1cdbccf85fdcdbc3b73c5df66269ab57fadae084631c767c06e34e9d36c9"),
    ("-p 3 -l1 4 -w 5,3 --l2 32..44 --json",
     "7eab35bdcda60c043170d963a7da39e0b23ed3540d7079fe46f83920365ab5db"),
    ("-p 3 -l1 4 -w 5,3 --l2 32..44 --csv",
     "4c094286a295bebdc12dfe979790095ea5b71e473fab35b69e72f9ea02f69945"),
    ("-p 3 -l1 1 -w 1,1 --l2 1..4 --json",
     "0818b46208b8025700707ec70bdca8fd4cc60c772d03eef5861629a8aed40c20"),
    ("-p 3 -l1 1 -w 1,1 --l2 1..4 --csv",
     "993ea793f2ec7cf1adbc6d23a680f098942f6444107d775b557da031e9c98caf"),
    ("-p 3 -l1 4 -w 1,1 --l2 3..9 --json",
     "80b865faaa4f0095148f0e69bba4eb22481ae5bfdc0b5d8acf3f70aa6ddedd38"),
    ("-p 3 -l1 4 -w 1,1 --l2 3..9 --csv",
     "5066aa1e4c859bb0d4c4b9f2b36daf6f989d4e99dbdbdee701da65dbcc0a847a"),
    ("-p 7 -l1 1 -w 2,1 --l2 1..4 --json",
     "f9711f4dbb9288d175e82267f098d62c02d2256b5f731081b9369371f8f60b75"),
    ("-p 7 -l1 1 -w 2,1 --l2 1..4 --csv",
     "9751ea4709a3ffa19df8967752759b882d2a0172d5a00a76ead90bdb5eb0ea12"),
    ("-p 7 -l1 4 -w 2,1 --l2 2..10 --json",
     "70a4c189572520391fda6d98d7b5452a228b286f849595f3ed0079bceff0ce03"),
    ("-p 7 -l1 4 -w 2,1 --l2 2..10 --csv",
     "ea8163e7486d2dba5781858c249bf0f92f40f8168cb2577e0c60d78951e45afb"),
    ("-p 7 -l1 1 -w 5,3 --l2 1..7 --json",
     "6bb6be4011de2d34f78e98de6d18bf40251d2828e9a13abf4b45b79e45aa5994"),
    ("-p 7 -l1 1 -w 5,3 --l2 1..7 --csv",
     "ddf3e0832a6238dc89df3ddb5faacc34291ebc9d99713736aeb84ed4bfa31bff"),
    ("-p 7 -l1 4 -w 5,3 --l2 10..20 --json",
     "3e7180c47ba3b444ec6fdfdd0a62b45f494df71298a791b38ffd53501534376d"),
    ("-p 7 -l1 4 -w 5,3 --l2 10..20 --csv",
     "1e585348861cb07b360bb1423a37858c9ab4f29fcd3e561c35d6fbafa9e33187"),
    ("-p 7 -l1 1 -w 1,1 --l2 1..3 --json",
     "422947a5103e9d3fdc304d329643bfbd324803719a755fde76426a10af2cadde"),
    ("-p 7 -l1 1 -w 1,1 --l2 1..3 --csv",
     "ce955b6628353351f375fb24c5520682d52fcb6aca9887e2a694cf9694944734"),
    ("-p 7 -l1 4 -w 1,1 --l2 1..5 --json",
     "d7ba52f5d8eaccc46e6ebcb3441ff62971c2821b675db80f7cc6f9ca2d6db709"),
    ("-p 7 -l1 4 -w 1,1 --l2 1..5 --csv",
     "a78d4e2106e220714683aa01fc0d3f27c207d8cd0ff280b52821e20cde8a095c"),
    ("-p 20 -l1 1 -w 2,1 --l2 1..3 --json",
     "93b98543610f9a3e57c003dab3e117d349abf696da32ca021dcbe3920af43254"),
    ("-p 20 -l1 1 -w 2,1 --l2 1..3 --csv",
     "45600d5621801154d79e2e3cd04ef7fa59f94b2f6fdfe33ed8656a575f8994a6"),
    ("-p 20 -l1 4 -w 2,1 --l2 1..5 --json",
     "dce9260ed53ac7ff57c9e340e976b35844af1a8a380c6e0acfc8a76518d5cea6"),
    ("-p 20 -l1 4 -w 2,1 --l2 1..5 --csv",
     "e4f9c3eb0091b3c00fd84a773c4e33f435614ea3154dd993bf86b4bac909523b"),
    ("-p 20 -l1 1 -w 5,3 --l2 1..4 --json",
     "f8b2082fbe635800c299f85da7a1723c295faa4dc66ae8013fcf98b482a2784d"),
    ("-p 20 -l1 1 -w 5,3 --l2 1..4 --csv",
     "575789193a7d9c711ead2095f66b58c106cf7cb1cf28a11935f42d6b3b0111f9"),
    ("-p 20 -l1 4 -w 5,3 --l2 1..9 --json",
     "4226a93aeb203773f5aa1105f25549c27610b83c03243e4128eddae797c20ed0"),
    ("-p 20 -l1 4 -w 5,3 --l2 1..9 --csv",
     "18868277015e55bcf239b6821de885c57d4442ad7fe7aa21f12fba4361ffa300"),
    ("-p 20 -l1 1 -w 1,1 --l2 1..3 --json",
     "67f85248fa8110c0413a584bcf942ec948496e5b6f717b5d96e11ab24690d1a2"),
    ("-p 20 -l1 1 -w 1,1 --l2 1..3 --csv",
     "ce955b6628353351f375fb24c5520682d52fcb6aca9887e2a694cf9694944734"),
    ("-p 20 -l1 4 -w 1,1 --l2 1..3 --json",
     "a10213503dd3b4b003fdff6fdc9739cef96dc1ffa4b8448c7268346a87394049"),
    ("-p 20 -l1 4 -w 1,1 --l2 1..3 --csv",
     "0123c348c8598d8ac0824a2120e9510b23c957b4e3f2b240e8580dedfb96383f"),
    ("-p 3 -l1 2 -w 1,1 --l2 1..8 --json",
     "7de7433ceed50d2cf3cd482e2771bf1a7fd7f9f96f533ed5f777885d21c7d172"),
    ("-p 3 -l1 2 -w 1,1 --l2 1..8 --csv",
     "7eecc05637f615daecaaa3934015920a3bcf07e213c471f7a18e45ffa85162dd"),
    ("-p 2 -l1 3 -w 1,1 --l2 5..9 --json",
     "f80a29594fdcac5ab2cba512c9871cfb4716aa4822ac39308ad89da39da05d90"),
    ("-p 2 -l1 3 -w 1,1 --l2 5..9 --csv",
     "5ef5cc4adbf35ebd03ef56f50f7f590b61ac5260d8b38835c270056b889d8ee8"),
]


def test_sweep_reports_match_pinned_bytes(capsys):
    for flags, digest in PINNED_SWEEP_CSC:
        code, out, err = run_cli(capsys, ["sweep", "csc", *flags.split()])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


# sha256 of the large sweep reports the `cli` benchmark prints, computed
# with json.dumps(report, sort_keys=True, indent=2): 100,000 diffeo values
# (4.2 MB) and the two 3,000-row csc shapes
PINNED_SWEEP_JSON = [
    ("diffeo -l1 7 --l2 1..100000 --json",
     "f890c065d4c781898c7c14dddb01996f094d874cd65a2283743119ea29134919"),
    ("csc -p 2 -l1 3 -w 1,1 --l2 100..3099 --json",
     "19f29f25c82cf12f7047f74cf69a433879951431a1c3d01da704348120f071d5"),
    ("csc -p 2 -l1 1 -w 3,2 --l2 250..3249 --json",
     "3f59a48c9fc7d43116072efd4d21dccf8ce5f115cfb216ce6a66226c691e63c6"),
]


def test_large_sweep_reports_match_pinned_bytes(capsys):
    for flags, digest in PINNED_SWEEP_JSON:
        code, out, err = run_cli(capsys, ["sweep", *flags.split()])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


def _count_csc_rays(monkeypatch):
    calls = []
    real = cli.csc_rays

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "csc_rays", counting)
    return calls


def test_sweep_rows_separated_from_the_threshold_skip_csc_rays(capsys, monkeypatch):
    calls = _count_csc_rays(monkeypatch)
    code, out, err = run_cli(capsys, ["sweep", "csc", "-p", "2", "-l1", "1", "-w", "3,2",
                                      "--l2", "250..3249", "--json"])
    assert code == 0, err
    assert len(json.loads(out)["payload"]["rows"]) == 3000
    assert calls == []
    # t = 7/3 is the threshold of p = 2, w = (1,1) itself
    code, _, err = run_cli(capsys, ["sweep", "csc", "-p", "2", "-l1", "3", "-w", "1,1",
                                    "--l2", "5..9"])
    assert code == 0, err
    assert [params.l2 for params, in calls] == [7]


def test_sweep_falls_back_to_csc_rays_when_the_certificate_fails(capsys, monkeypatch):
    real = cscrays.descartes_count
    monkeypatch.setattr(cscrays, "descartes_count", lambda *args: real(*args) + 1)
    with pytest.raises(InternalInvariantError):
        cscrays.ray_threshold(3, 2, 1)
    calls = _count_csc_rays(monkeypatch)
    for flags, digest in PINNED_SWEEP_CSC[:12]:
        code, out, err = run_cli(capsys, ["sweep", "csc", *flags.split()])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags
    assert len(calls) > 12


def test_sweep_falls_back_to_csc_rays_when_the_threshold_is_not_separated(capsys, monkeypatch):
    monkeypatch.setattr(cscrays, "_THRESHOLD_LEVELS", 1)
    with pytest.raises(InternalInvariantError, match="not separated in 1 levels"):
        cscrays.ray_threshold(1, 3, 2)
    assert cscrays.min_l2_multiple_csc(1, 1, 3, 2, 30) == 19
    for flags, digest in PINNED_SWEEP_CSC[:12]:
        code, out, err = run_cli(capsys, ["sweep", "csc", *flags.split()])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags
