"""End-to-end tests of the command-line surface and its output contract."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

from sasakijoin import cli
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


def test_jobs_clamped_to_cpus_and_tasks(capsys, monkeypatch):
    base = ["sweep", "csc", "-p", "1", "-l1", "1", "-w", "3,2", "--json"]
    _, expected, _ = run_cli(capsys, base + ["--l2", "1..30"])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    RecordingPool.created = []
    code, out, err = run_cli(capsys, base + ["--l2", "1..30", "--jobs", "5000"])
    assert code == 0 and out == expected
    assert "clamped to 3" in err
    monkeypatch.setenv("SASAKI_JOBS", "5000")
    code, out, _ = run_cli(capsys, base + ["--l2", "1..30"])
    assert code == 0 and out == expected
    code, _, err = run_cli(capsys, base + ["--l2", "1..2"])
    assert code == 0 and "clamped to 2" in err
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    code, _, err = run_cli(capsys, base + ["--l2", "1..30"])
    assert code == 0 and "clamped to 1" in err
    assert RecordingPool.created == [3, 3, 2]


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
