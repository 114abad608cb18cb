"""End-to-end tests of the command-line surface and its output contract."""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sasakijoin import cli, cscrays
from sasakijoin.classify import LazySequence
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


# a 2,202-digit l1: l1^2, so |H^4| and the Kreck-Stolz moduli, has 4,403 digits,
# past the interpreter's default limit of 4,300 digits for int -> str
HUGE_L1 = "1" + "0" * 2200 + "1"
DIGITS = sys.get_int_max_str_digits()
PAST_THE_DIGITS = [
    # every coefficient of f and of the quotient has more than 4,300 digits,
    # known before csc_rays would spend about 20 s on the quotient
    "csc -p 200 -l1 1 -l2 5 -w 100000000003,100000000001",
    f"invariants -p 2 -l1 {HUGE_L1} -l2 1 -w 1,1",
    f"classify homeo -l1 {HUGE_L1} -l2 1 -l2p 3",
    f"classify diffeo -l1 {HUGE_L1} -l2 1 -l2p 3",
    f"classify homotopy {HUGE_L1},1,1,1 {HUGE_L1},3,1,1",
    f"sweep diffeo -l1 {HUGE_L1} --l2 1..5",
]


def test_integers_past_the_digit_limit_are_refused_before_the_work(capsys, monkeypatch):
    # exit 1 with the limit named and nothing written, in every format, and
    # neither csc_rays nor the partition runs
    def work(*_):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "csc_rays", work, raising=False)
    monkeypatch.setattr(cli, "partition_diffeo_types", work, raising=False)
    for args in PAST_THE_DIGITS:
        for fmt in ("--json", "--table", "--csv"):
            assert run_cli(capsys, args.split() + [fmt]) == (1, "", (
                f"error [integers of at most {DIGITS} digits]: "
                f"the report would print an integer of more than {DIGITS} digits\n")), args[:40]
    # integers of the limit's length are printed: for p = 1 no square of l1,
    # and |H^4| = l1^2 of DIGITS digits for the largest l1 that gives one
    report = run_json(capsys, ["invariants", "-p", "1", "-l1", HUGE_L1, "-l2", "1", "-w", "1,1"])
    assert report["payload"]["c1"] == 2 - 2 * int(HUGE_L1)
    root = 10 ** (DIGITS // 2) - 1
    report = run_json(capsys, ["invariants", "-p", "2", "-l1", str(root), "-l2", "1", "-w", "1,1"])
    assert len(str(report["payload"]["h4_order"])) == DIGITS


def test_ray_records_past_the_digit_limit_are_refused(capsys):
    # l2 = 10^(limit-1) + 1 has the limit's length, and so has the largest
    # coefficient of f, so only the rays show it: the numerators of the
    # interval ends around the root near l2 have about twice as many digits.
    # At the least limit, 640, csc_rays takes milliseconds; at 4,300, 2-3 s
    def csc(l2, fmt):
        return run_cli(capsys, ["csc", "-p", "1", "-l1", "1", "-l2", str(l2), "-w", "1,1", fmt])

    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("--json", "--table", "--csv"):
            assert csc(10 ** 639 + 1, fmt) == (1, "", (
                "error [integers of at most 640 digits]: "
                "the report would print an integer of more than 640 digits\n"))
        code, out, _ = csc(10 ** 300 + 1, "--json")     # ends of at most 613 digits
        assert code == 0 and json.loads(out)["payload"]["unreduced_count"] == 3
    finally:
        sys.set_int_max_str_digits(old)


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
    # 101 - 39 = 62: a residue other than 0 or m/2 tells l2' - l2 from l2 - l2'
    for relation, witness in (("diffeo", [62, 100]), ("homeo", [12, 50])):
        report = run_json(capsys, ["classify", relation, "-l1", "5", "-l2", "39", "-l2p", "101"])
        assert report["payload"]["conditions"][0]["witness"] == witness


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


@pytest.mark.parametrize("lo, hi, tag", [
    (lo, lo + extra, tag) for lo in (1, 2, 3, 4) for extra in (0, 1, 6, 7)
    for tag in ("", "odd", "even")])
def test_l2_range_is_the_filtered_list(lo, hi, tag):
    text = f"{lo}..{hi}" + (f":{tag}" if tag else "")
    values = [v for v in range(lo, hi + 1) if not tag or v % 2 == (tag == "odd")]
    assert list(cli._l2_range(text)) == values


@pytest.mark.parametrize("target", ["diffeo -l1 2", "csc -p 1 -l1 1 -w 3,2"])
@pytest.mark.parametrize("text", ["4..4:odd", "3..3:even"])
def test_empty_filtered_range_is_rejected_by_name(capsys, target, text):
    code, out, err = run_cli(capsys, ["sweep", *target.split(), "--l2", text])
    assert code == 1 and out == ""
    assert err.startswith("error [nonempty range]: ") and err.count("\n") == 1


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


# ----------------------------------------------------------------------
# the exit contract, on argument lists drawn from the grammar

_WORDS = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", "-"])    # not integers


@st.composite
def _number(draw, small=st.integers(1, 40)):
    """Mostly a small integer; else one below 1, one of hundreds of digits, or a non-integer."""
    kind = draw(st.integers(0, 31))
    if kind == 0:
        return draw(_WORDS)
    return str(draw(st.integers(-3, 0) if kind == 1 else
                    st.integers(-10 ** 300, 10 ** 300) if kind == 2 else small))


@st.composite
def _range(draw):
    """A..B[:tag] of at most 20 values, empty and reversed ones among them."""
    if not draw(st.integers(0, 15)):
        return draw(_WORDS)
    start = draw(_number())
    stop = int(start) + draw(st.integers(-3, 19)) if start.lstrip("-").isdigit() else draw(_WORDS)
    return f"{start}..{stop}{draw(st.sampled_from(['', '', '', ':odd', ':even', ':prime']))}"


_P = _number(st.integers(1, 20))     # p <= 20 keeps each example to milliseconds
_W = st.builds("{},{}".format, _number(st.integers(1, 9)), _number(st.sampled_from([1, 1, 2, 3])))
_ODD = st.integers(0, 4).map(lambda k: 2 * k + 1)   # homotopy asks for odd l1, w1 and w2
_TUPLE = st.builds(lambda form, *t: form.format(",".join(t)),
                   st.sampled_from(["{}", "{}", "({})", "{},1"]), _number(_ODD), _number(),
                   _number(_ODD), _number(st.sampled_from([1, 1, 3])))
_BOUND = st.integers(-3, 20).map(str)
# (flag, values, whether it is given only now and then)
_FLAGS = {
    "invariants": (("-p", _P, False), ("-l1", _number(), False), ("-l2", _number(), False),
                   ("-w", _W, False)),
    "classify homotopy": (("-l1", _number(), True),),
    "classify homeo": (("-l1", _number(), False), ("-l2", _number(), False),
                       ("-l2p", _number(), False)),
    "sweep csc": (("-p", _P, False), ("-l1", _number(), False), ("-w", _W, False)),
    "sweep diffeo": (("-l1", _number(), False), ("-p", _P, True), ("-w", _W, True)),
}
_FLAGS["csc"], _FLAGS["classify diffeo"] = _FLAGS["invariants"], _FLAGS["classify homeo"]
# --jobs above 1 would start a process pool for each sweep with open rows
_COMMON = (("--precision", _number(st.integers(1, 1000)), True),
           ("--jobs", _number(st.integers(-2, 1)), True))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = command.split()
    if command == "classify homotopy":
        argv += draw(st.lists(_TUPLE, min_size=2, max_size=2) | st.lists(_TUPLE, max_size=3))
    if argv[0] == "sweep":
        for flag in draw(st.sampled_from([["--l2"], ["--l2"], ["--bound"], [], ["--l2", "--bound"]])):
            argv += [flag, draw(_range() if flag == "--l2" else _BOUND)]
    for flag, values, rare in _FLAGS[command] + _COMMON:
        if draw(st.integers(0, 15)) >= (12 if rare else 1):
            argv += [flag, draw(values)]
    argv += draw(st.sampled_from([[], ["--json"], ["--json"], ["--table"], ["--csv"]]))
    if not draw(st.integers(0, 7)):
        argv += draw(st.sampled_from([["--quote-caveat"], ["--no-quote-caveat"], ["--bogus"],
                                      ["-x", "1"], ["--json", "--csv"]]))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
@example(["csc", "-p", "200", "-l1", "1", "-l2", "5", "-w", "100000000003,100000000001"])
@example(["csc", "-p", "400", "-l1", "1", "-l2", "5", "-w", "1000003,1000001"])
def test_every_argument_list_exits_zero_or_one_on_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1), err
    assert "Traceback" not in out + err
    if code == 1:
        lines = err.splitlines()
        # one error line naming the constraint, or argparse's usage and error lines
        assert (len(lines) == 1 and lines[0].startswith("error [")
                or lines[0].startswith("usage: sasakijoin")
                and lines[-1].startswith("sasakijoin") and ": error: " in lines[-1]), err
    elif "--json" in argv:
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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


_LONG = 5000    # several slices of a long list of scalars


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES)
@example(list(range(-_LONG // 2, _LONG // 2)))
@example(range(3, 3 * _LONG, 3))
@example([{"l2": l2, "constraint": "gcd(l1,l2) = 1"} for l2 in range(_LONG)])
@example({"l2_values": range(2, _LONG, 2), "warnings": [f"l2={k} skipped" for k in range(_LONG)]})
@example({"invalid": LazySequence(_LONG, lambda: ({"l2": k} for k in range(_LONG))),
          "warnings": LazySequence(_LONG, lambda: (f"l2={k}" for k in range(_LONG))),
          "none": LazySequence(0, lambda: iter(()))})
# flat dicts: two key sets interleaved, keys to quote and keys with a %; one
# key set in two insertion orders; a dict holding a list, and {}, among them
@example([{"l2": k, "valid": True, "unreduced": 1, "reduced": 1} if k % 3 else
          {"l2": k, "valid": False, "constraint": "gcd(\"%s\") = 1", "50%": None}
          for k in range(_LONG)])
@example([{"a": k, "b": "x"} if k % 2 else {"b": "y", "a": -k} for k in range(_LONG)])
@example([{"l2": k, "valid": k % 2 == 0} for k in range(_LONG)]
         + [{"l2": _LONG, "rows": [1, {"c": 2}]}, {}]
         + [{"l2": k, "valid": True} for k in range(_LONG)])
# ints and bools in one slice, which %d alone would print as 1 and 0; a
# column of ints and None; three key orders interleaved, as in the rows of a
# w = (1,1) sweep csc, whose sequence changes at the first slice's end
@example([k if k % 3 else k % 2 == 0 for k in range(20)])
@example([{"l2": k, "threshold": None if k % 4 else k} for k in range(20)])
# one key order whose str column holds % and NUL; rows of one length but two
# key sets, and a row holding more keys than the first
@example([{"l2": k, "constraint": f"50% \0 {k}%s"} for k in range(20)])
@example([{"a": k, "b": True} if k % 3 else {"a": k, "c": None} for k in range(20)])
@example([{"a": 0}] + [{"a": k, "b": -k} for k in range(20)])
# ranges as sweep diffeo classes: one value each, as at l1 = 9999; a slice of
# small ranges (and empty ones), a slice past _PIECE values, then a range
# longer than _SLICE in a slice of its own
@example([range(k, k + 1) for k in range(_LONG)])
@example([range(k, k + k % 7) for k in range(1024)] + [range(k, k + 70) for k in range(1024)]
         + [range(3, 2 * 1024 + 4), range(0)])
@example([({"l2": k, "valid": False, "constraint": "gcd(l2,l1*w1) = 1"},
           {"l2": k, "valid": True, "unreduced": 1, "reduced": 1},
           {"l2": k, "reduced": 3, "unreduced": 3, "valid": True})[(k if k < 1024 else -k) % 3]
          for k in range(1100)])
def test_json_rendering_equals_json_dumps(tree):
    # json.dumps renders a range or a LazySequence, which reports hold, by default=list
    expected = json.dumps(tree, sort_keys=True, indent=2, default=list)
    assert "".join(cli._json(tree)) == expected


def test_ranges_past_the_piece_bound_are_written_a_range_at_a_time():
    # a slice of ranges is one piece only while it holds at most _PIECE values,
    # so a piece of ranges never holds more than that
    ranges = [range(k, k + 65) for k in range(cli._SLICE)]
    assert sum(map(len, ranges)) > cli._PIECE
    pieces = list(cli._json(ranges))
    assert "".join(pieces) == json.dumps(ranges, indent=2, default=list)
    assert max(piece.count("\n") for piece in pieces) < cli._PIECE


def test_json_rendering_fails_where_json_dumps_fails():
    huge = 10 ** 5000    # beyond the 4,300-digit limit of int -> str
    digits = 10 ** 4300     # 4,301 digits, in a flat row and in a slice of ints
    for bad in (huge, [1, huge], {"a": [True, huge]}, {"q": Fraction(1, 3)}, [None, {1j}],
                [{"l2": 1, "valid": True}, {"l2": digits, "valid": True}], [2, 3, digits]):
        with pytest.raises((TypeError, ValueError)) as expected:
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(expected.type):
            "".join(cli._json(bad))


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter, where nothing of the package is loaded yet."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)


def test_importing_cli_leaves_the_process_pool_unimported():
    proc = run_fresh("import sys\n"
                     "from sasakijoin import cli\n"
                     "assert 'concurrent.futures' not in sys.modules, 'imported early'\n"
                     "import concurrent.futures\n"
                     "assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor\n")
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_none_of_its_modules():
    proc = run_fresh("import sys, sasakijoin\n"
                     "print(sorted(m for m in sys.modules if m.startswith('sasakijoin.')))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# what a command must leave unloaded: dataclasses, with the inspect it
# imports, for every command, as every record is a joinspace.Record; the ray
# kernel and fractions for the classification and invariants commands,
# classify and csv for the csc ones
NO_DATACLASSES = ("dataclasses", "inspect")
NOT_KERNEL = ("sasakijoin.exactpoly", "sasakijoin.cscrays", "fractions", *NO_DATACLASSES)
NOT_CLASSIFY = ("sasakijoin.classify", "csv", *NO_DATACLASSES)


@pytest.mark.parametrize("argv", [
    "sweep diffeo -l1 7 --l2 1..30 --json",
    "sweep diffeo -l1 7 --l2 1..30",
    "classify diffeo -l1 7 -l2 1 -l2p 8 --json",
    "classify homotopy 3,7,5,3 3,8,5,3",
    "invariants -p 2 -l1 5 -l2 21 -w 1,1 --json",
    "invariants -p 1 -l1 3 -l2 7 -w 5,3",
    "csc -p 1 -l1 1 -l2 19 -w 3,2 --json",
    "csc -p 2 -l1 1 -l2 19 -w 3,2",
    "sweep csc -p 2 -l1 1 -w 3,2 --l2 1..40 --json",
])
def test_each_command_loads_only_its_layers(argv):
    unloaded = NOT_CLASSIFY if argv.startswith(("csc", "sweep csc")) else NOT_KERNEL
    proc = run_fresh("import contextlib, io, sys\n"
                     "from sasakijoin.cli import main\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    code = main({argv.split()!r})\n"
                     f"print(code, [m for m in {unloaded!r} if m in sys.modules])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_the_kernel_api_loads_no_dataclasses():
    # as the set-up probes of the bench's census and stress workloads run it
    proc = run_fresh("import sys\n"
                     "from sasakijoin import JoinParams, csc_rays\n"
                     "csc_rays(JoinParams(2, 3, 7, 5, 3), 12)\n"
                     f"print([m for m in {NO_DATACLASSES!r} if m in sys.modules])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_name_bound_before_the_first_command_is_the_one_it_calls():
    # as bench probes bind their wrappers: loading a command's layers must
    # not put the original back
    proc = run_fresh("from sasakijoin import cli\n"
                     "def replaced(*args):\n"
                     "    raise cli.InternalInvariantError('the replacement ran')\n"
                     "cli.csc_rays = replaced\n"
                     "code = cli.main(['csc', '-p', '1', '-l1', '1', '-l2', '19', '-w', '3,2'])\n"
                     "assert cli.csc_rays is replaced\n"
                     "print(code)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"
    assert proc.stderr == "internal invariant violation: the replacement ran\n"


def test_a_spawned_pool_worker_finds_the_names_of_the_sweep_row():
    # spawn and forkserver workers import cli afresh and run no command
    task = (2, 1, 19, 3, 2)
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        row = pool.submit(cli._rays_row, task).result(timeout=120)
    assert row == cli._rays_row(task) == {"l2": 19, "valid": True, "unreduced": 3,
                                          "reduced": 3}


def test_closed_stdout_exits_two_on_one_line():
    argv = [sys.executable, "-m", "sasakijoin", "sweep", "diffeo", "-l1", "7",
            "--l2", "1..100000", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()     # like `| head -c 1`, long before the 4.2 MB are written
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == "error: stdout closed before the report was written\n"


def test_stdout_closed_at_start_exits_two_on_one_line():
    # like `>&-`: with fd 1 closed before exec, sys.stdout is None
    argv = [sys.executable, "-m", "sasakijoin", "csc", "-p", "1", "-l1", "1", "-l2", "19",
            "-w", "3,2"]
    proc = subprocess.run(argv, stdout=None, stderr=subprocess.PIPE, text=True, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("internal error: ")
    assert "Traceback" not in proc.stderr


# a stdout with write-through on, as PYTHONUNBUFFERED sets it, over a raw
# stream that counts its writes; the text goes on to the real stdout
COUNTED_ENTRY = """
import io, sys
from sasakijoin import cli

class Counted(io.RawIOBase):
    writes = 0

    def writable(self):
        return True

    def write(self, data):
        Counted.writes += 1
        return sys.__stdout__.buffer.write(data)

sys.stdout = io.TextIOWrapper(Counted(), encoding="utf-8", write_through=True)
sys.argv[1:] = ["sweep", "diffeo", "-l1", "7", "--l2", "1..100000", "--json"]
try:
    cli.entry()
finally:
    print(Counted.writes, file=sys.stderr)
"""


def test_report_writes_stay_batched_under_write_through():
    # with write-through left on, each piece of the 4.2 MB report is one
    # write: 15,581 of them
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    proc = subprocess.run([sys.executable, "-c", COUNTED_ENTRY], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.decode()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert int(proc.stderr) <= len(proc.stdout) // 4096 + 2


def test_entry_writes_to_a_stdout_without_reconfigure(capsys, monkeypatch):
    # an embedding or IDLE may set a StringIO as stdout, which has no
    # write-through to turn off; the entry died on reconfigure before writing
    argv = ["csc", "-p", "2", "-l1", "1", "-l2", "5", "-w", "3,2", "--json"]
    code, expected, _ = run_cli(capsys, argv)
    assert code == 0
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    monkeypatch.setattr(sys, "argv", ["sasakijoin", *argv])
    with pytest.raises(SystemExit) as exit_:
        cli.entry()
    assert exit_.value.code == 0
    assert stream.getvalue() == expected


# Runs argv with stdout to /dev/null and prints its exit code and its peak
# RSS in KiB, read with os.wait4.  Linux counts the RSS of the process that
# spawns a child in the child's ru_maxrss, so a bare interpreter spawns it,
# not the test process.
PEAK_RSS = ("import os, subprocess, sys\n"
            "with open(os.devnull, 'wb') as sink:\n"
            "    proc = subprocess.Popen(sys.argv[1:], stdout=sink)\n"
            "    _, status, usage = os.wait4(proc.pid, 0)\n"
            "    proc.returncode = os.waitstatus_to_exitcode(status)\n"
            "print(proc.returncode, usage.ru_maxrss)\n")


def test_streamed_sweep_report_stays_small_in_memory(monkeypatch):
    # the 4.2 MB report at 10^5 values, written piece by piece; holding it
    # whole, with its --l2 list and per-class sets, peaked at 18.0 MiB, and
    # building the partition alone at 9.1 MiB, about 95 bytes per value
    argv = ["sweep", "diffeo", "-l1", "7", "--l2", "1..100000", "--json"]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2 ** 20
    # at 10^6 values, the child's peak RSS, as tracemalloc's 4 us an
    # allocation would take about 20 s: the child peaks near 18 MiB, and
    # holding the --l2 values as a list adds about 36 MiB
    # and a 10^6-row sweep csc, whose rows held whole peaked at 116 MB at
    # 3*10^5 rows; made as they are written, it peaks near the diffeo child
    for target in ("diffeo -l1 7", "csc -p 2 -l1 1 -w 3,2"):
        argv = [sys.executable, "-m", "sasakijoin", "sweep", *target.split(),
                "--l2", "1..1000000", "--json"]
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True,
                              text=True, timeout=120)
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 0, target
        assert peak_kib < 32 * 2 ** 10, target


@pytest.mark.parametrize("fmt", ["--json", "--table"])
def test_invariants_at_a_large_p_stays_small_in_memory(fmt):
    # 200,004 cohomology rows at p = 10^5, made as they are written, peak near
    # 16 MB; held as a list, they peaked at 74 MB (--json) and 89 MB (--table).
    # --csv writes the whole list as one cell, so its peak grows with p (95 MB)
    argv = [sys.executable, "-m", "sasakijoin", "invariants", "-p", "100000", "-l1", "5",
            "-l2", "21", "-w", "1,1", fmt]
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], capture_output=True,
                          text=True, timeout=120)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 32 * 2 ** 10


# ----------------------------------------------------------------------
# internal failures, worker clamp, pinned outputs

def test_internal_failure_exits_two_on_one_line(capsys, monkeypatch):
    argv = ["csc", "-p", "1", "-l1", "1", "-l2", "19", "-w", "3,2"]
    for error in (RuntimeError("kernel\nbroke"), ValueError("internal value")):
        def boom(params, precision=12, error=error):
            raise error

        monkeypatch.setattr(cli, "csc_rays", boom)
        code, out, err = run_cli(capsys, argv + ["--json"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("internal error: ")
        assert "Traceback" not in err
    # a payload that fails while the report is written: JSON cannot encode
    # the float, and the csc table renderer finds no "params"
    _, render, rows = cli._COMMANDS["csc"]
    monkeypatch.setitem(cli._COMMANDS, "csc", (lambda args: ({}, {"x": 1.5}, []),
                                               render, rows))
    for fmt, name in (("--json", "TypeError"), ("--table", "KeyError")):
        code, out, err = run_cli(capsys, argv + [fmt])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"internal error: {name}: ")
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
    monkeypatch.setattr(cscrays, "ray_threshold", no_threshold)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    RecordingPool.created = []
    base += ["--jobs", "5000"]
    code, out, err = run_cli(capsys, base + ["--l2", "1..30"])
    assert code == 0 and out == expected
    assert "clamped to 3" in err
    code, _, err = run_cli(capsys, base + ["--l2", "1..6"])
    assert code == 0 and "clamped to 3" in err
    code, _, err = run_cli(capsys, base + ["--l2", "1..2"])
    assert code == 0 and "clamped to 2" in err
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    code, _, err = run_cli(capsys, base + ["--l2", "1..30"])
    assert code == 0 and "clamped to 1" in err
    # one worker per open row at most, and no pool for a single open row
    assert RecordingPool.created == [3, 2]


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
    monkeypatch.setattr(cscrays, "ray_threshold", no_threshold)
    code, out, _ = run_cli(capsys, base + ["--jobs", "2"])
    assert code == 0 and out == expected
    assert RecordingPool.created == [2]
    assert [task[2] for task in SpyPool.mapped] == valid


def test_sweep_and_min_l2_share_one_family_rule(capsys, monkeypatch):
    # sweep csc and min_l2_multiple_csc read t* through three_ray_split, so
    # a failed certificate sends every valid row of the sweep to csc_rays,
    # and both still find the same least l2
    monkeypatch.setattr(cscrays, "ray_threshold", no_threshold)
    ran = []
    monkeypatch.setattr(cli, "_rays_row", lambda task, real=cli._rays_row:
                        ran.append(task[2]) or real(task))
    code, out, err = run_cli(capsys, ["sweep", "csc", "-p", "1", "-l1", "1", "-w", "3,2",
                                      "--bound", "30", "--json"])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert ran == [row["l2"] for row in payload["rows"] if row["valid"]]
    assert payload["threshold_l2"] == cscrays.min_l2_multiple_csc(1, 1, 3, 2, 30) == 19


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
    # computed with one JoinParams and one threshold test per row, all rows
    # held whole: a 13-digit prime l1 whose window of width 10^-12 * l1 holds
    # four valid open rows, through the pool; a 19-digit l1 where t* * l1 is
    # five below the window's top, so the first maximal row is an open row;
    # filtered ranges and --bound; l2 = t* * l1 exactly for (4, 10, 1, 1);
    # l1 * w1 * w2 = 35,315 classes in 40,000 rows; 10^5 rows of each shape
    ("-p 1 -l1 9999999999971 -w 3,2 --l2 189792026486160..189792026486180 --json --jobs 2",
     "4ed5ecb7d4b06b9f67ea28a495eee5b2856c45faca55145a4c81e376939ebc89"),
    ("-p 1 -l1 9999999999971 -w 3,2 --l2 189792026486160..189792026486180 --csv --jobs 2",
     "7889c9ecf5328b99fe402d0fa28e67860271c77eea0c3328166ba7c9358882ff"),
    ("-p 1 -l1 4000000000000000037 -w 5,3 --l2 129442673489042644872..129442673489042644892 --csv",
     "f01fbb278f971b304616e9bd8597952dce25202cab4197cc755b6e99cb93ccc6"),
    ("-p 1 -l1 4000000000000000037 -w 5,3 --l2 129442673489042644872..129442673489042644892 --json",
     "81a27e04d65aa7cdc79c0fc8a30a1e1d6f67405ccb49a24ff24be7530cec4cd8"),
    ("-p 3 -l1 4 -w 2,1 --l2 10..40:odd --json",
     "827fc86204470703f3be8729d333753710856ae49998b5d81c8837d43073fc69"),
    ("-p 2 -l1 3 -w 1,1 --l2 2..30:even --table",
     "7ce3d1bc59fedcb200b57d4a799026ded1fc99ea125294cbc70fe10164e90bda"),
    ("-p 2 -l1 3 -w 1,1 --bound 40 --json",
     "42ba17d58a2f4047d13e789a673c9f97ff9fcca98a97c4cd04a82277db0071ed"),
    ("-p 1 -l1 1 -w 3,2 --bound 40 --csv",
     "e57b9554bf7a35477bc78b7f9dbed068fc7708414f26fda65f5c4c353ca37237"),
    ("-p 4 -l1 10 -w 1,1 --l2 1..30 --json",
     "8a52e242ac970923155ff4613ad383c36e2afa61d06120be7f2d389fe80674e9"),
    ("-p 4 -l1 10 -w 1,1 --l2 1..30 --table",
     "a04c67d6214f834fe3c84f78fc2f6d0bbf575d99ecaa5b2d4eea82e76e554090"),
    ("-p 2 -l1 1009 -w 7,5 --l2 1..40000 --csv",
     "d7438d1f95c477249f7eb9eb509890307e56cd1405a92d7e03ff92851b354672"),
    ("-p 2 -l1 1 -w 3,2 --l2 1..100000 --json",
     "93f95db0bfe3491468f19a1e35a7f60f473dd6f03e02113c78805471851c2c95"),
    ("-p 2 -l1 3 -w 1,1 --l2 1..100000 --json",
     "7ce69b831ae95ca02defbfbcb82151902fdca1eefa23f0a7d8c49440549d16fa"),
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
    monkeypatch.setattr(cscrays, "_CELL_LEVELS", 1)
    with pytest.raises(InternalInvariantError, match="not separated in 1 levels"):
        cscrays.ray_threshold(1, 3, 2)
    assert cscrays.min_l2_multiple_csc(1, 1, 3, 2, 30) == 19
    for flags, digest in PINNED_SWEEP_CSC[:12]:
        code, out, err = run_cli(capsys, ["sweep", "csc", *flags.split()])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags
