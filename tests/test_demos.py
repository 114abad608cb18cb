"""Smoke test: every script in demos/ runs against the package in src/,
and so does the README's library quick start, with the results its comments
state."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    assert _run([str(script)]).strip()


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    *rays, ring, p1, moduli = _run(["-c", block]).splitlines()
    # 3 rays: one quasi-regular at b = 1/3, two irregular with certified
    # isolating intervals around (7 -+ sqrt(37))/3, the roots of 3b^2 - 14b + 4
    assert [line.split()[0] for line in rays] == ["irregular", "quasi-regular", "irregular"]
    assert rays[1] == "quasi-regular 1/3"
    for line in rays[::2]:
        lo, hi = (Fraction(int(n), int(d)) for n, d in re.findall(r"Fraction\((\d+), (\d+)\)", line))
        assert (3 * lo * lo - 14 * lo + 4) * (3 * hi * hi - 14 * hi + 4) < 0, line
    assert ring == "Z[x,y]/(25*x^2, x^3, x^2*y, y^2)"
    assert p1 == "23"
    assert moduli == "(50, 100)"
