#!/usr/bin/env python3
"""Mutation check for the certificate code: the tests must kill every mutant.

Each mutant replaces one piece of text, which must occur exactly once, in
one module of src/sasakijoin.  For each mutant in turn, the script copies
src/ and tests/ to a temporary directory, applies the mutant there, and
runs the mutant's test subset on the copy, which must fail.  Survivors are
printed and the script exits 1.  It also exits 1 when a mutant's text is
not found exactly once, or when its tests cannot run.  Run from the root
of a checkout:

    python .github/mutation_check.py

A survivor means a missing test: add the test, or remove the mutant with a
note here on why it is equivalent.  New certificates add their mutants.
Equivalent, so not listed: dropping the shift that rescales a cell end
carried to a finer grid in ``_qir_levels``, as magnitudes only steer.
(Mutation testing: DeMillo, Lipton & Sayward, IEEE Computer 1978.)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEARCH = ("tests/test_exactpoly.py", "-k", "search or rational_roots")
SPLIT = ("tests/test_exactpoly.py", "-k", "split_counts")
REFINE = ("tests/test_exactpoly.py", "-k",
          "isolation_invariants or bisection_cell or adjacent_closures or excluded")
# a descent one level short never separates touching closures, so the
# isolation tests would hang until TIMEOUT_S; the bisection cells fail at once
CELLS = ("tests/test_exactpoly.py", "-k", "bisection_cell")

# (the fault, the module, its text, the replacement, the pytest arguments)
MUTANTS = [
    ("rational-root search lifts a root mod l that is not simple", "exactpoly.py",
     "            if all(_mod_value(slopes, x, ell) for x in roots):\n",
     "            if True:\n", SEARCH),
    ("rational-root search returns [] at a prime that has roots", "exactpoly.py",
     "                break\n    bound = ", "                return []\n    bound = ", SEARCH),
    ("rational-root search drops the symmetric residue", "exactpoly.py",
     "        m -= mod if 2 * m > mod else 0\n", "", SEARCH),
    ("rational-root search stops lifting one step early", "exactpoly.py",
     "        while mod <= 2 * bound:\n", "        while mod * mod <= 2 * bound:\n", SEARCH),
    ("split_counts reads an unsettled tail", "exactpoly.py",
     "        if cs[-1] * total <= 0:\n            break\n", "", SPLIT),
    ("split_counts counts the unreversed coefficients above the point", "exactpoly.py",
     "_series_variations(cs[::-1], total)", "_series_variations(cs, total)", SPLIT),
    ("QIR keeps a window without the sign at its second end", "exactpoly.py",
     "            if (vj * s_hi < 0) != (j < m):", "            if False:", REFINE),
    ("QIR takes the window on the wrong side of m", "exactpoly.py",
     "        j = m + 1 if vm * s_hi < 0 else m - 1\n",
     "        j = m - 1 if vm * s_hi < 0 else m + 1\n", REFINE),
    ("QIR steps the index of the kept window off by one", "exactpoly.py",
     "base + min(m, j) * width", "base + max(m, j) * width", REFINE),
    ("refinement descends one level short of the width", "exactpoly.py",
     "    levels = (ratio - 1).bit_length() if ratio > 1 else 0\n",
     "    levels = (ratio - 1).bit_length() - 1 if ratio > 1 else 0\n", CELLS),
    ("refinement skips clearing the points of exclude", "exactpoly.py",
     "    while any(a * rd <= rn * den <= (a + width) * rd for rn, rd in points):\n"
     "        a, den = _qir_levels(signs, a, den, width, vb, 1)\n", "", REFINE),
    ("adjacent closures that share an endpoint stay unseparated", "exactpoly.py",
     "        while intervals[i][1] >= intervals[i + 1][0]:\n",
     "        while intervals[i][1] > intervals[i + 1][0]:\n", REFINE),
]
TIMEOUT_S = 300     # a mutant that hangs its tests counts as killed


def run_mutant(root: Path, module: str, text: str, replacement: str, args) -> str:
    """'killed' or 'survived', or the reason the mutant could not be run."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(root / "src", Path(tmp, "src"))
        shutil.copytree(root / "tests", Path(tmp, "tests"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp, "src", "sasakijoin", module)
        source = path.read_text()
        if source.count(text) != 1:
            return f"its text occurs {source.count(text)} times in {module}, not once"
        path.write_text(source.replace(text, replacement))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import sasakijoin; print(sasakijoin.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(tmp):
            return f"sasakijoin was imported from {where.stdout.strip() or where.stderr.strip()}"
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                   *args], cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
        # pytest exits 1 when a test failed and 0 when all passed; any other
        # code means the subset did not run
        if proc.returncode in (0, 1):
            return ("survived", "killed")[proc.returncode]
        return f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main() -> int:
    root = Path.cwd()
    bad = 0
    for fault, module, text, replacement, args in MUTANTS:
        verdict = run_mutant(root, module, text, replacement, args)
        print(f"{verdict if verdict in ('killed', 'survived') else 'error'}: {fault}")
        if verdict != "killed":
            bad += 1
            if verdict != "survived":
                print(f"  {verdict}", file=sys.stderr)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
