#!/usr/bin/env python3
"""Mutation check for the certificate code, the records that replace
dataclasses, the classification verdicts, and the byte-identity and batched
writes of streamed reports: the tests must kill every mutant.

Each mutant replaces one piece of text, which must occur exactly once, in
one module of src/sasakijoin.  For each mutant in turn, the script copies
src/ and tests/ to a temporary directory, applies the mutant there, and
runs the mutant's test subset on the copy, which must fail.  The subset
runs with ``--hypothesis-seed=0``, so every run draws the same examples
and a mutant that only rare draws kill cannot pass one run and fail the
next.  Each verdict is printed with the mutant's wall time, so a slow
subset shows.  Survivors are printed and the script exits 1.  It also exits 1
when a mutant's text is not found exactly once, or when its tests cannot
run.  Run from the root of a checkout:

    python .github/mutation_check.py

A survivor means a missing test: add the test, or remove the mutant with a
note here on why it is equivalent.  New certificates add their mutants.
Equivalent, so not listed: dropping the shift that rescales a cell end
carried to a finer grid in ``_qir_levels``, as magnitudes only steer; and
the check ``cscrays._branch_records`` made that the signs at the ends of
each bracket differ, deleted since ``isolate_bracketed_roots`` checks it
too and the branch certificate makes them differ: for w = (1,1) above t*,
(0, 1) and (1, oo) hold one simple root each; for w1 > w2 a separator has
the sign opposite to 0, (0, w2/w1) holds two roots or none and (w2/w1, oo)
one; and the quotient is nonzero at 0, w2/w1 and its Cauchy bound.
(Mutation testing: DeMillo, Lipton & Sayward, IEEE Computer 1978.)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEARCH = ("tests/test_exactpoly.py", "-k", "search or rational_roots")
# the search on the terms of f against the dense quotient's, on ray tuples;
# the lc of a ray quotient carries w1, so only a quotient built apart shows a
# prime dividing the d of the divided-out root
SPARSE_SEARCH = ("tests/test_exactpoly.py", "-k", "sparse_search_residues")
SPARSE_PRIMES = ("tests/test_exactpoly.py", "-k", "sparse_search_skips_a_prime")
# a sign remembered under the numerator alone answers for 1 what it found at 1/3
MEMO = ("tests/test_exactpoly.py", "-k", "sign_source_remembers")
DEFLATED = ("tests/test_exactpoly.py", "-k", "deflated_sparse")
SPLIT = ("tests/test_exactpoly.py", "-k", "split_counts")
REFINE = ("tests/test_exactpoly.py", "-k",
          "isolation_invariants or bisection_cell or adjacent_closures or excluded")
# a rational root in exclude, on both isolation routes and in refinement
EXCLUDED_ROOT = ("tests/test_exactpoly.py", "-k", "rejects_an_excluded_root")
# a descent one level short never separates touching closures, so the
# isolation tests would hang until TIMEOUT_S; the bisection cells fail at once
CELLS = ("tests/test_exactpoly.py", "-k", "bisection_cell")
# Yun returning p whole leaves a repeated root in the rational-root search,
# which raises once more primes have a repeated root than can divide a
# nonzero discriminant; -x stops at the first failure
YUN = ("tests/test_exactpoly.py", "-k", "(squarefree and not certificate) or multiplicities")
CERTIFY = ("tests/test_exactpoly.py", "-k", "squarefree_certificate")
BRACKETS = ("tests/test_exactpoly.py", "-k", "bracketed")
PAIRING = ("tests/test_cscrays.py", "-k", "pairing")
DESCARTES = ("tests/test_exactpoly.py", "-k", "sturm_cells")
# a value scaled by the odd part d keeps its sign, so only exact values show it
GRID = ("tests/test_exactpoly.py", "-k", "on_the_grid")
DIVISION = ("tests/test_exactpoly.py", "-k", "exact_division")
# the branch path's reports against the dense path's, and the threshold
# against the cubic discriminant at p = 1 and the counts of csc_rays
BRANCH = ("tests/test_cscrays.py", "-k", "branch_path_reports_equal")
THRESHOLD = ("tests/test_cscrays.py", "-k", "threshold_at_p1 or threshold_counts_match")
# the join rules not involving l2, checked once for the family
FAMILY = ("tests/test_cscrays.py", "-k", "min_l2_rejects_with_the_join_constraint")
KS = ("tests/test_classify.py", "-k", "ks_rejects_invalid_pairs")
# the closed-form partition of a range against the per-value loop
DIFFEO = ("tests/test_classify.py", "-k", "range_partition_equals_the_loop")
LEVELS = ("tests/test_cscrays.py", "-k", "levels_four_eight_sixteen")
STRUCTURE = ("tests/test_cscrays.py", "-k", "no_pole_but_the_forced_root")
# the JSON pieces against json.dumps, on lists and lazy sequences several slices long
STREAM = ("tests/test_cli.py", "-k", "json_rendering_equals")
# the largest piece of a list of ranges holding more than _PIECE values
PIECE = ("tests/test_cli.py", "-k", "piece_bound")
# each record against the frozen dataclass it replaced
RECORDS = ("tests/test_joinspace.py", "-k", "records_match")
# the repr of a one-field record
DEFAULTS = ("tests/test_joinspace.py", "-k", "takes_its_defaults")
# the fields of Record, and of the records asked after it
BASE_FIELDS = ("tests/test_joinspace.py", "-k", "base_for_its_fields")
# IntPolynomial's refusal of a trailing zero
CANONICAL = ("tests/test_exactpoly.py", "-k", "intpoly_canonicalizes")
# the raw writes under PYTHONUNBUFFERED, one per piece without the entry's reconfigure
BATCHED = ("tests/test_cli.py", "-k", "stay_batched")
# sweep csc rows: validity by class, the window's edges, and the first maximal row,
# which the 19-digit l1 pins find among the open rows
SWEEP_ROWS = ("tests/test_cli.py", "-k", "sweep_csc_threshold_detection")
WINDOW = ("tests/test_cscrays.py", "-k", "window_edges")
# three_ray_split when the certificate fails, against the first maximal row csc_rays finds
FAILED_SPLIT = ("tests/test_cscrays.py", "-k", "rows_at_the_threshold or first_maximal_row")
# the rows min_l2_multiple_csc builds and the ones it sends to csc_rays; the
# answer is the same when it also counts above the window
MIN_L2_ROWS = ("tests/test_cscrays.py", "-k", "builds_rows_from_the_window")
SWEEP_PINS = ("tests/test_cli.py", "-k", "sweep_reports_match_pinned")
# the Kreck-Stolz case tables, the classify reports and the homotopy witnesses
LAMBDA = ("tests/test_classify.py", "-k", "lambda_exponent_tables")
CLASSIFY_PINS = ("tests/test_cli_golden.py", "-k", "classify")
WITNESS = ("tests/test_cli.py", "-k", "homeo_diffeo_flags")
KRUGGEL = ("tests/test_classify.py", "-k", "kruggel_condition_witnesses")
INVARIANTS_PINS = ("tests/test_cli_golden.py", "-k", "invariants")

# a replacement bound before the first command, as a bench probe binds it;
# a spawned pool worker, which imports cli afresh and runs no command
LATE = ("tests/test_cli.py", "-k", "bound_before_the_first_command")
SPAWNED = ("tests/test_cli.py", "-k", "spawned_pool_worker")

# (the fault, the module, its text, the replacement, the pytest arguments)
MUTANTS = [
    ("rational-root search lifts a root mod l that is not simple", "exactpoly.py",
     "            if all(slope(x, ell) for x in roots):\n", "            if True:\n", SEARCH),
    ("rational-root search returns [] at a prime that has roots", "exactpoly.py",
     "                break\n            repeated", "                return []\n            repeated",
     SEARCH),
    ("rational-root search drops the symmetric residue", "exactpoly.py",
     "        m -= mod if 2 * m > mod else 0\n", "", SEARCH),
    ("rational-root search stops lifting one step early", "exactpoly.py",
     "        while mod <= 2 * bound:\n", "        while mod * mod <= 2 * bound:\n", SEARCH),
    # f has x0 as a root of multiplicity k >= 3, so the search then finds a
    # repeated root at every prime and raises: at once on the small quotient
    # of SPARSE_PRIMES, but on a ray quotient only after as many primes as
    # Mahler's bound has bits
    ("the sparse search reads the divided-out root x0 as a root of q mod l", "exactpoly.py",
     "if x not in xs and not value(x, ell)]", "if not value(x, ell)]", SPARSE_PRIMES),
    ("the sparse search reads every root of q mod l as simple, f' taken as 1", "exactpoly.py",
     "slopes = [(i - 1, i * c) for i, c in self.terms if i]", "slopes = [(0, 1)]",
     SPARSE_SEARCH),
    ("the sparse search takes a prime dividing the d of the divided-out root", "exactpoly.py",
     "if all(q[-1] * d % ell for", "if all(q[-1] % ell for", SPARSE_PRIMES),
    ("the deflated sparse search reads the divided-out simple roots as roots of irr mod l",
     "exactpoly.py", "ell for n, d, _ in self.roots}", "ell for n, d, _ in self.roots[:1]}",
     DEFLATED),
    ("the deflated sparse signs leave out the divided-out rational roots", "exactpoly.py",
     "        out.roots = self.roots + [", "        out.roots = self.roots or [", DEFLATED),
    ("the sign memo keys a point by its numerator alone", "exactpoly.py",
     "        key = x.numerator, x.denominator\n", "        key = x.numerator\n", MEMO),
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
    ("isolation accepts a point of exclude that is a root", "exactpoly.py",
     "    if any(r in roots or k and not r for r in exclude):\n"
     "        raise ValueError(\"a point of exclude is a root\")\n", "", EXCLUDED_ROOT),
    ("refinement skips clearing the points of exclude", "exactpoly.py",
     "    while any(a * rd <= rn * den <= (a + width) * rd for rn, rd in points):\n"
     "        a, den = _qir_levels(signs, a, den, width, vb, 1)\n", "", REFINE),
    ("adjacent closures that share an endpoint stay unseparated", "exactpoly.py",
     "        while intervals[i][1] >= intervals[i + 1][0]:\n",
     "        while intervals[i][1] > intervals[i + 1][0]:\n", REFINE),
    ("isolation and rational_roots read every root of a non-square-free p0 as simple",
     "exactpoly.py",
     "    return k, squarefree_decompose(IntPolynomial(cs[k:]))\n",
     "    return k, [(fac, 1) for fac, _ in squarefree_decompose(IntPolynomial(cs[k:]))]\n", YUN),
    ("Yun decomposition returns p as its one factor whatever the gcd", "exactpoly.py",
     "    g = poly_gcd(p, poly_derivative(p))\n", "    return [(p, 1)]\n", YUN),
    ("exact division accepts a step that leaves a fraction", "exactpoly.py",
     "        if rem:\n            raise ValueError(\"polynomial division leaves a non-integral",
     "        if False:\n            raise ValueError(\"polynomial division leaves a non-integral",
     DIVISION),
    ("exact division drops the remainder check", "exactpoly.py",
     "    if any(r[:dd]):\n", "    if False:\n", DIVISION),
    ("square-free certificate leaves slots of l and above unreduced", "exactpoly.py",
     "                a -= (((a + top) >> 63) & ones) * ell\n", "", CERTIFY),
    ("reciprocal pairing accepts an inverted interval that misses its partner", "cscrays.py",
     "            if not a < b or not (", "            if not (", PAIRING),
    ("reciprocal pairing reads a partner of even multiplicity by a sign change", "cscrays.py",
     "high.multiplicity % 2 == 0", "high.multiplicity % 2 == 1", PAIRING),
    ("bracket counts read the sign of hi in place of lo", "exactpoly.py",
     "sign[lo]) for lo, hi in brackets", "sign[hi]) for lo, hi in brackets", BRACKETS),
    ("the kept-cell count skips a kept cell that starts at the point asked", "exactpoly.py",
     "sum(x <= lo for lo in lefts)", "sum(x < lo for lo in lefts)", DESCARTES),
    ("bisection keeps a cell that holds two roots", "exactpoly.py",
     "        if n == 1:\n", "        if n >= 1:\n", DESCARTES),
    ("the root-level check reads 2 sign variations as one root", "exactpoly.py",
     "    if variations == 1:\n", "    if variations in (1, 2):\n", DESCARTES),
    ("dense grid values shift every term one grid level short", "exactpoly.py",
     "        s = shift = (y & -y).bit_length() - 1\n",
     "        s = (y & -y).bit_length() - 1\n        shift = 0\n", GRID),
    ("dense grid values fold one power of the odd part too many", "exactpoly.py",
     "repeat(d, self.degree), mul, initial=1)\n", "repeat(d, self.degree), mul, initial=d)\n", GRID),
    ("sparse grid values fold one power of the odd part too many", "exactpoly.py",
     "c * d ** (self.degree - i)", "c * d ** (self.degree - i + 1)", GRID),
    ("dense grid values keep the first odd part folded when it changes", "exactpoly.py",
     "        if y >> s != d:\n            d, folded", "        if not d:\n            d, folded", GRID),
    ("roots below the forced root are read as none without a Descartes count", "cscrays.py",
     "        if lo == hi or counted and descartes_count(quotient, lo, hi) == 0:\n",
     "        if lo == hi or counted:\n", BRANCH),
    ("the threshold interval is taken at the first counted level without its count",
     "cscrays.py", "            if descartes_count(f_bottom, lo, hi) == 0:\n",
     "            if True:\n", THRESHOLD),
    ("the family rule skips the l2 = 1 check", "cscrays.py",
     "    JoinParams(p, l1, 1, w1, w2)\n", "", FAMILY),
    ("lambda_exponents accepts a float l1", "classify.py",
     "not isinstance(l1, int) or isinstance(l1, bool)", "isinstance(l1, bool)", KS),
    ("the walk on c* counts at every level from 4, not at 4, 8, 16, ...", "cscrays.py",
     "level >= 4 and not level & (level - 1)", "level >= 4", LEVELS),
    ("the family certificate admits a positive root of A besides w2/w1", "cscrays.py",
     "\n                 and descartes_count(a_rest, 0) == 0)", ")", STRUCTURE),
    ("the closed-form partition repeats a class at the period s*M, not lcm(s, M)",
     "classify.py", "period = lcm(step, diffeo)", "period = step * diffeo", DIFFEO),
    ("the closed-form partition takes M heads, not lcm(s, M)/s", "classify.py",
     "l2_values[first:first + period // step]", "l2_values[first:first + diffeo]", DIFFEO),
    ("the closed-form partition keeps the heads that share a factor with l1", "classify.py",
     "for r in compress(heads, map(not_, shared())))", "for r in heads)", DIFFEO),
    ("the lazy invalid list has a length one too long", "classify.py",
     "LazySequence(len(l2_values) - len(rest)", "LazySequence(len(l2_values) + 1 - len(rest)",
     DIFFEO),
    ("the lazy invalid list holds every value l2 >= 1", "classify.py",
     "bytes(gcd(l1, r) != 1 for", "bytes(True for", DIFFEO),
    ("the mask of shared factors is built one value late", "classify.py",
     "for r in heads[:l1 // gcd(l1, step)])", "for r in heads[1:l1 // gcd(l1, step) + 1])",
     DIFFEO),
    ("the count of shared values drops the last, partial period", "classify.py",
     "n // len(mask) * sum(mask) + sum(mask[:n % len(mask)])", "n // len(mask) * sum(mask)",
     DIFFEO),
    ("the separator between two slices of a long list is dropped", "cli.py",
     "            sep = comma\n        yield indent + \"]\"\n",
     "            sep = \"\"\n        yield indent + \"]\"\n", STREAM),
    ("a long list is cut after its first slice", "cli.py",
     "        while chunk := list(islice(items, _SLICE)):\n",
     "        if chunk := list(islice(items, _SLICE)):\n", STREAM),
    ("the template renders a dict that holds a list", "cli.py",
     "if not (kinds := set(map(type, column))) <= _SCALARS:", "if not (kinds := set(map(type, column))):",
     STREAM),
    ("a slice of ints and bools takes the %d template", "cli.py",
     "yield sep + _scalars(chunk, kinds, comma)", "yield sep + _scalars(chunk, kinds - {bool}, comma)",
     STREAM),
    ("the texts of one key order are written to the rows of another", "cli.py",
     "    return comma.join(map(next, map(texts.__getitem__, orders)))\n",
     "    return comma.join(text for group in texts.values() for text in group)\n", STREAM),
    ("the one-order return is taken when key orders interleave", "cli.py",
     "len(distinct := dict.fromkeys(orders)) == 1", "len(distinct := dict.fromkeys(orders)) >= 1",
     STREAM),
    ("a slice of ranges past _PIECE values is one piece", "cli.py",
     "kinds == {range} and sum(map(len, chunk)) <= _PIECE:", "kinds == {range}:", PIECE),
    ("the helper's records take assignment", "joinspace.py",
     "        raise AttributeError(f\"cannot assign to field {name!r}\")\n",
     "        object.__setattr__(self, name, value)\n", RECORDS),
    ("a record's == and hash ignore its last field", "joinspace.py",
     "        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented\n"
     "\n    def __hash__(self):\n        return hash(self._values)\n",
     "        return self._values[:-1] == other._values[:-1] if other.__class__ is self.__class__ else NotImplemented\n"
     "\n    def __hash__(self):\n        return hash(self._values[:-1])\n", RECORDS),
    ("a one-field record's values are the bare value, not a 1-tuple", "joinspace.py",
     "property(get if len(names) > 1 else lambda self: (get(self),))", "property(get)", DEFAULTS),
    ("the fields of the class asked are kept on Record, for every record", "joinspace.py",
     "            cls.__dataclass_fields__ = found\n", "            Record.__dataclass_fields__ = found\n",
     BASE_FIELDS),
    ("asking Record keeps its empty fields on Record, for every record", "joinspace.py",
     "        if \"__dataclass_fields__\" not in vars(cls):\n", "        if True:\n", BASE_FIELDS),
    ("IntPolynomial accepts a trailing zero", "exactpoly.py",
     "        if self.coeffs and self.coeffs[-1] == 0:\n", "        if False:\n", CANONICAL),
    ("sweep csc reads validity modulo l1*w1, not l1*w1*w2", "cli.py",
     "    period = l1 * w1 * w2\n", "    period = l1 * w1\n", SWEEP_ROWS),
    ("the window starts one l2 late, so its first open row is read as below", "cscrays.py",
     "bisect_right(l2_values, t_star.lo * l1),", "bisect_right(l2_values, t_star.lo * l1) + 1,",
     WINDOW),
    ("the window stops one l2 early, so its last open row is read as above", "cscrays.py",
     "bisect_right(l2_values, t_star * l1)\n", "bisect_right(l2_values, t_star * l1) - 1\n", WINDOW),
    ("a failed certificate puts every l2 below the window", "cscrays.py",
     "        return l2_values[:0], l2_values, l2_values[:0]\n",
     "        return l2_values, l2_values[:0], l2_values[:0]\n", FAILED_SPLIT),
    ("min_l2_multiple_csc asks csc_rays above the window too", "cscrays.py",
     "        if l2 in above or csc_rays(params)", "        if csc_rays(params)", MIN_L2_ROWS),
    ("min_l2_multiple_csc starts at the window's second l2", "cscrays.py",
     "chain(window, above)", "chain(window[1:], above)", MIN_L2_ROWS),
    ("threshold_l2 skips a maximal open row", "cli.py",
     "    threshold = next((row[\"l2\"] for row in found if row[\"reduced\"] == maximal), None)\n",
     "    threshold = None\n", SWEEP_PINS),
    ("the entry leaves write-through on", "cli.py",
     "    if hasattr(sys.stdout, \"reconfigure\"):\n        sys.stdout.reconfigure(write_through=False)\n",
     "", BATCHED),
    ("the loader overwrites a name that is already bound", "cli.py",
     "            globals().setdefault(name, getattr(module, name))\n",
     "            globals()[name] = getattr(module, name)\n", LATE),
    ("the pool task stops loading its own names", "cli.py", "    _load(_KERNEL)\n", "", SPAWNED),
    ("lambda2 reads 2 at l1 = 7 mod 8", "classify.py",
     "_LAMBDA2 = (3, 1, 0, 2, 3, 2, 0, 1)", "_LAMBDA2 = (3, 1, 0, 2, 3, 2, 0, 2)", LAMBDA),
    ("lambda7 reads 0 at l1 = 4 mod 7", "classify.py",
     "_LAMBDA7 = (1, 0, 0, 1, 1, 0, 0)", "_LAMBDA7 = (1, 0, 0, 1, 0, 0, 0)", LAMBDA),
    ("classify homeo reports the diffeomorphism modulus", "cli.py",
     "(\"homeomorphism\", 0, ks_homeomorphic)", "(\"homeomorphism\", 1, ks_homeomorphic)",
     CLASSIFY_PINS),
    ("the Kreck-Stolz witness is the residue of l2 - l2'", "cli.py",
     "((args.l2p - args.l2) % modulus, modulus)", "((args.l2 - args.l2p) % modulus, modulus)",
     WITNESS),
    ("the homotopy verdict takes the first tuple's H^4 order for both", "classify.py",
     "m_a, m_b = h4_order(a), h4_order(b)", "m_a, m_b = h4_order(a), h4_order(a)", KRUGGEL),
    ("the lazy cohomology rows stop one degree short", "cli.py",
     "for k in range(params.dim + 1) for group", "for k in range(params.dim) for group",
     INVARIANTS_PINS),
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
                                   "--hypothesis-seed=0", *args], cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
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
        start = time.perf_counter()
        verdict = run_mutant(root, module, text, replacement, args)
        print(f"{verdict if verdict in ('killed', 'survived') else 'error'}: {fault}"
              f" ({time.perf_counter() - start:.1f} s)", flush=True)
        if verdict != "killed":
            bad += 1
            if verdict != "survived":
                print(f"  {verdict}", file=sys.stderr)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
