#!/usr/bin/env python3
"""Benchmark for sasakijoin.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: ``census``, ``stress``, ``cli`` (see bench/NOTES.md).  With
``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` it holds the per-layer figures of a traced replay.  The line
before it is a JSON object with the details (percentiles, sample counts,
passes, workload properties), also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("census", "stress", "cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sasakijoin" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import sasakijoin
    if Path(sasakijoin.__file__).resolve().parent != src / "sasakijoin":
        print(f"error: imported sasakijoin from {sasakijoin.__file__}", file=sys.stderr)
        return 2

    from sjbench.workloads import Context, run

    ctx = Context(args.workload, args.seed, args.seconds, ROOT)
    summary, detail = run(ctx, bool(args.trace))
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}
    ctx.out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ctx.out_dir / name).write_text(json.dumps({"result": summary, "detail": detail}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
