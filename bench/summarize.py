#!/usr/bin/env python3
"""Summarize benchmark results into a baseline file.

    python3 bench/summarize.py OUT.json [--commit SHA]

Reads every ``.bench_out/<workload>-seed<n>-trace<t>.json`` written by
``bench/run.py`` and writes, per workload and metric, the median, the
quartiles, their spread as a share of the median and the sample count,
with machine, Python and commit metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("out")
    parser.add_argument("--commit", help="commit of the measured package (default: HEAD)")
    args = parser.parse_args()

    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted((ROOT / ".bench_out").glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        detail = record["detail"]
        runs.setdefault((detail["workload"], detail["trace"]), []).append(record)

    summary = {}
    for (workload, trace), records in sorted(runs.items()):
        table = {}
        for name in records[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            table[name] = {"unit": records[0]["result"]["metrics"][name]["unit"],
                           "median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median if median else 0.0,
                           "runs": len(values)}
        summary[f"{workload}/trace{trace}"] = {
            "seeds": sorted(r["detail"]["seed"] for r in records),
            "all_correct": all(r["result"]["correct"] for r in records),
            "metrics": table,
        }
    meta = {
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(), "arch": platform.machine(),
                    "system": f"{platform.system()} {platform.release()}"},
        "python": platform.python_version(),
        "commit": args.commit or commit(),
    }
    Path(args.out).write_text(json.dumps({"meta": meta, "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
