"""Smoke test of the benchmark: every workload at tiny scale, through run.py.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload it makes one untraced and one traced run at a small scale
factor, with the warm-up and a single cycle of set-up, cold call and warm
calls. It checks that each run is correct, that it emits exactly the
metrics BENCHMARK.json names with their units (end-to-end ones non-zero),
that child spans nest inside their parents, and that per-span job counts sum to ``spark.jobs``.
Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import sys

from pyspark.sql import SparkSession

import run

SMOKE_SF = {"nba": 0.02, "mimic": 0.02}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    run.configure_spark()
    try:
        for name, wl in run.WORKLOADS.items():
            for trace in (False, True):
                tag = f"{name} trace={int(trace)}"
                out = run.run(name, seed=0, seconds=0, trace=trace,
                              min_cycles=1, sf=SMOKE_SF[wl.dataset])
                rec = out["record"]
                found = []
                if not out["correct"]:
                    found.append(f"not correct: {rec['failures']}")
                got = {m: v["unit"] for m, v in out["metrics"].items()}
                if got != want[trace]:
                    found.append(
                        f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want[trace].items()))}"
                    )
                if not trace:
                    found += [f"{m} is 0" for m, v in out["metrics"].items() if not v["value"]]
                elif not rec["spans"]:
                    found.append("no spans recorded")
                found += rec["span_errors"]
                problems += [f"{tag}: {p}" for p in found]
                print(f"{tag}: {'ok' if not found else 'FAILED'} "
                      f"({out['attempted']} calls, {len(rec['spans'])} spans)", flush=True)
    finally:
        run.stop_spark(SparkSession.getActiveSession())
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
