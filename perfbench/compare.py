"""Compare two sets of benchmark runs; refuse when their data differ.

Run from the repository root::

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are run records written by ``run.py`` under
``.perfbench/runs/``, or directories of them. For every (workload, seed,
data seed) present on both sides the data fingerprints (table row counts, PT rows,
graphs enumerated and mined, parameters) must be identical, otherwise the
comparison is refused with exit code 2: the two sides did not answer the
same question on the same data. A differing environment fingerprint (cores,
versions, session settings) is reported but does not refuse.

For each workload, trace mode and metric it prints the number of runs, the
median and quartiles of each side and the change of the medians.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(arg: str) -> list[dict]:
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def summary(xs: list[float]) -> str:
    med = statistics.median(xs)
    if len(xs) < 2:
        return f"n={len(xs)} {med:.6g}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} {med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (load(a) for a in argv)

    refused = []
    fps: dict[tuple, dict] = {}
    envs: set[str] = set()
    for rec in base + change:
        data = rec["fingerprint"]["data"]
        key = (data["workload"], data["seed"], data["data_seed"])
        envs.add(json.dumps(rec["fingerprint"]["env"], sort_keys=True))
        if fps.setdefault(key, data) != data:
            refused.append(f"{key[0]} seed {key[1]} data seed {key[2]}: data fingerprints differ")
    if refused:
        print("\n".join(refused + ["refusing to compare"]))
        return 2
    if len(envs) > 1:
        print("note: environment fingerprints differ:\n  " + "\n  ".join(sorted(envs)))

    values: dict[tuple, dict[int, list[float]]] = defaultdict(lambda: {0: [], 1: []})
    for side, recs in enumerate((base, change)):
        for rec in recs:
            wl = rec["fingerprint"]["data"]["workload"]
            for m, v in rec["metrics"].items():
                values[(wl, rec["trace"], m, v["unit"])][side].append(v["value"])
    for (wl, trace, m, unit), sides in sorted(values.items()):
        a, b = sides[0], sides[1]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change_txt = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        print(f"{wl} trace={int(trace)} {m} ({unit}): base {summary(a)}  "
              f"change {summary(b)}  median {change_txt}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
