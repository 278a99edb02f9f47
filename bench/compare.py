"""Summarize or compare result records written by ``run.py --out``.

    python3 bench/compare.py RESULTS.jsonl            # spread of each metric
    python3 bench/compare.py BASE.jsonl CHANGE.jsonl  # change against base

For every workload and end-to-end metric this prints the median over the
records (one record per run, usually one per seed), the spread (distance
between the first and third quartile as a share of the median) and the
metric's bound from ``BENCHMARK.json``.  With two files it also prints the
change of the median and flags a regression beyond the bound; a metric
whose spread exceeds its bound reads "unresolved".

Records taken on different machines or toolchains are not compared: the
environment records must all be equal, or the script exits with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_metric(records) -> dict:
    """{(workload, metric): [values]} over the end-to-end (trace 0) records."""
    out: dict = {}
    for rec in records:
        if rec["trace"] != 0:
            continue
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv]
    envs = {json.dumps(r["env"], sort_keys=True) for records in sets for r in records}
    if len(envs) != 1:
        print("error: environment records differ; results are not comparable:", file=sys.stderr)
        for env in sorted(envs):
            print("  " + env, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    for records in sets:
        bad = [r for r in records if not r["result"]["correct"]]
        if bad:
            print(f"warning: {len(bad)} record(s) not correct", file=sys.stderr)
    base = by_metric(sets[0])
    change = by_metric(sets[1]) if len(sets) == 2 else {}
    print("# env " + next(iter(envs)))
    header = f"{'workload':<11} {'metric':<12} {'n':>3} {'median':>12} {'spread':>7} {'bound':>6}"
    if change:
        header += f" {'n':>3} {'median':>12} {'spread':>7} {'change':>8}  verdict"
    print(header)
    for (workload, name), values in sorted(base.items()):
        spec = specs[name]
        line = (f"{workload:<11} {name:<12} {len(values):>3} {statistics.median(values):>12.6g} "
                f"{spread(values):>7.3f} {spec['bound']:>6.3f}")
        if change:
            other = change.get((workload, name))
            if other is None:
                line += "   (missing)"
            else:
                m0, m1 = statistics.median(values), statistics.median(other)
                rel = (m1 - m0) / m0 if spec["better"] == "lower" else (m0 - m1) / m0
                verdict = "ok"
                if max(spread(values), spread(other)) > spec["bound"]:
                    verdict = "unresolved"
                elif rel > spec["bound"]:
                    verdict = "REGRESSED"
                line += (f" {len(other):>3} {m1:>12.6g} {spread(other):>7.3f} "
                         f"{(m1 - m0) / m0:>+8.3f}  {verdict}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
