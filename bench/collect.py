"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --out DIR [--seeds 101-110] [--trace 0]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, from the
root of the checkout, with every workload of BENCHMARK.json and its
run_seconds. Appends every result line, with its workload, seed, raw values
and context, to DIR/runs.jsonl, and writes DIR/summary.json: per workload
and metric the median, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (Q3 - Q1) / median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(rows: list[dict]) -> dict:
    out: dict = {}
    for row in rows:
        for name, m in row["metrics"].items():
            out.setdefault(row["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
    for metrics in out.values():
        for m in metrics.values():
            values = m["values"]
            median = statistics.median(values)
            m["median"] = median
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m["q1"], m["q3"] = q1, q3
                m["spread"] = (q3 - q1) / median if median else None
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seed_range(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
                check=True)
            lines = done.stdout.splitlines()
            tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1]
                      for line in lines if line.startswith(("raw ", "context "))}
            row = {"workload": workload, "seed": seed, "trace": args.trace,
                   "raw": json.loads(tagged["raw"]),
                   "context": json.loads(tagged["context"]),
                   **json.loads(lines[-1])}
            rows.append(row)
            with open(args.out / "runs.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
            print(workload, seed, row["correct"],
                  {k: round(v["value"], 4) for k, v in row["metrics"].items()
                   if k in {m["name"] for m in spec["end_to_end"]}},
                  flush=True)
    summary = summarize(rows)
    (args.out / "summary.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            if "spread" in m and name in {e["name"] for e in spec["end_to_end"]}:
                print(f"{workload:18s} {name:18s} median {m['median']:.4f} "
                      f"spread {m['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
