"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 0-9 --seconds 50 [--workload NAME ...] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for each metric the median over seeds and the distance between the
first and third quartile as a share of the median (statistics.quantiles,
n=4). The output file keeps every run's result line and its record, raw
samples included (spans left out), so two commits can be compared run by run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS

RUNS = BENCH / "runs"


def parse_seeds(text: str) -> list[int]:
    span = re.fullmatch(r"(\d+)-(\d+)", text)
    if span:
        return list(range(int(span[1]), int(span[2]) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="0-9", help="a range lo-hi or a comma list")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    runs = []
    for workload in args.workload or WORKLOADS:
        for seed in seeds:
            before = set(RUNS.glob("*.json"))
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            # paths relative to the checkout, so records compare across checkouts
            records = [json.loads(p.read_text().replace(str(ROOT), "."))
                       for p in set(RUNS.glob("*.json")) - before]
            for record in records:
                record["raw"].pop("spans", None)
            runs.append({"workload": workload, "seed": seed, "result": result,
                         "record": records[0] if len(records) == 1 else None})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    print(f"{'workload':<26} {'metric':<36} {'median':>12} {'iqr/median':>11}")
    for workload in args.workload or WORKLOADS:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            share = spread(values) if len(values) > 1 else float("nan")
            print(f"{workload:<26} {name:<36} {statistics.median(values):>12.6g} {share:>11.4f}")
    out = args.out or RUNS / (
        "spread-" + datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S") + ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(run) for run in runs)
    out.write_text(f'{{"seconds": {args.seconds}, "runs": [\n{lines}\n]}}\n', encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
