"""wogli benchmark: the CLI from outside, one child process at a time.

    python3 perfbench/run.py --workload generate-bundled --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced and traced

An untraced run (--trace 0) builds the workload's fixtures from the seed,
then, for --seconds, runs its commands in order, round robin, each in a fresh
interpreter (every command runs at least once). Between commands, at even
intervals, it times a minimal run of the first command (setup_s). Every command's outputs go through the correctness
gate in gate.py. The end-to-end metrics are sums over the commands of
per-command medians.

A traced run (--trace 1) calls the same library functions in-process with a
span around each call and reports per-layer metrics, plus exact call counts
from one cProfile pass made before the traced loop. Layers the workload's own
commands never call are measured on auxiliary steps (see
workloads.build_plan), so every traced run reports every per-layer metric.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A full record of the run, every raw sample included, is written under
perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path

import gate
from probe import Spawner, Tracer, call_counts

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORKLOADS = ("generate-bundled", "generate-custom-lexicon", "downstream")
SETUP_SAMPLES = 12
IMPORT_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.import_s": "s",
    "lexicon.load_s": "s",
    "lexicon.validate_s": "s",
    "generator.sample_s": "s",
    "generator.records_s": "s",
    "generator.realizations_per_premise": "count",
    "generator.dedup_keep_ratio": "ratio",
    "generator.derive_os_hard_s": "s",
    "morphology.realize_s": "s",
    "morphology.render_np_per_premise": "count",
    "dataset_io.write_s": "s",
    "dataset_io.write_mb_per_s": "MB/s",
    "dataset_io.read_s": "s",
    "dataset_io.read_mb_per_s": "MB/s",
    "dataset_io.read_predictions_s": "s",
    "augment.plan1037_s": "s",
    "augment.plan102_s": "s",
    "augment.merge_s": "s",
    "augment.swaps": "count",
    "analysis.build_report_s": "s",
    "trace.inprocess_s": "s",
}

CLI_BOOT = "from wogli.cli import main; main()"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wogli.cli; "
    "print(time.perf_counter() - t)"
)


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict = {}           # output key -> gate.Checked of its first write

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def outputs(self, step) -> tuple[int, list[str]]:
        """Gate a step's outputs: a full check the first time each is
        written, the same digest on every later write. Returns rows written."""
        rows, problems = 0, []
        for out in step.outputs:
            try:
                if out.key not in self.first:
                    checked = out.check()
                    self.first[out.key] = checked
                    problems += checked.problems
                    pinned = gate.pinned_problem(out.key, checked.digest, self.seed)
                    if pinned:
                        problems.append(pinned)
                elif gate.sha256_hex(out.path.read_bytes()) != self.first[out.key].digest:
                    problems.append(f"{out.key}: bytes differ from the first run of {step.name}")
            except (OSError, UnicodeDecodeError) as exc:
                problems.append(f"{out.key}: {exc}")
                continue
            rows += self.first[out.key].rows
        return rows, problems


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WOGLI_LEXICON", None)      # it silently overrides the bundled lexicon
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ------------------------------------------------------------- untraced run

def cli_run(plan, seconds: int, work: Path, ledger: Ledger, spawner: Spawner) -> tuple[dict, dict]:
    boot = [sys.executable, "-c", CLI_BOOT]
    log = work / "child.log"

    def run(step):
        result = spawner.run(boot + step.argv, work, log)
        problems = []
        if result.returncode != 0:
            problems.append(f"{step.name}: exit {result.returncode}: {result.stderr_tail}")
        rows, gate_problems = ledger.outputs(step)
        ledger.record(problems + gate_problems)
        return result, rows

    run(plan.setup)                     # fills the bytecode and page caches
    start = time.perf_counter()
    deadline = start + seconds
    setup = []
    samples = {step.name: [] for step in plan.steps}
    rows = {}
    i = 0
    while i < len(plan.steps) or time.perf_counter() < deadline:
        # set-up samples spread over the window, so a slow spell of the
        # machine weighs on setup_s as it does on the other metrics
        if time.perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(run(plan.setup)[0].wall_s)
        step = plan.steps[i % len(plan.steps)]
        i += 1
        result, rows[step.name] = run(step)
        samples[step.name].append({
            "wall_s": result.wall_s, "cpu_s": result.cpu_s,
            "maxrss_mb": result.maxrss_mb, "returncode": result.returncode,
        })

    def per_step(field):
        return [statistics.median([s[field] for s in samples[step.name]]) for step in plan.steps]

    wall = sum(per_step("wall_s"))
    metrics = {
        "wall_s": wall,
        "cpu_s": sum(per_step("cpu_s")),
        "rows_per_s": sum(rows.values()) / wall if wall else 0.0,
        "peak_rss_mb": max(per_step("maxrss_mb")),
        "setup_s": statistics.median(setup),
    }
    raw = {"setup_wall_s": setup, "steps": samples, "rows": rows,
           "argv": {step.name: step.argv for step in [plan.setup, *plan.steps]}}
    return metrics, raw


# --------------------------------------------------------------- traced run

def import_times(work: Path) -> list[float]:
    env = child_env()
    argv = [sys.executable, "-c", IMPORT_PROBE]
    times = []
    for i in range(IMPORT_REPEATS + 1):
        done = subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:                           # the first import fills the caches
            times.append(float(done.stdout))
    return times


def count_pass(plan) -> dict:
    """Exact call counts over the workload's largest generate call and the
    two augmentation plans, under cProfile (timings discarded)."""
    from wogli import (GenerationSet, generate_set, load_lexicon, plan_102, plan_1037,
                       read_pairs, sample_augmentation)
    from workloads import PER_PATTERN

    lex = load_lexicon(plan.generate_lexicon)
    records, calls = call_counts(
        lambda: generate_set(GenerationSet.WOGLI, lex, plan.seed, PER_PATTERN["wogli"],
                             spaced_period=plan.spaced_period),
        {"render_np", "realize_premise"},
    )
    premises = len(records) // 2
    base = read_pairs(plan.base)
    _, spent = call_counts(
        lambda: (sample_augmentation(base, plan_1037(plan.aug_seed)),
                 sample_augmentation(base, plan_102(plan.aug_seed))),
        {"spend"},
    )
    return {
        "premises": premises,
        "render_np": calls["render_np"],
        "realize_premise": calls["realize_premise"],
        "swap_budget_spend": spent["spend"],
    }


def traced_run(plan, seconds: int, work: Path, ledger: Ledger) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    imports = import_times(work)
    counts = count_pass(plan)
    tracer = Tracer()
    steps = [("own", step) for step in plan.steps] + [("aux", step) for step in plan.aux]
    i = 0
    while i < len(steps) or time.perf_counter() < deadline:
        stage, step = steps[i % len(steps)]
        i += 1
        problems = []
        with tracer.span("rep", step=step.name, stage=stage):
            try:
                step.mirror(tracer)
            except Exception:           # a failing step is counted, the run goes on
                problems.append(f"{step.name}: {traceback.format_exc(limit=3)}")
        if not problems:
            problems = ledger.outputs(step)[1]
        ledger.record(problems)

    metrics, sources = layer_metrics(tracer, counts)
    metrics["cli.import_s"] = statistics.median(imports)
    raw = {"import_s": imports, "counts": counts, "sources": sources, "spans": tracer.spans}
    return metrics, raw


def layer_metrics(tracer, counts: dict) -> tuple[dict, dict]:
    """Per-step medians over repetitions of each span name, summed over the
    steps. A metric comes from the workload's own steps when they make that
    call, else from the auxiliary steps."""
    per_rep = defaultdict(lambda: defaultdict(float))      # rep id -> name -> seconds
    attrs = defaultdict(lambda: defaultdict(float))        # rep id -> attribute -> sum
    reps = {}
    for span in tracer.spans:
        if span["name"] == "rep":
            reps[span["id"]] = span
            continue
        root = tracer.root_of(span)["id"]
        per_rep[root][span["name"]] += span["end"] - span["start"]
        for key in ("bytes", "premises_drawn", "premises_kept"):
            if key in span:
                attrs[root][f"{span['name']}:{key}"] += span[key]
    by_step = defaultdict(list)
    for rep_id, rep in reps.items():
        by_step[(rep["stage"], rep["step"])].append(rep_id)

    med = {}
    for key, rep_ids in by_step.items():
        names = {n for r in rep_ids for n in per_rep[r]} | {n for r in rep_ids for n in attrs[r]}
        med[key] = {
            n: statistics.median([per_rep[r][n] if n in per_rep[r] else attrs[r][n] for r in rep_ids])
            for n in names
        }

    sources = {}

    def ratio(a, b):                    # a failed step leaves a layer without spans
        return a / b if b else 0.0

    def total(name):
        stage = "own" if any(st == "own" and name in m for (st, _), m in med.items()) else "aux"
        sources[name] = stage
        return sum(m.get(name, 0.0) for (st, _), m in med.items() if st == stage)

    write_s = total("dataset_io.write_pairs")
    read_s = total("dataset_io.read_pairs")
    sample_s = total("generator.sample_premises")
    drawn = total("generator.generate_set:premises_drawn")
    metrics = {
        "lexicon.load_s": total("lexicon.load"),
        "lexicon.validate_s": total("lexicon.validate"),
        "generator.sample_s": sample_s,
        "generator.records_s": total("generator.generate_set") - sample_s,
        "generator.realizations_per_premise": ratio(counts["realize_premise"], counts["premises"]),
        "generator.dedup_keep_ratio": ratio(total("generator.generate_set:premises_kept"), drawn),
        "generator.derive_os_hard_s": total("generator.derive_os_hard"),
        "morphology.realize_s": total("morphology.realize"),
        "morphology.render_np_per_premise": ratio(counts["render_np"], counts["premises"]),
        "dataset_io.write_s": write_s,
        "dataset_io.write_mb_per_s": ratio(total("dataset_io.write_pairs:bytes") / 1e6, write_s),
        "dataset_io.read_s": read_s,
        "dataset_io.read_mb_per_s": ratio(total("dataset_io.read_pairs:bytes") / 1e6, read_s),
        "dataset_io.read_predictions_s": total("dataset_io.read_predictions"),
        "augment.plan1037_s": total("augment.plan1037"),
        "augment.plan102_s": total("augment.plan102"),
        "augment.merge_s": total("augment.merge_training") + total("augment.write_training_rows"),
        "augment.swaps": counts["swap_budget_spend"],
        "analysis.build_report_s": total("analysis.build_report"),
        "trace.inprocess_s": sum(m.get("cmd", 0.0) for (st, _), m in med.items() if st == "own"),
    }
    return metrics, sources


# ---------------------------------------------------------------- one run

def run_workload(workload: str, seed: int, seconds: int, traced: bool, spawner: Spawner) -> dict:
    import workloads

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    work = BENCH / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "started": stamp, "machine": machine(), "loadavg_before": os.getloadavg(),
    }
    ledger = Ledger(seed)
    try:
        plan = workloads.build_plan(workload, seed, work, traced)
        for key, checked in plan.fixtures.items():
            pinned = gate.pinned_problem(key, checked.digest, seed)
            ledger.record(checked.problems + ([pinned] if pinned else []))
        if traced:
            metrics, raw = traced_run(plan, seconds, work, ledger)
        else:
            metrics, raw = cli_run(plan, seconds, work, ledger, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if traced else END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(
        loadavg_after=os.getloadavg(), lexicon_sha256=plan.lexicons, notes=plan.notes,
        fixtures={k: {"sha256": c.digest, "rows": c.rows} for k, c in plan.fixtures.items()},
        outputs={k: {"sha256": c.digest, "rows": c.rows} for k, c in ledger.first.items()},
        problems=ledger.problems, result=result, raw=raw,
    )
    runs = BENCH / "runs"
    runs.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(traced)}-{stamp}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def run_all(seed: int, seconds: int, spawner: Spawner) -> int:
    """Every workload untraced and traced; a table of every metric."""
    print(f"{'workload':<26} {'metric':<36} {'value':>14}  unit")
    correct = True
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, False, spawner)
        traced = run_workload(workload, seed, seconds, True, spawner)
        correct &= plain["correct"] and traced["correct"]
        m = {name: v["value"] for name, v in plain["metrics"].items()}
        rows = [(name, v["value"], v["unit"]) for name, v in plain["metrics"].items()]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        rows.append(("fail_ratio", failed / attempted, "ratio"))
        inprocess = traced["metrics"]["trace.inprocess_s"]["value"]
        rows.append(("trace.overhead_s", inprocess - (m["wall_s"] - m["setup_s"]), "s"))
        rows += [(name, v["value"], v["unit"]) for name, v in traced["metrics"].items()]
        for name, value, unit in rows:
            print(f"{workload:<26} {name:<36} {value:>14.6g}  {unit}")
    print(json.dumps({"correct": correct}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    if not (SRC / "wogli" / "cli.py").is_file():
        print(f"perfbench: no wogli sources at {SRC}", file=sys.stderr)
        return 2
    spawner = Spawner(child_env())      # first, while this process is small
    try:
        sys.path[:0] = [str(SRC), str(BENCH)]
        if args.all:
            return run_all(args.seed, args.seconds, spawner)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spawner)
    finally:
        spawner.close()
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
