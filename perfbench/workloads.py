"""The three workloads: fixtures built from the workload seed, the CLI steps
that are timed, and in-process mirrors of those steps for the traced run.

A step's mirror calls the same public library functions as the CLI command,
in the same order, and writes the same bytes to the same kind of file, so
both paths share one correctness gate.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from wogli import (
    GenerationSet,
    ValidationProfile,
    build_report,
    bundled_lexicon_path,
    derive_h1,
    derive_h2,
    derive_os_hard,
    generate_set,
    load_lexicon,
    merge_training,
    plan_102,
    plan_1037,
    read_pairs,
    read_predictions,
    realize_premise,
    sample_augmentation,
    sample_premises,
    serialize_lexicon,
    validate_lexicon,
    write_pairs,
    write_training_rows,
)
from wogli import generator as _generator

import gate

SETS = ("wogli", "p-subject", "dative", "ditransitive", "os-hard")
# the CLI's per-set default --per-pattern, which the mirrors pass explicitly
PER_PATTERN = {"wogli": 1000, "p-subject": 1000, "dative": 150, "ditransitive": 500, "os-hard": 1000}
SET_ROWS = {"wogli": 34_000, "dative": 7_200, "ditransitive": 24_000, "os-hard": 17_000}
# the README's augmentation example: base from --seed 92, plans drawn with --seed 7
BASE_SEED_OFFSET = 92
AUG_SEED_OFFSET = 7
TRAIN_ROWS = 20_000
PREDICTION_RUNS = 3
PREDICTION_HIT_RATE = 0.8
# reduced lexicon: first verbs of each government and nouns of each inventory
REDUCED_CUTS = {
    "verbs_acc": 10, "verbs_dat": 6, "verbs_ditrans": 6,
    "masc_common": 8, "fem_common": 8, "masc_proper": 8, "fem_proper": 8,
}


@dataclass
class Output:
    key: str                            # "<workload>/<name>", the pinned-digest key
    path: Path
    check: Callable[[], gate.Checked]


@dataclass
class Step:
    """One CLI command: its arguments, the files it writes, and its mirror."""

    name: str
    argv: list[str]
    outputs: list[Output]
    mirror: Callable                    # mirror(tracer) does the same work in-process


@dataclass
class Plan:
    seed: int
    generate_lexicon: Path              # the lexicon the workload generates with
    spaced_period: bool
    steps: list[Step] = field(default_factory=list)    # timed, in this order
    setup: Step | None = None           # minimal run of the first step
    aux: list[Step] = field(default_factory=list)      # traced run only, see build_plan
    base: Path | None = None            # augmentation input of the read side
    aug_seed: int = 0
    lexicons: dict[str, str] = field(default_factory=dict)   # name -> sha256
    fixtures: dict[str, gate.Checked] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _strs(*args) -> list[str]:
    return [str(a) for a in args]


# ---------------------------------------------------------------- fixtures

def reduced_lexicon_text() -> str:
    """The bundled lexicon cut to REDUCED_CUTS, all thing nouns kept, as TSV."""
    lex = load_lexicon(bundled_lexicon_path())
    cut = dataclasses.replace(
        lex, **{name: getattr(lex, name)[:n] for name, n in REDUCED_CUTS.items()}
    )
    problems = validate_lexicon(cut, ValidationProfile.TOY)
    if problems:
        raise RuntimeError(f"reduced lexicon rejected: {problems[:3]}")
    return serialize_lexicon(cut, "tsv")


def sampling_paths(lexicon_path: Path) -> dict[str, int] | None:
    """How many accusative and dative patterns take the enumeration path at
    default sizes, or None if the generator no longer has two paths."""
    space = getattr(_generator, "_space_size", None)
    cutoff = getattr(_generator, "_ENUMERATION_CUTOFF", None)
    if space is None or cutoff is None:
        return None
    lex = load_lexicon(lexicon_path)
    compat = _generator._compatible_things(lex)
    out = {}
    for setname in ("wogli", "dative"):
        per = PER_PATTERN[setname]
        patterns = _generator._patterns_for(GenerationSet(setname))
        sizes = [space(p, lex, compat) for p in patterns]
        out[setname] = sum(1 for s in sizes if s <= cutoff or per * 3 >= s)
        out[f"{setname}_patterns"] = len(patterns)
    return out


@dataclass
class DownstreamInputs:
    gold: Path              # the seed's wogli set
    base: Path              # with-replacement base for augmentation
    one: Path               # the gold file's first premise (two rows)
    train: Path             # TRAIN_ROWS-row training TSV
    predictions: Path       # PREDICTION_RUNS runs over every gold id
    gold_rows: int
    base_rows: int
    hits: list[int]         # correct predictions per run
    os_hard_digest: str     # sha256 of `generate os-hard` at the same seed


def build_downstream_inputs(seed: int, root: Path, plan: Plan) -> DownstreamInputs:
    """Build the read-side inputs in-process; the library writes the same
    bytes as the CLI, so the gold and base files are gated by digest."""
    root.mkdir(parents=True, exist_ok=True)
    lex = load_lexicon(bundled_lexicon_path())
    gold = generate_set(GenerationSet.WOGLI, lex, seed, PER_PATTERN["wogli"])
    write_pairs(gold, root / "gold.jsonl")
    write_pairs(gold[:2], root / "one.jsonl")
    base = generate_set(
        GenerationSet.WOGLI, lex, seed + BASE_SEED_OFFSET, PER_PATTERN["wogli"],
        with_replacement=True,
    )
    write_pairs(base, root / "base.jsonl")
    base_rows = len(base)
    del base
    os_hard_path = root / "os-hard.jsonl"
    write_pairs(generate_set(GenerationSet.OS_HARD, lex, seed, PER_PATTERN["os-hard"]), os_hard_path)
    os_hard = gate.check_pairs(os_hard_path, "rows", rows=SET_ROWS["os-hard"])
    os_hard_path.unlink()

    rng = random.Random(f"{seed}:train")
    lines = []
    for record in rng.sample(gold, TRAIN_ROWS):
        label = "entailment" if record.label.value == "entailed" else rng.choice(
            ("neutral", "contradiction"))
        lines.append(f"{record.premise}\t{record.hypothesis}\t{label}\n")
    (root / "train.tsv").write_text("".join(lines), encoding="utf-8", newline="")

    rng = random.Random(f"{seed}:predictions")
    hits = [0] * PREDICTION_RUNS
    lines = ["id\trun\tlabel\n"]
    for record in gold:
        entailed = record.label.value == "entailed"
        for run in range(PREDICTION_RUNS):
            hit = rng.random() < PREDICTION_HIT_RATE
            hits[run] += hit
            says_entailed = entailed == hit
            label = "entailment" if says_entailed else rng.choice(("neutral", "contradiction"))
            lines.append(f"{record.id}\t{run}\t{label}\n")
    (root / "predictions.tsv").write_text("".join(lines), encoding="utf-8", newline="")

    plan.fixtures["downstream/gold"] = gate.check_pairs(
        root / "gold.jsonl", "rows", rows=SET_ROWS["wogli"])
    plan.fixtures["downstream/base"] = gate.check_pairs(
        root / "base.jsonl", "rows", unique_premises=True)
    plan.fixtures["downstream/os-hard"] = os_hard
    return DownstreamInputs(
        gold=root / "gold.jsonl", base=root / "base.jsonl", one=root / "one.jsonl",
        train=root / "train.tsv", predictions=root / "predictions.tsv",
        gold_rows=len(gold), base_rows=base_rows, hits=hits,
        os_hard_digest=os_hard.digest,
    )


# ----------------------------------------------------------------- mirrors

def _checked_lexicon(tr, path: Path):
    with tr.span("lexicon.load"):
        lex = load_lexicon(path)
    with tr.span("lexicon.validate"):
        problems = validate_lexicon(lex, ValidationProfile.TOY)
    if problems:
        raise RuntimeError(f"lexicon rejected: {problems[:3]}")
    return lex


def _write_pairs(tr, records, path: Path, fmt: str):
    with tr.span("dataset_io.write_pairs") as span:
        span["bytes"] = write_pairs(records, path, fmt)


def _read_pairs(tr, path: Path):
    with tr.span("dataset_io.read_pairs", bytes=path.stat().st_size):
        return read_pairs(path)


def _generate_mirror(setname, seed, lexicon_path, out, fmt, spaced, with_replacement=False):
    name = GenerationSet(setname)
    per_pattern = PER_PATTERN[setname]

    def mirror(tr):
        with tr.span("cmd"):
            lex = _checked_lexicon(tr, lexicon_path)
            with tr.span("generator.generate_set") as span:
                records = generate_set(
                    name, lex, seed, per_pattern,
                    with_replacement=with_replacement, spaced_period=spaced,
                )
            _write_pairs(tr, records, out, fmt)
        # outside the command span: the sampling share of generate_set, and
        # the realizations the records are built from
        with tr.span("generator.sample_premises"):
            instances = sample_premises(name, lex, seed, per_pattern, with_replacement)
        with tr.span("morphology.realize"):
            for inst in instances:
                realize_premise(inst, spaced)
                derive_h1(inst, spaced)
                derive_h2(inst, spaced)
        if with_replacement or name is GenerationSet.P_SUBJECT:
            span["premises_drawn"] = len(instances)
            span["premises_kept"] = len(records) // 2

    return mirror


def _derive_mirror(lexicon_path, source, out):
    def mirror(tr):
        with tr.span("cmd"):
            lex = _checked_lexicon(tr, lexicon_path)
            records = _read_pairs(tr, source)
            with tr.span("generator.derive_os_hard"):
                derived = derive_os_hard(records, lex)
            _write_pairs(tr, derived, out, "rows")
    return mirror


def _augment_mirror(plan_name, seed, source, out_aug, out_rest):
    make_plan = plan_1037 if plan_name == "1037" else plan_102

    def mirror(tr):
        with tr.span("cmd"):
            records = _read_pairs(tr, source)
            with tr.span(f"augment.plan{plan_name}"):
                aug, rest = sample_augmentation(records, make_plan(seed))
            _write_pairs(tr, aug, out_aug, "rows")
            _write_pairs(tr, rest, out_rest, "rows")
    return mirror


def _merge_mirror(seed, base, aug, out):
    def mirror(tr):
        with tr.span("cmd"):
            records = _read_pairs(tr, aug)
            with tr.span("augment.merge_training"):
                rows = merge_training(base, records, "neutral", seed)
            with tr.span("augment.write_training_rows"):
                write_training_rows(rows, out)
    return mirror


def _analyze_mirror(gold, predictions, out):
    def mirror(tr):
        with tr.span("cmd"):
            records = _read_pairs(tr, gold)
            with tr.span("dataset_io.read_predictions"):
                preds = read_predictions(predictions, PREDICTION_RUNS)
            with tr.span("analysis.build_report"):
                _, rows = build_report(records, preds, "all", False, False)
            payload = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
            out.write_text(payload, encoding="utf-8", newline="")
    return mirror


# ------------------------------------------------------------------- steps

def generate_steps(workload, seed, out_dir, lexicon_path, custom, flags):
    fmt, ext = ("tsv", "tsv") if custom else ("rows", "jsonl")
    steps = []
    for setname in SETS:
        out = out_dir / f"{setname}.{ext}"
        check = (lambda out=out, setname=setname: gate.check_pairs(
            out, fmt, rows=SET_ROWS.get(setname), spaced_period=custom,
            unique_premises=setname == "p-subject"))
        steps.append(Step(
            name=f"generate {setname}",
            argv=_strs("generate", setname, "--seed", seed, *flags, "--out", out),
            outputs=[Output(f"{workload}/{setname}", out, check)],
            mirror=_generate_mirror(setname, seed, lexicon_path, out, fmt, custom),
        ))
    return steps


def downstream_steps(seed, inputs: DownstreamInputs, out_dir, lexicon_path):
    aug_seed = seed + AUG_SEED_OFFSET
    o = {name: out_dir / name for name in (
        "os-hard.jsonl", "aug1037.jsonl", "rest1037.jsonl", "aug102.jsonl",
        "rest102.jsonl", "train-merged.tsv", "report.jsonl")}
    aug_rows = {"1037": 2 * 1037, "102": 2 * 102}
    steps = [Step(
        name="derive os-hard",
        argv=_strs("derive", "os-hard", "--from", inputs.gold, "--out", o["os-hard.jsonl"]),
        outputs=[Output("downstream/derive-os-hard", o["os-hard.jsonl"], lambda: gate.check_pairs(
            o["os-hard.jsonl"], "rows", rows=SET_ROWS["os-hard"], digest=inputs.os_hard_digest))],
        mirror=_derive_mirror(lexicon_path, inputs.gold, o["os-hard.jsonl"]),
    )]
    for plan_name in ("1037", "102"):
        aug, rest = o[f"aug{plan_name}.jsonl"], o[f"rest{plan_name}.jsonl"]
        n = aug_rows[plan_name]
        steps.append(Step(
            name=f"sample-augmentation {plan_name}",
            argv=_strs("sample-augmentation", "--plan", plan_name, "--seed", aug_seed,
                       "--in", inputs.base, "--out-aug", aug, "--out-rest", rest),
            outputs=[
                Output(f"downstream/aug{plan_name}", aug,
                       lambda aug=aug, n=n: gate.check_pairs(aug, "rows", rows=n)),
                Output(f"downstream/rest{plan_name}", rest,
                       lambda rest=rest, n=n: gate.check_pairs(
                           rest, "rows", rows=inputs.base_rows - n)),
            ],
            mirror=_augment_mirror(plan_name, aug_seed, inputs.base, aug, rest),
        ))
    merged = o["train-merged.tsv"]
    steps.append(Step(
        name="merge",
        argv=_strs("merge", "--base", inputs.train, "--aug", o["aug1037.jsonl"],
                   "--ne-label", "neutral", "--seed", seed, "--out", merged),
        outputs=[Output("downstream/train-merged", merged, lambda: gate.check_training(
            merged, TRAIN_ROWS + aug_rows["1037"]))],
        mirror=_merge_mirror(seed, inputs.train, o["aug1037.jsonl"], merged),
    ))
    report = o["report.jsonl"]
    steps.append(Step(
        name="analyze",
        argv=_strs("analyze", "--gold", inputs.gold, "--predictions", inputs.predictions,
                   "--runs", PREDICTION_RUNS, "--out", report),
        outputs=[Output("downstream/report", report, lambda: gate.check_report(
            report, inputs.gold_rows, inputs.hits))],
        mirror=_analyze_mirror(inputs.gold, inputs.predictions, report),
    ))
    return steps


def input_steps(seed, aux_dir):
    """In-process builds of the downstream inputs, traced: the generator
    layers as the downstream workload's inputs exercise them."""
    lexicon_path = bundled_lexicon_path()
    gold, base = aux_dir / "gold.jsonl", aux_dir / "base.jsonl"
    return [
        Step("build gold", [], [Output("downstream/gold", gold, lambda: gate.check_pairs(
            gold, "rows", rows=SET_ROWS["wogli"]))],
            _generate_mirror("wogli", seed, lexicon_path, gold, "rows", False)),
        Step("build base", [], [Output("downstream/base", base, lambda: gate.check_pairs(
            base, "rows", unique_premises=True))],
            _generate_mirror("wogli", seed + BASE_SEED_OFFSET, lexicon_path, base, "rows",
                             False, with_replacement=True)),
    ]


def build_plan(workload: str, seed: int, work: Path, traced: bool) -> Plan:
    """Build the fixtures of one workload and the steps that run on them.

    For the traced run, aux holds the steps that reach the layers the
    workload's own commands never call: the read side for the generate
    workloads, the generator for downstream.
    """
    out_dir, aux_dir, fixture_dir = work / "out", work / "aux", work / "fixtures"
    for d in (out_dir, aux_dir, fixture_dir):
        d.mkdir(parents=True, exist_ok=True)
    bundled = bundled_lexicon_path()
    custom = workload == "generate-custom-lexicon"
    plan = Plan(seed, bundled, custom, aug_seed=seed + AUG_SEED_OFFSET)
    lexicons = {"bundled": bundled}
    if custom:
        plan.generate_lexicon = lexicons["reduced"] = fixture_dir / "reduced-lexicon.tsv"
        plan.generate_lexicon.write_text(reduced_lexicon_text(), encoding="utf-8", newline="")
        paths = sampling_paths(plan.generate_lexicon)
        plan.notes["enumeration_patterns"] = paths
        if paths is not None and (paths["wogli"] != paths["wogli_patterns"]
                                  or paths["dative"] != paths["dative_patterns"]):
            raise RuntimeError(f"reduced lexicon: not every pattern enumerates: {paths}")
    plan.lexicons = {name: gate.sha256_hex(path.read_bytes()) for name, path in lexicons.items()}

    inputs = None
    if workload == "downstream" or traced:
        inputs = build_downstream_inputs(seed, fixture_dir, plan)
        plan.base = inputs.base
    if workload == "downstream":
        plan.steps = downstream_steps(seed, inputs, out_dir, bundled)
        setup_out = work / "setup.jsonl"
        plan.setup = Step(
            "setup: derive os-hard, one premise",
            _strs("derive", "os-hard", "--from", inputs.one, "--out", setup_out),
            [Output("downstream/setup", setup_out, lambda: gate.check_pairs(
                setup_out, "rows", rows=1))],
            None,
        )
        if traced:
            plan.aux = input_steps(seed, aux_dir)
        return plan

    fmt, ext = ("tsv", "tsv") if custom else ("rows", "jsonl")
    flags = _strs("--lexicon", plan.generate_lexicon, "--format", "tsv", "--spaced-period") \
        if custom else []
    plan.steps = generate_steps(workload, seed, out_dir, plan.generate_lexicon, custom, flags)
    setup_out = work / f"setup.{ext}"
    plan.setup = Step(
        "setup: generate wogli --per-pattern 1",
        _strs("generate", "wogli", "--seed", seed, "--per-pattern", 1, *flags, "--out", setup_out),
        [Output(f"{workload}/setup", setup_out, lambda: gate.check_pairs(
            setup_out, fmt, rows=2 * 17, spaced_period=custom))],
        None,
    )
    if traced:
        plan.aux = downstream_steps(seed, inputs, aux_dir, bundled)
    return plan
