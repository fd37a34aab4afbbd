"""Stratified augmentation subsets and training-file merging.

An augmentation plan picks a fixed number of premises per pattern under two
balance constraints: every verb's usage count stays inside a band, and
(optionally) every noun surface form seen in the input also appears in the
subset. A seeded stratified draw is repaired with pattern-local swaps; the
swap budget bounds total work, and running out of it is an error rather than
a silently unbalanced subset.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import closing
from dataclasses import dataclass

from .core import Government, Label, PairRecord
from .dataset_io import _lines, _write_lines
from .errors import ConstraintError, DataFormatError
from .patterns import parse_pattern_name

_SWAP_BUDGET = 10_000


@dataclass(frozen=True)
class AugmentationPlan:
    premises_per_pattern: int
    verb_min: int
    verb_max: int
    require_all_noun_forms: bool
    seed: int

    def __post_init__(self):
        if self.premises_per_pattern < 0:
            raise ValueError("premises_per_pattern must not be negative")
        if self.verb_min < 0 or self.verb_max < self.verb_min:
            raise ValueError("need 0 <= verb_min <= verb_max")


def plan_1037(seed: int) -> AugmentationPlan:
    """61 premises per base pattern, verbs balanced into [18, 25], full noun
    surface-form coverage."""
    return AugmentationPlan(61, 18, 25, True, seed)


def plan_102(seed: int) -> AugmentationPlan:
    """6 premises per base pattern, verbs held to [1, 4], no coverage demand."""
    return AugmentationPlan(6, 1, 4, False, seed)


def _strip_period(text: str) -> list[str]:
    tokens = text.split()
    if tokens and tokens[-1] == ".":
        return tokens[:-1]
    if tokens and tokens[-1].endswith("."):
        tokens[-1] = tokens[-1][:-1]
    return tokens


def _np_width(meta: dict, prefix: str) -> int:
    return 1 if meta[f"{prefix}_kind"] in ("proper", "pronoun") else 2


def _two_np_forms(text: str, meta: dict, first: str, second: str) -> list[str]:
    """Head forms of the first two NPs of a sentence, given which premise
    role each corresponds to (bare heads are one token, articled ones two)."""
    tokens = _strip_period(text)
    w1 = _np_width(meta, first)
    # the second NP starts after the verb, at index w1 + 1
    return [tokens[w1 - 1], tokens[w1 + _np_width(meta, second)]]


@dataclass(frozen=True)
class _PremiseGroup:
    key: str
    pattern: str
    verb: str
    forms: frozenset[str]
    records: tuple[PairRecord, ...]


def _group_forms(premise: str, swap: PairRecord | None, meta: dict) -> frozenset[str]:
    """Argument head forms of the premise and of one argument swap, which
    marks each argument with the case it lacks in the premise."""
    forms = _two_np_forms(premise, meta, "subject", "object")
    if swap is not None:
        roles = ("subject", "object") if swap.hyp_kind.subject_first else ("object", "subject")
        forms += _two_np_forms(swap.hypothesis, meta, *roles)
    return frozenset(forms)


def _build_groups(records) -> list[_PremiseGroup]:
    by_key: dict[str, list[PairRecord]] = {}
    patterns = set()  # pattern names already checked; each one is a stratum
    for record in records:
        if "premise_id" not in record.metadata or "verb_lemma" not in record.metadata:
            raise DataFormatError(
                f"record {record.id}: augmentation needs row-format input with metadata"
            )
        if record.pattern_name not in patterns:
            try:
                parse_pattern_name(record.pattern_name, Government.ACCUSATIVE)
            except ValueError as exc:
                raise DataFormatError(f"record {record.id}: {exc}") from None
            patterns.add(record.pattern_name)
        by_key.setdefault(record.metadata["premise_id"], []).append(record)
    groups = []
    for key, members in by_key.items():
        meta = members[0].metadata
        swap = next((r for r in members if not r.hyp_kind.subject_nominative), None)
        groups.append(
            _PremiseGroup(
                key=key,
                pattern=members[0].pattern_name,
                verb=meta["verb_lemma"],
                forms=_group_forms(members[0].premise, swap, meta),
                records=tuple(members),
            )
        )
    return groups


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, constraint: str):
        self.left -= 1
        if self.left < 0:
            raise ConstraintError(
                f"augmentation swap budget exhausted while repairing {constraint}"
            )


def _repair_verbs(plan, by_pattern, selected, counts, all_verbs, budget):
    """Swap selections pattern-locally until every verb count sits in
    [verb_min, verb_max]. Greedy and deterministic: the first feasible swap
    for the first violated verb, preferring swaps that fix two violations."""
    while True:
        over = sorted(v for v in counts if counts[v] > plan.verb_max)
        under = sorted(v for v in all_verbs if counts[v] < plan.verb_min)
        if not over and not under:
            return
        swap = None
        for verb in over + under:
            fixing_over = counts[verb] > plan.verb_max
            for pattern, chosen in selected.items():
                groups = by_pattern[pattern]
                if fixing_over:
                    outs = [i for i in sorted(chosen) if groups[i].verb == verb]
                    if not outs:
                        continue
                    pool = [i for i in range(len(groups)) if i not in chosen]
                    ins = [i for i in pool if counts[groups[i].verb] < plan.verb_min] or [
                        i for i in pool if counts[groups[i].verb] < plan.verb_max
                    ]
                else:
                    ins = [
                        i for i in range(len(groups))
                        if i not in chosen and groups[i].verb == verb
                    ]
                    if not ins:
                        continue
                    chosen_sorted = sorted(chosen)
                    outs = [
                        i for i in chosen_sorted if counts[groups[i].verb] > plan.verb_max
                    ] or [i for i in chosen_sorted if counts[groups[i].verb] > plan.verb_min]
                if outs and ins:
                    swap = (pattern, outs[0], ins[0])
                    break
            if swap:
                break
        if swap is None:
            raise ConstraintError("no pattern-local swap can repair the verb balance")
        budget.spend("the verb balance")
        pattern, out, into = swap
        groups = by_pattern[pattern]
        selected[pattern].remove(out)
        selected[pattern].add(into)
        counts[groups[out].verb] -= 1
        counts[groups[into].verb] += 1


def _repair_coverage(plan, by_pattern, selected, counts, targets, budget):
    """Swap selections until every target noun form is covered, keeping verb
    counts in band."""
    while True:
        covered = Counter()
        for pattern, chosen in selected.items():
            for i in chosen:
                covered.update(by_pattern[pattern][i].forms)
        missing = sorted(targets - covered.keys())
        if not missing:
            return
        form = missing[0]
        candidates = [
            (pattern, i)
            for pattern, groups in by_pattern.items()
            for i in range(len(groups))
            if i not in selected[pattern] and form in groups[i].forms
        ]
        swap = None
        for pattern, into in sorted(candidates):
            groups = by_pattern[pattern]
            incoming = groups[into]
            if counts[incoming.verb] + 1 > plan.verb_max:
                continue
            for out in sorted(selected[pattern]):
                outgoing = groups[out]
                if outgoing.verb != incoming.verb and counts[outgoing.verb] - 1 < plan.verb_min:
                    continue
                lost = [
                    f for f in outgoing.forms
                    if covered[f] == 1 and f not in incoming.forms
                ]
                if lost:
                    continue
                swap = (pattern, out, into)
                break
            if swap:
                break
        if swap is None:
            raise ConstraintError(
                f"no swap can bring noun form {form!r} into the subset"
            )
        budget.spend("the noun form coverage")
        pattern, out, into = swap
        groups = by_pattern[pattern]
        selected[pattern].remove(out)
        selected[pattern].add(into)
        counts[groups[out].verb] -= 1
        counts[groups[into].verb] += 1


def sample_augmentation(records, plan: AugmentationPlan) -> tuple[list[PairRecord], list[PairRecord]]:
    """Split records into (augmentation, remainder) premise-wise.

    Strata are the input's patterns; each contributes exactly
    plan.premises_per_pattern premises. All records of one premise travel
    together, in input order on both sides.
    """
    groups = _build_groups(records)
    by_pattern: dict[str, list[_PremiseGroup]] = {}
    for group in groups:
        by_pattern.setdefault(group.pattern, []).append(group)
    rng = random.Random(f"{plan.seed}:augment")
    selected: dict[str, set[int]] = {}
    for pattern, pattern_groups in by_pattern.items():
        if len(pattern_groups) < plan.premises_per_pattern:
            raise ConstraintError(
                f"pattern {pattern}: {plan.premises_per_pattern} premises requested, "
                f"input holds {len(pattern_groups)}"
            )
        selected[pattern] = set(
            rng.sample(range(len(pattern_groups)), plan.premises_per_pattern)
        )
    counts = Counter()
    all_verbs = {g.verb for g in groups}
    for verb in all_verbs:
        counts[verb] = 0
    for pattern, chosen in selected.items():
        counts.update(by_pattern[pattern][i].verb for i in chosen)

    budget = _Budget(_SWAP_BUDGET)
    _repair_verbs(plan, by_pattern, selected, counts, all_verbs, budget)
    if plan.require_all_noun_forms:
        targets = set()
        for group in groups:
            targets.update(group.forms)
        _repair_coverage(plan, by_pattern, selected, counts, targets, budget)

    chosen_keys = {
        by_pattern[pattern][i].key for pattern, chosen in selected.items() for i in chosen
    }
    aug, rest = [], []
    for group in groups:
        (aug if group.key in chosen_keys else rest).extend(group.records)
    return aug, rest


_NE_TRAINING_LABELS = ("neutral", "contradiction")


def merge_training(base_source, records, ne_label: str = "neutral", seed: int = 0) -> list[tuple[str, str, str]]:
    """Append pair records to a headerless premise/hypothesis/label TSV and
    shuffle the union with the given seed. Entailed pairs become
    "entailment"; the not-entailed class is the caller's choice."""
    if ne_label not in _NE_TRAINING_LABELS:
        raise ValueError(f"ne_label must be one of {_NE_TRAINING_LABELS}")
    rows = []
    with closing(_lines(base_source)) as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3 or not all(fields):
                raise DataFormatError(
                    f"base line {lineno}: expected premise/hypothesis/label"
                )
            if fields[2] not in ("entailment", "neutral", "contradiction"):
                raise DataFormatError(
                    f"base line {lineno}: unknown training label {fields[2]!r}"
                )
            rows.append(tuple(fields))
    for record in records:
        label = "entailment" if record.label is Label.ENTAILED else ne_label
        rows.append((record.premise, record.hypothesis, label))
    random.Random(f"{seed}:merge").shuffle(rows)
    return rows


def write_training_rows(rows, dest) -> int:
    """Write merged training rows as a headerless TSV; returns bytes written."""
    return _write_lines(dest, ["\t".join(row) + "\n" for row in rows])
