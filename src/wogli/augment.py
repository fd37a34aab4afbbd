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

from .core import Label, PairRecord
from .dataset_io import _lines, _write_lines
from .errors import ConstraintError, DataFormatError
from .patterns import _premise_draw

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


# tokens an NP of each <role>_kind takes: a bare head, or article and noun
_NP_WIDTH = {"proper": 1, "pronoun": 1, "common": 2}


def _heads(record: PairRecord, text: str, roles) -> list[str]:
    """The head forms (last tokens) of the first two NPs of a record's text,
    given the premise role each one fills; the verb sits between them."""
    tokens = text.removesuffix(".").split()
    heads, at = [], -1  # at: the token last read
    for role in roles:
        kind = record.metadata.get(f"{role}_kind")
        if type(kind) is not str or kind not in _NP_WIDTH:  # a list would not hash
            raise DataFormatError(
                f"record {record.id}: {role}_kind must be one of {', '.join(_NP_WIDTH)}, found {kind!r}"
            )
        at += _NP_WIDTH[kind]
        if at >= len(tokens):
            raise DataFormatError(f"record {record.id}: {text!r} is too short for its metadata")
        heads.append(tokens[at])
        at += 1  # the verb
    return heads


@dataclass(frozen=True, eq=False)  # groups are compared by identity
class _PremiseGroup:
    pattern: str
    verb: str
    forms: frozenset[str]  # argument head forms of the premise and its swap
    records: tuple[PairRecord, ...]


def _build_groups(records) -> list[_PremiseGroup]:
    by_id: dict[str, list[PairRecord]] = {}
    for record in records:
        for field in ("premise_id", "verb_lemma"):
            if type(record.metadata.get(field)) is not str:
                raise DataFormatError(
                    f"record {record.id}: augmentation needs row-format input "
                    f"with a string {field} in its metadata"
                )
        _premise_draw(record)  # its premise_id names its own draw of its own pattern
        premise_id = record.metadata["premise_id"]
        by_id.setdefault(premise_id, []).append(record)
    groups = []
    for members in by_id.values():
        first = members[0]
        forms = _heads(first, first.premise, ("subject", "object"))
        # an argument swap marks each argument with the case it lacks in the premise
        swap = next((r for r in members if not r.hyp_kind.subject_nominative), None)
        if swap is not None:
            roles = ("subject", "object") if swap.hyp_kind.subject_first else ("object", "subject")
            forms += _heads(swap, swap.hypothesis, roles)
        groups.append(_PremiseGroup(first.pattern_name, first.metadata["verb_lemma"],
                                    frozenset(forms), tuple(members)))
    return groups


def _verb_swap(plan, by_pattern, selected, counts):
    """The next pattern-local swap (pattern, out, into) toward every verb
    count in [verb_min, verb_max], or None once all are. Greedy and
    deterministic: the first feasible swap for the first violated verb,
    preferring swaps that fix two violations."""
    over = sorted(v for v in counts if counts[v] > plan.verb_max)
    under = sorted(v for v in counts if counts[v] < plan.verb_min)
    if not over and not under:
        return None
    for verb in over + under:
        fixing_over = counts[verb] > plan.verb_max
        for pattern, chosen in selected.items():
            groups = by_pattern[pattern]
            chosen_sorted = sorted(chosen)
            pool = [i for i in range(len(groups)) if i not in chosen]
            if fixing_over:
                outs = [i for i in chosen_sorted if groups[i].verb == verb]
                ins = [i for i in pool if counts[groups[i].verb] < plan.verb_min] or [
                    i for i in pool if counts[groups[i].verb] < plan.verb_max]
            else:
                ins = [i for i in pool if groups[i].verb == verb]
                outs = [i for i in chosen_sorted if counts[groups[i].verb] > plan.verb_max] or [
                    i for i in chosen_sorted if counts[groups[i].verb] > plan.verb_min]
            if outs and ins:
                return pattern, outs[0], ins[0]
    raise ConstraintError("no pattern-local swap can repair the verb balance")


def _coverage_swap(plan, by_pattern, selected, counts, targets):
    """The next swap that brings a missing target noun form into the subset
    while keeping verb counts in band, or None once every form is in."""
    covered = Counter()
    for pattern, chosen in selected.items():
        for i in chosen:
            covered.update(by_pattern[pattern][i].forms)
    missing = sorted(targets - covered.keys())
    if not missing:
        return None
    form = missing[0]
    candidates = [
        (pattern, i)
        for pattern, groups in by_pattern.items()
        for i in range(len(groups))
        if i not in selected[pattern] and form in groups[i].forms
    ]
    for pattern, into in sorted(candidates):
        groups = by_pattern[pattern]
        incoming = groups[into]
        if counts[incoming.verb] + 1 > plan.verb_max:
            continue
        for out in sorted(selected[pattern]):
            outgoing = groups[out]
            if outgoing.verb != incoming.verb and counts[outgoing.verb] - 1 < plan.verb_min:
                continue
            if not any(covered[f] == 1 and f not in incoming.forms for f in outgoing.forms):
                return pattern, out, into
    raise ConstraintError(f"no swap can bring noun form {form!r} into the subset")


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
    counts = Counter({group.verb: 0 for group in groups})  # an undrawn verb is under verb_min
    for pattern, chosen in selected.items():
        counts.update(by_pattern[pattern][i].verb for i in chosen)

    finders = [("the verb balance", lambda: _verb_swap(plan, by_pattern, selected, counts))]
    if plan.require_all_noun_forms:
        targets = set().union(*(group.forms for group in groups))
        finders.append(("the noun form coverage",
                        lambda: _coverage_swap(plan, by_pattern, selected, counts, targets)))
    swaps = 0
    for constraint, find in finders:
        while (swap := find()) is not None:
            swaps += 1
            if swaps > _SWAP_BUDGET:
                raise ConstraintError(f"augmentation swap budget exhausted while repairing {constraint}")
            pattern, out, into = swap
            selected[pattern].remove(out)
            selected[pattern].add(into)
            counts[by_pattern[pattern][out].verb] -= 1
            counts[by_pattern[pattern][into].verb] += 1

    chosen = {by_pattern[pattern][i] for pattern, indices in selected.items() for i in indices}
    aug, rest = [], []
    for group in groups:
        (aug if group in chosen else rest).extend(group.records)
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


def _training_lines(rows):
    for row in rows:
        line = "\t".join(row)
        if line.count("\t") != len(row) - 1 or "\n" in line or "\r" in line:
            raise DataFormatError(f"training row {row[0]!r}: field contains a tab or line break")
        yield line + "\n"


def write_training_rows(rows, dest) -> int:
    """Write merged training rows as a headerless TSV, a line at a time, as
    write_pairs writes; returns bytes written. A field holding a tab or line
    break is a DataFormatError, and leaves the destination as it was."""
    return _write_lines(dest, _training_lines(rows))
