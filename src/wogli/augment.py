"""Stratified augmentation subsets and training-file merging.

An augmentation plan picks a fixed number of premises per pattern under two
balance constraints: every verb's usage count stays inside a band, and
(optionally) every noun surface form seen in the input also appears in the
subset. A seeded stratified draw is repaired with pattern-local swaps; the
swap budget bounds total work, and running out of it is an error rather than
a silently unbalanced subset.
"""

from __future__ import annotations

import errno
import os
import random
import stat
from collections import Counter
from contextlib import closing, nullcontext
from dataclasses import dataclass

from .core import Label, PairRecord
from .dataset_io import _copy_rows, _lines, _records, _staged, _unique, _write_lines
from .errors import ConstraintError, DataFormatError
from .generator import _SUBSET_GOVERNMENT
from .patterns import _STEM_RE, _premise_draw

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


@dataclass(eq=False, slots=True)  # groups are compared by identity
class _PremiseGroup:
    """One premise as augmentation selects it. A split holds a group per
    premise but few distinct strings across them, so forms is a sorted
    tuple of distinct head forms, not a set, suffixes the suffixes of the
    premise's row ids so far (its id stem is the group's key), and _group
    passes each string and suffix tuple through one memo per split."""

    pattern: str
    verb: str
    forms: tuple[str, ...]  # argument head forms of the premise and, once a row shows them, its swap's
    suffixes: tuple[str, ...] = ()
    swapped: bool = False


def _forms(heads, share) -> tuple[str, ...]:
    return tuple(sorted({share(head, head) for head in heads}))


def _group(record: PairRecord, groups: dict, share) -> _PremiseGroup:
    """The group of record's premise in groups, a dict by id stem (the id
    without its last "-" part), made from its first row or completed by
    its first argument-swap row; its strings go through share(value,
    value), a memo's setdefault for the groups of one split. Each row is
    checked as it arrives, so the first faulty row is the error, and a
    row that repeats an earlier one's id is that error before any other
    check of it: every earlier row's id is its group's stem and one of its
    suffixes."""
    stem, _, suffix = record.id.rpartition("-")
    group = groups.get(stem)
    if group is not None and suffix in group.suffixes:
        raise DataFormatError(f"duplicate record id {record.id!r}")
    if record.subset in _SUBSET_GOVERNMENT:
        raise DataFormatError(f"record {record.id}: augmentation needs accusative records, "
                              f"not subset {record.subset!r}")
    for field in ("premise_id", "verb_lemma"):
        if type(record.metadata.get(field)) is not str:
            raise DataFormatError(
                f"record {record.id}: augmentation needs row-format input "
                f"with a string {field} in its metadata"
            )
    # its premise_id is stem-premise, and names its own draw of its own pattern
    _premise_draw(record, stem, _STEM_RE.search(stem))
    if group is None:
        verb = record.metadata["verb_lemma"]
        group = groups[stem] = _PremiseGroup(
            share(record.pattern_name, record.pattern_name), share(verb, verb),
            _forms(_heads(record, record.premise, ("subject", "object")), share))
    # an argument swap marks each argument with the case it lacks in the premise
    if not group.swapped and not record.hyp_kind.subject_nominative:
        roles = ("subject", "object") if record.hyp_kind.subject_first else ("object", "subject")
        group.forms = _forms([*group.forms, *_heads(record, record.hypothesis, roles)], share)
        group.swapped = True
    group.suffixes = share(suffixes := (*group.suffixes, suffix), suffixes)
    return group


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


def _select(groups: list[_PremiseGroup], plan: AugmentationPlan) -> set[_PremiseGroup]:
    """The groups of the augmentation subset: plan.premises_per_pattern of
    each pattern's, drawn with the plan's seed and repaired by swaps."""
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
    return {by_pattern[pattern][i] for pattern, indices in selected.items() for i in indices}


def sample_augmentation(records, plan: AugmentationPlan) -> tuple[list[PairRecord], list[PairRecord]]:
    """Split records into (augmentation, remainder) premise-wise.

    Strata are the input's patterns; each contributes exactly
    plan.premises_per_pattern premises. All records of one premise travel
    together, in input order on both sides. A record of a dative or
    ditransitive subset, or one that repeats an earlier one's id, is a
    DataFormatError.
    """
    groups: dict[str, _PremiseGroup] = {}
    share = {}.setdefault
    rows = [(_group(record, groups, share), record) for record in records]
    chosen = _select(list(groups.values()), plan)
    aug, rest = [], []
    for group, record in rows:
        (aug if group in chosen else rest).append(record)
    return aug, rest


def _split_file(source, plan: AugmentationPlan, out_aug, out_rest, fmt: str):
    """sample_augmentation on a pair file: write what write_pairs writes in
    format fmt for the augmentation subset of read_pairs(source) to out_aug
    and for the remainder to out_rest; returns the (records, bytes) written
    to each.

    A first pass reads and checks every row as read_pairs does, a repeated
    id included, and groups it; it keeps no record and no id, only each
    premise's group, which _group checks a row's id against, and each
    row's group and whether its line is canonical, the line _row_lines
    writes for it.
    One later pass for each output reads the input again and copies each
    canonical row of its side as its own line. A regular file is held open
    and read again from its start; any other input (a FIFO, a stream) has
    its lines kept by the first pass. Neither output replaces its path
    before both are written, so an output may name the input. A regular
    input whose size or modification time has changed by then is an
    OSError naming it, and leaves both outputs as they were.
    """
    stream = hasattr(source, "read")
    with nullcontext(source) if stream else open(source, "r", encoding="utf-8") as handle:
        status = None if stream else os.fstat(handle.fileno())
        kept = None if status is not None and stat.S_ISREG(status.st_mode) else []

        def unchanged():
            if kept is None:
                now = os.fstat(handle.fileno())
                if (now.st_size, now.st_mtime_ns) != (status.st_size, status.st_mtime_ns):
                    raise OSError(errno.EIO, "changed while it was read", source)

        lines = _lines(source, handle)
        if kept is not None:
            lines = (kept.append(line) or line for line in lines)
        groups, routes, canonical, share = {}, [], bytearray(), {}.setdefault
        for record in _records(lines, canonical):
            routes.append(_group(record, groups, share))
        chosen = _select(list(groups.values()), plan)

        def side(aug: bool):
            if kept is None:
                handle.seek(0)
            return _copy_rows(_lines(source, handle) if kept is None else kept,
                              ((group in chosen) == aug for group in routes), canonical, fmt)

        try:
            with _staged(out_rest, side(False)) as size_rest:
                with _staged(out_aug, side(True)) as size_aug:
                    unchanged()
        except (DataFormatError, ValueError):  # a changed input can fail to read, or miss or add rows
            unchanged()
            raise
    count_aug = sum(group in chosen for group in routes)
    return (count_aug, size_aug), (len(routes) - count_aug, size_rest)


_NE_TRAINING_LABELS = ("neutral", "contradiction")


def _training_rows(records, ne_label: str):
    """The (premise, hypothesis, training label) row of each record:
    entailed pairs become "entailment", the rest ne_label."""
    return ((r.premise, r.hypothesis, "entailment" if r.label is Label.ENTAILED else ne_label)
            for r in records)


def _merged(base_source, aug, seed: int) -> list:
    """Each row of the headerless premise/hypothesis/label TSV base_source,
    checked and kept as its line, then each (premise, hypothesis, label)
    row of aug, all shuffled with seed. A shuffle depends on the list's
    length alone, so the rows land where they would as tuples."""
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
            rows.append(line)
    rows.extend(aug)
    random.Random(f"{seed}:merge").shuffle(rows)
    return rows


def merge_training(base_source, records, ne_label: str = "neutral", seed: int = 0) -> list[tuple[str, str, str]]:
    """Append pair records to a headerless premise/hypothesis/label TSV and
    shuffle the union with the given seed. Entailed pairs become
    "entailment"; the not-entailed class is the caller's choice. Every row
    comes back as a (premise, hypothesis, label) tuple; the base file is
    read before records."""
    if ne_label not in _NE_TRAINING_LABELS:
        raise ValueError(f"ne_label must be one of {_NE_TRAINING_LABELS}")
    return [tuple(row.split("\t")) if type(row) is str else row
            for row in _merged(base_source, _training_rows(records, ne_label), seed)]


def _merge_file(base_source, aug_source, ne_label: str, seed: int, dest):
    """What write_training_rows writes for merge_training(base_source,
    read_pairs(aug_source), ne_label, seed), written to dest; returns the
    (rows, bytes) written. The pair file is read first, as read_pairs reads
    it, a repeated id included, and each of its records is kept as a
    training row tuple; each base row is kept as its line and written as
    it is, and only the tuples are checked for a tab or line break."""
    with closing(_lines(aug_source)) as lines:
        aug = list(_training_rows(_unique(_records(lines), set()), ne_label))
    rows = _merged(base_source, aug, seed)
    size = _write_lines(dest, (row + "\n" if type(row) is str else _training_line(row) for row in rows))
    return len(rows), size


def _training_line(row) -> str:
    line = "\t".join(row)
    if line.count("\t") != len(row) - 1 or "\n" in line or "\r" in line:
        raise DataFormatError(f"training row {row[0]!r}: field contains a tab or line break")
    return line + "\n"


def write_training_rows(rows, dest) -> int:
    """Write merged training rows as a headerless TSV, a line at a time, as
    write_pairs writes; returns bytes written. A field holding a tab or line
    break is a DataFormatError, and leaves the destination as it was."""
    return _write_lines(dest, map(_training_line, rows))
