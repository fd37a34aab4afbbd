"""Group-wise evaluation of model predictions over generated pair files.

Everything here works on any iterable of PairRecords (the gold side) joined
with a PredictionSet (one or more runs of model labels). Accuracies are
computed per run with exact correct/total counts; spreads default to the
population standard deviation.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
from operator import is_
from typing import Callable

from .core import Government, HypKind, Label, PairRecord
from .dataset_io import PredictionSet
from .errors import ConstraintError, DataFormatError, PredictionJoinError
from .patterns import NumberClass, classify_number, parse_pattern_name

# argument swaps in base order (H1)
_SWAP_KINDS = (HypKind.H1_SO, HypKind.H1_SIO)


@dataclass(frozen=True)
class GroupSpec:
    name: str
    predicate: Callable[[PairRecord], bool]

    def matches(self, record: PairRecord) -> bool:
        return self.predicate(record)


def _meta(record: PairRecord, key: str) -> str:
    try:
        return record.metadata[key]
    except KeyError:
        raise DataFormatError(
            f"record {record.id}: grouping needs metadata field {key!r} "
            "(use row-format gold files)"
        ) from None


def definiteness_groups() -> tuple[GroupSpec, GroupSpec]:
    """Split argument-swap records by premise article configuration.

    The dispreferred group holds records whose swap hypothesis starts with an
    indefinite NP followed by a definite one, i.e. premise object indefinite
    and premise subject definite.
    """

    def dispreferred(record: PairRecord) -> bool:
        return (
            record.hyp_kind in _SWAP_KINDS
            and _meta(record, "object_definiteness") == "indefinite"
            and _meta(record, "subject_definiteness") == "definite"
        )

    def preferred(record: PairRecord) -> bool:
        return record.hyp_kind in _SWAP_KINDS and not dispreferred(record)

    return (
        GroupSpec("definiteness:preferred", preferred),
        GroupSpec("definiteness:dispreferred", dispreferred),
    )


def number_groups() -> tuple[GroupSpec, GroupSpec]:
    """Split argument-swap records by the number class of their pattern
    (all-singular patterns keep the verb form unchanged under the swap)."""

    def all_singular(record: PairRecord) -> bool:
        try:
            pattern = parse_pattern_name(record.pattern_name, Government.ACCUSATIVE)
        except ValueError as exc:
            raise DataFormatError(f"record {record.id}: {exc}") from None
        return classify_number(pattern) is NumberClass.ALL_SINGULAR

    return (
        GroupSpec(
            "number:all-singular",
            lambda r: r.hyp_kind in _SWAP_KINDS and all_singular(r),
        ),
        GroupSpec(
            "number:singular-plural",
            lambda r: r.hyp_kind in _SWAP_KINDS and not all_singular(r),
        ),
    )


def gender_groups(role: str, kind: str) -> tuple[GroupSpec, GroupSpec]:
    """Masculine/feminine split of swap records by one argument slot,
    restricted to heads of the given kind ("proper" or "common")."""
    if role not in ("subject", "object"):
        raise ValueError(f"unknown role {role!r}")
    if kind not in ("proper", "common"):
        raise ValueError(f"unknown head kind {kind!r}")

    def match(record: PairRecord, gender: str) -> bool:
        return (
            record.hyp_kind in _SWAP_KINDS
            and _meta(record, f"{role}_kind") == kind
            and _meta(record, f"{role}_gender") == gender
        )

    return (
        GroupSpec(f"gender:{role}-{kind}-masc", lambda r: match(r, "masc")),
        GroupSpec(f"gender:{role}-{kind}-fem", lambda r: match(r, "fem")),
    )


@dataclass(frozen=True)
class AccuracyResult:
    group: str
    n: int
    runs: int
    k: tuple[int, ...]
    per_run: tuple[float, ...]
    mean: float
    sd: float


def _spread(values, sample: bool) -> float:
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) if sample else statistics.pstdev(values)


def _accuracy_result(name: str, n: int, runs: int, k, sample_sd: bool) -> AccuracyResult:
    if n == 0:
        return AccuracyResult(name, 0, runs, (), (), float("nan"), float("nan"))
    per_run = tuple(count / n for count in k)
    return AccuracyResult(
        group=name,
        n=n,
        runs=runs,
        k=tuple(k),
        per_run=per_run,
        mean=statistics.fmean(per_run),
        sd=_spread(per_run, sample_sd),
    )


@dataclass(frozen=True)
class ZTestResult:
    z: float
    p_value: float


def two_proportion_ztest(k1: int, n1: int, k2: int, n2: int) -> ZTestResult:
    """Two-sided pooled z-test for a difference between two proportions."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("both groups need at least one observation")
    if not (0 <= k1 <= n1 and 0 <= k2 <= n2):
        raise ValueError("successes must lie within their group sizes")
    pooled = (k1 + k2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        return ZTestResult(0.0, 1.0)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (k1 / n1 - k2 / n2) / se
    return ZTestResult(z, math.erfc(abs(z) / math.sqrt(2.0)))


# every metadata field a comparison group's predicate reads: records that agree
# on these, their hyp_kind and their pattern fall into the same groups
_GROUP_FIELDS = tuple(
    f"{role}_{field}" for role in ("subject", "object") for field in ("definiteness", "kind", "gender")
)
_ABSENT = (object(),) * len(_GROUP_FIELDS)


def _comparisons(groups: str):
    if groups in ("all", "definiteness"):
        yield "definiteness", definiteness_groups()
    if groups in ("all", "number"):
        yield "number", number_groups()
    if groups in ("all", "gender"):
        for role in ("subject", "object"):
            for kind in ("proper", "common"):
                yield f"gender:{role}-{kind}", gender_groups(role, kind)


def build_report(
    gold,
    preds: PredictionSet,
    groups: str = "all",
    tie_break_not_entailed: bool = False,
    sample_sd: bool = False,
) -> tuple[str, list[dict]]:
    """Produce a human-readable report and matching machine-readable rows.

    Accuracy rows cover the whole file, each hypothesis kind, and the
    requested group family; each group pair also gets a pooled z-test on the
    majority-voted ensemble labels. gold is iterated once, and none of its
    ids is kept: each is struck from a copy of preds.labels, and one already
    struck is a repeat. The error is the first faulty record's, in gold's
    order: a repeated id, a missing prediction, then the groups in report
    order. Prediction ids gold lacks, those left in the copy, are reported
    after the pass, majority-vote ties after them.
    """
    if groups not in ("all", "gender", "definiteness", "number"):
        raise ValueError(f"unknown group family {groups!r}")
    pairs = list(_comparisons(groups))
    kinds = [GroupSpec(kind.value, lambda r, k=kind: r.hyp_kind is k) for kind in HypKind]
    specs = [GroupSpec("all", lambda r: True), *kinds, *(s for _, pair in pairs for s in pair)]
    # one pass: records counted by the specs they match, the runs that got
    # them right and whether gold entails; each combination of fields is
    # classified once. The keys hold strings and bools, not enum members,
    # whose hash runs in Python
    memo, cells, unjoined = {}, Counter(), dict(preds.labels)
    for record in gold:
        labels = unjoined.pop(record.id, None)
        if labels is None:
            if record.id in preds.labels:
                raise DataFormatError(f"duplicate record id {record.id!r}")
            raise PredictionJoinError(f"no prediction for record {record.id!r}")
        key = (record.hyp_kind._value_, record.pattern_name,
               *map(record.metadata.get, _GROUP_FIELDS, _ABSENT))
        try:
            matched = memo[key]
        except (KeyError, TypeError):  # unseen, or an unhashable metadata value
            matched = tuple(i for i, spec in enumerate(specs) if spec.matches(record))
            with suppress(TypeError):
                memo[key] = matched
        label = record.label
        cells[matched, tuple(map(is_, labels, repeat(label))), label is Label.ENTAILED] += 1
    if unjoined:
        raise PredictionJoinError(
            f"{len(unjoined)} prediction id(s) not in the gold file, first {next(iter(unjoined))!r}"
        )
    runs = preds.runs
    n, k, voted = [0] * len(specs), [[0] * runs for _ in specs], [0] * len(specs)
    for (matched, hits, entailed), count in cells.items():
        # the majority vote agrees with gold when most runs do; a tie goes to
        # not-entailed only when allowed
        right = sum(hits)
        vote_hit = 2 * right > runs or (2 * right == runs and tie_break_not_entailed and not entailed)
        for i in matched:
            n[i] += count
            voted[i] += count * vote_hit
            k[i] = [c + count * hit for c, hit in zip(k[i], hits)]
    tied = not tie_break_not_entailed and any(2 * sum(hits) == len(hits) for _, hits, _ in cells)

    rows = []
    lines = [f"records: {n[0]}  runs: {runs}"]
    for i, spec in enumerate(specs):
        if spec in kinds and not n[i]:
            continue  # a hypothesis kind the gold file lacks gets no row
        result = _accuracy_result(spec.name, n[i], runs, k[i], sample_sd)
        empty = result.n == 0  # an empty group reports null statistics
        rows.append(
            {"kind": "accuracy", "group": result.group, "n": result.n,
             "runs": result.runs, "k": list(result.k),
             "accuracy": None if empty else result.mean, "sd": None if empty else result.sd}
        )
        lines.append(f"{result.group:<36} n=0" if empty else
                     f"{result.group:<36} n={result.n:<7} acc={result.mean:.4f} sd={result.sd:.4f}")

    for label, (group_a, group_b) in pairs:
        a, b = specs.index(group_a), specs.index(group_b)
        if not n[a] or not n[b]:
            continue
        if tied:  # every prediction id is in gold by now: name the first tie in preds.labels
            rid, labels = next((rid, labels) for rid, labels in preds.labels.items()
                               if 2 * labels.count(Label.ENTAILED) == len(labels))
            raise ConstraintError(f"majority vote tie for {rid!r} over {len(labels)} runs; "
                                  "use an odd run count or allow tie-breaking")
        k1, n1, k2, n2 = voted[a], n[a], voted[b], n[b]
        test = two_proportion_ztest(k1, n1, k2, n2)
        rows.append(
            {"kind": "ztest", "comparison": label,
             "group_a": group_a.name, "group_b": group_b.name,
             "k_a": k1, "n_a": n1, "k_b": k2, "n_b": n2,
             "z": test.z, "p_value": test.p_value}
        )
        lines.append(
            f"{label}: {group_a.name} vs {group_b.name}  "
            f"z={test.z:.4f} p={test.p_value:.6g}"
        )
    return "\n".join(lines) + "\n", rows
