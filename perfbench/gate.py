"""Correctness gate: pinned seed-0 digests and per-file invariants.

The oracles here read the output bytes directly instead of going through
the library's readers, so a reader bug cannot hide a writer bug.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

# sha256 prefixes of every output at workload seed 0, keyed "<workload>/<output>".
# The five bundled sets and the seed-92 base are the seed-0 contract of the
# README commands; the rest were measured when the benchmark was defined.
PINNED_SEED0 = {
    "generate-bundled/wogli": "465d7c831cf82243",
    "generate-bundled/p-subject": "15ca6bc7ee88a18a",
    "generate-bundled/dative": "e0064dc06bc220b2",
    "generate-bundled/ditransitive": "21e513a6b20195d7",
    "generate-bundled/os-hard": "8d853c1c79689cd9",
    "generate-bundled/setup": "a5a47d1cb728ac45",
    "generate-custom-lexicon/wogli": "14eb9e317f1332b8",
    "generate-custom-lexicon/p-subject": "55565ec388ef30ba",
    "generate-custom-lexicon/dative": "5e65d7f19318f0b8",
    "generate-custom-lexicon/ditransitive": "3462d564611fdfff",
    "generate-custom-lexicon/os-hard": "27365ec4e1d3e2ac",
    "generate-custom-lexicon/setup": "2bd2c07259c41ab1",
    "downstream/gold": "465d7c831cf82243",
    "downstream/base": "01d63ad35acbdc11",
    "downstream/os-hard": "8d853c1c79689cd9",
    "downstream/derive-os-hard": "8d853c1c79689cd9",
    "downstream/aug1037": "662b2b817b887887",
    "downstream/rest1037": "a580d6c3a26be25e",
    "downstream/aug102": "1d64b2b9d8b2c6cd",
    "downstream/rest102": "d7b46ac0e4e7b239",
    "downstream/train-merged": "bed8416bcfe25e13",
    "downstream/report": "359f811fc2d736b5",
    "downstream/setup": "e34bc42314ee009a",
}

# a hypothesis kind fixes its label (README, "File formats")
LABEL_OF = {
    "h1_so": "non-entailed",
    "h2_os": "entailed",
    "h3_os": "non-entailed",
    "h1_sio": "non-entailed",
    "h2_ios": "entailed",
}
PAIR_TSV_HEADER = "id\tsubset\tpremise\thypothesis\tlabel\thyp_kind\tpattern"
TRAINING_LABELS = {"entailment", "neutral", "contradiction"}


@dataclass
class Checked:
    """What one output file held: its digest, its data rows, what is wrong."""

    digest: str
    rows: int
    problems: list[str] = field(default_factory=list)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_problem(key: str, digest: str, seed: int) -> str | None:
    want = PINNED_SEED0.get(key) if seed == 0 else None
    if want is not None and not digest.startswith(want):
        return f"{key}: sha256 {digest[:16]} differs from pinned {want}"
    return None


def _pair_rows(text: str, fmt: str, where: str, problems: list[str]):
    """Yield (premise, hypothesis, label, hyp_kind) per data row."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    elif text:
        problems.append(f"{where}: no final newline")
    if fmt == "tsv":
        if not lines or lines[0] != PAIR_TSV_HEADER:
            problems.append(f"{where}: bad TSV header")
            return
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split("\t")
            if len(fields) != 7:
                problems.append(f"{where}:{lineno}: expected 7 fields")
                return
            yield fields[2], fields[3], fields[4], fields[5]
        return
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
            yield obj["premise"], obj["hypothesis"], obj["label"], obj["hyp_kind"]
        except (ValueError, KeyError) as exc:
            problems.append(f"{where}:{lineno}: bad row ({exc})")
            return


def check_pairs(
    path: Path,
    fmt: str,
    rows: int | None = None,
    spaced_period: bool = False,
    unique_premises: bool = False,
    digest: str | None = None,
) -> Checked:
    """Every row's label follows from its hyp_kind, sentences end the way the
    flags say, and the row count (or, for deduped sets, the premise count)
    is what the set size implies. digest, if given, is the full sha256 the
    file must have."""
    data = path.read_bytes()
    checked = Checked(sha256_hex(data), 0)
    problems = checked.problems
    premises = set()
    count = mislabeled = misended = 0
    for premise, hypothesis, label, hyp_kind in _pair_rows(
        data.decode("utf-8"), fmt, path.name, problems
    ):
        count += 1
        premises.add(premise)
        mislabeled += LABEL_OF.get(hyp_kind) != label
        misended += not all(
            s.endswith(".") and s.endswith(" .") == spaced_period for s in (premise, hypothesis)
        )
    if mislabeled:
        problems.append(f"{path.name}: {mislabeled} rows whose label contradicts their hyp_kind")
    if misended:
        problems.append(f"{path.name}: {misended} rows not ending as --spaced-period says")
    checked.rows = count
    if rows is not None and count != rows:
        problems.append(f"{path.name}: {count} rows, expected {rows}")
    if unique_premises and (count != 2 * len(premises) or count == 0):
        problems.append(
            f"{path.name}: {count} rows for {len(premises)} distinct premises, "
            "expected two rows per premise"
        )
    if digest is not None and checked.digest != digest:
        problems.append(f"{path.name}: sha256 {checked.digest[:16]} differs from {digest[:16]}")
    return checked


def check_training(path: Path, rows: int) -> Checked:
    """Headerless premise/hypothesis/label rows with three-way labels."""
    data = path.read_bytes()
    checked = Checked(sha256_hex(data), 0)
    lines = data.decode("utf-8").splitlines()
    checked.rows = len(lines)
    for lineno, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 3 or fields[2] not in TRAINING_LABELS:
            checked.problems.append(f"{path.name}:{lineno}: not a training row")
            break
    if checked.rows != rows:
        checked.problems.append(f"{path.name}: {checked.rows} rows, expected {rows}")
    return checked


def check_report(path: Path, records: int, hits: list[int]) -> Checked:
    """The report's overall accuracy row counts exactly the hits planted in
    the predictions fixture."""
    data = path.read_bytes()
    checked = Checked(sha256_hex(data), 0)
    try:
        rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    except ValueError as exc:
        checked.problems.append(f"{path.name}: bad JSON ({exc})")
        return checked
    checked.rows = len(rows)
    overall = rows[0] if rows else {}
    want = {"kind": "accuracy", "group": "all", "n": records, "k": hits}
    got = {key: overall.get(key) for key in want}
    if got != want:
        checked.problems.append(f"{path.name}: overall row {got}, expected {want}")
    if not any(row.get("kind") == "ztest" for row in rows):
        checked.problems.append(f"{path.name}: no z-test rows")
    return checked
