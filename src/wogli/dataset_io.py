"""Reading and writing pair files, and loading model predictions.

Two pair formats: JSON rows (one object per line, full metadata) and TSV
(header line, no metadata). Both are UTF-8; fields never contain tabs or
line breaks, and writers refuse records that would violate that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import HypKind, Label, PairRecord
from .errors import DataFormatError, PredictionJoinError

TSV_HEADER = ("id", "subset", "premise", "hypothesis", "label", "hyp_kind", "pattern")
# one encoder for every row; json.dumps would build a new one per call
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)

# three-way prediction labels collapse onto the binary scheme
_PREDICTION_LABELS = {
    "entailment": Label.ENTAILED,
    "entailed": Label.ENTAILED,
    "neutral": Label.NOT_ENTAILED,
    "contradiction": Label.NOT_ENTAILED,
    "non-entailed": Label.NOT_ENTAILED,
}


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(dest, text: str) -> int:
    data = text.encode("utf-8")
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "wb") as handle:
            handle.write(data)
    return len(data)


def _check_ids(records) -> None:
    seen = set()
    for record in records:
        if record.id in seen:
            raise DataFormatError(f"duplicate record id {record.id!r}")
        seen.add(record.id)


def _tsv_fields(record: PairRecord) -> tuple[str, ...]:
    fields = (
        record.id,
        record.subset,
        record.premise,
        record.hypothesis,
        record.label.value,
        record.hyp_kind.value,
        record.pattern_name,
    )
    for field in fields:
        if "\t" in field or "\n" in field or "\r" in field:
            raise DataFormatError(
                f"record {record.id!r}: field contains a tab or line break"
            )
    return fields


def _row_object(record: PairRecord) -> dict:
    return {
        "id": record.id,
        "subset": record.subset,
        "premise": record.premise,
        "hypothesis": record.hypothesis,
        "label": record.label.value,
        "hyp_kind": record.hyp_kind.value,
        "pattern": record.pattern_name,
        "metadata": record.metadata,
    }


def write_pairs(records, dest, fmt: str = "rows") -> int:
    """Serialize records to a path or file-like object; returns bytes written.

    "rows" gives JSON lines in stable key order (an empty record list gives
    an empty file); "tsv" gives a header plus one row per record.
    """
    records = list(records)
    _check_ids(records)
    if fmt == "rows":
        text = "".join(_ROW_ENCODER.encode(_row_object(r)) + "\n" for r in records)
    elif fmt == "tsv":
        lines = ["\t".join(TSV_HEADER)]
        lines.extend("\t".join(_tsv_fields(r)) for r in records)
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown pair format {fmt!r}")
    return _write_text(dest, text)


def _record_from_row(obj: dict, where: str) -> PairRecord:
    try:
        record = PairRecord(
            id=obj["id"],
            subset=obj["subset"],
            premise=obj["premise"],
            hypothesis=obj["hypothesis"],
            label=Label(obj["label"]),
            hyp_kind=HypKind(obj["hyp_kind"]),
            pattern_name=obj["pattern"],
            metadata=dict(obj.get("metadata", {})),
        )
    except KeyError as exc:
        raise DataFormatError(f"{where}: missing field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from None
    if record.label is not record.hyp_kind.label:
        raise DataFormatError(
            f"{where}: label {record.label.value!r} contradicts hyp_kind "
            f"{record.hyp_kind.value!r}, which is {record.hyp_kind.label.value!r}"
        )
    return record


def read_pairs(source, fmt: str = "auto") -> list[PairRecord]:
    """Load a pair file written by write_pairs; fmt "auto" sniffs the format."""
    text = _read_text(source)
    if fmt == "auto":
        head = text.lstrip()
        if not head:
            return []
        fmt = "rows" if head.startswith("{") else "tsv"
    if fmt == "rows":
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            records.append(_record_from_row(obj, f"line {lineno}"))
        _check_ids(records)
        return records
    if fmt == "tsv":
        lines = text.splitlines()
        if not lines:
            return []
        header = tuple(lines[0].split("\t"))
        if header != TSV_HEADER:
            raise DataFormatError(
                f"bad header: expected {list(TSV_HEADER)}, found {list(header)}"
            )
        records = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(TSV_HEADER):
                raise DataFormatError(
                    f"line {lineno}: expected {len(TSV_HEADER)} fields, found {len(fields)}"
                )
            obj = dict(zip(TSV_HEADER, fields))
            obj["metadata"] = {}
            records.append(_record_from_row(obj, f"line {lineno}"))
        _check_ids(records)
        return records
    raise ValueError(f"unknown pair format {fmt!r}")


@dataclass(frozen=True)
class PredictionSet:
    """Per-record labels of one or more prediction runs, keyed by record id."""

    runs: int
    labels: dict[str, tuple[Label, ...]]

    def ids(self):
        return self.labels.keys()


def read_predictions(source, runs: int) -> PredictionSet:
    """Parse a prediction TSV (header id/run/label) into a PredictionSet.

    Three-way labels are collapsed to the binary scheme. Every id must carry
    exactly one label per run index 0..runs-1.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    text = _read_text(source)
    lines = text.splitlines()
    if not lines or tuple(lines[0].split("\t")) != ("id", "run", "label"):
        raise DataFormatError("prediction file must start with an id/run/label header")
    table: dict[str, dict[int, Label]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataFormatError(f"line {lineno}: expected 3 fields, found {len(fields)}")
        rid, run_text, label_text = fields
        try:
            run = int(run_text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: run index {run_text!r} is not an integer") from None
        if not 0 <= run < runs:
            raise DataFormatError(
                f"line {lineno}: run index {run} outside 0..{runs - 1}"
            )
        label = _PREDICTION_LABELS.get(label_text.strip())
        if label is None:
            raise DataFormatError(f"line {lineno}: unknown label {label_text!r}")
        per_run = table.setdefault(rid, {})
        if run in per_run:
            raise DataFormatError(f"line {lineno}: duplicate prediction for {rid!r} run {run}")
        per_run[run] = label
    for rid, per_run in table.items():
        missing = sorted(set(range(runs)) - per_run.keys())
        if missing:
            raise PredictionJoinError(
                f"id {rid!r} has no prediction for run {missing[0]}"
            )
    return PredictionSet(
        runs=runs,
        labels={rid: tuple(per_run[i] for i in range(runs)) for rid, per_run in table.items()},
    )
