"""Reading and writing pair files, and loading model predictions.

Two pair formats: JSON rows (one object per line, full metadata) and TSV
(header line, no metadata). Both are UTF-8; fields never contain tabs or
line breaks, and writers refuse records that would violate that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring as _encode_str
from json.scanner import make_scanner
from operator import itemgetter

from .core import HypKind, Label, PairRecord
from .errors import DataFormatError, PredictionJoinError

TSV_HEADER = ("id", "subset", "premise", "hypothesis", "label", "hyp_kind", "pattern")
# one encoder and one scanner for every row; json.dumps and json.loads add
# per-call work around them
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)
_SCAN_ROW = make_scanner(json.JSONDecoder())
_ROW_FIELDS = itemgetter(*TSV_HEADER)
_LABELS = {m.value: m for m in Label}
# hyp_kind value -> (member, the label it implies), so no row calls Enum code
_HYP_KINDS = {m.value: (m, m.label) for m in HypKind}
_LABEL_JSON = {m: _encode_str(m.value) for m in Label}
_HYP_KIND_JSON = {m: _encode_str(m.value) for m in HypKind}

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


def _rows_text(records) -> str:
    """JSON lines in stable key order, each field encoded as json.dumps would.
    A run of records with equal all-string metadata in the same key order
    (a premise's records) shares one encoding of it."""
    lines = []
    last = meta = None
    for r in records:
        items = tuple(r.metadata.items())
        if items != last:
            meta = _ROW_ENCODER.encode(r.metadata)
            last = items if all(type(v) is str for _, v in items) else None
        lines.append(
            f'{{"id": {_encode_str(r.id)}, "subset": {_encode_str(r.subset)}, '
            f'"premise": {_encode_str(r.premise)}, "hypothesis": {_encode_str(r.hypothesis)}, '
            f'"label": {_LABEL_JSON[r.label]}, "hyp_kind": {_HYP_KIND_JSON[r.hyp_kind]}, '
            f'"pattern": {_encode_str(r.pattern_name)}, "metadata": {meta}}}\n'
        )
    return "".join(lines)


def write_pairs(records, dest, fmt: str = "rows") -> int:
    """Serialize records to a path or file-like object; returns bytes written.

    "rows" gives JSON lines in stable key order (an empty record list gives
    an empty file); "tsv" gives a header plus one row per record.
    """
    records = list(records)
    _check_ids(records)
    if fmt == "rows":
        text = _rows_text(records)
    elif fmt == "tsv":
        lines = ["\t".join(TSV_HEADER)]
        lines.extend("\t".join(_tsv_fields(r)) for r in records)
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown pair format {fmt!r}")
    return _write_text(dest, text)


def _json_row(line: str, lineno: int):
    try:
        obj, end = _SCAN_ROW(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError):
        pass
    try:  # whitespace around the object, or the message for a malformed line
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None


def _tsv_row(line: str, lineno: int) -> dict:
    fields = line.split("\t")
    if len(fields) != len(TSV_HEADER):
        raise DataFormatError(
            f"line {lineno}: expected {len(TSV_HEADER)} fields, found {len(fields)}"
        )
    return dict(zip(TSV_HEADER, fields), metadata={})


def _record_from_row(obj, lineno: int) -> PairRecord:
    """The record of one row: an object of string fields whose metadata, if
    present, is an object and whose label is the one its hyp_kind implies."""
    if type(obj) is not dict:
        raise DataFormatError(f"line {lineno}: expected a JSON object, found {json.dumps(obj)[:40]}")
    try:
        fields, metadata = _ROW_FIELDS(obj), obj.get("metadata", {})
    except KeyError as exc:
        raise DataFormatError(f"line {lineno}: missing field {exc.args[0]!r}") from None
    try:
        "".join(fields)  # a TypeError unless every field is a string
    except TypeError:
        name, value = next((n, v) for n, v in zip(TSV_HEADER, fields) if type(v) is not str)
        raise DataFormatError(
            f"line {lineno}: field {name!r} must be a string, found {json.dumps(value)[:40]}"
        ) from None
    if type(metadata) is not dict:
        raise DataFormatError(
            f"line {lineno}: metadata must be an object, found {json.dumps(metadata)[:40]}"
        )
    label = _LABELS.get(fields[4])
    kind, implied = _HYP_KINDS.get(fields[5], (None, None))
    if label is None or kind is None:
        bad, enum = (fields[4], "Label") if label is None else (fields[5], "HypKind")
        raise DataFormatError(f"line {lineno}: {bad!r} is not a valid {enum}")
    if label is not implied:
        raise DataFormatError(
            f"line {lineno}: label {label.value!r} contradicts hyp_kind "
            f"{kind.value!r}, which is {implied.value!r}"
        )
    return PairRecord(*fields[:4], label, kind, fields[6], metadata)


def read_pairs(source, fmt: str = "auto") -> list[PairRecord]:
    """Load a pair file written by write_pairs; fmt "auto" sniffs the format."""
    text = _read_text(source)
    if fmt == "auto":
        head = text.lstrip()
        if not head:
            return []
        fmt = "rows" if head[0] in "{[" else "tsv"
    lines = text.splitlines()
    if fmt == "rows":
        rows = ((n, _json_row(line, n)) for n, line in enumerate(lines, start=1)
                if line and not line.isspace())
    elif fmt == "tsv":
        header = lines[0].split("\t") if lines else list(TSV_HEADER)
        if tuple(header) != TSV_HEADER:
            raise DataFormatError(f"bad header: expected {list(TSV_HEADER)}, found {header}")
        rows = ((n, _tsv_row(line, n)) for n, line in enumerate(lines[1:], start=2) if line)
    else:
        raise ValueError(f"unknown pair format {fmt!r}")
    records = [_record_from_row(obj, lineno) for lineno, obj in rows]
    _check_ids(records)
    return records


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
