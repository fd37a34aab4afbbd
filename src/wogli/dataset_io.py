"""Reading and writing pair files, and loading model predictions.

Two pair formats: JSON rows (one object per line, full metadata) and TSV
(header line, no metadata). Both are UTF-8; fields never contain tabs or
line breaks, and writers refuse records that would violate that.
"""

from __future__ import annotations

import io
import json
import os
import re
import stat
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring as _encode_str
from operator import itemgetter

from .core import HypKind, Label, PairRecord
from .errors import DataFormatError, PredictionJoinError, WogliError

TSV_HEADER = ("id", "subset", "premise", "hypothesis", "label", "hyp_kind", "pattern")
# one encoder for every row; json.dumps adds per-call work around it
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False)
_ROW_FIELDS = itemgetter(*TSV_HEADER)
_LABELS = {m.value: m for m in Label}
# hyp_kind value -> (member, the label it implies), so no row calls Enum code
_KIND_LABELS = {m.value: (m, m.label) for m in HypKind}
# keyed by member value, as an Enum member hashes through Python code
_KIND_JSON = {m.value: f'"label": {_encode_str(m.label.value)}, "hyp_kind": {_encode_str(m.value)}'
              for m in HypKind}
# _row puts metadata last in every row
_META_SEP = ', "metadata": '
_STR = {str}
_BOM = "\ufeff"  # a UTF-8 byte-order mark, which no wogli file starts with
_SURROGATE = re.compile("[\ud800-\udfff]")

# three-way prediction labels collapse onto the binary scheme
_PREDICTION_LABELS = {
    "entailment": Label.ENTAILED,
    "entailed": Label.ENTAILED,
    "neutral": Label.NOT_ENTAILED,
    "contradiction": Label.NOT_ENTAILED,
    "non-entailed": Label.NOT_ENTAILED,
}


def _lines(source, handle=None):
    """The lines of a path or text stream, without their ends. Lines break
    only at LF, CRLF and CR, as a text-mode file breaks them; str.splitlines
    would also break at U+2028, U+0085 or a form feed inside a field. Text
    that is not UTF-8 is a DataFormatError naming the file (and, for a
    path, the line) where it starts, and text that starts with a byte-order
    mark one naming the file and line 1. A stream's line holding a lone
    surrogate, which no UTF-8 text decodes to, is one naming the line. With
    handle, a text handle open on the path source, the lines are read from
    it, from where it stands, and it is left open."""
    stream = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if stream else source
    if stream:
        handle = source
    try:
        with open(source, "r", encoding="utf-8") if handle is None else nullcontext(handle) as handle:
            if stream:  # a stream need not translate line ends, nor hold UTF-8 text
                lines = _encodable(_stream_lines(handle), name)
            else:  # text mode translates CRLF and CR
                lines = map(str.removesuffix, handle, repeat("\n"))
            for first in lines:
                if first.startswith(_BOM):
                    raise DataFormatError(f"{name}: line 1: starts with a byte-order mark (U+FEFF)")
                yield first
                break
            yield from lines
    except UnicodeDecodeError as exc:
        raise _undecodable(source, exc) from None


def _stream_lines(handle):
    """The lines of a text stream, broken at LF, CRLF and CR, without their ends."""
    return chain.from_iterable(
        line.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
        for line in handle)


def _encodable(lines, name):
    """lines, each of which must hold no lone surrogate (U+D800 to U+DFFF)."""
    for lineno, line in enumerate(lines, start=1):
        if found := _SURROGATE.search(line):
            raise DataFormatError(f"{name}: line {lineno}: holds a lone surrogate "
                                  f"(U+{ord(found[0]):04X}), which UTF-8 cannot encode")
        yield line


def _undecodable(source, exc: UnicodeDecodeError, error=DataFormatError) -> WogliError:
    """The error for a path or stream that is not valid UTF-8. For a regular
    file, its first bad byte and the line that holds it, counted as _lines
    counts lines; a stream's decoder reads ahead, and a FIFO or device
    cannot be read again, so for those only the reason is known."""
    if hasattr(source, "read"):
        return error(f"{getattr(source, 'name', '<stream>')}: not valid UTF-8 ({exc.reason})")
    if not stat.S_ISREG(os.stat(source).st_mode):
        return error(f"{source}: not valid UTF-8 ({exc.reason})")
    with open(source, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        head = data[:first.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return error(f"{source}: line {line}: not valid UTF-8 ({first.reason} at byte {first.start})")
    return error(f"{source}: not valid UTF-8")  # the file changed while it was read


@contextmanager
def _replacing(path: str, lines, mode):
    """Write lines into a new file in path's directory and yield bytes
    written; the new file is moved over path when the with block ends. It
    gets the umask's bits, or mode when given; on any exception it is
    removed and path is left as it was."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the destination, as open(path) would
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            if mode is not None:
                os.fchmod(fd, mode)
            handle.writelines(lines)
            handle.flush()
            size = os.fstat(fd).st_size
        yield size
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextmanager
def _staged(dest, lines):
    """Write lines, any iterable of them, for a path or text stream a line
    at a time, and yield bytes written as UTF-8; dest gets them when the
    with block ends without an exception, and is left as it was otherwise.
    A regular or missing file (a symlink's target, for a symlink) is
    replaced by a new one that holds the lines, and a stream, FIFO or
    device gets every line encoded, in memory, and then written."""
    stream = hasattr(dest, "write")
    if not stream:
        path = os.path.realpath(dest)
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is None or stat.S_ISREG(mode):
            with _replacing(path, lines, None if mode is None else stat.S_IMODE(mode)) as size:
                yield size
            return
    buffer = io.BytesIO()
    buffer.writelines(map(str.encode, lines))  # as UTF-8, so a lone surrogate raises here
    data = buffer.getvalue()
    yield len(data)
    with nullcontext(dest) if stream else open(dest, "wb") as handle:
        handle.write(data.decode() if stream else data)


def _write_lines(dest, lines) -> int:
    """Write lines, any iterable of them, to a path or text stream a line at
    a time, as _staged writes them; returns bytes written as UTF-8. A failed
    write writes nothing."""
    with _staged(dest, lines) as size:
        return size


def _unique(records, seen: set):
    """The records, each id added to seen; a repeated id is a DataFormatError."""
    for record in records:
        if record.id in seen:
            raise DataFormatError(f"duplicate record id {record.id!r}")
        seen.add(record.id)
        yield record


def _tsv_line(record: PairRecord) -> str:
    fields = (record.id, record.subset, record.premise, record.hypothesis,
              record.label.value, _kind(record).value, record.pattern_name)
    try:
        line = "\t".join(fields)
    except TypeError:
        name, value = next((n, v) for n, v in zip(TSV_HEADER, fields) if not isinstance(v, str))
        raise TypeError(f"record {record.id!r}: field {name!r} must be a string, found {value!r:.40}") from None
    if "\n" in line or "\r" in line or line.count("\t") != len(fields) - 1:
        raise DataFormatError(f"record {record.id!r}: field contains a tab or line break")
    return line + "\n"


def _kind(r: PairRecord) -> HypKind:
    """r's hyp_kind, which must imply r's label."""
    kind, implied = _KIND_LABELS[r.hyp_kind._value_]
    if r.label is not implied:
        raise DataFormatError(f"record {r.id!r}: label {r.label.value!r} contradicts hyp_kind "
                              f"{kind.value!r}, which is {implied.value!r}")
    return kind


def _row_tail(hyp_kind: HypKind, pattern_name: str) -> str:
    """The encoded fields of a row after its hypothesis and before its
    metadata; the label is the one hyp_kind implies."""
    return f'{_KIND_JSON[hyp_kind._value_]}, "pattern": {_encode_str(pattern_name)}'


def _row(rid: str, subset: str, premise: str, hypothesis: str, tail: str, metadata: str) -> str:
    """One JSON row line from its encoded parts: the id, subset, premise and
    hypothesis as JSON strings, _row_tail's fields, and the metadata as a
    JSON object, which comes last."""
    return (f'{{"id": {rid}, "subset": {subset}, "premise": {premise}, "hypothesis": {hypothesis}, '
            f'{tail}{_META_SEP}{metadata}}}\n')


# _row's layout, each field a JSON string with nothing encode_basestring
# escapes in it, so that it decodes to itself; the metadata comes last
_ROW_RE = re.compile(r"\{%s%s(?P<metadata>\{.*\})\}" % (
    ", ".join(rf'"{key}": "(?P<{key}>[^"\\\x00-\x1f]*)"' for key in TSV_HEADER), re.escape(_META_SEP)))


def _row_lines(records):
    """JSON lines in stable key order, each field encoded as json.dumps would.
    A run of records with the same metadata dict, or with equal metadata
    whose keys and values are all strings, in the same key order (a
    premise's records), shares one encoding of it. A string among the
    records is a line already encoded, and passes through. A record whose
    metadata is not a dict, or whose hyp_kind contradicts its label, is a
    DataFormatError."""
    last, keys = object(), None  # last: no metadata is encoded yet; keys: the last metadata's, if all strings
    for r in records:
        if type(r) is str:
            yield r
            continue
        m = r.metadata
        if m is not last and (keys is None or m != last or list(m) != keys):
            if not isinstance(m, dict):
                raise DataFormatError(f"record {r.id!r}: metadata must be an object, found {m!r:.40}")
            meta = _ROW_ENCODER.encode(m)
            keys = list(m) if type(m) is dict and {*map(type, m), *map(type, m.values())} <= _STR else None
            last = m
        try:
            line = _row(_encode_str(r.id), _encode_str(r.subset), _encode_str(r.premise),
                        _encode_str(r.hypothesis), _row_tail(_kind(r), r.pattern_name), meta)
        except TypeError:  # json's message names neither the record nor the field, _tsv_line's both
            _tsv_line(r)
            raise
        yield line


def _tsv_lines(records):
    yield "\t".join(TSV_HEADER) + "\n"
    yield from map(_tsv_line, records)


_LINES = {"rows": _row_lines, "tsv": _tsv_lines}


def write_pairs(records, dest, fmt: str = "rows") -> int:
    """Serialize records, any iterable of them, to a path or file-like
    object; returns bytes written.

    "rows" gives JSON lines in stable key order (no records give an empty
    file); "tsv" gives a header plus one row per record. Records are
    encoded and written a line at a time, and a record that cannot be
    written (a duplicate id, a non-string field, a tab in a TSV field, a
    label its hyp_kind contradicts, or in "rows" a metadata that is not a
    dict), or an exception raised by the iterable, leaves the destination
    as it was, or absent. A path is written into a new file in its
    directory that then replaces it: a hard link to the old file keeps the
    old bytes, the new file takes the old one's permission bits, and a
    symlink's target is replaced, not the link. A stream, FIFO or device
    gets nothing until every record is encoded.
    """
    lines = _LINES.get(fmt)
    if lines is None:
        raise ValueError(f"unknown pair format {fmt!r}")
    return _write_lines(dest, lines(_unique(records, set())))


def _json_row(line: str, lineno: int):
    try:
        obj = json.loads(line)
        if "\\u" in line:  # an escape can decode to a lone surrogate, which UTF-8 cannot encode
            _ROW_ENCODER.encode(obj).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
    except UnicodeEncodeError as exc:
        raise DataFormatError(f"line {lineno}: a JSON escape decodes to a lone surrogate "
                              f"(U+{ord(exc.object[exc.start]):04X}), which UTF-8 cannot encode") from None
    return obj


def _tsv_row(line: str, lineno: int) -> dict:
    fields = line.split("\t")
    if len(fields) != len(TSV_HEADER):
        raise DataFormatError(
            f"line {lineno}: expected {len(TSV_HEADER)} fields, found {len(fields)}"
        )
    return dict(zip(TSV_HEADER, fields), metadata={})


def _own(key: str, value: str) -> str:
    """The share that shares nothing: every string stays the row's own."""
    return value


def _record_from_row(obj, lineno: int, share=_own) -> PairRecord:
    """The record of one row: an object of string fields whose metadata, if
    present, is an object and whose label is the one its hyp_kind implies.
    Its subset, premise and pattern are share(value, value): read_pairs
    passes one memo's setdefault, so equal strings become one object."""
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
    label, kind = _label_kind(fields[4], fields[5], lineno)
    rid, subset, premise, hypothesis = fields[:4]
    return PairRecord(rid, share(subset, subset), share(premise, premise), hypothesis,
                      label, kind, share(fields[6], fields[6]), metadata)


def _label_kind(label: str, hyp_kind: str, lineno: int) -> tuple[Label, HypKind]:
    """The members a row's label and hyp_kind name, which must agree."""
    member, (kind, implied) = _LABELS.get(label), _KIND_LABELS.get(hyp_kind, (None, None))
    if member is None or kind is None:
        bad, enum = (label, "Label") if member is None else (hyp_kind, "HypKind")
        raise DataFormatError(f"line {lineno}: {bad!r} is not a valid {enum}")
    if member is not implied:
        raise DataFormatError(f"line {lineno}: label {label!r} contradicts hyp_kind "
                              f"{kind.value!r}, which is {implied.value!r}")
    return member, kind


def read_pairs(source) -> list[PairRecord]:
    """Load a pair file written by write_pairs, in the format its first
    non-blank line shows.

    The records of one call share equal strings: a subset, premise or
    pattern, and a metadata key or string value, is one object however many
    rows repeat it. Each record still owns its metadata dict. The file is
    read once, and its first faulty line, a repeated id included, is the
    error.
    """
    return list(_unique(_read_records(source, {}.setdefault), set()))


def _read_records(source, share=_own):
    """The records of a pair file, each one read as it is consumed, ids
    unchecked, their strings passed through share as _records passes them."""
    with closing(_lines(source)) as lines:
        yield from _records(lines, share=share)


def _rows(lines):
    """Whether a pair file's lines are TSV, as its first non-blank line
    shows, and the (line number, line) of each of its rows: each
    non-blank line from that one on, or each non-empty line after a TSV
    header."""
    numbered = enumerate(lines, start=1)
    for lineno, line in numbered:
        if line and not line.isspace():
            break
    else:
        return False, iter(())
    if line.lstrip()[0] in "{[":
        return False, ((n, line) for n, line in chain([(lineno, line)], numbered)
                       if line and not line.isspace())
    header = line.split("\t")
    if tuple(header) != TSV_HEADER:
        raise DataFormatError(f"bad header: expected {list(TSV_HEADER)}, found {header}")
    return True, ((n, line) for n, line in numbered if line)


def _records(lines, canonical=None, share=_own):
    """The records of a pair file's lines, each read as it is consumed, ids
    unchecked. A line _ROW_RE matches is read as its seven fields, strings of
    which only the label rule is checked, and its metadata text, decoded once
    for a run of lines with one text (a premise's rows); each record gets its
    own shallow copy. Any other line, or one whose metadata text holds a \\u
    escape or is not one JSON object, goes through _json_row or _tsv_row and
    _record_from_row. canonical, if given, is a list or bytearray that gets,
    before each record is yielded, whether its row's line is the one _row_lines
    writes for it: _ROW_RE matched it and its metadata text is its own
    encoding, checked once per run; a non-empty text without a backslash whose
    values are all strings holds them as they are, so is checked against their
    plain join. Each subset, premise and pattern, and each metadata key and
    string value, goes through share(value, value): the default keeps every
    string the row's own, so a caller that keeps no record holds none of them,
    and a memo's setdefault, which only str values reach (1, True and 1.0 would
    hash equal), makes equal strings one object."""
    tsv, rows = _rows(lines)
    text = meta = keys = same = None  # keys: the last shared metadata's, through share; same: text encodes meta
    for lineno, line in rows:
        match = None if tsv else _ROW_RE.fullmatch(line)
        if match is not None and match[8] != text:
            text = match[8]
            try:  # _json_row checks what a \u escape decodes to
                meta = None if "\\u" in text else json.loads(text)
            except json.JSONDecodeError:  # say '{"a": 1}, "b": {}': the line has a ninth key
                meta = None
            strings = type(meta) is dict and set(map(type, vals := meta.values())) <= _STR
            if canonical is None or meta is None:
                same = False
            elif strings and meta and "\\" not in text:
                same = text == '{"' + '", "'.join(map('": "'.join, meta.items())) + '"}'
            else:
                same = _ROW_ENCODER.encode(meta) == text
            if strings:
                if tuple(meta) != keys:  # JSON keys are strings; a pattern's premises repeat them
                    keys = tuple(map(share, meta, meta))
                meta = dict(zip(keys, map(share, vals, vals)))
        if match is None or meta is None:
            row = _tsv_row(line, lineno) if tsv else _json_row(line, lineno)
            record, copy = _record_from_row(row, lineno, share), False
        else:
            rid, subset, premise, hypothesis, label, kind, pattern = match.group(1, 2, 3, 4, 5, 6, 7)
            label, kind = _label_kind(label, kind, lineno)
            record, copy = PairRecord(rid, share(subset, subset), share(premise, premise), hypothesis,
                                      label, kind, share(pattern, pattern), meta.copy()), same
        if canonical is not None:
            canonical.append(copy)
        yield record


def _copy_rows(lines, keep, canonical, fmt: str):
    """The lines write_pairs writes in format fmt for the records of those
    rows of lines, a pair file's, that keep selects, one bool per row.
    canonical holds one flag per row, as _records fills it: in "rows", a
    flagged row is copied as its own line. Any other row is read again, by
    the reader's code for one line, and encoded."""
    tsv, rows = _rows(lines)
    copy = fmt == "rows"
    return _LINES[fmt](
        line + "\n" if copy and same else
        _record_from_row(_tsv_row(line, lineno) if tsv else _json_row(line, lineno), lineno)
        for (lineno, line), kept, same in zip(rows, keep, canonical, strict=True) if kept)


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
    exactly one label per run index 0..runs-1. Ids with the same labels
    share one tuple of them, so there are at most 2**runs tuples. While the
    file is read, each id holds one int: bit r says run r was seen, and bit
    runs + r that its label is entailed.
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    run_indices = {str(i): i for i in range(runs)}
    table = {}  # id -> its bits
    with closing(_lines(source)) as lines:
        if tuple(next(lines, "").split("\t")) != ("id", "run", "label"):
            raise DataFormatError("prediction file must start with an id/run/label header")
        for lineno, line in enumerate(lines, start=2):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataFormatError(f"line {lineno}: expected 3 fields, found {len(fields)}")
            rid, run_text, label_text = fields
            run = run_indices.get(run_text)
            if run is None:
                try:
                    run = int(run_text)
                except ValueError:
                    raise DataFormatError(
                        f"line {lineno}: run index {run_text!r} is not an integer"
                    ) from None
                if not 0 <= run < runs:
                    raise DataFormatError(f"line {lineno}: run index {run} outside 0..{runs - 1}")
            label = _PREDICTION_LABELS.get(label_text) or _PREDICTION_LABELS.get(label_text.strip())
            if label is None:
                raise DataFormatError(f"line {lineno}: unknown label {label_text!r}")
            bits = table.get(rid, 0)
            if bits >> run & 1:
                raise DataFormatError(f"line {lineno}: duplicate prediction for {rid!r} run {run}")
            table[rid] = bits | 1 << run | (label is Label.ENTAILED) << runs + run
    seen = (1 << runs) - 1
    combinations = {}  # bits -> the labels they stand for
    for rid, bits in table.items():
        if bits & seen != seen:
            missing = ~bits & seen  # the lowest missing run is its lowest bit
            raise PredictionJoinError(
                f"id {rid!r} has no prediction for run {(missing & -missing).bit_length() - 1}")
        labels = combinations.get(bits)
        if labels is None:
            labels = combinations[bits] = tuple(
                Label.ENTAILED if bits >> runs + run & 1 else Label.NOT_ENTAILED for run in range(runs))
        table[rid] = labels
    return PredictionSet(runs=runs, labels=table)
