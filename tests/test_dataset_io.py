"""Pair and prediction file round-trips, format sniffing, and error reporting."""

import cProfile
import io
import json
import os
import pstats
import random
import re
import stat
import threading
import tracemalloc
from contextlib import nullcontext, suppress
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogli import (
    DataFormatError,
    GenerationSet,
    HypKind,
    Label,
    PairRecord,
    PredictionJoinError,
    PredictionSet,
    generate_set,
    read_pairs,
    read_predictions,
    write_pairs,
)
from wogli import dataset_io
from wogli.dataset_io import _META_SEP, _PREDICTION_LABELS, _ROW_RE, _record_from_row

from conftest import make_toy

_TOY = make_toy()


@pytest.fixture
def records(toy_lex):
    return generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=2)


def _rec(rid, **overrides):
    base = dict(
        id=rid,
        subset="wogli",
        premise="Der Arzt sieht den Kunden.",
        hypothesis="Der Kunde sieht den Arzt.",
        label=Label.NOT_ENTAILED,
        hyp_kind=HypKind.H1_SO,
        pattern_name="sing_masc_v_sing_masc",
    )
    base.update(overrides)
    return PairRecord(**base)


class TestRowFormat:
    def test_round_trip_is_identity(self, records, tmp_path):
        path = tmp_path / "pairs.jsonl"
        n = write_pairs(records, path, fmt="rows")
        assert n == path.stat().st_size
        assert read_pairs(path) == records

    def test_stable_key_order(self, records, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(records, path, fmt="rows")
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert list(json.loads(first)) == [
            "id", "subset", "premise", "hypothesis", "label",
            "hyp_kind", "pattern", "metadata",
        ]

    def test_no_ascii_escaping(self, records, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(records, path, fmt="rows")
        text = path.read_text(encoding="utf-8")
        assert "\\u" not in text

    def test_empty_list_gives_empty_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([], path, fmt="rows")
        assert path.read_text(encoding="utf-8") == ""
        assert read_pairs(path) == []

    def test_file_like_destination(self, records):
        buf = io.StringIO()
        write_pairs(records[:2], buf, fmt="rows")
        assert read_pairs(io.StringIO(buf.getvalue())) == records[:2]

    def test_invalid_json_is_line_numbered(self):
        good = json.dumps({
            "id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
            "label": "entailed", "hyp_kind": "h2_os", "pattern": "sing_masc_v_sing_fem",
        })
        with pytest.raises(DataFormatError, match="line 2"):
            read_pairs(io.StringIO(good + "\n{broken\n"))

    def test_missing_field_is_reported(self):
        obj = {"id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
               "label": "entailed", "hyp_kind": "h2_os"}
        with pytest.raises(DataFormatError, match="pattern"):
            read_pairs(io.StringIO(json.dumps(obj) + "\n"))

    def test_unknown_label_is_reported(self):
        obj = {"id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
               "label": "maybe", "hyp_kind": "h2_os", "pattern": "sing_masc_v_sing_fem"}
        with pytest.raises(DataFormatError, match="line 1"):
            read_pairs(io.StringIO(json.dumps(obj) + "\n"))

    def test_label_must_follow_hyp_kind(self):
        obj = {"id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
               "label": "entailed", "hyp_kind": "h1_so", "pattern": "sing_masc_v_sing_fem"}
        with pytest.raises(DataFormatError, match="line 1: label 'entailed'.*'h1_so'"):
            read_pairs(io.StringIO(json.dumps(obj) + "\n"))


def _row(**overrides):
    obj = {"id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
           "label": "non-entailed", "hyp_kind": "h1_so", "pattern": "sing_masc_v_pnoun",
           "metadata": {"subject_lemma": "Arzt"}}
    obj.update(overrides)
    return json.dumps(obj, ensure_ascii=False)


class TestRowTypes:
    @pytest.mark.parametrize("text,message", [
        (_row(pattern=["sing_masc_v_pnoun"]) + "\n",
         'line 1: field \'pattern\' must be a string, found ["sing_masc_v_pnoun"]'),
        (_row(id=7) + "\n", "line 1: field 'id' must be a string, found 7"),
        (_row(label=None) + "\n", "line 1: field 'label' must be a string, found null"),
        (_row() + "\n[1, 2]\n", "line 2: expected a JSON object, found [1, 2]"),
        (_row() + "\nnull\n", "line 2: expected a JSON object, found null"),
        ("[1, 2]\n" + _row(id="b") + "\n", "line 1: expected a JSON object, found [1, 2]"),
        (_row(metadata=[["subject_lemma", "Arzt"]]) + "\n",
         'line 1: metadata must be an object, found [["subject_lemma", "Arzt"]]'),
        (_row(metadata=None) + "\n", "line 1: metadata must be an object, found null"),
    ], ids=["pattern-array", "id-number", "label-null", "array-row", "null-row",
            "leading-array", "metadata-pairs", "metadata-null"])
    def test_wrong_json_types_rejected(self, text, message):
        with pytest.raises(DataFormatError, match=re.escape(message)):
            read_pairs(io.StringIO(text))

    def test_whitespace_around_a_row_is_accepted(self):
        text = _row() + "\n  " + _row(id="b") + " \n"
        assert [r.id for r in read_pairs(io.StringIO(text))] == ["a", "b"]

    def test_non_string_field_rejected_on_write(self):
        with pytest.raises(TypeError, match="must be a string"):
            write_pairs([_rec(7)], io.StringIO(), fmt="rows")

    @pytest.mark.parametrize("field,value", [("pattern_name", ["x"]), ("premise", 3), ("id", 7),
                                             ("hypothesis", None)])
    def test_non_string_field_named_as_tsv_names_it(self, field, value):
        """json's encoder names neither the record nor the field; the rows
        writer raises the TSV writer's error, which names both."""
        records = [_rec("a"), _rec("b", **{field: value})]
        with pytest.raises(TypeError, match="field .* must be a string, found") as tsv:
            write_pairs(records, io.StringIO(), fmt="tsv")
        stream = io.StringIO()
        with pytest.raises(TypeError, match=f"^{re.escape(str(tsv.value))}$"):
            write_pairs(records, stream, fmt="rows")
        assert stream.getvalue() == ""

    @pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
    @pytest.mark.parametrize("metadata", [None, [["subject_lemma", "Arzt"]], "x"], ids=["null", "pairs", "string"])
    def test_metadata_that_is_not_a_dict_rejected_on_write(self, metadata, first):
        """The reader refuses such a row, so the writer refuses its record,
        first in the file or not; None is never written as Python's text."""
        records = [_rec("a"), _rec("b", metadata=metadata)]
        stream = io.StringIO()
        with pytest.raises(DataFormatError,
                           match=re.escape(f"record 'b': metadata must be an object, found {metadata!r}")):
            write_pairs(records[1:] if first else records, stream)
        assert stream.getvalue() == ""

    def test_blank_lines_between_rows_are_skipped_and_counted(self):
        text = _row() + "\n\n \n" + _row(id="b") + "\n\t\n"
        assert [r.id for r in read_pairs(io.StringIO(text))] == ["a", "b"]
        with pytest.raises(DataFormatError, match=r"^line 6: missing field 'subset'$"):
            read_pairs(io.StringIO(text + '{"id": "c"}\n'))


def _escaped(field: str, escape: str) -> str:
    """A row whose premise, or metadata value, starts with a JSON escape."""
    key = "premise" if field == "premise" else "subject_lemma"
    return _row(id="b").replace(f'"{key}": "', f'"{key}": "{escape}', 1)


class TestLoneSurrogates:
    """A \\u escape can decode to half of a surrogate pair, which no UTF-8
    file can hold: a row holding one is refused as it is read, naming its
    line, in its head fields (which _ROW_RE never matches with a backslash)
    and in its metadata (which it does)."""

    @pytest.mark.parametrize("escape,code", [
        ("\\ud800", "D800"), ("\\udc00", "DC00"), ("\\ude00\\ud83d", "DE00"),
    ], ids=["high", "low", "reversed-pair"])
    @pytest.mark.parametrize("field", ["premise", "metadata"])
    def test_refused_naming_the_line(self, field, escape, code):
        row = _escaped(field, escape)
        assert bool(_ROW_RE.fullmatch(row)) == (field == "metadata")
        with pytest.raises(DataFormatError) as info:
            read_pairs(io.StringIO(_row() + "\n" + row + "\n"))
        assert str(info.value) == (
            f"line 2: a JSON escape decodes to a lone surrogate (U+{code}), which UTF-8 cannot encode")

    @pytest.mark.parametrize("field", ["premise", "metadata"])
    def test_a_character_in_a_stream_is_refused_naming_the_line(self, field):
        # a text stream, unlike a UTF-8 file, can hold one as a character,
        # on a line _ROW_RE matches
        row = _escaped(field, "\\ud800").replace("\\ud800", "\ud800")
        assert _ROW_RE.fullmatch(row)
        with pytest.raises(DataFormatError) as info:
            read_pairs(io.StringIO(_row() + "\n" + row + "\n"))
        assert str(info.value) == (
            "<stream>: line 2: holds a lone surrogate (U+D800), which UTF-8 cannot encode")

    @pytest.mark.parametrize("field", ["premise", "metadata"])
    def test_an_escaped_pair_reads(self, field):
        (record,) = read_pairs(io.StringIO(_escaped(field, "\\ud83d\\ude00") + "\n"))
        text = record.premise if field == "premise" else record.metadata["subject_lemma"]
        assert text.startswith("\U0001F600")
        buf = io.StringIO()
        write_pairs([record], buf)
        assert read_pairs(io.StringIO(buf.getvalue())) == [record]


def _reference_line(r):
    return json.dumps({
        "id": r.id, "subset": r.subset, "premise": r.premise, "hypothesis": r.hypothesis,
        "label": r.label.value, "hyp_kind": r.hyp_kind.value, "pattern": r.pattern_name,
        "metadata": r.metadata,
    }, ensure_ascii=False) + "\n"


_ADJACENT_METADATA = {
    "one-value": ({"subject_lemma": "Arzt", "verb_lemma": "sehen"},
                  {"subject_lemma": "Arzt", "verb_lemma": "hören"}),
    "key-order": ({"a": "1", "b": "2"}, {"b": "2", "a": "1"}),
    "int-bool": ({"n": 1}, {"n": True}),
    "int-float": ({"n": 1}, {"n": 1.0}),
    "key-int-bool": ({1: "x"}, {True: "x"}),
    "nested": ({"n": ["x"]}, {"n": ["y"]}),
}


class TestMetadataRuns:
    """Records of one premise share one encoding of their metadata; a record
    whose metadata differs in any way must still be written as its own."""

    @pytest.mark.parametrize("first,second", list(_ADJACENT_METADATA.values()),
                             ids=list(_ADJACENT_METADATA))
    def test_adjacent_records_keep_their_own_metadata(self, first, second):
        records = [_rec("a-h1", metadata=first), _rec("a-h2", metadata=second)]
        buf = io.StringIO()
        write_pairs(records, buf, fmt="rows")
        text = buf.getvalue()
        assert text == "".join(_reference_line(r) for r in records)
        # read back, a run of metadata is one decoded dict, not equal ones:
        # {"n": 1} == {"n": True}, and key order does not count in ==
        for read in (read_pairs(io.StringIO(text)), list(dataset_io._records(text.splitlines()))):
            again = io.StringIO()
            write_pairs(read, again, fmt="rows")
            assert again.getvalue() == text

    def test_shared_dict_mutated_between_writes(self):
        shared = {"subject_lemma": "Arzt", "verb_lemma": "sehen"}
        records = [_rec("a-h1", metadata=shared), _rec("a-h2", metadata=shared)]
        first = io.StringIO()
        write_pairs(records, first, fmt="rows")
        shared["verb_lemma"] = "hören"
        second = io.StringIO()
        write_pairs(records, second, fmt="rows")
        assert second.getvalue() == "".join(_reference_line(r) for r in records)
        assert second.getvalue() == first.getvalue().replace("sehen", "hören")

    def test_without_the_c_encoder_the_bytes_are_the_same(self, toy_lex):
        # the writer reaches json's C encoder only through the public encoder,
        # so its lines and its errors are json.dumps's
        shared = {"subject_lemma": "Arzt", "verb_lemma": "sehen"}
        runs = [[_rec("a-h1", metadata=first), _rec("a-h2", metadata=second)]
                for first, second in _ADJACENT_METADATA.values()]
        runs.append([_rec("a-h1", metadata=shared), _rec("a-h2", metadata=shared)])
        runs.append(generate_set(GenerationSet.DITRANSITIVE, toy_lex, seed=2, per_pattern=2))
        for records in runs:
            buf = io.StringIO()
            write_pairs(records, buf, fmt="rows")
            assert buf.getvalue() == "".join(_reference_line(r) for r in records)
        circular = {}
        circular["self"] = circular
        for metadata in [{"n": object()}, circular]:
            record = _rec("a", metadata=metadata)
            with pytest.raises((TypeError, ValueError)) as want:
                _reference_line(record)
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                write_pairs([record], io.StringIO(), fmt="rows")

    def test_records_read_from_one_premise_own_their_metadata(self):
        meta = {"subject_lemma": "Arzt", "verb_lemma": "sehen"}
        buf = io.StringIO()
        write_pairs([_rec("a-h1", metadata=meta), _rec("a-h2", metadata=meta)], buf, fmt="rows")
        first, second = read_pairs(io.StringIO(buf.getvalue()))
        first.metadata["verb_lemma"] = "hören"
        assert second.metadata == meta


class TestCanonicalCheck:
    """A row is canonical, copied as it is by sample-augmentation, when its
    line is the one _row_lines writes for its record. A metadata text
    without a backslash whose values are all strings is checked against
    their plain join, any other by encoding it; both give one answer."""

    @pytest.mark.parametrize("text,canonical", [
        ('{"premise_id": "p", "verb_lemma": "sehen"}', True),
        ('{"verb_lemma": "sehen", "premise_id": "p"}', True),  # the record keeps this order
        ('{"a": "b, c", "d e": ": ä"}', True),
        ("{}", True),
        ('{"name": "Pe\\"ter"}', True),  # an escape: the encoder decides
        ('{"n": 1, "a": "b"}', True),  # a number as the encoder writes it
        ('{"a":"b"}', False),
        ('{"a": "b" }', False),
        ('{ "a": "b"}', False),
        ('{"a": "\\u00e4"}', False),  # an escape for ä
        ('{"scale": 1E2}', False),  # encodes as 100.0
        ('{"a": "b", "n": 1.50}', False),
    ])
    def test_metadata_text(self, text, canonical):
        line = _row(metadata="@").replace('"@"', text)
        flags = bytearray()
        [record] = dataset_io._records([line], flags)
        assert list(flags) == [canonical]
        assert (dataset_io._ROW_ENCODER.encode(record.metadata) == text) is canonical

    def test_another_row_layout_is_not_canonical(self):
        row = json.loads(_row(premise="Ä."))
        lines = [json.dumps(dict(reversed(row.items())), ensure_ascii=False),  # keys reordered
                 json.dumps(row, ensure_ascii=False, separators=(",", ": ")),
                 json.dumps(row),  # \u00c4 for Ä
                 _row(premise="Ä.")]
        flags = bytearray()
        assert len(list(dataset_io._records(lines, flags))) == 4
        assert list(flags) == [False, False, False, True]


class TestSharedStrings:
    """Records read in one call hold one object per distinct string, while
    each still owns its metadata dict; only strings are shared."""

    @staticmethod
    def _reread(records, fmt="rows"):
        buf = io.StringIO()
        write_pairs(records, buf, fmt=fmt)
        return read_pairs(io.StringIO(buf.getvalue()))

    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    def test_equal_strings_are_one_object(self, records, fmt):
        got = self._reread(records, fmt)
        assert got[0].premise is got[1].premise  # the h1 and h2 of one premise
        for field in ("subset", "premise", "pattern_name"):
            values = [getattr(r, field) for r in got]
            assert len({*map(id, values)}) == len({*values}), field
        keys = [k for r in got for k in r.metadata]
        values = [v for r in got for v in r.metadata.values()]
        assert len({*map(id, keys)}) == len({*keys})
        assert len({*map(id, values)}) == len({*values})

    def test_rows_of_one_premise_share_metadata_values(self, records):
        first, second = self._reread(records)[:2]
        assert first.metadata["premise_id"] == second.metadata["premise_id"]
        assert first.metadata is not second.metadata
        for (k1, v1), (k2, v2) in zip(first.metadata.items(), second.metadata.items(), strict=True):
            assert k1 is k2 and v1 is v2

    def test_mutating_one_record_leaves_every_other(self, records):
        got = self._reread(records)
        got[0].metadata["subject_lemma"] = "x"
        del got[0].metadata["verb_lemma"]
        assert [r.metadata for r in got[1:]] == [r.metadata for r in records[1:]]

    def test_streaming_records_keep_no_memo(self, records):
        """_records, which derive, analyze and augmentation's first pass read
        through, gives the records read_pairs gives, each with strings of
        its own, so a caller that keeps no record keeps none of them."""
        buf = io.StringIO()
        write_pairs(records, buf)
        shared = read_pairs(io.StringIO(buf.getvalue()))
        own = list(dataset_io._records(buf.getvalue().splitlines()))
        assert own == shared
        assert shared[0].premise is shared[1].premise
        assert own[0].premise == own[1].premise and own[0].premise is not own[1].premise
        for field in ("subset", "pattern_name"):
            assert len({id(getattr(r, field)) for r in own}) == len(own), field
        assert own[0].metadata is own[1].metadata  # one premise's rows: one decoded dict
        assert own[1].metadata is not own[2].metadata

    def test_streaming_records_make_no_call_per_value(self, lex):
        """_records calls no function of the package more than once a row
        (and once more to finish): no string goes through a callback."""
        buf = io.StringIO()
        write_pairs(generate_set(GenerationSet.WOGLI, lex, 0, 60), buf)
        lines = buf.getvalue().splitlines()[:2000]
        package = os.path.dirname(dataset_io.__file__) + os.sep
        for canonical in (None, bytearray()):
            profile = cProfile.Profile()
            assert len(profile.runcall(list, dataset_io._records(lines, canonical))) == 2000
            calls = {f"{name}:{line}": stat[1] for (path, line, name), stat in pstats.Stats(profile).stats.items()
                     if path.startswith(package)}
            assert calls and max(calls.values()) <= 2001, calls

    def test_only_strings_are_shared(self):
        values = [1, "1", True, 1.0, "1", True, ["1"], None, "true"]
        text = "".join(_row(id=f"r{i}", metadata={"n": v, "m": "1"}) + "\n"
                       + _row(id=f"s{i}", metadata={"n": v}) + "\n"
                       for i, v in enumerate(values))
        got = read_pairs(io.StringIO(text))
        assert [type(r.metadata["n"]) for r in got] == [type(v) for v in values for _ in "rs"]
        buf = io.StringIO()
        write_pairs(got, buf)
        assert buf.getvalue() == text

    def test_non_string_field_after_its_shared_value_is_a_format_error(self):
        text = _row(pattern="x") + "\n" + _row(id="b", pattern=["x"]) + "\n"
        with pytest.raises(DataFormatError,
                           match=re.escape("""line 2: field 'pattern' must be a string, found ["x"]""")):
            read_pairs(io.StringIO(text))

    def test_bytes_held_per_row(self, lex):
        """A read of bundled-lexicon rows holds at most 1,100 bytes per row;
        with every string its own object it held about 1,790."""
        buf = io.StringIO()
        write_pairs(generate_set(GenerationSet.WOGLI, lex, 0, 50), buf)
        source = io.StringIO(buf.getvalue())
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = read_pairs(source)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(got) == 1700
        assert held / len(got) <= 1100


# lexicons whose names need JSON escapes and characters beyond Latin-1
_ESCAPED_NAMES = make_toy(masc_proper=['Pe"ter', "Pa\\ul"], fem_proper=["Łucja", "Zoë"])


@settings(max_examples=30, deadline=None)
@given(lex=st.sampled_from(["toy", "escaped"]), name=st.sampled_from(list(GenerationSet)),
       seed=st.integers(0, 2**32 - 1), with_replacement=st.booleans(), spaced=st.booleans())
def test_rows_round_trip_byte_for_byte(lex, name, seed, with_replacement, spaced):
    lexicon = _ESCAPED_NAMES if lex == "escaped" else _TOY
    records = generate_set(name, lexicon, seed=seed, per_pattern=1,
                           with_replacement=with_replacement, spaced_period=spaced)
    buf = io.StringIO()
    write_pairs(records, buf, fmt="rows")
    text = buf.getvalue()
    assert text == "".join(_reference_line(r) for r in records)
    again = io.StringIO()
    write_pairs(read_pairs(io.StringIO(text)), again, fmt="rows")
    assert again.getvalue() == text


def _reference_rows(text):
    """read_pairs of a rows text, with one json.loads per line and each id
    checked against the earlier lines' as its line is read."""
    records, seen = [], set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        record = _record_from_row(obj, lineno)
        if record.id in seen:
            raise DataFormatError(f"duplicate record id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


_HEAD = {"id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
         "label": "non-entailed", "hyp_kind": "h1_so", "pattern": "sing_masc_v_pnoun"}
_METADATA = [{"subject_lemma": "Arzt", "verb_lemma": "sehen"}, {"subject_lemma": "Anna"}, {}]
_NESTED = [
    {"subject_lemma": "Arzt", "metadata": {"verb_lemma": "sehen"}},
    {"metadata": "x", "subject_lemma": "Arzt"},
    {"subject_lemma": "Arzt", "metadata": None},
]
_MUTATIONS = ["none", "spacing", "separator-in-value", "nested-key", "duplicate", "empty-head",
              "null-or-array", "trailing-space", "not-last", "junk-before", "junk-after",
              "separator-text", "escaped-field", "reordered-head", "brace-in-metadata"]


@st.composite
def _mutated_rows(draw):
    """A row line built the way write_pairs builds one, with one mutation."""
    mutation = draw(st.sampled_from(_MUTATIONS))
    head = dict(_HEAD, id=draw(st.sampled_from(["a", "b", "c"])))
    meta = draw(st.sampled_from(_METADATA))
    seps = [", ", ": "] * 2
    before = after = ""
    if mutation == "spacing":
        seps = draw(st.tuples(*[st.sampled_from([",", ", ", " , ", ",\t"]),
                                st.sampled_from([":", ": ", " : "])] * 2))
    elif mutation == "separator-in-value":
        meta = {"subject_lemma": 'x, "metadata": {"a": "b"}}'}
    elif mutation == "nested-key":
        meta = draw(st.sampled_from(_NESTED))
    elif mutation == "duplicate":
        head["metadata"] = draw(st.sampled_from(_METADATA + _NESTED + [None]))
    elif mutation == "null-or-array":
        meta = draw(st.sampled_from([None, ["subject_lemma", "Arzt"]]))
    elif mutation == "not-last":
        head = {"metadata": meta, **head}
    elif mutation in ("junk-before", "junk-after"):
        junk = draw(st.sampled_from(["}", "]", ",", "x", " "]))
        before, after = (junk, "") if mutation == "junk-before" else ("", junk)
    elif mutation == "escaped-field":  # written below as \u00e4, \" or \\
        key = draw(st.sampled_from(["id", "subset", "premise", "hypothesis", "pattern"]))
        head[key] = draw(st.sampled_from(["\u00e4", 'a"b', "\\"]))
    elif mutation == "reordered-head":
        head = dict(draw(st.permutations(list(head.items()))))
    elif mutation == "brace-in-metadata":
        meta = {**meta, "object_lemma": draw(st.sampled_from(["}", "{", "}}", 'a"}', "x}, ", _META_SEP,
                                                               '}, "metadata": {']))}
    head_text = json.dumps(head, ensure_ascii=mutation == "escaped-field",
                           separators=tuple(seps[:2]))[:-1]
    meta_text = json.dumps(meta, ensure_ascii=False, separators=tuple(seps[2:]))
    if mutation == "empty-head":
        head_text = "{"
    line = f'{head_text}{before}{seps[0]}"metadata"{seps[1]}{meta_text}{after}}}'
    if mutation == "trailing-space":
        line += draw(st.sampled_from([" ", "\t", " \t"]))
    elif mutation == "separator-text":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + _META_SEP + line[at:]
    return line


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_mutated_rows(), min_size=1, max_size=4))
def test_split_row_decoding_equals_json_loads(lines):
    """Each line decoded as head and metadata apart, and a run of lines with
    one metadata text decoded once, gives what json.loads of every line gives."""
    # a first row that starts with "{", so that the text reads as rows
    # whatever its mutated lines start with
    text = "".join(line + "\n" for line in [json.dumps({**_HEAD, "id": "first", "metadata": {}}), *lines])
    try:
        want = _reference_rows(text)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            read_pairs(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    got = read_pairs(io.StringIO(text))
    assert got == want
    assert len({id(r.metadata) for r in got}) == len(got)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_mutated_rows(), min_size=1, max_size=4))
def test_canonical_rows_are_the_lines_the_writer_writes(lines):
    """A line _records flags canonical is the line _row_lines writes for its
    record, so sample-augmentation may copy it unencoded. The converse does
    not hold, and need not: a written line with an escaped field is not
    flagged, and is encoded again."""
    lines = [json.dumps({**_HEAD, "id": "first", "metadata": {}}), *lines]
    flags, records = bytearray(), []
    with suppress(DataFormatError):  # the rows before a faulty one still count
        for record in dataset_io._records(lines, flags):
            records.append(record)
    assert flags[0] and len(flags) == len(records)
    for line, record, flag in zip(lines, records, flags):
        if flag:
            assert line + "\n" == next(dataset_io._row_lines([record]))


@pytest.mark.parametrize("lex", ["toy", "escaped"])
@pytest.mark.parametrize("name", list(GenerationSet))
def test_written_rows_take_the_fixed_layout_path(lex, name, monkeypatch):
    """Every line write_pairs writes fullmatches _ROW_RE unless it holds a
    JSON escape, and only such lines reach json.loads. A pattern that never
    matched would pass every other test, as json.loads reads the same records."""
    records = generate_set(name, _ESCAPED_NAMES if lex == "escaped" else _TOY, seed=0, per_pattern=2)
    buf = io.StringIO()
    write_pairs(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines and all(_ROW_RE.fullmatch(line) or "\\" in line for line in lines)
    loaded = []
    json_row = dataset_io._json_row
    monkeypatch.setattr(dataset_io, "_json_row", lambda line, n: loaded.append(line) or json_row(line, n))
    assert read_pairs(io.StringIO(buf.getvalue())) == records
    assert all("\\" in line for line in loaded) and len(loaded) < len(lines)
    if lex == "toy":
        assert not loaded


class TestTsvFormat:
    def test_round_trip_drops_metadata_only(self, records, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_pairs(records, path, fmt="tsv")
        loaded = read_pairs(path)
        assert [r.id for r in loaded] == [r.id for r in records]
        for got, want in zip(loaded, records):
            assert got.metadata == {}
            assert got == PairRecord(
                want.id, want.subset, want.premise, want.hypothesis,
                want.label, want.hyp_kind, want.pattern_name, {},
            )

    def test_header_written(self, records, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_pairs(records, path, fmt="tsv")
        head = path.read_text(encoding="utf-8").splitlines()[0]
        assert head == "id\tsubset\tpremise\thypothesis\tlabel\thyp_kind\tpattern"

    def test_empty_list_gives_header_only(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        write_pairs([], path, fmt="tsv")
        assert path.read_text(encoding="utf-8") == \
            "id\tsubset\tpremise\thypothesis\tlabel\thyp_kind\tpattern\n"
        assert read_pairs(path) == []

    def test_bad_header_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            read_pairs(io.StringIO("id\tpremise\thypothesis\n"))

    def test_field_count_checked(self):
        text = "id\tsubset\tpremise\thypothesis\tlabel\thyp_kind\tpattern\na\tb\tc\n"
        with pytest.raises(DataFormatError, match="line 2"):
            read_pairs(io.StringIO(text))

    def test_label_must_follow_hyp_kind(self):
        text = ("id\tsubset\tpremise\thypothesis\tlabel\thyp_kind\tpattern\n"
                "a\twogli\tP.\tH.\tnon-entailed\th2_os\tsing_masc_v_sing_fem\n")
        with pytest.raises(DataFormatError, match="line 2: label 'non-entailed'.*'h2_os'"):
            read_pairs(io.StringIO(text))

    def test_bad_header_after_blank_lines_is_shown(self):
        with pytest.raises(DataFormatError, match=r"^bad header: .* found \['ids', 'premise'\]$"):
            read_pairs(io.StringIO("\n \nids\tpremise\n"))

    @pytest.mark.parametrize("field,value", [("id", 7), ("pattern_name", ["x"])])
    def test_non_string_field_rejected_on_write(self, field, value):
        rec = _rec("a", **{field: value})
        name = "pattern" if field == "pattern_name" else field
        message = f"record {rec.id!r}: field {name!r} must be a string, found {value!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            write_pairs([rec], io.StringIO(), fmt="tsv")

    @pytest.mark.parametrize("sep", ["\t", "\n"])
    def test_separator_characters_in_fields_rejected_on_write(self, sep):
        rec = _rec("a", premise=f"Der{sep}Arzt sieht den Kunden.")
        with pytest.raises(DataFormatError, match="tab or line break"):
            write_pairs([rec], io.StringIO(), fmt="tsv")


class TestCommon:
    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    def test_label_its_hyp_kind_contradicts_rejected_on_write(self, fmt):
        """read_pairs refuses such a row, so write_pairs refuses to write it."""
        stream = io.StringIO()
        with pytest.raises(DataFormatError, match=re.escape(
                "record 'b': label 'entailed' contradicts hyp_kind 'h1_so', which is 'non-entailed'")):
            write_pairs([_rec("a"), _rec("b", label=Label.ENTAILED)], stream, fmt=fmt)
        assert stream.getvalue() == ""

    def test_duplicate_ids_rejected_on_write(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            write_pairs([_rec("a"), _rec("a")], io.StringIO(), fmt="rows")

    def test_duplicate_ids_rejected_on_read(self):
        obj = {"id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
               "label": "entailed", "hyp_kind": "h2_os", "pattern": "sing_masc_v_sing_fem"}
        line = json.dumps(obj)
        with pytest.raises(DataFormatError, match="duplicate"):
            read_pairs(io.StringIO(line + "\n" + line + "\n"))

    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    @pytest.mark.parametrize("blank", ["\n", "\n \n", "\t\n\r\n"], ids=["one", "space", "tab-crlf"])
    def test_leading_blank_lines_count_toward_line_numbers(self, records, fmt, blank):
        buf = io.StringIO()
        write_pairs(records[:2], buf, fmt=fmt)
        text = blank + buf.getvalue()
        assert read_pairs(io.StringIO(text)) == read_pairs(io.StringIO(buf.getvalue()))
        bad = '{"id": "z"}' if fmt == "rows" else "z\tb\tc"
        lineno = len(io.StringIO(text).readlines()) + 1
        message = "missing field 'subset'" if fmt == "rows" else "expected 7 fields, found 3"
        with pytest.raises(DataFormatError, match=rf"^line {lineno}: {message}"):
            read_pairs(io.StringIO(text + bad + "\n"))

    def test_unknown_format_rejected(self, records):
        with pytest.raises(ValueError):
            write_pairs(records, io.StringIO(), fmt="csv")

    def test_auto_sniffing(self, records, tmp_path):
        rows = tmp_path / "a.jsonl"
        tsv = tmp_path / "b.tsv"
        write_pairs(records, rows, fmt="rows")
        write_pairs(records, tsv, fmt="tsv")
        assert read_pairs(rows)[0].metadata != {}
        assert read_pairs(tsv)[0].metadata == {}
        assert read_pairs(io.StringIO("")) == []


# str.splitlines breaks at these, a text-mode file does not; JSON escapes the
# form feed, so in rows it was never a break
_SEPARATORS = [("rows", "\u2028"), ("rows", "\x85"),
               ("tsv", "\u2028"), ("tsv", "\x85"), ("tsv", "\x0c")]


def _round_trip(records, fmt, via, tmp_path):
    if via == "path":
        write_pairs(records, tmp_path / "pairs", fmt=fmt)
        return read_pairs(tmp_path / "pairs")
    buf = io.StringIO()
    write_pairs(records, buf, fmt=fmt)
    return read_pairs(io.StringIO(buf.getvalue()))


class TestLineBreaks:
    @pytest.mark.parametrize("via", ["path", "stream"])
    @pytest.mark.parametrize("fmt,char", _SEPARATORS,
                             ids=["rows-u2028", "rows-u0085", "tsv-u2028", "tsv-u0085", "tsv-x0c"])
    def test_separator_in_a_premise_round_trips(self, fmt, char, via, tmp_path):
        records = [_rec("a", premise=f"Der Arzt{char}sieht den Kunden.", metadata={"k": "v"}),
                   _rec("b", metadata={"k": "v"})]
        want = records if fmt == "rows" else [replace(r, metadata={}) for r in records]
        assert _round_trip(records, fmt, via, tmp_path) == want

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_line_is_named(self, records, end, tmp_path):
        buf = io.StringIO()
        write_pairs(records[:2], buf, fmt="rows")
        path = tmp_path / "pairs"
        path.write_bytes(buf.getvalue().replace("\n", end).encode("utf-8") + b"{\"id\": \"\xe4\"}" + end.encode())
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: line 3: not valid UTF-8"):
            read_pairs(path)
        stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8", newline="")
        with pytest.raises(DataFormatError, match="not valid UTF-8"):
            read_pairs(stream)

    def test_undecodable_fifo_is_named(self, records, tmp_path):
        # a FIFO cannot be read again to find the line: it names the reason
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        buf = io.StringIO()
        write_pairs(records[:2], buf, fmt="rows")

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(buf.getvalue().encode() + b"\xe4\n")

        errors = []

        def read():
            try:
                read_pairs(fifo)
            except DataFormatError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=f, daemon=True) for f in (feed, read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [f"{fifo}: not valid UTF-8 (invalid continuation byte)"]

    @pytest.mark.parametrize("via", ["path", "stream"])
    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_end_lines(self, records, fmt, end, via, tmp_path):
        buf = io.StringIO()
        write_pairs(records, buf, fmt=fmt)
        text = buf.getvalue().replace("\n", end)
        if via == "path":
            (tmp_path / "pairs").write_bytes(text.encode("utf-8"))
            source = tmp_path / "pairs"
        else:
            source = io.StringIO(text, newline="")
        assert read_pairs(source) == read_pairs(io.StringIO(buf.getvalue()))


_FAILED_WRITES = {
    "rows-non-string-last": ("rows", _rec(7), TypeError),
    "tsv-tab-last": ("tsv", _rec("z", premise="Der\tArzt sieht den Kunden."), DataFormatError),
    "duplicate-id": ("rows", _rec("r0"), DataFormatError),
    "rows-lone-surrogate-last": ("rows", _rec("z", premise="Der Arzt\ud800 sieht den Kunden."),
                                 UnicodeEncodeError),
    "rows-metadata-null-last": ("rows", _rec("z", metadata=None), DataFormatError),
    "tsv-non-string-last": ("tsv", _rec(7), TypeError),
    "rows-contradicting-label-last": ("rows", _rec("z", label=Label.ENTAILED), DataFormatError),
    "tsv-contradicting-label-last": ("tsv", _rec("z", label=Label.ENTAILED), DataFormatError),
    "rows-list-field-last": ("rows", _rec("z", pattern_name=["x"]), TypeError),
    "rows-int-field-last": ("rows", _rec("z", premise=3), TypeError),
    "tsv-list-field-last": ("tsv", _rec("z", pattern_name=["x"]), TypeError),
    "tsv-int-field-last": ("tsv", _rec("z", premise=3), TypeError),
}


class TestAllOrNothingWrites:
    """Thousands of records, the last one faulty: nothing is written,
    whether the destination exists or not."""

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
    @pytest.mark.parametrize("fault", list(_FAILED_WRITES))
    def test_failed_write_leaves_destination_untouched(self, fault, exists, tmp_path):
        fmt, last, error = _FAILED_WRITES[fault]
        records = [_rec(f"r{i}") for i in range(5_000)] + [last]
        path = tmp_path / "pairs"
        if exists:
            path.write_bytes(b"earlier contents\n")
        listing = sorted(os.listdir(tmp_path))
        with pytest.raises(error):
            write_pairs(records, path, fmt=fmt)
        if exists:
            assert path.read_bytes() == b"earlier contents\n"
        else:
            assert not path.exists()
        assert sorted(os.listdir(tmp_path)) == listing  # no temporary file is left

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_raising_iterable_leaves_destination_untouched(self, error, exists, tmp_path):
        def records():  # thousands of lines are written before it raises
            for i in range(5_000):
                yield _rec(f"r{i}")
            raise error("interrupted")

        path = tmp_path / "pairs"
        if exists:
            path.write_bytes(b"earlier contents\n")
        listing = sorted(os.listdir(tmp_path))
        with pytest.raises(error):
            write_pairs(records(), path)
        if exists:
            assert path.read_bytes() == b"earlier contents\n"
        else:
            assert not path.exists()
        assert sorted(os.listdir(tmp_path)) == listing

    @staticmethod
    def _unencodable():
        """3,000 records, the 2,501st with a lone surrogate in its premise."""
        records = [_rec(f"r{i}") for i in range(3_000)]
        records[2_500] = _rec("r2500", premise="Der Arzt\ud800 sieht den Kunden.")
        return records

    def test_unencodable_row_sends_no_byte_to_a_stream(self):
        stream = io.StringIO()
        with pytest.raises(UnicodeEncodeError):
            write_pairs(self._unencodable(), stream)
        assert stream.getvalue() == ""

    def test_unencodable_row_sends_no_byte_to_a_fifo(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as handle:
                got.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        with pytest.raises(UnicodeEncodeError):
            write_pairs(self._unencodable(), fifo)
        for _ in range(1000):  # a FIFO the writer never opened is opened here, so the read ends
            with suppress(OSError):  # ENXIO: the reader has not opened its end yet
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=0.01)
            if not reader.is_alive():
                break
        assert got == [b""]


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


class TestPathDestinations:
    """A path is replaced by a new file; a FIFO is written as a stream."""

    def test_existing_file_keeps_its_permission_bits(self, records, tmp_path):
        path = tmp_path / "pairs"
        path.write_bytes(b"earlier contents\n")
        path.chmod(0o640)
        write_pairs(records, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert read_pairs(path) == records

    def test_new_file_gets_the_umask_bits(self, records, tmp_path):
        path = tmp_path / "pairs"
        write_pairs(records, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~_umask()

    def test_hard_link_keeps_the_old_bytes(self, records, tmp_path):
        path, link = tmp_path / "pairs", tmp_path / "link"
        path.write_bytes(b"earlier contents\n")
        os.link(path, link)
        write_pairs(records, path)
        assert link.read_bytes() == b"earlier contents\n"
        assert read_pairs(path) == records

    def test_symlink_keeps_the_link_and_replaces_its_target(self, records, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"earlier contents\n")
        link.symlink_to(target)
        size = write_pairs(records, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.stat().st_size == size
        assert read_pairs(target) == records
        assert sorted(os.listdir(tmp_path)) == ["link", "target"]

    def test_missing_directory_is_named_in_the_error(self, records, tmp_path):
        path = tmp_path / "nowhere" / "pairs"
        with pytest.raises(FileNotFoundError) as caught:
            write_pairs(records, path)
        assert caught.value.filename == str(path)

    def test_fifo_receives_the_exact_bytes(self, records, tmp_path):
        want = io.StringIO()
        write_pairs(records, want)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as handle:
                got.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        size = write_pairs(records, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive(), "the FIFO was never opened for writing"
        assert got == [want.getvalue().encode("utf-8")] and size == len(got[0])
        assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestByteOrderMark:
    """A pair or prediction file that starts with U+FEFF is refused as such,
    naming the file and line 1, not read as a bad header or a first row."""

    @pytest.mark.parametrize("kind", ["rows", "tsv", "predictions"])
    @pytest.mark.parametrize("via", ["path", "file", "stream"])
    def test_refused_at_line_1(self, kind, via, records, tmp_path):
        path = tmp_path / "bom.txt"
        if kind == "predictions":
            path.write_text(_pred_text([(r.id, 0, r.label.value) for r in records]), encoding="utf-8")
        else:
            write_pairs(records, path, fmt=kind)
        text = "\ufeff" + path.read_text(encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        read = (lambda src: read_predictions(src, 1)) if kind == "predictions" else read_pairs
        with (open(path, encoding="utf-8") if via == "file" else nullcontext(
                path if via == "path" else io.StringIO(text))) as source:
            with pytest.raises(DataFormatError) as info:
                read(source)
        name = "<stream>" if via == "stream" else path
        assert str(info.value) == f"{name}: line 1: starts with a byte-order mark (U+FEFF)"
        assert read(io.StringIO(text[1:])), "the same text without the mark reads"

    def test_a_mark_after_line_1_is_text(self):
        text = "id\trun\tlabel\n\ufeffa\t0\tentailed\n"
        assert read_predictions(io.StringIO(text), 1).labels == {"\ufeffa": (Label.ENTAILED,)}


def _pred_text(rows):
    return "id\trun\tlabel\n" + "".join(f"{i}\t{r}\t{l}\n" for i, r, l in rows)


class TestPredictions:
    def test_equal_labels_share_one_tuple(self):
        # bit r of i says whether run r is entailed, in one of two spellings
        names = ("entailment", "neutral", "entailed", "contradiction")
        rows = [(f"r{i}", run, names[(i >> run) % 2 + 2 * (i % 3 == 0)])
                for i in range(300) for run in range(3)]
        preds = read_predictions(io.StringIO(_pred_text(rows)), runs=3)
        tuples = list(preds.labels.values())
        assert len(tuples) == 300
        assert len({*map(id, tuples)}) == len({*tuples}) == 2**3

    def test_basic_read(self):
        preds = read_predictions(io.StringIO(_pred_text([
            ("a", 0, "entailed"), ("a", 1, "non-entailed"),
            ("b", 0, "entailed"), ("b", 1, "entailed"),
        ])), runs=2)
        assert preds.runs == 2
        assert set(preds.labels) == {"a", "b"}
        assert preds.labels["a"] == (Label.ENTAILED, Label.NOT_ENTAILED)

    def test_three_way_labels_collapse(self):
        preds = read_predictions(io.StringIO(_pred_text([
            ("a", 0, "entailment"), ("b", 0, "neutral"), ("c", 0, "contradiction"),
        ])), runs=1)
        assert preds.labels["a"] == (Label.ENTAILED,)
        assert preds.labels["b"] == (Label.NOT_ENTAILED,)
        assert preds.labels["c"] == (Label.NOT_ENTAILED,)

    def test_rows_may_arrive_in_any_order(self):
        preds = read_predictions(io.StringIO(_pred_text([
            ("a", 1, "entailed"), ("b", 0, "entailed"),
            ("a", 0, "non-entailed"), ("b", 1, "neutral"),
        ])), runs=2)
        assert preds.labels["a"] == (Label.NOT_ENTAILED, Label.ENTAILED)

    def test_missing_header_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            read_predictions(io.StringIO("a\t0\tentailed\n"), runs=1)

    def test_duplicate_run_rejected(self):
        text = _pred_text([("a", 0, "entailed"), ("a", 0, "entailed")])
        with pytest.raises(DataFormatError, match="duplicate"):
            read_predictions(io.StringIO(text), runs=1)

    def test_run_out_of_range_rejected(self):
        text = _pred_text([("a", 0, "entailed"), ("a", 2, "entailed")])
        with pytest.raises(DataFormatError, match="run index 2"):
            read_predictions(io.StringIO(text), runs=2)

    def test_non_integer_run_rejected(self):
        with pytest.raises(DataFormatError, match="not an integer"):
            read_predictions(io.StringIO("id\trun\tlabel\na\tx\tentailed\n"), runs=1)

    def test_unknown_label_rejected(self):
        with pytest.raises(DataFormatError, match="maybe"):
            read_predictions(io.StringIO(_pred_text([("a", 0, "maybe")])), runs=1)

    def test_run_hole_is_a_join_error(self):
        text = _pred_text([("a", 0, "entailed"), ("a", 1, "entailed"), ("b", 0, "entailed")])
        with pytest.raises(PredictionJoinError, match="'b'"):
            read_predictions(io.StringIO(text), runs=2)

    def test_extra_ids_survive_reading(self, records, toy_lex):
        # ids unknown to a gold file are a join-time problem, not a read error
        preds = read_predictions(io.StringIO(_pred_text([
            ("not-a-gold-id", 0, "entailed"),
        ])), runs=1)
        assert set(preds.labels) == {"not-a-gold-id"}

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            read_predictions(io.StringIO("id\trun\tlabel\n"), runs=0)


    def test_unicode_separator_in_an_id(self):
        preds = read_predictions(io.StringIO(_pred_text([("a\u2028b\x85c", 0, "entailed")])), runs=1)
        assert preds.labels == {"a\u2028b\x85c": (Label.ENTAILED,)}


def _reference_predictions(text, runs):
    """read_predictions as it was before it built each id's labels in one
    pass: a {run: label} dict per id, every label stripped. (Its
    str.splitlines is not under test: the files below break only at LF.)"""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split("\t")) != ("id", "run", "label"):
        raise DataFormatError("prediction file must start with an id/run/label header")
    table = {}
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
            raise DataFormatError(f"line {lineno}: run index {run} outside 0..{runs - 1}")
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
            raise PredictionJoinError(f"id {rid!r} has no prediction for run {missing[0]}")
    return PredictionSet(
        runs=runs,
        labels={rid: tuple(per_run[i] for i in range(runs)) for rid, per_run in table.items()},
    )


@pytest.mark.parametrize("runs", [1, 3, 10])
def test_prediction_bits_equal_the_reference_reader(runs):
    """Each id's runs are read into one int of seen and entailed bits: its
    labels, their sharing and every error are the reference reader's."""
    rng = random.Random(runs)
    ids = [f"wogli-p00-d{i:05d}-h{1 + i % 2}" for i in range(60)]
    lines = [f"{rid}\t{run}\t{rng.choice(list(_PREDICTION_LABELS))}" for rid in ids for run in range(runs)]
    rng.shuffle(lines)

    def text(lines):
        return "id\trun\tlabel\n" + "".join(line + "\n" for line in lines)

    want = _reference_predictions(text(lines), runs)
    got = read_predictions(io.StringIO(text(lines)), runs)
    assert got == want and list(got.labels) == list(want.labels)
    # equal labels are one tuple, so there are at most 2**runs of them
    assert len({*map(id, got.labels.values())}) == len({*got.labels.values()}) <= 2 ** runs
    last = ids[-1]
    faults = [
        [*lines[:40], lines[7], *lines[40:]],  # a repeated prediction
        [*lines[:9], *lines[10:]],  # a missing one
        # the lowest of several missing runs is named
        [line for line in lines if not line.startswith(f"{last}\t") or line.startswith(f"{last}\t{runs - 1}\t")],
        [*lines, f"{ids[3]}\t{runs}\tentailed"],
        [*lines[:5], f"{ids[3]}\t0\tmaybe", *lines[5:]],
    ]
    errors = 0
    for faulty in faults:  # with one run, a dropped line drops its id, which is no fault
        try:
            want = _reference_predictions(text(faulty), runs)
        except (DataFormatError, PredictionJoinError) as exc:
            errors += 1
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                read_predictions(io.StringIO(text(faulty)), runs)
        else:
            assert read_predictions(io.StringIO(text(faulty)), runs) == want
    assert errors == (3 if runs == 1 else 5)


_PLANTED = ["", "a\t0", "a\t0\tentailed\tx", "a\tx\tentailed", "b\t-1\tneutral",
            "b\t 1\tneutral", "c\t01\tneutral", "c\t+0\tentailed", "c\t1_0\tentailed",
            "a\t0\tmaybe", "b\t0\t neutral ", "c\t0\tEntailed", "a\t0\t"]


@st.composite
def _prediction_files(draw):
    """A complete prediction table in random order, then a few planted faults."""
    runs = draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "wogli-p00-d00001-h1", "ä"]),
                        min_size=1, max_size=4, unique=True))
    labels = st.sampled_from(list(_PREDICTION_LABELS))
    lines = [f"{rid}\t{run}\t{draw(labels)}" for rid in ids for run in range(runs)]
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        fault = draw(st.sampled_from(["plant", "drop", "repeat", "out-of-range", "last-run-only",
                                      "padded-label"]))
        if fault == "padded-label" and at < len(lines):
            lines[at] += draw(st.sampled_from([" ", "  ", "\u00a0"]))
        elif fault == "last-run-only":  # the error names the first of several missing runs
            rid = draw(st.sampled_from(ids))
            lines = [x for x in lines if not x.startswith(f"{rid}\t") or x.startswith(f"{rid}\t{runs - 1}\t")]
        elif fault == "plant":
            lines.insert(at, draw(st.sampled_from(_PLANTED)))
        elif fault == "drop" and at < len(lines):
            del lines[at]
        elif fault == "repeat" and at < len(lines):
            lines.insert(at, lines[at])
        elif fault == "out-of-range":
            lines.insert(at, f"{draw(st.sampled_from(ids))}\t{runs}\tentailed")
    header = draw(st.sampled_from(["id\trun\tlabel"] * 6 + ["id\trun", "", "run\tid\tlabel"]))
    return runs, "".join(line + "\n" for line in [header, *lines])


@settings(max_examples=300, deadline=None)
@given(case=_prediction_files())
def test_predictions_equal_the_reference_reader(case):
    runs, text = case
    try:
        want = _reference_predictions(text, runs)
    except (DataFormatError, PredictionJoinError) as exc:
        with pytest.raises(type(exc)) as got:
            read_predictions(io.StringIO(text), runs)
        assert str(got.value) == str(exc)
        return
    got = read_predictions(io.StringIO(text), runs)
    assert got == want
    assert list(got.labels) == list(want.labels)
