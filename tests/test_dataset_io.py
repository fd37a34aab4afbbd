"""Pair and prediction file round-trips, format sniffing, and error reporting."""

import io
import json
import re

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
    generate_set,
    read_pairs,
    read_predictions,
    write_pairs,
)

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


def _reference_line(r):
    return json.dumps({
        "id": r.id, "subset": r.subset, "premise": r.premise, "hypothesis": r.hypothesis,
        "label": r.label.value, "hyp_kind": r.hyp_kind.value, "pattern": r.pattern_name,
        "metadata": r.metadata,
    }, ensure_ascii=False) + "\n"


class TestMetadataRuns:
    """Records of one premise share one encoding of their metadata; a record
    whose metadata differs in any way must still be written as its own."""

    @pytest.mark.parametrize("first,second", [
        ({"subject_lemma": "Arzt", "verb_lemma": "sehen"},
         {"subject_lemma": "Arzt", "verb_lemma": "hören"}),
        ({"a": "1", "b": "2"}, {"b": "2", "a": "1"}),
        ({"n": 1}, {"n": True}),
        ({"n": 1}, {"n": 1.0}),
        ({"n": ["x"]}, {"n": ["y"]}),
    ], ids=["one-value", "key-order", "int-bool", "int-float", "nested"])
    def test_adjacent_records_keep_their_own_metadata(self, first, second):
        records = [_rec("a-h1", metadata=first), _rec("a-h2", metadata=second)]
        buf = io.StringIO()
        write_pairs(records, buf, fmt="rows")
        assert buf.getvalue() == "".join(_reference_line(r) for r in records)

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
            read_pairs(io.StringIO("id\tpremise\thypothesis\n"), fmt="tsv")

    def test_field_count_checked(self):
        text = "id\tsubset\tpremise\thypothesis\tlabel\thyp_kind\tpattern\na\tb\tc\n"
        with pytest.raises(DataFormatError, match="line 2"):
            read_pairs(io.StringIO(text), fmt="tsv")

    def test_label_must_follow_hyp_kind(self):
        text = ("id\tsubset\tpremise\thypothesis\tlabel\thyp_kind\tpattern\n"
                "a\twogli\tP.\tH.\tnon-entailed\th2_os\tsing_masc_v_sing_fem\n")
        with pytest.raises(DataFormatError, match="line 2: label 'non-entailed'.*'h2_os'"):
            read_pairs(io.StringIO(text), fmt="tsv")

    @pytest.mark.parametrize("sep", ["\t", "\n"])
    def test_separator_characters_in_fields_rejected_on_write(self, sep):
        rec = _rec("a", premise=f"Der{sep}Arzt sieht den Kunden.")
        with pytest.raises(DataFormatError, match="tab or line break"):
            write_pairs([rec], io.StringIO(), fmt="tsv")


class TestCommon:
    def test_duplicate_ids_rejected_on_write(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            write_pairs([_rec("a"), _rec("a")], io.StringIO(), fmt="rows")

    def test_duplicate_ids_rejected_on_read(self):
        obj = {"id": "a", "subset": "wogli", "premise": "P.", "hypothesis": "H.",
               "label": "entailed", "hyp_kind": "h2_os", "pattern": "sing_masc_v_sing_fem"}
        line = json.dumps(obj)
        with pytest.raises(DataFormatError, match="duplicate"):
            read_pairs(io.StringIO(line + "\n" + line + "\n"))

    def test_unknown_format_rejected(self, records):
        with pytest.raises(ValueError):
            write_pairs(records, io.StringIO(), fmt="csv")
        with pytest.raises(ValueError):
            read_pairs(io.StringIO(""), fmt="csv")

    def test_auto_sniffing(self, records, tmp_path):
        rows = tmp_path / "a.jsonl"
        tsv = tmp_path / "b.tsv"
        write_pairs(records, rows, fmt="rows")
        write_pairs(records, tsv, fmt="tsv")
        assert read_pairs(rows, fmt="auto")[0].metadata != {}
        assert read_pairs(tsv, fmt="auto")[0].metadata == {}
        assert read_pairs(io.StringIO(""), fmt="auto") == []


def _pred_text(rows):
    return "id\trun\tlabel\n" + "".join(f"{i}\t{r}\t{l}\n" for i, r, l in rows)


class TestPredictions:
    def test_basic_read(self):
        preds = read_predictions(io.StringIO(_pred_text([
            ("a", 0, "entailed"), ("a", 1, "non-entailed"),
            ("b", 0, "entailed"), ("b", 1, "entailed"),
        ])), runs=2)
        assert preds.runs == 2
        assert set(preds.ids()) == {"a", "b"}
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
        assert set(preds.ids()) == {"not-a-gold-id"}

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            read_predictions(io.StringIO("id\trun\tlabel\n"), runs=0)
