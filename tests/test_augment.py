"""Stratified augmentation subsets, constraint repair, and training merges."""

import io
from collections import Counter
from dataclasses import replace

import pytest

from wogli import (
    AugmentationPlan,
    ConstraintError,
    DataFormatError,
    GenerationSet,
    HypKind,
    Label,
    PairRecord,
    generate_set,
    merge_training,
    plan_102,
    plan_1037,
    read_pairs,
    sample_augmentation,
    wogli_patterns,
    write_pairs,
    write_training_rows,
)
from wogli import augment
from wogli.augment import _group, _split_file


@pytest.fixture(scope="module")
def base(toy_lex_module):
    return generate_set(GenerationSet.WOGLI, toy_lex_module, seed=11, per_pattern=3)


def _premise_ids(records):
    out = []
    for r in records:
        pid = r.metadata["premise_id"]
        if pid not in out:
            out.append(pid)
    return out


def _verb_counts(records):
    counts = Counter()
    for pid in _premise_ids(records):
        verb = next(r.metadata["verb_lemma"] for r in records
                    if r.metadata["premise_id"] == pid)
        counts[verb] += 1
    return counts


def _noun_forms(records):
    """Subject and object head forms of premise and swap hypothesis."""
    forms = set()
    for r in records:
        subj_w = 1 if r.metadata["subject_kind"] in ("proper", "pronoun") else 2
        obj_w = 1 if r.metadata["object_kind"] in ("proper", "pronoun") else 2
        prem = r.premise.rstrip(" .").split()
        forms.add(prem[subj_w - 1])
        forms.add(prem[-1])
        if r.hyp_kind in (HypKind.H1_SO, HypKind.H1_SIO, HypKind.H3_OS):
            hyp = r.hypothesis.rstrip(" .").split()
            forms.add(hyp[(subj_w if r.hyp_kind is HypKind.H3_OS else obj_w) - 1])
            forms.add(hyp[-1])
    return forms


WIDE = dict(verb_min=0, verb_max=10_000, require_all_noun_forms=False)


def _groups(records):
    """Each premise group augmentation makes of records, with its records."""
    groups, members, share = {}, {}, {}.setdefault
    for record in records:
        members.setdefault(_group(record, groups, share), []).append(record)
    return members.items()


class TestPlans:
    def test_preset_parameters(self):
        assert plan_1037(3) == AugmentationPlan(61, 18, 25, True, 3)
        assert plan_102(3) == AugmentationPlan(6, 1, 4, False, 3)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            AugmentationPlan(-1, 0, 1, False, 0)
        with pytest.raises(ValueError):
            AugmentationPlan(1, 5, 4, False, 0)
        with pytest.raises(ValueError):
            AugmentationPlan(1, -1, 4, False, 0)

    def test_zero_premises_is_a_no_op_split(self, base):
        aug, rest = sample_augmentation(base, AugmentationPlan(0, 0, 0, False, seed=1))
        assert aug == []
        assert rest == base


class TestSampling:
    def test_stratified_counts(self, base):
        plan = AugmentationPlan(premises_per_pattern=2, seed=5, **WIDE)
        aug, rest = sample_augmentation(base, plan)
        per_pattern = Counter()
        for pid in _premise_ids(aug):
            rec = next(r for r in aug if r.metadata["premise_id"] == pid)
            per_pattern[rec.pattern_name] += 1
        assert set(per_pattern.values()) == {2}
        assert len(per_pattern) == 17
        assert len(aug) == 17 * 2 * 2

    def test_split_is_a_partition_in_input_order(self, base):
        plan = AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE)
        aug, rest = sample_augmentation(base, plan)
        aug_ids = [r.id for r in aug]
        rest_ids = [r.id for r in rest]
        assert set(aug_ids).isdisjoint(rest_ids)
        assert sorted(aug_ids + rest_ids) == sorted(r.id for r in base)
        # both halves keep the input's record order
        assert aug_ids == [r.id for r in base if r.id in set(aug_ids)]
        assert rest_ids == [r.id for r in base if r.id in set(rest_ids)]

    def test_interleaved_premises_keep_input_order(self, base):
        # every premise's second row comes after all first rows
        records = base[0::2] + base[1::2]
        aug, rest = sample_augmentation(records, AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE))
        for side in (aug, rest):
            ids = {r.id for r in side}
            assert [r.id for r in side] == [r.id for r in records if r.id in ids]
        assert len(aug) == 17 * 2

    def test_premises_travel_whole(self, base):
        plan = AugmentationPlan(premises_per_pattern=2, seed=5, **WIDE)
        aug, rest = sample_augmentation(base, plan)
        for side in (aug, rest):
            per_premise = Counter(r.metadata["premise_id"] for r in side)
            assert set(per_premise.values()) == {2}

    def test_selection_is_seeded(self, base):
        plan = AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE)
        a1, _ = sample_augmentation(base, plan)
        a2, _ = sample_augmentation(base, plan)
        assert a1 == a2
        b, _ = sample_augmentation(base, AugmentationPlan(premises_per_pattern=1, seed=6, **WIDE))
        assert [r.id for r in a1] != [r.id for r in b]

    def test_pattern_short_of_premises(self, base):
        plan = AugmentationPlan(premises_per_pattern=4, seed=5, **WIDE)
        with pytest.raises(ConstraintError, match="input holds 3"):
            sample_augmentation(base, plan)

    def test_metadata_required(self, base):
        buf = io.StringIO()
        write_pairs(base, buf, fmt="tsv")
        bare = read_pairs(io.StringIO(buf.getvalue()))
        with pytest.raises(DataFormatError, match="metadata"):
            sample_augmentation(bare, AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE))

    def test_non_canonical_pattern_rejected(self, base):
        bad = list(base)
        bad[3] = replace(bad[3], pattern_name="foo_v_bar")
        with pytest.raises(DataFormatError, match=f"record {bad[3].id}: .*foo_v_bar"):
            sample_augmentation(bad, AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE))


class TestVerbBalance:
    def test_counts_repaired_into_band(self, base):
        plan = AugmentationPlan(premises_per_pattern=1, verb_min=8, verb_max=9,
                                require_all_noun_forms=False, seed=0)
        aug, _ = sample_augmentation(base, plan)
        counts = _verb_counts(aug)
        assert sum(counts.values()) == 17
        assert all(8 <= c <= 9 for c in counts.values()), counts

    def test_every_input_verb_is_counted(self, base):
        # a verb drawn zero times still violates a positive verb_min
        only_sehen = [r for r in base if r.metadata["verb_lemma"] == "sehen"]
        plan = AugmentationPlan(premises_per_pattern=1, verb_min=1, verb_max=100,
                                require_all_noun_forms=False, seed=0)
        aug, _ = sample_augmentation(only_sehen, plan)
        assert set(_verb_counts(aug)) == {"sehen"}

    def test_infeasible_band_is_reported(self, base):
        # 17 selections over two verbs can never give both a count of 10
        plan = AugmentationPlan(premises_per_pattern=1, verb_min=10, verb_max=10,
                                require_all_noun_forms=False, seed=0)
        with pytest.raises(ConstraintError, match="verb balance"):
            sample_augmentation(base, plan)

    def test_budget_is_enforced(self, base, monkeypatch):
        monkeypatch.setattr("wogli.augment._SWAP_BUDGET", 0)
        plan = AugmentationPlan(premises_per_pattern=1, verb_min=8, verb_max=9,
                                require_all_noun_forms=False, seed=0)
        with pytest.raises(ConstraintError, match="budget exhausted"):
            sample_augmentation(base, plan)


def _coverage_record(draw, verb, subj, obj):
    """The swap row of draw of sing_masc_v_sing_masc, whose id and
    premise_id name that pattern's index and the draw, as generate's do."""
    pattern = [p.name for p in wogli_patterns()].index("sing_masc_v_sing_masc")
    stem = f"wogli-p{pattern:02d}-d{draw:05d}"
    return PairRecord(
        id=f"{stem}-h1",
        subset="wogli",
        premise=f"Der {subj} {verb}t den {obj}.",
        hypothesis=f"Der {obj} {verb}t den {subj}.",
        label=Label.NOT_ENTAILED,
        hyp_kind=HypKind.H1_SO,
        pattern_name="sing_masc_v_sing_masc",
        metadata={
            "premise_id": f"{stem}-premise",
            "verb_lemma": verb,
            "subject_kind": "common",
            "object_kind": "common",
        },
    )


class TestNounFormCoverage:
    def test_aug_covers_every_input_form(self, base):
        plan = AugmentationPlan(premises_per_pattern=2, verb_min=0, verb_max=10_000,
                                require_all_noun_forms=True, seed=3)
        aug, _ = sample_augmentation(base, plan)
        assert _noun_forms(aug) == _noun_forms(base)

    def test_coverage_can_be_off(self, base):
        plan = AugmentationPlan(premises_per_pattern=1, seed=12, **WIDE)
        aug, _ = sample_augmentation(base, plan)
        # nothing to assert about forms; the call simply must not repair
        assert len(_premise_ids(aug)) == 17

    def test_os_hard_groups_read_the_same_forms_as_wogli(self, lex):
        # H3 puts the premise subject first, unlike H1; both carry the same
        # four head forms, so a premise's group must not depend on the set
        def forms_by_premise(name):
            records = generate_set(name, lex, seed=0, per_pattern=50)
            return {rows[0].premise: g.forms for g, rows in _groups(records)}

        os_hard = forms_by_premise(GenerationSet.OS_HARD)
        wogli = forms_by_premise(GenerationSet.WOGLI)
        assert len(os_hard) == 850
        assert os_hard == {premise: wogli[premise] for premise in os_hard}

    def test_impossible_coverage_is_reported(self):
        # the verb band pins one "b" premise plus one "a" premise, so the
        # third group's forms can never all be present
        records = [
            _coverage_record(1, "seh", "Maler", "Boten"),
            _coverage_record(2, "seh", "Bauern", "Wirt"),
            _coverage_record(3, "hoer", "Grafen", "Vogt"),
        ]
        plan = AugmentationPlan(premises_per_pattern=2, verb_min=1, verb_max=1,
                                require_all_noun_forms=True, seed=0)
        with pytest.raises(ConstraintError, match="no swap can bring noun form"):
            sample_augmentation(records, plan)


class TestRowFaults:
    """A row whose metadata or text augmentation cannot read is a format
    error naming the row and the field, before any repair runs."""

    KINDS = "must be one of proper, pronoun, common"
    DROP = object()  # the key is deleted

    @pytest.mark.parametrize("metadata, texts, complaint", [
        ({"object_kind": DROP}, {}, f"object_kind {KINDS}, found None"),
        ({"subject_kind": "article"}, {}, f"subject_kind {KINDS}, found 'article'"),
        ({"subject_kind": ["common"]}, {}, f"subject_kind {KINDS}, found \\['common'\\]"),
        ({"premise_id": 1}, {}, "a string premise_id in its metadata"),
        ({"premise_id": ["g1"]}, {}, "a string premise_id in its metadata"),
        ({"verb_lemma": None}, {}, "a string verb_lemma in its metadata"),
        ({"premise_id": DROP}, {}, "a string premise_id in its metadata"),
        ({}, {"premise": "Der Maler."}, "'Der Maler.' is too short for its metadata"),
        ({}, {"hypothesis": ""}, "'' is too short for its metadata"),
    ], ids=["kind-missing", "kind-unknown", "kind-list", "premise-id-int", "premise-id-list",
            "verb-null", "premise-id-missing", "short-premise", "empty-hypothesis"])
    def test_format_error_names_the_row(self, metadata, texts, complaint):
        good = _coverage_record(1, "seh", "Maler", "Boten")
        meta = {k: v for k, v in {**good.metadata, **metadata}.items() if v is not self.DROP}
        bad = replace(good, metadata=meta, **texts)
        records = [bad, _coverage_record(2, "hoer", "Bauern", "Wirt")]
        plan = AugmentationPlan(premises_per_pattern=1, verb_min=5, verb_max=5,
                                require_all_noun_forms=True, seed=0)
        with pytest.raises(DataFormatError, match=f"^record {good.id}: .*{complaint}"):
            sample_augmentation(records, plan)

    def test_first_faulty_row_is_the_error(self):
        # the first row's head forms cannot be read, the second row has no
        # premise_id: rows are checked in file order, heads included
        good = _coverage_record(1, "seh", "Maler", "Boten")
        early = replace(good, metadata={**good.metadata, "subject_kind": "article"})
        late = _coverage_record(2, "hoer", "Bauern", "Wirt")
        late = replace(late, metadata={k: v for k, v in late.metadata.items() if k != "premise_id"})
        plan = AugmentationPlan(premises_per_pattern=1, verb_min=0, verb_max=5,
                                require_all_noun_forms=False, seed=0)
        with pytest.raises(DataFormatError, match=f"^record {early.id}: subject_kind"):
            sample_augmentation([early, late], plan)

    def test_spaced_period_reads_the_same_heads(self, toy_lex_module):
        def groups(spaced):
            records = generate_set(GenerationSet.WOGLI, toy_lex_module, seed=2, per_pattern=3,
                                   spaced_period=spaced)
            return [(g.pattern, g.verb, g.forms, [r.id for r in rows])
                    for g, rows in _groups(records)]

        spaced = groups(True)
        assert spaced == groups(False)
        assert all(len(forms) > 1 for _, _, forms, _ in spaced)


class TestGroupShapes:
    """A premise group holds its distinct head forms as a sorted tuple, and
    the groups of one split hold one object per distinct form, pattern,
    verb and tuple of id suffixes, both in the library and in the command."""

    def test_groups_hold_sorted_tuples_of_shared_strings(self, base, tmp_path, monkeypatch):
        made = []
        select = augment._select
        monkeypatch.setattr(augment, "_select", lambda groups, plan: select(made.append(groups) or groups, plan))
        plan = AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE)
        sample_augmentation(base, plan)
        write_pairs(base, tmp_path / "base.jsonl")
        _split_file(tmp_path / "base.jsonl", plan, tmp_path / "aug.jsonl", tmp_path / "rest.jsonl", "rows")
        library, command = made
        assert [(g.pattern, g.verb, g.forms) for g in library] == [(g.pattern, g.verb, g.forms) for g in command]
        for groups in made:
            assert all(type(g.forms) is tuple and list(g.forms) == sorted({*g.forms}) for g in groups)
            assert any(len(g.forms) > 2 for g in groups)  # a swap row added its forms
            # each group's id suffixes are one tuple per distinct run of them
            assert {g.suffixes for g in groups} == {("h1", "h2")}
            for strings in ([f for g in groups for f in g.forms], [g.pattern for g in groups],
                            [g.verb for g in groups], [g.suffixes for g in groups],
                            [x for g in groups for x in g.suffixes]):
                assert len({*map(id, strings)}) == len({*strings})


class TestSplitFile:
    """The command's split of a text stream, whose lines the first pass keeps."""

    def test_a_stream_gives_the_lists_bytes(self, base, tmp_path):
        plan = AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE)
        buf = io.StringIO()
        write_pairs(base, buf)
        out_aug, out_rest = tmp_path / "aug.jsonl", tmp_path / "rest.jsonl"
        counts = _split_file(io.StringIO(buf.getvalue()), plan, out_aug, out_rest, "rows")
        aug, rest = sample_augmentation(base, plan)
        assert counts == ((len(aug), write_pairs(aug, io.StringIO())),
                          (len(rest), write_pairs(rest, io.StringIO())))
        assert read_pairs(out_aug) == aug and read_pairs(out_rest) == rest

    def test_a_lone_surrogate_in_a_stream_writes_nothing(self, base, tmp_path):
        # a canonical line is copied, never encoded, so the reader refuses it
        buf = io.StringIO()
        write_pairs(base, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[3] = lines[3].replace('"premise": "', '"premise": "\ud800', 1)
        out_aug, out_rest = tmp_path / "aug.jsonl", tmp_path / "rest.jsonl"
        plan = AugmentationPlan(premises_per_pattern=1, seed=5, **WIDE)
        with pytest.raises(DataFormatError, match=r"^<stream>: line 4: holds a lone surrogate \(U\+D800\)"):
            _split_file(io.StringIO("".join(lines)), plan, out_aug, out_rest, "rows")
        assert not out_aug.exists() and not out_rest.exists()


BASE_TSV = (
    "Ein Satz eins.\tNoch ein Satz.\tentailment\n"
    "Ein Satz zwei.\tNoch ein Satz.\tneutral\n"
    "Ein Satz drei.\tNoch ein Satz.\tcontradiction\n"
)


class TestMergeTraining:
    def test_union_and_label_mapping(self, base):
        rows = merge_training(io.StringIO(BASE_TSV), base[:4], ne_label="neutral", seed=1)
        assert len(rows) == 3 + 4
        expected = [tuple(line.split("\t")) for line in BASE_TSV.splitlines()]
        for r in base[:4]:
            label = "entailment" if r.label is Label.ENTAILED else "neutral"
            expected.append((r.premise, r.hypothesis, label))
        assert Counter(rows) == Counter(expected)

    def test_contradiction_mapping(self, base):
        rows = merge_training(io.StringIO(""), base[:2], ne_label="contradiction", seed=1)
        labels = {row[2] for row in rows}
        assert labels == {"entailment", "contradiction"}

    def test_unknown_ne_label_rejected(self, base):
        with pytest.raises(ValueError):
            merge_training(io.StringIO(""), base[:2], ne_label="entailment")

    def test_shuffle_is_seeded(self, base):
        a = merge_training(io.StringIO(BASE_TSV), base[:6], seed=4)
        b = merge_training(io.StringIO(BASE_TSV), base[:6], seed=4)
        c = merge_training(io.StringIO(BASE_TSV), base[:6], seed=5)
        assert a == b
        assert a != c
        assert Counter(a) == Counter(c)

    def test_blank_base_lines_skipped(self, base):
        rows = merge_training(io.StringIO("\n" + BASE_TSV + "\n"), [], seed=0)
        assert len(rows) == 3

    def test_unicode_separators_stay_inside_a_row(self):
        base = "Ein\u2028Satz.\tNoch\x85ein Satz.\tneutral\nEin\x0cSatz.\tNoch einer.\tentailment\n"
        rows = merge_training(io.StringIO(base), [], seed=0)
        assert sorted(rows) == [("Ein\x0cSatz.", "Noch einer.", "entailment"),
                                ("Ein\u2028Satz.", "Noch\x85ein Satz.", "neutral")]

    @pytest.mark.parametrize("bad,complaint", [
        ("nur zwei\tfelder\n", "base line 1"),
        ("a\tb\tentailment\nx\t\tneutral\n", "base line 2"),
        ("a\tb\tmaybe\n", "unknown training label"),
    ])
    def test_malformed_base_rows_reported(self, bad, complaint):
        with pytest.raises(DataFormatError, match=complaint):
            merge_training(io.StringIO(bad), [])

    @pytest.mark.parametrize("where", [0, 1])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    def test_write_training_rows_refuses_a_break(self, where, char, tmp_path):
        row = ["Ein Satz.", "Noch ein Satz.", "entailment"]
        row[where] = row[where].replace(" ", char, 1)
        path = tmp_path / "train.tsv"
        path.write_text("old\n", encoding="utf-8")
        rows = [("Erst.", "Dann.", "neutral"), tuple(row)]
        with pytest.raises(DataFormatError, match="field contains a tab or line break"):
            write_training_rows(rows, path)
        assert path.read_text(encoding="utf-8") == "old\n"

    def test_write_training_rows(self, base, tmp_path):
        rows = merge_training(io.StringIO(BASE_TSV), base[:2], seed=0)
        path = tmp_path / "train.tsv"
        n = write_training_rows(rows, path)
        assert n == path.stat().st_size
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [tuple(line.split("\t")) for line in lines] == rows
