"""Group definitions, accuracy aggregation, voting, and the z-test.

The statistical functions are checked against hand-computed numbers and an
independent high-precision reference, not against their own formulas.
"""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogli import (
    ConstraintError,
    DataFormatError,
    GenerationSet,
    GroupSpec,
    HypKind,
    Label,
    PairRecord,
    PredictionJoinError,
    PredictionSet,
    WogliError,
    build_report,
    definiteness_groups,
    gender_groups,
    generate_set,
    number_groups,
    two_proportion_ztest,
)

from conftest import make_toy
from oracles import accuracy, majority_vote, select

E = Label.ENTAILED
NE = Label.NOT_ENTAILED


def _rec(rid, hyp_kind=HypKind.H1_SO, label=NE, pattern="sing_masc_v_sing_fem",
         subj_def="definite", obj_def="definite", **meta):
    base_meta = {
        "premise_id": meta.pop("premise_id", f"{rid}-premise"),
        "verb_lemma": "sehen",
        "subject_kind": "common", "subject_gender": "masc",
        "subject_number": "sg", "subject_article": "def",
        "subject_definiteness": subj_def,
        "object_kind": "common", "object_gender": "fem",
        "object_number": "sg", "object_article": "def",
        "object_definiteness": obj_def,
    }
    base_meta.update(meta)
    return PairRecord(
        id=rid, subset="wogli",
        premise="Der Arzt sieht die Autorin.",
        hypothesis="Die Autorin sieht den Arzt.",
        label=label, hyp_kind=hyp_kind, pattern_name=pattern,
        metadata=base_meta,
    )


class TestDefinitenessGroups:
    def test_partition_of_swap_records(self):
        preferred, dispreferred = definiteness_groups()
        cases = [
            ("definite", "indefinite", True),
            ("definite", "definite", False),
            ("indefinite", "indefinite", False),
            ("indefinite", "definite", False),
        ]
        for subj, obj, wants_dispreferred in cases:
            r = _rec("x", subj_def=subj, obj_def=obj)
            assert dispreferred.matches(r) == wants_dispreferred, (subj, obj)
            assert preferred.matches(r) == (not wants_dispreferred)

    def test_only_swap_hypotheses_participate(self):
        preferred, dispreferred = definiteness_groups()
        r = _rec("x", hyp_kind=HypKind.H2_OS, subj_def="definite", obj_def="indefinite")
        assert not dispreferred.matches(r)
        assert not preferred.matches(r)
        swap = _rec("y", hyp_kind=HypKind.H1_SIO, subj_def="definite", obj_def="indefinite")
        assert dispreferred.matches(swap)

    def test_matches_generated_metadata(self, toy_lex):
        preferred, dispreferred = definiteness_groups()
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=2, per_pattern=2)
        for r in records:
            expect = (
                r.hyp_kind is HypKind.H1_SO
                and r.metadata["object_article"] == "indef"
                and r.metadata["subject_article"] != "indef"
            )
            assert dispreferred.matches(r) == expect

    def test_metadata_is_required(self):
        _, dispreferred = definiteness_groups()
        bare = PairRecord("x", "wogli", "P.", "H.", NE, HypKind.H1_SO, "sing_masc_v_sing_fem")
        with pytest.raises(DataFormatError, match="row-format"):
            dispreferred.matches(bare)


class TestNumberGroups:
    def test_split_by_pattern_number_class(self):
        all_singular, mixed = number_groups()
        sg = _rec("a", pattern="sing_masc_v_sing_fem")
        pl = _rec("b", pattern="sing_masc_v_plural_fem")
        assert all_singular.matches(sg) and not mixed.matches(sg)
        assert mixed.matches(pl) and not all_singular.matches(pl)

    def test_reorder_hypotheses_excluded(self):
        all_singular, mixed = number_groups()
        r = _rec("a", hyp_kind=HypKind.H2_OS)
        assert not all_singular.matches(r) and not mixed.matches(r)

    def test_group_sizes_on_generated_set(self, toy_lex):
        all_singular, mixed = number_groups()
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=2, per_pattern=2)
        # 5 of 17 patterns are all-singular; one H1 record per premise
        assert len(select(all_singular, records)) == 5 * 2
        assert len(select(mixed, records)) == 12 * 2


class TestGenderGroups:
    def test_role_and_kind_validated(self):
        with pytest.raises(ValueError):
            gender_groups("verb", "common")
        with pytest.raises(ValueError):
            gender_groups("subject", "thing")

    def test_matching(self):
        masc, fem = gender_groups("subject", "common")
        assert masc.name == "gender:subject-common-masc"
        assert fem.name == "gender:subject-common-fem"
        r = _rec("a")
        assert masc.matches(r) and not fem.matches(r)
        proper_masc, _ = gender_groups("subject", "proper")
        assert not proper_masc.matches(r)
        obj_masc, obj_fem = gender_groups("object", "common")
        assert obj_fem.matches(r) and not obj_masc.matches(r)


@pytest.fixture
def small_gold():
    return [
        _rec("a", hyp_kind=HypKind.H1_SO, label=NE),
        _rec("b", hyp_kind=HypKind.H2_OS, label=E, premise_id="a-premise"),
        _rec("c", hyp_kind=HypKind.H1_SO, label=NE),
        _rec("d", hyp_kind=HypKind.H2_OS, label=E, premise_id="c-premise"),
    ]


class TestAccuracy:
    def test_hand_checked_counts(self, small_gold):
        preds = PredictionSet(runs=2, labels={
            "a": (NE, NE),   # right, right
            "b": (E, NE),    # right, wrong
            "c": (NE, NE),   # right, right
            "d": (NE, NE),   # wrong, wrong
        })
        result = accuracy(small_gold, preds)
        assert result.group == "all"
        assert result.n == 4 and result.runs == 2
        assert result.k == (3, 2)
        assert result.per_run == (0.75, 0.5)
        assert result.mean == pytest.approx(0.625)
        assert result.sd == pytest.approx(0.125)  # population spread
        sampled = accuracy(small_gold, preds, sample_sd=True)
        assert sampled.sd == pytest.approx(0.125 * math.sqrt(2))

    def test_grouped_accuracy(self, small_gold):
        preds = PredictionSet(runs=1, labels={
            "a": (NE,), "b": (NE,), "c": (E,), "d": (E,),
        })
        kind_group = number_groups()[0]  # both H1 records are all-singular
        result = accuracy(small_gold, preds, kind_group)
        assert result.group == "number:all-singular"
        assert result.n == 2
        assert result.k == (1,)
        assert result.per_run == (0.5,)

    def test_single_run_sd_is_zero(self, small_gold):
        preds = PredictionSet(runs=1, labels={r.id: (r.label,) for r in small_gold})
        result = accuracy(small_gold, preds)
        assert result.mean == 1.0 and result.sd == 0.0

    def test_empty_group(self, small_gold):
        masc, _ = gender_groups("subject", "proper")
        preds = PredictionSet(runs=1, labels={r.id: (NE,) for r in small_gold})
        result = accuracy(small_gold, preds, masc)
        assert result.n == 0 and result.k == ()
        assert math.isnan(result.mean) and math.isnan(result.sd)

    def test_missing_prediction_is_a_join_error(self, small_gold):
        preds = PredictionSet(runs=1, labels={"a": (NE,), "b": (E,), "c": (NE,)})
        with pytest.raises(PredictionJoinError, match="'d'"):
            accuracy(small_gold, preds)


class TestMajorityVote:
    def test_clear_majorities(self):
        preds = PredictionSet(runs=3, labels={"a": (E, E, NE), "b": (NE, E, NE)})
        voted = majority_vote(preds)
        assert voted.runs == 1
        assert voted.labels == {"a": (E,), "b": (NE,)}

    def test_five_runs(self):
        preds = PredictionSet(runs=5, labels={"a": (NE, NE, NE, NE, E)})
        assert majority_vote(preds).labels["a"] == (NE,)

    def test_tie_is_an_error_by_default(self):
        preds = PredictionSet(runs=2, labels={"a": (E, NE)})
        with pytest.raises(ConstraintError, match="tie"):
            majority_vote(preds)

    def test_tie_break_flag(self):
        preds = PredictionSet(runs=2, labels={"a": (E, NE)})
        voted = majority_vote(preds, tie_break_not_entailed=True)
        assert voted.labels["a"] == (NE,)

    def test_single_run_is_identity(self):
        preds = PredictionSet(runs=1, labels={"a": (E,), "b": (NE,)})
        assert majority_vote(preds).labels == preds.labels


def _reference_ztest(k1, n1, k2, n2):
    """Pooled z-statistic via exact rational arithmetic, root taken last."""
    num = Fraction(k1 * n2 - k2 * n1)
    big_k = k1 + k2
    big_n = n1 + n2
    inner = Fraction(big_k * (big_n - big_k) * n1 * n2, big_n)
    z = float(num) / math.sqrt(float(inner))
    p = float(mpmath.erfc(abs(z) / mpmath.sqrt(2)))
    return z, p


class TestZTest:
    def test_equal_proportions(self):
        result = two_proportion_ztest(50, 100, 50, 100)
        assert result.z == 0.0
        assert result.p_value == 1.0

    def test_hand_computed_example(self):
        result = two_proportion_ztest(9, 10, 1, 10)
        assert result.z == pytest.approx(3.5777087639996634, abs=1e-12)
        assert result.p_value == pytest.approx(0.0003465, abs=1e-6)

    @pytest.mark.parametrize("k1,n1,k2,n2", [
        (9, 10, 1, 10),
        (4380, 14671, 271, 2300),
        (1, 1000, 999, 1000),
        (17, 34, 18, 34),
        (123, 456, 78, 90),
    ])
    def test_against_independent_reference(self, k1, n1, k2, n2):
        result = two_proportion_ztest(k1, n1, k2, n2)
        z_ref, p_ref = _reference_ztest(k1, n1, k2, n2)
        assert abs(result.z - z_ref) < 1e-9
        assert result.p_value == pytest.approx(p_ref, rel=1e-9)

    @given(
        n1=st.integers(1, 500), n2=st.integers(1, 500),
        k1=st.integers(0, 500), k2=st.integers(0, 500),
    )
    def test_antisymmetry(self, k1, n1, k2, n2):
        k1, k2 = min(k1, n1), min(k2, n2)
        a = two_proportion_ztest(k1, n1, k2, n2)
        b = two_proportion_ztest(k2, n2, k1, n1)
        assert a.z == pytest.approx(-b.z, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    @pytest.mark.parametrize("k1,n1,k2,n2", [(0, 5, 0, 7), (5, 5, 7, 7)])
    def test_degenerate_pools(self, k1, n1, k2, n2):
        result = two_proportion_ztest(k1, n1, k2, n2)
        assert (result.z, result.p_value) == (0.0, 1.0)

    @pytest.mark.parametrize("k1,n1,k2,n2", [
        (1, 0, 1, 2), (1, 2, 1, 0), (3, 2, 1, 2), (-1, 2, 1, 2),
    ])
    def test_invalid_counts(self, k1, n1, k2, n2):
        with pytest.raises(ValueError):
            two_proportion_ztest(k1, n1, k2, n2)

    def test_significance_call(self):
        # observed accuracy gap on two groups of very different size
        assert two_proportion_ztest(4380, 14671, 271, 2300).p_value < 0.01
        assert not two_proportion_ztest(50, 100, 49, 100).p_value < 0.01


class TestBuildReport:
    def test_rows_match_direct_calls(self, small_gold):
        preds = PredictionSet(runs=1, labels={
            "a": (NE,), "b": (NE,), "c": (E,), "d": (E,),
        })
        text, rows = build_report(small_gold, preds, groups="number")
        acc_rows = {r["group"]: r for r in rows if r["kind"] == "accuracy"}
        overall = accuracy(small_gold, preds)
        assert acc_rows["all"]["k"] == list(overall.k)
        assert acc_rows["all"]["accuracy"] == overall.mean
        assert set(acc_rows) == {"all", "h1_so", "h2_os",
                                 "number:all-singular", "number:singular-plural"}
        assert text.startswith("records: 4  runs: 1\n")
        assert "number:all-singular" in text

    def test_ztest_row_content(self, small_gold):
        preds = PredictionSet(runs=3, labels={
            "a": (NE, NE, E), "b": (NE, E, NE), "c": (E, E, NE), "d": (E, E, E),
        })
        _, rows = build_report(small_gold, preds, groups="number")
        zrows = [r for r in rows if r["kind"] == "ztest"]
        # only the number comparison has records on both sides... H1 records
        # split 2/0, so no z-test row at all
        assert zrows == []

    def test_ztest_uses_majority_vote(self):
        gold = [
            _rec("a", pattern="sing_masc_v_sing_fem"),
            _rec("b", pattern="sing_masc_v_plural_fem"),
        ]
        preds = PredictionSet(runs=3, labels={
            "a": (NE, NE, E),  # voted NE: correct
            "b": (E, E, NE),   # voted E: wrong
        })
        _, rows = build_report(gold, preds, groups="number")
        zrow = next(r for r in rows if r["kind"] == "ztest")
        assert zrow["comparison"] == "number"
        assert (zrow["k_a"], zrow["n_a"]) == (1, 1)
        assert (zrow["k_b"], zrow["n_b"]) == (0, 1)
        want = two_proportion_ztest(1, 1, 0, 1)
        assert zrow["z"] == want.z and zrow["p_value"] == want.p_value

    def test_empty_groups_reported_with_null_stats(self, small_gold):
        preds = PredictionSet(runs=1, labels={r.id: (NE,) for r in small_gold})
        _, rows = build_report(small_gold, preds, groups="gender")
        empty = [r for r in rows if r["kind"] == "accuracy" and r["n"] == 0]
        assert empty, "proper-name groups have no records here"
        assert all(r["accuracy"] is None and r["sd"] is None and r["k"] == [] for r in empty)

    def test_absent_hyp_kinds_not_reported(self, small_gold):
        h1_only = [r for r in small_gold if r.hyp_kind is HypKind.H1_SO]
        preds = PredictionSet(runs=1, labels={r.id: (NE,) for r in h1_only})
        _, rows = build_report(h1_only, preds, groups="number")
        groups = {r["group"] for r in rows if r["kind"] == "accuracy"}
        assert "h1_so" in groups and "h2_os" not in groups

    def test_tie_handling_flows_through(self):
        gold = [
            _rec("a", pattern="sing_masc_v_sing_fem"),
            _rec("b", pattern="sing_masc_v_plural_fem"),
        ]
        preds = PredictionSet(runs=2, labels={"a": (E, NE), "b": (NE, NE)})
        with pytest.raises(ConstraintError, match="tie"):
            build_report(gold, preds, groups="number")
        text, rows = build_report(gold, preds, groups="number", tie_break_not_entailed=True)
        assert any(r["kind"] == "ztest" for r in rows)

    def test_tie_error_names_the_first_tie_in_the_predictions(self):
        # gold reads a first, the predictions list b first: b's tie is named
        gold = [
            _rec("a", pattern="sing_masc_v_sing_fem"),
            _rec("b", pattern="sing_masc_v_plural_fem"),
        ]
        preds = PredictionSet(runs=2, labels={"b": (NE, E), "a": (E, NE)})
        with pytest.raises(ConstraintError, match=r"^majority vote tie for 'b' over 2 runs; "
                                                  r"use an odd run count or allow tie-breaking$"):
            build_report(gold, preds, groups="number")

    def test_prediction_ids_outside_gold_rejected_before_voting(self):
        gold = [
            _rec("a", pattern="sing_masc_v_sing_fem"),
            _rec("b", pattern="sing_masc_v_plural_fem"),
        ]
        # voting would otherwise stop at the tie on "x", an id gold lacks
        preds = PredictionSet(runs=2, labels={
            "a": (NE, NE), "x": (E, NE), "b": (NE, NE), "y": (NE, NE),
        })
        with pytest.raises(PredictionJoinError, match=r"^2 prediction id\(s\) .* first 'x'$"):
            build_report(gold, preds, groups="number")

    def test_repeated_id_is_refused_before_its_row_is_read(self, small_gold):
        # the repeat of "c" has no metadata, which its definiteness group
        # would refuse: the repeated id is the error, as read_pairs reports it
        repeat = PairRecord("c", "wogli", "P.", "H.", NE, HypKind.H1_SO, "sing_masc_v_sing_fem")
        preds = PredictionSet(runs=1, labels={r.id: (NE,) for r in small_gold})
        with pytest.raises(DataFormatError, match=r"^duplicate record id 'c'$"):
            build_report(iter([*small_gold, repeat]), preds)
        bare = replace(repeat, id="e")
        preds.labels["e"] = (NE,)
        with pytest.raises(DataFormatError, match="row-format"):
            build_report(iter([*small_gold, bare]), preds)

    def test_join_errors_keep_their_messages_and_order(self):
        # gold ids are struck from the predictions as they are read, not kept
        preds = PredictionSet(runs=1, labels={"a": (NE,), "b": (E,)})
        # a repeat with a prediction is the error at its row, before a later fault
        with pytest.raises(DataFormatError, match=r"^duplicate record id 'a'$"):
            build_report(iter([_rec("a"), _rec("b"), _rec("a"), _rec("c", pattern="foo_v_bar")]), preds)
        # a repeat without one fails at its first row, for want of it
        with pytest.raises(PredictionJoinError, match=r"^no prediction for record 'x'$"):
            build_report(iter([_rec("a"), _rec("x"), _rec("x")]), preds)
        # ids gold lacks are named in the prediction file's order
        extra = PredictionSet(runs=1, labels={"b": (E,), "y": (NE,), "a": (NE,), "x": (E,)})
        with pytest.raises(PredictionJoinError,
                           match=r"^2 prediction id\(s\) not in the gold file, first 'y'$"):
            build_report(iter([_rec("a"), _rec("b")]), extra)

    def test_unknown_family_rejected(self, small_gold):
        preds = PredictionSet(runs=1, labels={r.id: (NE,) for r in small_gold})
        with pytest.raises(ValueError):
            build_report(small_gold, preds, groups="verbs")

    def test_full_report_on_generated_set(self, toy_lex):
        gold = generate_set(GenerationSet.WOGLI, toy_lex, seed=2, per_pattern=2)
        preds = PredictionSet(runs=3, labels={r.id: (r.label, NE, NE) for r in gold})
        text, rows = build_report(gold, preds, groups="all")
        acc_groups = [r["group"] for r in rows if r["kind"] == "accuracy"]
        assert acc_groups[0] == "all"
        for name in ("definiteness:preferred", "number:all-singular",
                     "gender:subject-proper-masc", "gender:object-common-fem"):
            assert name in acc_groups
        overall = next(r for r in rows if r["group"] == "all")
        assert overall["n"] == len(gold)
        assert overall["k"][0] == len(gold)  # first run copies gold labels


_FAMILIES = {
    "definiteness": lambda: [("definiteness", definiteness_groups())],
    "number": lambda: [("number", number_groups())],
    "gender": lambda: [(f"gender:{role}-{kind}", gender_groups(role, kind))
                       for role in ("subject", "object") for kind in ("proper", "common")],
}


def _accuracy_row(result):
    if result.n == 0:
        return {"kind": "accuracy", "group": result.group, "n": 0, "runs": result.runs,
                "k": [], "accuracy": None, "sd": None}
    return {"kind": "accuracy", "group": result.group, "n": result.n, "runs": result.runs,
            "k": list(result.k), "accuracy": result.mean, "sd": result.sd}


def _reference_rows(gold, preds, groups, tie_break, sample_sd):
    """build_report's rows from the public pieces: one accuracy call per
    group, the z-test on majority-voted labels, in the report's order. The
    error is the first faulty record's, in gold's order: its join, then each
    group in report order; then prediction ids gold lacks; then ties."""
    names = ("definiteness", "number", "gender") if groups == "all" else (groups,)
    pairs = [pair for name in names for pair in _FAMILIES[name]()]
    for record in gold:
        accuracy([record], preds)
        for _, pair in pairs:
            for spec in pair:
                select(spec, [record])
    gold_ids = {r.id for r in gold}
    unknown = [rid for rid in preds.labels if rid not in gold_ids]
    if unknown:
        raise PredictionJoinError(
            f"{len(unknown)} prediction id(s) not in the gold file, first {unknown[0]!r}"
        )
    rows = [_accuracy_row(accuracy(gold, preds, None, sample_sd))]
    for kind in HypKind:
        if any(r.hyp_kind is kind for r in gold):
            spec = GroupSpec(kind.value, lambda r, k=kind: r.hyp_kind is k)
            rows.append(_accuracy_row(accuracy(gold, preds, spec, sample_sd)))
    for _, (group_a, group_b) in pairs:
        rows.append(_accuracy_row(accuracy(gold, preds, group_a, sample_sd)))
        rows.append(_accuracy_row(accuracy(gold, preds, group_b, sample_sd)))
    for comparison, (group_a, group_b) in pairs:
        a, b = select(group_a, gold), select(group_b, gold)
        if not a or not b:
            continue
        voted = majority_vote(preds, tie_break).labels
        k_a = sum(voted[r.id][0] is r.label for r in a)
        k_b = sum(voted[r.id][0] is r.label for r in b)
        test = two_proportion_ztest(k_a, len(a), k_b, len(b))
        rows.append({"kind": "ztest", "comparison": comparison,
                     "group_a": group_a.name, "group_b": group_b.name,
                     "k_a": k_a, "n_a": len(a), "k_b": k_b, "n_b": len(b),
                     "z": test.z, "p_value": test.p_value})
    return rows


def _outcome(call):
    try:
        return json.dumps(call())
    except WogliError as exc:
        return type(exc).__name__, str(exc)


_REPORT_LEX = make_toy()
_REPORT_GOLD = generate_set(GenerationSet.WOGLI, _REPORT_LEX, seed=2, per_pattern=3)


class TestReportAgainstReference:
    """Every build_report row equals the row rebuilt from accuracy() and
    majority_vote(): integer counts and floats exactly, errors by type and
    message."""

    def _check(self, gold, preds, groups, tie_break=False, sample_sd=False):
        want = _outcome(lambda: _reference_rows(gold, preds, groups, tie_break, sample_sd))
        got = _outcome(lambda: build_report(gold, preds, groups, tie_break, sample_sd)[1])
        assert got == want
        return got

    def _preds(self, gold, runs, seed, hit_rate=0.7):
        rng = random.Random(seed)
        flip = {E: NE, NE: E}
        return PredictionSet(runs=runs, labels={
            r.id: tuple(r.label if rng.random() < hit_rate else flip[r.label] for _ in range(runs))
            for r in gold
        })

    def test_all_groups(self):
        got = self._check(_REPORT_GOLD, self._preds(_REPORT_GOLD, 3, 1), "all")
        assert '"kind": "ztest"' in got

    def test_number_groups_with_ties(self):
        preds = self._preds(_REPORT_GOLD, 2, 2, hit_rate=0.5)
        self._check(_REPORT_GOLD, preds, "number", tie_break=True, sample_sd=True)
        assert self._check(_REPORT_GOLD, preds, "number")[0] == "ConstraintError"

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), runs=st.integers(1, 4),
           groups=st.sampled_from(["all", "definiteness", "number", "gender"]),
           tie_break=st.booleans(), sample_sd=st.booleans(),
           damage=st.lists(st.tuples(st.sampled_from(["meta", "pattern", "prediction", "unknown"]),
                                     st.integers(0, len(_REPORT_GOLD) - 1),
                                     st.sampled_from(["subject_kind", "subject_gender",
                                                      "object_definiteness",
                                                      "subject_definiteness"])),
                           max_size=2))
    def test_random_predictions_and_faults(self, seed, runs, groups, tie_break, sample_sd,
                                           damage):
        gold = list(_REPORT_GOLD)
        preds = self._preds(gold, runs, seed)
        labels = dict(preds.labels)
        for fault, i, key in damage:
            r = gold[i]
            if fault == "meta":
                gold[i] = PairRecord(r.id, r.subset, r.premise, r.hypothesis, r.label,
                                     r.hyp_kind, r.pattern_name,
                                     {k: v for k, v in r.metadata.items() if k != key})
            elif fault == "pattern":
                gold[i] = PairRecord(r.id, r.subset, r.premise, r.hypothesis, r.label,
                                     r.hyp_kind, "foo_v_bar", r.metadata)
            elif fault == "prediction":
                labels.pop(r.id, None)
            else:  # a prediction id gold lacks
                labels[f"{r.id}-unknown"] = (NE,) * runs
        self._check(gold, PredictionSet(runs, labels), groups, tie_break, sample_sd)

    def test_error_order_follows_the_file(self):
        # a bad pattern early (number family) and a missing field late
        # (definiteness family): the early record's fault is the error
        late = _rec("b", pattern="sing_masc_v_plural_fem")
        del late.metadata["object_definiteness"]
        gold = [_rec("a", pattern="foo_v_bar"), late]
        both = PredictionSet(runs=1, labels={"a": (NE,), "b": (NE,)})
        assert self._check(gold, both, "all") == (
            "DataFormatError", "record a: not a canonical pattern name: 'foo_v_bar'")
        assert "record b: grouping needs metadata field 'object_definiteness'" in (
            self._check(gold[::-1], both, "all")[1])
        # within a record the join comes first, then the groups in report order
        no_a = PredictionSet(runs=1, labels={"b": (NE,)})
        assert self._check(gold, no_a, "all") == (
            "PredictionJoinError", "no prediction for record 'a'")
        early = _rec("a", pattern="foo_v_bar")
        del early.metadata["object_definiteness"]
        assert "record a: grouping needs metadata field 'object_definiteness'" in (
            self._check([early, late], both, "all")[1])
        # a record's fault comes before a missing prediction of a later one
        no_b = PredictionSet(runs=1, labels={"a": (NE,)})
        assert self._check(gold, no_b, "all")[1].startswith("record a:")
        # a prediction id gold lacks is reported after the pass, before voting
        extra = PredictionSet(runs=2, labels={"x": (E, NE), "a": (E, NE), "b": (E, NE)})
        assert self._check(gold, extra, "all")[1].startswith("record a:")
        fine = [_rec("a"), _rec("b", pattern="sing_masc_v_plural_fem")]
        assert self._check(fine, extra, "number") == (
            "PredictionJoinError", "1 prediction id(s) not in the gold file, first 'x'")

    def test_gold_is_read_once(self):
        gold = [_rec("a"), _rec("b", pattern="sing_masc_v_plural_fem")]
        preds = PredictionSet(runs=1, labels={"a": (NE,), "b": (E,)})
        assert build_report(iter(gold), preds, "all") == build_report(gold, preds, "all")

    def test_ties_break_toward_not_entailed(self):
        # swap records labelled entailed lose a broken tie, the others win it
        gold = [_rec("a", label=E), _rec("b", label=NE),
                _rec("c", label=E, pattern="sing_masc_v_plural_fem"),
                _rec("d", label=NE, pattern="sing_masc_v_plural_fem")]
        preds = PredictionSet(runs=2, labels={rid: (E, NE) for rid in "abcd"})
        got = self._check(gold, preds, "number", tie_break=True)
        assert '"k_a": 1, "n_a": 2, "k_b": 1, "n_b": 2' in got

    def test_unhashable_metadata_values_are_grouped_as_before(self):
        gold = [_rec("a", subject_kind=["common"]), _rec("b", pattern="sing_masc_v_plural_fem")]
        preds = PredictionSet(runs=1, labels={"a": (NE,), "b": (E,)})
        self._check(gold, preds, "all")
