"""Full-scale acceptance checks, one test per shipped guarantee.

Each test prints an ``ACCEPTANCE n: PASS`` line on success, so a verbose
run doubles as a release checklist. Wall-clock budgets are asserted with
``time.perf_counter`` where a guarantee includes one. The oracles here are
deliberately independent of the library internals: token positions, lemma
lookups, and statistics are recomputed from scratch in this file.
"""

import hashlib
import io
import math
import re
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

import mpmath
import pytest

from wogli import (
    ArticleKind,
    Case,
    Gender,
    GenerationSet,
    Government,
    HypKind,
    Label,
    NPSpec,
    Number,
    NumberClass,
    PairRecord,
    PredictionSet,
    agree_verb,
    classify_number,
    definiteness_groups,
    extended_patterns,
    gender_groups,
    generate_set,
    inflect_article,
    inflect_noun,
    inflect_pronoun,
    number_groups,
    parse_pattern_name,
    plan_102,
    plan_1037,
    render_np,
    sample_augmentation,
    surface_forms,
    two_proportion_ztest,
    wogli_patterns,
    write_pairs,
)
from wogli import dataset_io
from wogli.cli import run
from wogli.generator import _patterns_for, _sample_pattern, _Tables
from wogli.morphology import compile_sentence

from oracles import accuracy, excluded_patterns, is_ambiguous, majority_vote, select
from test_patterns import EXCLUDED_8, EXTENDED_24, WOGLI_17

E = Label.ENTAILED
NE = Label.NOT_ENTAILED
SWAP_KINDS = (HypKind.H1_SO, HypKind.H1_SIO)

_PER_PATTERN = {
    GenerationSet.WOGLI: 1000,
    GenerationSet.P_SUBJECT: 1000,
    GenerationSet.DATIVE: 150,
    GenerationSet.DITRANSITIVE: 500,
    GenerationSet.OS_HARD: 1000,
}

# premise/hypothesis token-count bands per set; p-subject premises drop to
# three tokens when the object is a proper name
_LENGTH_BANDS = {
    GenerationSet.WOGLI: (4, 5),
    GenerationSet.P_SUBJECT: (3, 4),
    GenerationSet.DATIVE: (4, 5),
    GenerationSet.DITRANSITIVE: (6, 7),
    GenerationSet.OS_HARD: (4, 5),
}


@pytest.fixture(scope="module")
def full_sets(lex):
    t0 = time.perf_counter()
    sets = {
        name: generate_set(name, lex, seed=0, per_pattern=per)
        for name, per in _PER_PATTERN.items()
    }
    return sets, time.perf_counter() - t0


@pytest.fixture(scope="module")
def replacement_base(lex):
    return generate_set(
        GenerationSet.WOGLI, lex, seed=92, per_pattern=1000, with_replacement=True
    )


def _noun(lex, lemma):
    for pool in (lex.masc_common, lex.fem_common, lex.masc_proper, lex.fem_proper):
        for entry in pool:
            if entry.lemma == lemma:
                return entry
    raise LookupError(lemma)


def _np(lex, lemma, number=Number.SG, kind=ArticleKind.DEF):
    entry = _noun(lex, lemma)
    return NPSpec(entry, entry.gender, number, kind)


def _draw(lex, verb_lemma, subj, obj, government=Government.ACCUSATIVE, thing=None):
    verb = next(v for v in lex.verbs(government) if v.lemma == verb_lemma)
    return subj, obj, verb, thing


def _say(draw, kind=None):
    """The premise of a draw (kind None), or its hypothesis of kind."""
    return compile_sentence(draw[2].government.object_case, kind)(*draw)


def _premise_count(records):
    return len({r.metadata["premise_id"] for r in records})


def _tokens(text):
    return text.rstrip(".").rstrip().split()


def _tokens_ci(text):
    return Counter(tok.lower() for tok in _tokens(text))


def _np_width(kind):
    return 1 if kind in ("proper", "pronoun") else 2


class TestC1Goldens:
    """Byte-exact sentences for every documented example, all article kinds."""

    _M_NOM = {ArticleKind.DEF: "der", ArticleKind.INDEF: "ein", ArticleKind.DEM: "dieser"}
    _M_ACC = {ArticleKind.DEF: "den", ArticleKind.INDEF: "einen", ArticleKind.DEM: "diesen"}
    _F_PL = {ArticleKind.DEF: "die", ArticleKind.DEM: "diese"}

    def test_c1_golden_sentences(self, lex):
        t0 = time.perf_counter()
        cap = str.capitalize

        for s_kind, s_nom in self._M_NOM.items():
            for o_kind, o_acc in self._M_ACC.items():
                s_acc = self._M_ACC[s_kind]
                o_nom = self._M_NOM[o_kind]
                draw = _draw(lex, "warnen",
                             _np(lex, "Arzt", kind=s_kind), _np(lex, "Kunde", kind=o_kind))
                assert _say(draw) == f"{cap(s_nom)} Arzt warnt {o_acc} Kunden."
                assert _say(draw, HypKind.H1_SO) == f"{cap(o_nom)} Kunde warnt {s_acc} Arzt."
                assert _say(draw, HypKind.H2_OS) == f"{cap(o_acc)} Kunden warnt {s_nom} Arzt."
                assert _say(draw, HypKind.H3_OS) == f"{cap(s_acc)} Arzt warnt {o_nom} Kunde."

        for s_kind, s_nom in self._M_NOM.items():
            for o_kind, o_art in self._F_PL.items():
                s_acc = self._M_ACC[s_kind]
                draw = _draw(lex, "empfehlen",
                             _np(lex, "Minister", kind=s_kind),
                             _np(lex, "Autorin", Number.PL, o_kind))
                assert _say(draw) == f"{cap(s_nom)} Minister empfiehlt {o_art} Autorinnen."
                assert _say(draw, HypKind.H1_SO) == f"{cap(o_art)} Autorinnen empfehlen {s_acc} Minister."
                assert _say(draw, HypKind.H2_OS) == f"{cap(o_art)} Autorinnen empfiehlt {s_nom} Minister."
                assert _say(draw, HypKind.H3_OS) == f"{cap(s_acc)} Minister empfehlen {o_art} Autorinnen."

        masc = _draw(lex, "warnen", _np(lex, "Arzt").pronoun, _np(lex, "Gast"))
        assert _say(masc) == "Er warnt den Gast."
        assert _say(masc, HypKind.H1_SO) == "Der Gast warnt ihn."
        assert _say(masc, HypKind.H2_OS) == "Den Gast warnt er."
        fem = _draw(lex, "warnen", _np(lex, "Autorin").pronoun, _np(lex, "Gast"))
        assert _say(fem) == "Sie warnt den Gast."
        assert _say(fem, HypKind.H1_SO) == "Der Gast warnt sie."
        assert _say(fem, HypKind.H2_OS) == "Den Gast warnt sie."

        dative = _draw(lex, "gratulieren",
                       _np(lex, "Richter", kind=ArticleKind.INDEF),
                       _np(lex, "Berater", Number.PL, ArticleKind.DEM),
                       Government.DATIVE)
        assert _say(dative) == "Ein Richter gratuliert diesen Beratern."
        assert _say(dative, HypKind.H1_SO) == "Diese Berater gratulieren einem Richter."
        assert _say(dative, HypKind.H2_OS) == "Diesen Beratern gratuliert ein Richter."

        thing = next(t for t in lex.thing_nouns if t.lemma == "Kuchen")
        ditrans = _draw(lex, "geben",
                        _np(lex, "Kellnerin", Number.PL),
                        _np(lex, "Händler", kind=ArticleKind.INDEF),
                        Government.DITRANSITIVE,
                        NPSpec(thing, thing.gender, thing.number, ArticleKind.DEF))
        assert _say(ditrans) == "Die Kellnerinnen geben einem Händler den Kuchen."
        assert _say(ditrans, HypKind.H1_SIO) == "Ein Händler gibt den Kellnerinnen den Kuchen."
        assert _say(ditrans, HypKind.H2_IOS) == "Einem Händler geben die Kellnerinnen den Kuchen."

        assert time.perf_counter() - t0 < 1.0
        print("ACCEPTANCE 1: PASS  golden sentences reproduced byte for byte")


class TestC2Inventories:
    def test_c2_pattern_inventories(self):
        assert tuple(p.name for p in wogli_patterns()) == WOGLI_17
        for gov in (Government.DATIVE, Government.DITRANSITIVE):
            assert tuple(p.name for p in extended_patterns(gov)) == EXTENDED_24
        assert tuple(p.name for p in excluded_patterns()) == EXCLUDED_8
        split = Counter(classify_number(p) for p in wogli_patterns())
        assert split[NumberClass.ALL_SINGULAR] == 5
        assert split[NumberClass.SINGULAR_PLURAL] == 12
        print("ACCEPTANCE 2: PASS  inventories 17/24/8 and the 5/12 number split")


class TestC3Ambiguity:
    def test_c3_ambiguity_oracle(self, lex):
        t0 = time.perf_counter()
        assert all(is_ambiguous(p, lex) for p in excluded_patterns())
        assert not any(is_ambiguous(p, lex) for p in wogli_patterns())
        for gov in (Government.DATIVE, Government.DITRANSITIVE):
            assert not any(is_ambiguous(p, lex) for p in extended_patterns(gov))
        assert time.perf_counter() - t0 < 10.0
        print("ACCEPTANCE 3: PASS  ambiguity holds for 8 excluded, none of 17+24+24")


class TestC4Sizes:
    def test_c4_dataset_sizes(self, full_sets, replacement_base, lex):
        sets, _ = full_sets
        wogli = sets[GenerationSet.WOGLI]
        assert _premise_count(wogli) == 17_000
        assert len(wogli) == 34_000
        dative = sets[GenerationSet.DATIVE]
        assert _premise_count(dative) == 3_600
        assert len(dative) == 7_200
        ditrans = sets[GenerationSet.DITRANSITIVE]
        assert _premise_count(ditrans) == 12_000
        assert len(ditrans) == 24_000
        os_hard = sets[GenerationSet.OS_HARD]
        assert len(os_hard) == _premise_count(os_hard) == _premise_count(wogli)

        assert _premise_count(replacement_base) == 16_971
        assert len(replacement_base) == 2 * 16_971
        hard_rep = generate_set(
            GenerationSet.OS_HARD, lex, seed=92, per_pattern=1000, with_replacement=True
        )
        assert len(hard_rep) == 16_971

        tables = _Tables(lex)
        for seed in range(10):
            draws = [premise for i, pattern in enumerate(_patterns_for(GenerationSet.WOGLI))
                     for premise, _, _ in _sample_pattern(pattern, i, tables, seed, 1000, True)]
            assert len(draws) == 17_000
            unique = len(set(draws))
            assert 16_900 <= unique <= 17_000, seed
        print("ACCEPTANCE 4: PASS  exact sizes and the with-replacement premise band")


def _form_lemma_index(lex):
    index = {}

    def add(form, lemma):
        index.setdefault(form, set()).add(lemma)

    for entry in (*lex.masc_common, *lex.fem_common):
        for number in (Number.SG, Number.PL):
            for case in (Case.NOM, Case.ACC, Case.DAT):
                add(inflect_noun(entry, number, case), entry.lemma)
    for entry in (*lex.masc_proper, *lex.fem_proper):
        add(entry.lemma, entry.lemma)
    for entry in lex.thing_nouns:
        add(entry.lemma, entry.lemma)
    for gov in Government:
        for verb in lex.verbs(gov):
            add(verb.form_3sg, verb.lemma)
            add(verb.form_3pl, verb.lemma)
    return index


def _function_word_forms():
    skip = {
        inflect_article(kind, gender, number, case)
        for kind in (ArticleKind.DEF, ArticleKind.INDEF, ArticleKind.DEM)
        for gender in Gender
        for number in Number
        for case in Case
        if not (kind is ArticleKind.INDEF and number is Number.PL)
    }
    for gender in (Gender.MASC, Gender.FEM):
        for case in (Case.NOM, Case.ACC):
            skip.add(inflect_pronoun(gender, Number.SG, case))
    return {form.lower() for form in skip}


def _lemma_multiset(text, index, skip):
    out = Counter()
    for tok in _tokens(text):
        if tok.lower() in skip:
            continue
        lemmas = index.get(tok)
        assert lemmas is not None, f"token {tok!r} maps to no known lemma"
        out[frozenset(lemmas)] += 1
    return out


class TestC5Invariants:
    def _check_record(self, r, name, index, skip):
        low, high = _LENGTH_BANDS[name]
        pre_toks = _tokens(r.premise)
        hyp_toks = _tokens(r.hypothesis)
        assert low <= len(pre_toks) <= high, r.id
        assert low <= len(hyp_toks) <= high, r.id

        assert _lemma_multiset(r.premise, index, skip) == _lemma_multiset(
            r.hypothesis, index, skip
        ), r.id

        meta = r.metadata
        subj_w = _np_width(meta["subject_kind"])
        obj_w = _np_width(meta["object_kind"])
        premise_verb = pre_toks[subj_w]
        first_np_w = subj_w if r.hyp_kind is HypKind.H3_OS else obj_w
        hyp_verb = hyp_toks[first_np_w]

        if r.hyp_kind in (HypKind.H2_OS, HypKind.H2_IOS):
            assert _tokens_ci(r.premise) == _tokens_ci(r.hypothesis), r.id
            assert hyp_verb == premise_verb, r.id
        else:
            numbers_differ = meta["subject_number"] != meta["object_number"]
            assert (hyp_verb != premise_verb) == numbers_differ, r.id
            if r.pattern_name in WOGLI_17:
                pattern = parse_pattern_name(r.pattern_name, Government.ACCUSATIVE)
                is_mixed = classify_number(pattern) is NumberClass.SINGULAR_PLURAL
                assert numbers_differ == is_mixed, r.id

    def test_c5_pair_invariants(self, full_sets, lex):
        sets, gen_elapsed = full_sets
        t0 = time.perf_counter()
        index = _form_lemma_index(lex)
        skip = _function_word_forms()
        assert not any(form.lower() in skip for form in index)

        for name, records in sets.items():
            for r in records:
                self._check_record(r, name, index, skip)

        h1_by_premise = {
            r.premise: r.hypothesis
            for r in sets[GenerationSet.WOGLI]
            if r.hyp_kind is HypKind.H1_SO
        }
        hard = sets[GenerationSet.OS_HARD]
        assert {r.premise for r in hard} == set(h1_by_premise)
        for r in hard:
            assert r.hyp_kind is HypKind.H3_OS
            assert _tokens_ci(r.hypothesis) == _tokens_ci(h1_by_premise[r.premise]), r.id

        for name in (GenerationSet.WOGLI, GenerationSet.P_SUBJECT,
                     GenerationSet.DATIVE, GenerationSet.DITRANSITIVE):
            by_premise = defaultdict(dict)
            for r in sets[name]:
                by_premise[r.metadata["premise_id"]][r.hyp_kind] = r.hypothesis
            for pid, hyps in by_premise.items():
                assert len(hyps) == 2, pid
                assert len(set(hyps.values())) == 2, pid

        elapsed = gen_elapsed + (time.perf_counter() - t0)
        assert elapsed < 30.0
        total = sum(len(records) for records in sets.values())
        print(f"ACCEPTANCE 5: PASS  pair invariants over {total} records in {elapsed:.1f}s")

    @pytest.mark.xfail(strict=True, reason="pronoun premises with proper-name objects "
                                           "have three tokens, not four")
    def test_c5_p_subject_four_token_floor(self, full_sets):
        sets, _ = full_sets
        for r in sets[GenerationSet.P_SUBJECT]:
            assert 4 <= len(_tokens(r.premise)) <= 5


class TestC6Augmentation:
    def test_c6_augmentation_subsets(self, replacement_base, lex):
        aug, rest = sample_augmentation(replacement_base, plan_1037(seed=7))
        assert _premise_count(aug) == 1_037 == 61 * 17
        assert len(aug) == 2_074
        assert len(rest) == 31_868
        counts = self._verb_premise_counts(aug)
        assert len(counts) == 50
        assert min(counts.values()) >= 18
        assert max(counts.values()) <= 25
        forms = self._noun_forms(aug)
        assert len(forms) == 181
        assert forms == surface_forms(lex)

        small_aug, small_rest = sample_augmentation(replacement_base, plan_102(seed=7))
        assert _premise_count(small_aug) == 102
        assert len(small_aug) == 204
        assert len(small_rest) == 33_738
        small_counts = self._verb_premise_counts(small_aug)
        assert len(small_counts) == 50
        assert min(small_counts.values()) >= 1
        assert max(small_counts.values()) <= 4
        print("ACCEPTANCE 6: PASS  1037/2074/31868 and 102/204/33738 with verb "
              "bands and all 181 noun forms")

    @staticmethod
    def _verb_premise_counts(records):
        seen = set()
        counts = Counter()
        for r in records:
            pid = r.metadata["premise_id"]
            if pid not in seen:
                seen.add(pid)
                counts[r.metadata["verb_lemma"]] += 1
        return counts

    @staticmethod
    def _noun_forms(records):
        forms = set()
        for r in records:
            subj_w = _np_width(r.metadata["subject_kind"])
            obj_w = _np_width(r.metadata["object_kind"])
            pre = _tokens(r.premise)
            hyp = _tokens(r.hypothesis)
            forms.update((pre[subj_w - 1], pre[-1], hyp[obj_w - 1], hyp[-1]))
        return forms


class TestC7Morphology:
    def test_c7_morphology_tables(self, lex):
        arzt = _noun(lex, "Arzt")
        assert render_np(NPSpec(arzt, Gender.MASC, Number.SG, ArticleKind.DEF), Case.ACC) \
            == ["den", "Arzt"]
        assert render_np(NPSpec(arzt, Gender.MASC, Number.SG, ArticleKind.INDEF), Case.ACC) \
            == ["einen", "Arzt"]
        assert render_np(NPSpec(arzt, Gender.MASC, Number.SG, ArticleKind.DEM), Case.ACC) \
            == ["diesen", "Arzt"]
        assert render_np(NPSpec(arzt, Gender.MASC, Number.SG, ArticleKind.INDEF), Case.DAT) \
            == ["einem", "Arzt"]

        berater = _noun(lex, "Berater")
        assert render_np(NPSpec(berater, Gender.MASC, Number.PL, ArticleKind.DEM), Case.DAT) \
            == ["diesen", "Beratern"]

        kunde = _noun(lex, "Kunde")
        assert inflect_noun(kunde, Number.SG, Case.NOM) == "Kunde"
        assert inflect_noun(kunde, Number.SG, Case.ACC) == "Kunden"
        assert inflect_noun(kunde, Number.SG, Case.DAT) == "Kunden"
        assert inflect_noun(kunde, Number.PL, Case.NOM) == "Kunden"
        assert inflect_noun(kunde, Number.PL, Case.DAT) == "Kunden"

        assert inflect_pronoun(Gender.MASC, Number.SG, Case.NOM) == "er"
        assert inflect_pronoun(Gender.MASC, Number.SG, Case.ACC) == "ihn"

        empfehlen = next(v for v in lex.verbs(Government.ACCUSATIVE) if v.lemma == "empfehlen")
        assert agree_verb(empfehlen, Number.SG) == "empfiehlt"
        assert agree_verb(empfehlen, Number.PL) == "empfehlen"
        geben = next(v for v in lex.verbs(Government.DITRANSITIVE) if v.lemma == "geben")
        assert agree_verb(geben, Number.SG) == "gibt"
        assert agree_verb(geben, Number.PL) == "geben"

        kinds = (ArticleKind.DEF, ArticleKind.INDEF, ArticleKind.DEM)
        for entry in lex.fem_common:
            for number in (Number.SG, Number.PL):
                for kind in kinds:
                    if kind is ArticleKind.INDEF and number is Number.PL:
                        continue
                    spec = NPSpec(entry, Gender.FEM, number, kind)
                    assert render_np(spec, Case.NOM) == render_np(spec, Case.ACC), entry.lemma

        for entry in (*lex.masc_common, *lex.fem_common):
            for number in (Number.SG, Number.PL):
                for kind in kinds:
                    if kind is ArticleKind.INDEF and number is Number.PL:
                        continue
                    spec = NPSpec(entry, entry.gender, number, kind)
                    dat = render_np(spec, Case.DAT)
                    assert dat[0] != render_np(spec, Case.NOM)[0], entry.lemma
                    assert dat[0] != render_np(spec, Case.ACC)[0], entry.lemma
        print("ACCEPTANCE 7: PASS  cited morphology cells and lexicon-wide "
              "syncretism/dative invariants")


def _gold_records():
    rows = [
        # (pattern, subj updates, obj updates)
        ("sing_masc_v_sing_fem", {}, {}),
        ("sing_masc_v_plural_fem",
         {"subject_definiteness": "indefinite", "subject_article": "indef"},
         {"object_number": "pl"}),
        ("plural_masc_v_sing_masc",
         {"subject_number": "pl"},
         {"object_gender": "masc", "object_definiteness": "indefinite",
          "object_article": "indef"}),
        ("sing_fem_v_sing_masc",
         {"subject_gender": "fem"},
         {"object_gender": "masc"}),
        ("plural_fem_v_sing_fem",
         {"subject_gender": "fem", "subject_number": "pl",
          "subject_definiteness": "indefinite", "subject_article": "indef"},
         {"object_definiteness": "indefinite", "object_article": "indef"}),
        ("sing_masc_v_pnoun", {},
         {"object_kind": "proper", "object_article": "none"}),
    ]
    records = []
    for i, (pattern, subj_meta, obj_meta) in enumerate(rows):
        meta = {
            "premise_id": f"g{i}-premise",
            "verb_lemma": "sehen",
            "subject_kind": "common", "subject_gender": "masc",
            "subject_number": "sg", "subject_article": "def",
            "subject_definiteness": "definite",
            "object_kind": "common", "object_gender": "fem",
            "object_number": "sg", "object_article": "def",
            "object_definiteness": "definite",
        }
        meta.update(subj_meta)
        meta.update(obj_meta)
        for kind, label in ((HypKind.H1_SO, NE), (HypKind.H2_OS, E)):
            records.append(PairRecord(
                id=f"g{i}-{kind.value.split('_')[0]}",
                subset="wogli",
                premise=f"premise {i}",
                hypothesis=f"hypothesis {i} {kind.value}",
                label=label,
                hyp_kind=kind,
                pattern_name=pattern,
                metadata=dict(meta),
            ))
    return records


def _reference_ztest(k1, n1, k2, n2):
    """High-precision pooled two-proportion z statistic via exact rationals."""
    pooled = Fraction(k1 + k2, n1 + n2)
    if pooled == 0 or pooled == 1:
        return 0.0, 1.0
    diff = Fraction(k1, n1) - Fraction(k2, n2)
    var = pooled * (1 - pooled) * (Fraction(1, n1) + Fraction(1, n2))
    z = float(diff) / math.sqrt(float(var))
    p = float(mpmath.erfc(abs(mpmath.mpf(z)) / mpmath.sqrt(2)))
    return z, p


class TestC8Analysis:
    def test_c8_analysis_oracles(self):
        gold = _gold_records()
        assert len(gold) <= 20
        labels = {}
        for i, r in enumerate(gold):
            flip = {E: NE, NE: E}[r.label]
            labels[r.id] = (r.label, flip if i % 3 == 0 else r.label,
                            flip if i % 2 == 0 else r.label)
        preds = PredictionSet(runs=3, labels=labels)

        def brute(records):
            k = tuple(
                sum(1 for r in records if labels[r.id][run] is r.label)
                for run in range(3)
            )
            per_run = tuple(count / len(records) for count in k)
            return k, per_run

        got = accuracy(gold, preds)
        k, per_run = brute(gold)
        assert got.k == k and got.per_run == per_run
        assert got.mean == statistics.fmean(per_run)
        assert got.sd == statistics.pstdev(per_run)

        swap = [r for r in gold if r.hyp_kind in SWAP_KINDS]
        preferred, dispreferred = definiteness_groups()
        want_dis = {
            r.id for r in swap
            if r.metadata["object_definiteness"] == "indefinite"
            and r.metadata["subject_definiteness"] == "definite"
        }
        assert {r.id for r in select(dispreferred, gold)} == want_dis
        assert {r.id for r in select(preferred, gold)} == {r.id for r in swap} - want_dis

        all_sing, mixed = number_groups()
        want_sing = {
            r.id for r in swap
            if r.metadata["subject_number"] == "sg" and r.metadata["object_number"] == "sg"
        }
        assert {r.id for r in select(all_sing, gold)} == want_sing
        assert {r.id for r in select(mixed, gold)} == {r.id for r in swap} - want_sing

        by_gender = gender_groups("subject", "common")
        masc = next(g for g in by_gender if g.name.endswith("masc"))
        fem = next(g for g in by_gender if g.name.endswith("fem"))
        want_masc = {
            r.id for r in swap
            if r.metadata["subject_kind"] == "common"
            and r.metadata["subject_gender"] == "masc"
        }
        assert {r.id for r in select(masc, gold)} == want_masc

        for group in (preferred, dispreferred, all_sing, mixed, masc, fem):
            subset = select(group, gold)
            if not subset:
                continue
            k, per_run = brute(subset)
            got = accuracy(gold, preds, group=group)
            assert got.n == len(subset) and got.k == k and got.per_run == per_run

        voted = majority_vote(preds)
        assert voted.runs == 1
        for rid, runs in labels.items():
            assert voted.labels[rid] == (Counter(runs).most_common(1)[0][0],)

        cases = [
            (35, 100, 20, 100),
            (7, 19, 3, 23),
            (1, 2, 1, 3),
            (4380, 14671, 271, 2300),
            (123, 4567, 89, 1011),
        ]
        for k1, n1, k2, n2 in cases:
            ref_z, ref_p = _reference_ztest(k1, n1, k2, n2)
            got = two_proportion_ztest(k1, n1, k2, n2)
            assert abs(got.z - ref_z) < 1e-9, (k1, n1, k2, n2)
            assert math.isclose(got.p_value, ref_p, rel_tol=1e-9), (k1, n1, k2, n2)

        equal = two_proportion_ztest(5, 10, 5, 10)
        assert equal.z == 0.0 and equal.p_value == 1.0
        degenerate = two_proportion_ztest(0, 10, 0, 20)
        assert (degenerate.z, degenerate.p_value) == (0.0, 1.0)

        headline = two_proportion_ztest(4380, 14671, 271, 2300)
        assert 0.0 < headline.p_value < 0.01
        assert headline.z > 0
        print("ACCEPTANCE 8: PASS  accuracy/grouping/vote match brute force, "
              "z-test within 1e-9 of the exact reference")


class TestC9Determinism:
    def test_c9_determinism(self, full_sets, tmp_path, monkeypatch):
        monkeypatch.delenv("WOGLI_LEXICON", raising=False)
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"det-{tag}.jsonl"
            code = run([
                "generate", "wogli", "--seed", "0", "--per-pattern", "1000",
                "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        library = tmp_path / "lib.jsonl"
        write_pairs(full_sets[0][GenerationSet.WOGLI], library)
        assert library.read_bytes() == outputs[0]
        print("ACCEPTANCE 9: PASS  byte-identical CLI reruns, library output equals CLI output")


# sha256 prefixes of the seed-0 sets at default sizes, as written by write_pairs
_SEED0_DIGESTS = {
    GenerationSet.WOGLI: "465d7c831cf82243",
    GenerationSet.P_SUBJECT: "15ca6bc7ee88a18a",
    GenerationSet.DATIVE: "e0064dc06bc220b2",
    GenerationSet.DITRANSITIVE: "21e513a6b20195d7",
    GenerationSet.OS_HARD: "8d853c1c79689cd9",
}


class TestC10ByteContract:
    def test_c10_seed0_digests(self, full_sets):
        sets, _ = full_sets
        for name, want in _SEED0_DIGESTS.items():
            buf = io.StringIO()
            write_pairs(sets[name], buf)
            got = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()[:16]
            assert got == want, name
        print("ACCEPTANCE 10: PASS  seed-0 digests of all five sets match")

    def test_c10_generated_rows_are_canonical(self, full_sets, replacement_base, monkeypatch):
        # sample-augmentation copies a canonical row as it is; every metadata
        # text written here holds strings only, so its plain join, never the
        # encoder, must find each row canonical
        sets, _ = full_sets
        for records in [*sets.values(), replacement_base]:
            buf = io.StringIO()
            write_pairs(records, buf)
            encoded, canonical = [], bytearray()
            with monkeypatch.context() as patch:
                patch.setattr(dataset_io._ROW_ENCODER, "encode", encoded.append)
                for _ in dataset_io._records(buf.getvalue().splitlines(), canonical):
                    pass
            assert len(canonical) == len(records) and all(canonical)
            assert encoded == []

    def test_c10_ids_name_their_pattern_draw_and_kind(self, full_sets, replacement_base, tmp_path,
                                                      monkeypatch, capsys):
        # no command keeps a set of ids: an id is unique because it names its
        # pattern, its draw and its hypothesis kind, and no draw is written twice
        sets, _ = full_sets
        suffix = {HypKind.H1_SO: "h1", HypKind.H1_SIO: "h1", HypKind.H2_OS: "h2",
                  HypKind.H2_IOS: "h2", HypKind.H3_OS: "h3"}
        patterns = {name: wogli_patterns() for name in GenerationSet}
        patterns[GenerationSet.DATIVE] = extended_patterns(Government.DATIVE)
        patterns[GenerationSet.DITRANSITIVE] = extended_patterns(Government.DITRANSITIVE)
        premises = {}  # (name, pattern index, draw) -> premise
        named = [*((name, name, sets[name]) for name in GenerationSet),
                 ("base", GenerationSet.WOGLI, replacement_base)]
        for tag, name, records in named:
            ids = [r.id for r in records]
            assert len(set(ids)) == len(ids), tag
            kinds = defaultdict(list)
            for r in records:
                m = re.fullmatch(rf"{re.escape(r.subset)}-p(\d\d)-d(\d{{5}})-(h\d)", r.id)
                assert m is not None, r.id
                index, draw = int(m[1]), int(m[2])
                assert patterns[name][index].name == r.pattern_name, r.id
                assert 0 <= draw < _PER_PATTERN[name], r.id
                assert m[3] == suffix[r.hyp_kind], r.id
                assert r.metadata["premise_id"] == f"{r.id.rpartition('-')[0]}-premise", r.id
                assert premises.setdefault((tag, index, draw), r.premise) == r.premise, r.id
                kinds[index, draw].append(r.hyp_kind)
            assert len({tuple(k) for k in kinds.values()}) == 1, tag  # each draw has every kind once
        # os-hard derives wogli's premises, draw for draw
        hard = {(i, d): p for (tag, i, d), p in premises.items() if tag == GenerationSet.OS_HARD}
        assert hard == {(i, d): p for (tag, i, d), p in premises.items() if tag == GenerationSet.WOGLI}

        monkeypatch.delenv("WOGLI_LEXICON", raising=False)
        for tag, name, records in named:
            extra = ["--seed", "92", "--with-replacement-dedup"] if tag == "base" else ["--seed", "0"]
            for fmt, header in (("rows", 0), ("tsv", 1)):
                out = tmp_path / f"{name.value}.{fmt}"
                assert run(["generate", name.value, *extra, "--format", fmt, "--out", str(out)]) == 0
                with out.open(encoding="utf-8") as handle:
                    rows = sum(1 for _ in handle) - header
                assert rows == len(records)
                assert capsys.readouterr().out.startswith(f"wrote {rows} pairs ("), (tag, fmt)
                out.unlink()
        print("ACCEPTANCE 10: PASS  every id is distinct and names its pattern, draw and hypothesis kind")
