"""Premise sampling, hypothesis derivation, and whole-set generation.

Golden sentences are frozen as byte-exact strings; the structural checks
run on the small toy lexicon so failures stay readable.
"""

import cProfile
import gc
import hashlib
import io
import json
import os
import pstats
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogli import (
    ArticleKind,
    Case,
    DataFormatError,
    ExhaustionError,
    Gender,
    GenerationSet,
    Government,
    HypKind,
    Label,
    LexiconError,
    MorphologyError,
    NPClass,
    NPSpec,
    Number,
    NumberClass,
    agree_verb,
    classify_number,
    derive_h1,
    derive_h2,
    derive_os_hard,
    extended_patterns,
    generate_set,
    parse_pattern_name,
    realize_premise,
    render_np,
    sample_premises,
    wogli_patterns,
    write_pairs,
)
import wogli
from wogli import generator
from wogli.morphology import PRONOUN, compile_sentence

from conftest import TOY_LEXICON, UNDRAWABLE_ROWS, make_toy
from oracles import p_subject_records


def _noun(lex, lemma):
    for pool in (lex.masc_common, lex.fem_common, lex.masc_proper, lex.fem_proper):
        for entry in pool:
            if entry.lemma == lemma:
                return entry
    raise LookupError(lemma)


def _verb(lex, government, lemma):
    return next(v for v in lex.verbs(government) if v.lemma == lemma)


def _np(lex, lemma, number=Number.SG, kind=ArticleKind.DEF):
    entry = _noun(lex, lemma)
    return NPSpec(entry, entry.gender, number, kind)


def _draw(lex, verb_lemma, subj, obj, government=Government.ACCUSATIVE, thing=None):
    return subj, obj, _verb(lex, government, verb_lemma), thing


def _say(draw, kind=None, spaced_period=False):
    """The premise of a draw (kind None), or its hypothesis of kind."""
    return compile_sentence(draw[2].government.object_case, kind, spaced_period)(*draw)


def _read(record, lex):
    """The (pattern, draw) that a record's metadata names."""
    return generator._read_record(record, generator._Tables(lex))


class TestGoldens:
    def test_base_accusative_triple(self, lex):
        draw = _draw(lex, "warnen", _np(lex, "Arzt"), _np(lex, "Kunde"))
        assert _say(draw) == "Der Arzt warnt den Kunden."
        assert _say(draw, HypKind.H1_SO) == "Der Kunde warnt den Arzt."
        assert _say(draw, HypKind.H2_OS) == "Den Kunden warnt der Arzt."
        assert _say(draw, HypKind.H3_OS) == "Den Arzt warnt der Kunde."

    def test_plural_object_verb_reagreement(self, lex):
        draw = _draw(lex, "empfehlen", _np(lex, "Minister"), _np(lex, "Autorin", Number.PL))
        assert _say(draw) == "Der Minister empfiehlt die Autorinnen."
        assert _say(draw, HypKind.H1_SO) == "Die Autorinnen empfehlen den Minister."
        assert _say(draw, HypKind.H2_OS) == "Die Autorinnen empfiehlt der Minister."
        assert _say(draw, HypKind.H3_OS) == "Den Minister empfehlen die Autorinnen."

    @pytest.mark.parametrize("subj_kind,subj_art", [
        (ArticleKind.DEF, "Der"), (ArticleKind.DEM, "Dieser"), (ArticleKind.INDEF, "Ein"),
    ])
    @pytest.mark.parametrize("obj_kind,obj_art", [
        (ArticleKind.DEF, "den"), (ArticleKind.DEM, "diesen"), (ArticleKind.INDEF, "einen"),
    ])
    def test_article_kind_grid(self, lex, subj_kind, subj_art, obj_kind, obj_art):
        draw = _draw(lex, "warnen",
                     _np(lex, "Arzt", kind=subj_kind), _np(lex, "Kunde", kind=obj_kind))
        assert _say(draw) == f"{subj_art} Arzt warnt {obj_art} Kunden."

    def test_pronoun_subject_pair(self, lex):
        draw = _draw(lex, "warnen", _np(lex, "Arzt").pronoun, _np(lex, "Gast"))
        assert _say(draw) == "Er warnt den Gast."
        assert _say(draw, HypKind.H1_SO) == "Der Gast warnt ihn."
        assert _say(draw, HypKind.H2_OS) == "Den Gast warnt er."

    def test_feminine_pronoun_subject(self, lex):
        draw = _draw(lex, "warnen", _np(lex, "Autorin").pronoun, _np(lex, "Gast"))
        assert _say(draw) == "Sie warnt den Gast."
        assert _say(draw, HypKind.H1_SO) == "Der Gast warnt sie."

    def test_dative_pair(self, lex):
        draw = _draw(lex, "gratulieren",
                     _np(lex, "Richter", kind=ArticleKind.INDEF),
                     _np(lex, "Berater", Number.PL, ArticleKind.DEM),
                     Government.DATIVE)
        assert _say(draw) == "Ein Richter gratuliert diesen Beratern."
        assert _say(draw, HypKind.H1_SO) == "Diese Berater gratulieren einem Richter."
        assert _say(draw, HypKind.H2_OS) == "Diesen Beratern gratuliert ein Richter."

    def test_ditransitive_pair(self, lex):
        thing = next(t for t in lex.thing_nouns if t.lemma == "Kuchen")
        draw = _draw(lex, "geben",
                     _np(lex, "Kellnerin", Number.PL),
                     _np(lex, "Händler", kind=ArticleKind.INDEF),
                     Government.DITRANSITIVE,
                     NPSpec(thing, thing.gender, thing.number, ArticleKind.DEF))
        assert _say(draw) == "Die Kellnerinnen geben einem Händler den Kuchen."
        assert _say(draw, HypKind.H1_SIO) == "Ein Händler gibt den Kellnerinnen den Kuchen."
        assert _say(draw, HypKind.H2_IOS) == "Einem Händler geben die Kellnerinnen den Kuchen."

    def test_spaced_period_layout(self, lex):
        draw = _draw(lex, "begrüßen", _np(lex, "Freundin"), _np(lex, "David", kind=ArticleKind.NONE))
        assert _say(draw, spaced_period=True) == "Die Freundin begrüßt David ."
        assert _say(draw, HypKind.H1_SO, spaced_period=True) == "David begrüßt die Freundin ."


class TestDerivations:
    @pytest.mark.parametrize("kind, subject_first, subject_nominative, label", [
        (HypKind.H1_SO, False, False, Label.NOT_ENTAILED),
        (HypKind.H2_OS, False, True, Label.ENTAILED),
        (HypKind.H3_OS, True, False, Label.NOT_ENTAILED),
        (HypKind.H1_SIO, False, False, Label.NOT_ENTAILED),
        (HypKind.H2_IOS, False, True, Label.ENTAILED),
    ])
    def test_hyp_kind_layout_table(self, kind, subject_first, subject_nominative, label):
        assert kind.subject_first is subject_first
        assert kind.subject_nominative is subject_nominative
        assert kind.label is label

    def test_pronominalize_keeps_gender_and_number(self, lex):
        pro = _np(lex, "Autorin").pronoun
        assert pro.head is PRONOUN
        assert pro.gender is Gender.FEM
        assert pro.number is Number.SG
        # each p-subject premise is the base set's draw of its index, its
        # subject replaced by that subject's pronoun
        tables = generator._Tables(lex)
        base = {r.id.removeprefix("wogli-")[:-3]: generator._read_record(r, tables)[1]
                for r in generate_set(GenerationSet.WOGLI, lex, seed=0, per_pattern=3)}
        records = generate_set(GenerationSet.P_SUBJECT, lex, seed=0, per_pattern=3)
        assert records
        for r in records:
            subject, *rest = generator._read_record(r, tables)[1]
            base_subject, *base_rest = base[r.id.removeprefix("wogli-p-subject-")[:-3]]
            assert subject is base_subject.pronoun, r.id
            assert (subject.gender, subject.number) == (base_subject.gender, base_subject.number)
            assert rest == base_rest, r.id


def _premises(records):
    seen = {}
    for r in records:
        seen.setdefault(r.metadata["premise_id"], r.premise)
    return seen


class TestSampling:
    def test_exact_mode_is_deterministic(self, toy_lex):
        a = sample_premises(GenerationSet.WOGLI, toy_lex, seed=5, per_pattern=2)
        b = sample_premises(GenerationSet.WOGLI, toy_lex, seed=5, per_pattern=2)
        assert a == b

    def test_different_seeds_differ(self, toy_lex):
        a = sample_premises(GenerationSet.WOGLI, toy_lex, seed=5, per_pattern=2)
        b = sample_premises(GenerationSet.WOGLI, toy_lex, seed=6, per_pattern=2)
        assert [realize_premise(i) for i in a] != [realize_premise(i) for i in b]

    def test_pattern_major_order_and_uniqueness(self, toy_lex):
        out = sample_premises(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=3)
        assert [i.seed_path for i in out] == [(p, d) for p in range(17) for d in range(3)]
        texts = [realize_premise(i) for i in out]
        assert len(set(texts)) == len(texts)

    def test_instances_match_their_pattern(self, toy_lex):
        for inst in sample_premises(GenerationSet.DATIVE, toy_lex, seed=3, per_pattern=2):
            assert inst.subject.number is inst.pattern.subject.number
            assert inst.object.number is inst.pattern.object.number
            assert inst.verb.government is Government.DATIVE

    def test_no_same_lemma_pairs_within_a_class(self, toy_lex):
        # Arzt vs Ärzte is fine across number classes; Arzt vs Arzt is not
        for inst in sample_premises(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=3):
            if inst.pattern.subject is inst.pattern.object:
                assert inst.subject.head.lemma != inst.object.head.lemma

    def test_exhaustion_names_the_pattern(self, toy_lex):
        with pytest.raises(ExhaustionError, match="pnoun_v_pnoun|sing_masc"):
            sample_premises(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=10_000)

    def test_surfaces_fewer_than_draws_exhaust_enumeration(self):
        # Kim is both a masculine and a feminine name: six draws of
        # pnoun_v_sing_masc render three distinct premises
        toy = make_toy(masc_proper=["Kim"], fem_proper=["Kim"],
                       masc_common=[{"lemma": "Arzt", "plural_nom": "Ärzte"}],
                       verbs_accusative=[{"lemma": "sehen", "form_3sg": "sieht", "form_3pl": "sehen"}])
        with pytest.raises(ExhaustionError) as info:
            generate_set(GenerationSet.WOGLI, toy, 0, 6)
        assert str(info.value) == ("pattern pnoun_v_sing_masc: 6 distinct premises requested, "
                                   "only 3 distinct surfaces exist")

    def test_rejection_sampling_stops_at_its_miss_budget(self, toy_lex, monkeypatch):
        # every pattern rejection-samples; at seed 0 a repeated premise is
        # drawn before the third of sing_masc_v_pnoun's, a miss over budget 0
        monkeypatch.setattr(generator, "_ENUMERATION_CUTOFF", 0)
        assert len(generate_set(GenerationSet.WOGLI, toy_lex, 0, 3)) == 17 * 3 * 2
        monkeypatch.setattr(generator, "_REJECTION_MISS_BUDGET", 0)
        with pytest.raises(ExhaustionError) as info:
            generate_set(GenerationSet.WOGLI, toy_lex, 0, 3)
        assert str(info.value) == "pattern sing_masc_v_pnoun: could not find 3 distinct premises"

    def test_replacement_mode_exhausts_an_empty_space(self):
        # one masculine noun leaves sing_masc_v_sing_masc no pair of distinct
        # lemmas; run apart, so that a redraw loop fails on the timeout
        data = {k: list(v) for k, v in TOY_LEXICON.items()}
        data["masc_common"] = [{"lemma": "Arzt", "plural_nom": "Ärzte"}]
        code = (
            "import sys\n"
            "from wogli import ExhaustionError, GenerationSet, generate_set, lexicon_from_text\n"
            "lex = lexicon_from_text(sys.stdin.read(), 'toy')\n"
            "try:\n"
            "    generate_set(GenerationSet.WOGLI, lex, seed=1, per_pattern=1, "
            "with_replacement=True)\n"
            "except ExhaustionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(wogli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], input=json.dumps(data), env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert "sing_masc_v_sing_masc" in done.stdout and "holds 0" in done.stdout

    def test_replacement_mode_returns_raw_draws(self, toy_lex):
        out = sample_premises(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=60,
                              with_replacement=True)
        assert len(out) == 17 * 60
        texts = {realize_premise(i) for i in out}
        assert len(texts) < len(out)  # tiny space, duplicates certain

    @pytest.mark.parametrize("per_pattern, with_replacement", [(0, False), (-1, True)])
    @pytest.mark.parametrize("name", list(GenerationSet))
    def test_per_pattern_below_one_is_refused(self, toy_lex, name, per_pattern, with_replacement):
        for entry_point in (generate_set, sample_premises):
            with pytest.raises(ValueError, match="^per_pattern must be positive$"):
                entry_point(name, toy_lex, 0, per_pattern, with_replacement)


def _spaced_forms(lex):
    # with forms "sieht den" / "sehen den" and a name "Arzt", "Er sieht den
    # Arzt." is a premise of two draws, which p-subject's dedup would keep both of
    verb = replace(lex.verbs_acc[0], lemma="ansehen", form_3sg="sieht den", form_3pl="sehen den")
    arzt = replace(lex.masc_proper[0], lemma="Arzt")
    return replace(lex, verbs_acc=(*lex.verbs_acc, verb), masc_proper=(*lex.masc_proper, arzt))


def _no_thing_for_giving(lex):
    # drawing a direct object for geben would end in a bare IndexError
    giving = _verb(lex, Government.DITRANSITIVE, "geben").semantic_category
    return replace(lex, thing_nouns=tuple(t for t in lex.thing_nouns if giving not in t.compatible_categories))


def _equal_forms(lex):
    # agreement would mark nothing: the verb would not tell a singular subject from a plural one
    return replace(lex, verbs_acc=(replace(lex.verbs_acc[0], form_3pl=lex.verbs_acc[0].form_3sg),
                                   *lex.verbs_acc[1:]))


def _listed_twice(lex):
    return replace(lex, verbs_acc=(*lex.verbs_acc, _verb(lex, Government.ACCUSATIVE, "sehen")))


def _name_spells_an_article(lex):
    # a name that, capitalised at the start of a premise, reads as the article "Der"
    return replace(lex, masc_proper=(*lex.masc_proper, replace(lex.masc_proper[0], lemma="Der")))


def _noun_form_spells_a_verb(lex):
    # a verb form that is also a noun form, here the dative plural of Arzt
    verb = replace(lex.verbs_dat[0], lemma="ärzten", form_3sg="ärztet", form_3pl="Ärzten")
    return replace(lex, verbs_dat=(*lex.verbs_dat, verb))


# bundled lexicons built in code that break a rule generation relies on,
# each with the finding that names the rule
_BROKEN = {
    "form-with-a-space": (_spaced_forms, "verbs_acc: form_3sg 'sieht den' is empty or holds whitespace"),
    "no-thing-for-a-verb": (_no_thing_for_giving, "verb 'geben': no direct-object noun matches its category"),
    "equal-3sg-3pl": (_equal_forms, "verb 'warnen': 3sg and 3pl forms must differ"),
    "lemma-listed-twice": (_listed_twice, "verbs_acc: lemma 'sehen' is listed twice"),
    "name-spells-an-article": (_name_spells_an_article, "masc_proper: name 'Der' spells the article 'der'"),
    "noun-form-spells-a-verb": (_noun_form_spells_a_verb,
                                "masc_common: 'Arzt' has the form 'Ärzten' of verb 'ärzten'"),
}


class TestLexiconGate:
    """The library refuses every lexicon the CLI refuses: each entry point
    builds a _Tables, which runs TOY validation on its lexicon first."""

    @staticmethod
    def _broken(lex, broken):
        """The broken lexicon, and a pattern its error matches: the finding among the first three."""
        build, finding = _BROKEN[broken]
        return build(lex), rf"^lexicon rejected: (.*; )?{re.escape(finding)}"

    @pytest.mark.parametrize("broken", _BROKEN)
    @pytest.mark.parametrize("name", list(GenerationSet))
    def test_generate_set(self, lex, broken, name):
        bad, error = self._broken(lex, broken)
        for with_replacement in (False, True):
            with pytest.raises(LexiconError, match=error):
                generate_set(name, bad, 0, 5, with_replacement)

    @pytest.mark.parametrize("broken", _BROKEN)
    @pytest.mark.parametrize("name", list(GenerationSet))
    def test_sample_premises(self, lex, broken, name):
        bad, error = self._broken(lex, broken)
        with pytest.raises(LexiconError, match=error):
            sample_premises(name, bad, 0, 5)

    @pytest.mark.parametrize("broken", _BROKEN)
    def test_derive_os_hard(self, lex, broken):
        records = generate_set(GenerationSet.WOGLI, lex, 0, 1)
        bad, error = self._broken(lex, broken)
        with pytest.raises(LexiconError, match=error):
            derive_os_hard(records, bad)


class TestGenerateSet:
    def test_base_set_shape(self, toy_lex):
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=2)
        assert type(records) is list and type(derive_os_hard(records, toy_lex)) is list
        assert len(records) == 17 * 2 * 2
        assert {r.subset for r in records} == {"wogli"}
        ids = [r.id for r in records]
        assert len(set(ids)) == len(ids)
        for r in records:
            assert re.fullmatch(r"wogli-p\d{2}-d\d{5}-(h1|h2)", r.id), r.id
            assert r.label is r.hyp_kind.label
        by_kind = Counter(r.hyp_kind for r in records)
        assert by_kind == {HypKind.H1_SO: 34, HypKind.H2_OS: 34}

    def test_pairs_share_premise_and_metadata(self, toy_lex):
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=2)
        for h1, h2 in zip(records[::2], records[1::2]):
            assert h1.hyp_kind is HypKind.H1_SO and h2.hyp_kind is HypKind.H2_OS
            assert h1.premise == h2.premise
            assert h1.metadata == h2.metadata
            assert h1.hypothesis != h2.hypothesis
            assert h1.id[:-3] == h2.id[:-3]

    def test_every_record_owns_its_metadata(self, toy_lex):
        """A premise's records hold equal metadata, each in a dict of its own,
        in every set and in a derived one."""
        for name in GenerationSet:
            records = generate_set(name, toy_lex, seed=1, per_pattern=2)
            assert len({id(r.metadata) for r in records}) == len(records), name
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=2)
        derived = derive_os_hard(records, toy_lex)
        assert len({id(r.metadata) for r in derived + records}) == len(derived) + len(records)
        first, second = records[:2]
        first.metadata["verb_lemma"] = "x"
        assert second.metadata["verb_lemma"] != "x"

    def test_hypotheses_match_the_derivations(self, toy_lex):
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=4, per_pattern=2)
        for r in records:
            _, draw = _read(r, toy_lex)
            assert _say(draw) == r.premise
            assert _say(draw, r.hyp_kind) == r.hypothesis

    def test_metadata_fields(self, toy_lex):
        r = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=1)[0]
        meta = r.metadata
        for key in ("premise_id", "verb_lemma",
                    "subject_lemma", "subject_kind", "subject_gender",
                    "subject_number", "subject_article", "subject_definiteness",
                    "object_lemma", "object_kind", "object_gender",
                    "object_number", "object_article", "object_definiteness"):
            assert key in meta, key
        assert meta["premise_id"].endswith("-premise")
        for role in ("subject", "object"):
            expected = "indefinite" if meta[f"{role}_article"] == "indef" else "definite"
            assert meta[f"{role}_definiteness"] == expected

    def test_p_subject_set(self, toy_lex):
        records = generate_set(GenerationSet.P_SUBJECT, toy_lex, seed=1, per_pattern=2)
        assert {r.subset for r in records} == {"wogli-p-subject"}
        premises = _premises(records)
        assert len(records) == 2 * len(premises)
        for text in premises.values():
            assert text.split()[0] in ("Er", "Sie")
        assert len(set(premises.values())) == len(premises)

    def test_p_subject_collapses_same_surface(self, toy_lex):
        # two premises that differ only in the subject NP pronominalize to one
        a = _draw(toy_lex, "sehen", _np(toy_lex, "Arzt").pronoun, _np(toy_lex, "Autorin"))
        b = _draw(toy_lex, "sehen",
                  _np(toy_lex, "Kunde", kind=ArticleKind.DEM).pronoun, _np(toy_lex, "Autorin"))
        assert _say(a) == _say(b) == "Er sieht die Autorin."

    def test_p_subject_keeps_the_earlier_draw_across_patterns(self, toy_lex, monkeypatch):
        # a masculine name (pattern 0, pnoun_v_sing_masc) and a singular
        # masculine noun (pattern 9, sing_masc_v_sing_masc) both become "Er":
        # with the same verb and object, only the earlier draw's row is kept
        peter, kunde = _np(toy_lex, "Peter", kind=ArticleKind.NONE), _np(toy_lex, "Kunde")
        draws = {
            0: [_draw(toy_lex, "hören", peter, _np(toy_lex, "Arzt")), _draw(toy_lex, "sehen", peter, kunde)],
            9: [_draw(toy_lex, "sehen", _np(toy_lex, "Arzt", kind=ArticleKind.DEM), kunde),
                _draw(toy_lex, "sehen", _np(toy_lex, "Arzt"), _np(toy_lex, "Kunde", kind=ArticleKind.INDEF))],
        }

        def sample(pattern, pattern_index, *args):
            for d, draw in enumerate(draws.get(pattern_index, ())):
                yield _say(draw), draw, d

        def pronominal(draw):
            return _say((draw[0].pronoun, *draw[1:]))

        assert pronominal(draws[0][1]) == pronominal(draws[9][0]) == "Er sieht den Kunden."
        monkeypatch.setattr(generator, "_sample_pattern", sample)
        records = generate_set(GenerationSet.P_SUBJECT, toy_lex, seed=0, per_pattern=2)
        assert [(r.id, r.pattern_name, r.premise) for r in records[::2]] == [
            ("wogli-p-subject-p00-d00000-h1", "pnoun_v_sing_masc", "Er hört den Arzt."),
            ("wogli-p-subject-p00-d00001-h1", "pnoun_v_sing_masc", "Er sieht den Kunden."),
            ("wogli-p-subject-p09-d00001-h1", "sing_masc_v_sing_masc", "Er sieht einen Kunden."),
        ]

    @pytest.mark.parametrize("lexicon", ["bundled", "toy", "shared-name", "reduced"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("with_replacement", [False, True])
    def test_p_subject_matches_the_text_keyed_reference(self, lexicon, seed, with_replacement, lex):
        """The set keys its dedup on a premise's parts; the reference keys it
        on the premise's text. In shared-name, Peter is a masculine and a
        feminine name: two object specs with one text. The toy lexicons and
        the bench's reduced one (its accusative cuts) enumerate every pattern
        and the bundled one rejection-samples every pattern, unless drawn
        with replacement, which always rejection-samples."""
        chosen, per_pattern = {
            "bundled": (lex, 60),
            "toy": (make_toy(), 16),
            "shared-name": (make_toy(fem_proper=["Anna", "Peter"]), 16),
            "reduced": (replace(lex, verbs_acc=lex.verbs_acc[:10], masc_common=lex.masc_common[:8],
                                fem_common=lex.fem_common[:8], masc_proper=lex.masc_proper[:8],
                                fem_proper=lex.fem_proper[:8]), 300),
        }[lexicon]
        enumerated = {generator._space_size(p, chosen, None) <= generator._ENUMERATION_CUTOFF
                      for p in generator._patterns_for(GenerationSet.P_SUBJECT)}
        assert enumerated == {lexicon != "bundled"}
        got = generate_set(GenerationSet.P_SUBJECT, chosen, seed, per_pattern, with_replacement)
        want = p_subject_records(chosen, seed, per_pattern, with_replacement)
        assert len(got) < 2 * 17 * per_pattern  # some pronoun premises collide
        assert _digest(got) == _digest(want)

    def test_p_subject_dedup_memory_is_bounded_by_the_lexicon(self, lex):
        # with a set of every kept premise's text, 2,000 draws per pattern
        # instead of 500 grew the traced peak by about 3.2 MiB
        def traced_peak(per_pattern):
            build = generator._Records(GenerationSet.P_SUBJECT, False, encode=True)
            rows = generator._set_records(GenerationSet.P_SUBJECT, lex, 0, per_pattern, False, build)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            deque(rows, maxlen=0)
            return tracemalloc.get_traced_memory()[1] - before

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            traced_peak(10)  # build the caches every run shares
            small, large = traced_peak(500), traced_peak(2000)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert large - small < 0.5 * 2**20

    def test_os_hard_set(self, toy_lex):
        base = generate_set(GenerationSet.WOGLI, toy_lex, seed=9, per_pattern=2)
        hard = generate_set(GenerationSet.OS_HARD, toy_lex, seed=9, per_pattern=2)
        assert len(hard) == len(base) // 2
        assert {r.subset for r in hard} == {"wogli-os-hard"}
        assert all(r.hyp_kind is HypKind.H3_OS for r in hard)
        assert all(r.label is Label.NOT_ENTAILED for r in hard)
        assert [r.premise for r in hard] == [r.premise for r in base[::2]]
        for r in hard:
            assert r.hypothesis == _say(_read(r, toy_lex)[1], HypKind.H3_OS)

    def test_dative_set_shape(self, toy_lex):
        records = generate_set(GenerationSet.DATIVE, toy_lex, seed=1, per_pattern=1)
        assert len(records) == 24 * 2
        assert {r.subset for r in records} == {"wogli-dative"}
        assert {r.hyp_kind for r in records} == {HypKind.H1_SO, HypKind.H2_OS}

    def test_ditransitive_set_shape(self, toy_lex):
        records = generate_set(GenerationSet.DITRANSITIVE, toy_lex, seed=1, per_pattern=1)
        assert len(records) == 24 * 2
        assert {r.hyp_kind for r in records} == {HypKind.H1_SIO, HypKind.H2_IOS}
        for r in records:
            assert r.metadata["direct_object_lemma"] == "Kuchen"
            # the definite direct object closes premise and hypotheses alike
            for text in (r.premise, r.hypothesis):
                assert text.split()[-2:] == ["den", "Kuchen."]

    def test_with_replacement_collapses_duplicates(self, toy_lex):
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=60,
                               with_replacement=True)
        premises = _premises(records)
        assert len(records) == 2 * len(premises)
        assert len(set(premises.values())) == len(premises)
        assert len(premises) < 17 * 60

    def test_generation_is_reproducible(self, toy_lex):
        a = generate_set(GenerationSet.DITRANSITIVE, toy_lex, seed=2, per_pattern=2)
        b = generate_set(GenerationSet.DITRANSITIVE, toy_lex, seed=2, per_pattern=2)
        assert a == b

    @pytest.mark.parametrize("encode", [False, True], ids=["records", "rows"])
    @pytest.mark.parametrize("with_replacement", [False, True])
    def test_ids_are_unique_while_draw_indexes_rise(self, encode, with_replacement, toy_lex, monkeypatch):
        # no id is kept: a pattern whose draw index fails to rise would repeat
        # its ids, and is refused at its first row, before any row is rendered
        sample = generator._sample_pattern

        def repeating(*args):
            for premise, draw, d in sample(*args):
                yield premise, draw, d
                if d == 1:
                    yield premise, draw, d

        monkeypatch.setattr(generator, "_sample_pattern", repeating)
        build = generator._Records(GenerationSet.WOGLI, False, encode=encode)
        rows = generator._set_records(GenerationSet.WOGLI, toy_lex, 1, 2, with_replacement, build)
        with pytest.raises(DataFormatError, match=r"^duplicate record id 'wogli-p00-d00001-h1'$"):
            for _ in rows:
                pass
        assert build.rows == 2 * 2  # the rows of draws 0 and 1


# pool sizes: every size up to 4097, and each power of two with its neighbours
_POOL_SIZES = st.one_of(
    st.integers(1, 4097),
    st.sampled_from([n for e in range(13) for n in (2 ** e - 1, 2 ** e, 2 ** e + 1) if n]),
)
# seeds as the generator spells them, and any other string
_SEEDS = st.one_of(
    st.builds("{}:{}:{}".format, st.integers(0, 10 ** 6),
              st.sampled_from([g.value for g in Government]), st.integers(0, 40)),
    st.text(max_size=20),
)


class TestOwnedChoice:
    """The generator draws through its own choice over getrandbits; the
    bytes stay those random.Random.choice gave on CPython 3.10-3.13."""

    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, sizes=st.lists(_POOL_SIZES, min_size=1, max_size=6),
           flat=_POOL_SIZES, draws=st.integers(1, 40))
    def test_draws_match_random_choice(self, seed, sizes, flat, draws):
        # as a rejection draw makes them: one item of one of a pool of
        # groups, then one of a flat pool, and so on
        ours, theirs = random.Random(seed), random.Random(seed)
        groups, pool = [range(n) for n in sizes], range(flat)
        nested = generator._group_chooser(ours.getrandbits, groups)
        single = generator._chooser(ours.getrandbits, pool)
        for _ in range(draws):
            assert nested() == theirs.choice(theirs.choice(groups))
            assert single() == theirs.choice(pool)
        assert ours.getstate() == theirs.getstate()

    def test_an_empty_pool_is_an_error_not_an_endless_draw(self):
        getrandbits = random.Random("0:accusative:0").getrandbits
        with pytest.raises(IndexError, match="empty pool"):
            generator._chooser(getrandbits, [])
        with pytest.raises(IndexError, match="empty pool"):
            generator._group_chooser(getrandbits, [])
        with pytest.raises(IndexError, match="empty pool"):
            generator._group_chooser(getrandbits, [[1, 2], []])

    def test_seeded_getrandbits_stream_is_pinned(self):
        """Seeding by string and getrandbits are all the draws still take
        from random.Random: a Python that changes either fails here, by name."""
        rng = random.Random("0:accusative:0")
        assert [rng.getrandbits(k) for k in (1, 2, 3, 5, 6, 13, 32)] == [1, 0, 3, 2, 26, 5870, 1998545550]
        assert random.Random("0:accusative:0").getrandbits(64) == 1806522913716932447

    @pytest.mark.parametrize("name, budget", [(GenerationSet.WOGLI, 13.0), (GenerationSet.DITRANSITIVE, 15.5)])
    def test_calls_per_row(self, lex, name, budget):
        """A default-size set's encoded rows make at most budget calls a row,
        counting every function and builtin the profiler sees (12.6 and
        15.1 on Python 3.11, where drawing through random.Random.choice
        made 28.5 and 32.9), and random.py only seeds one RNG per pattern."""
        per_pattern = generator._SETS[name][3]
        build = generator._Records(name, False, encode=True)
        profile = cProfile.Profile()
        rows = profile.runcall(list, generator._set_records(name, lex, 0, per_pattern, False, build))
        stats = pstats.Stats(profile).stats
        patterns = len(generator._patterns_for(name))
        from_random = {func: stat[1] for (path, _, func), stat in stats.items()
                       if os.path.basename(path) == "random.py"}
        assert from_random == {"__init__": patterns, "seed": patterns}
        calls = sum(stat[1] for stat in stats.values())
        assert calls / len(rows) <= budget, calls / len(rows)


@pytest.mark.parametrize("spaced", [False, True])
@pytest.mark.parametrize("name", [GenerationSet.WOGLI, GenerationSet.DATIVE, GenerationSet.DITRANSITIVE])
def test_public_derivations_match_the_set(lex, name, spaced):
    """realize_premise, derive_h1 and derive_h2 of sample_premises' draws
    are the premises and hypotheses generate_set writes, in order."""
    draws = sample_premises(name, lex, seed=3, per_pattern=4)
    records = generate_set(name, lex, seed=3, per_pattern=4, spaced_period=spaced)
    assert len(records) == 2 * len(draws)
    for inst, first, second in zip(draws, records[::2], records[1::2]):
        assert realize_premise(inst, spaced) == first.premise == second.premise, first.id
        assert derive_h1(inst, spaced) == first.hypothesis, first.id
        assert derive_h2(inst, spaced) == second.hypothesis, second.id


class TestInvariants:
    @pytest.mark.parametrize("name", [
        GenerationSet.WOGLI, GenerationSet.P_SUBJECT, GenerationSet.DATIVE,
        GenerationSet.DITRANSITIVE, GenerationSet.OS_HARD,
    ])
    def test_token_and_length_invariants(self, toy_lex, name):
        records = generate_set(name, toy_lex, seed=7, per_pattern=2)
        low, high = (6, 7) if name is GenerationSet.DITRANSITIVE else (4, 5)
        if name is GenerationSet.P_SUBJECT:
            low = 3  # pronoun subject drops a token; proper object drops another
        for r in records:
            for text in (r.premise, r.hypothesis):
                assert low <= len(text.split()) <= high, text
            if r.hyp_kind in (HypKind.H2_OS, HypKind.H2_IOS):
                prem = Counter(t.lower() for t in r.premise.rstrip(" .").split())
                hyp = Counter(t.lower() for t in r.hypothesis.rstrip(" .").split())
                assert prem == hyp, r.id

    def test_verb_form_changes_iff_numbers_differ(self, toy_lex):
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=7, per_pattern=2)
        for r in records:
            if r.hyp_kind is not HypKind.H1_SO:
                continue
            pattern = parse_pattern_name(r.pattern_name, Government.ACCUSATIVE)
            prem_verb = r.premise.split()[2 if r.metadata["subject_kind"] != "proper" else 1]
            hyp_verb = r.hypothesis.split()[2 if r.metadata["object_kind"] != "proper" else 1]
            if classify_number(pattern) is NumberClass.ALL_SINGULAR:
                assert prem_verb == hyp_verb, r.id
            else:
                same = pattern.subject.number is pattern.object.number
                assert (prem_verb == hyp_verb) == same, r.id


class TestRecordRoundTrip:
    def test_reconstruction_errors(self, toy_lex):
        record = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=1)[0]
        with pytest.raises(DataFormatError, match="metadata"):
            _read(replace(record, metadata={}), toy_lex)
        bad_verb = dict(record.metadata, verb_lemma="tanzen")
        with pytest.raises(DataFormatError, match="tanzen"):
            _read(replace(record, metadata=bad_verb), toy_lex)
        bad_noun = dict(record.metadata, subject_lemma="Hund")
        with pytest.raises(DataFormatError, match="Hund"):
            _read(replace(record, metadata=bad_noun), toy_lex)
        # a lexicon whose tables hold none of the class the pattern names
        fem = next(r for r in generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=1)
                   if r.pattern_name.startswith("sing_fem_"))
        with pytest.raises(DataFormatError, match=f"record {fem.id}: class sing_fem has no subject"):
            _read(fem, make_toy(fem_common=[]))

    def test_a_verb_is_looked_up_by_lemma_in_its_government(self, toy_lex):
        """A lexicon that lists a lemma twice is refused before any lookup; a
        lemma that is not a string, or names a verb of another government
        only, is a miss."""
        record = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=1)[0]
        first = next(v for v in toy_lex.verbs_acc if v.lemma == record.metadata["verb_lemma"])
        twice = replace(toy_lex, verbs_acc=(*toy_lex.verbs_acc, replace(first, form_3sg="x")))
        with pytest.raises(LexiconError, match=re.escape(
                f"lexicon rejected: verbs_acc: lemma {first.lemma!r} is listed twice")):
            _read(record, twice)
        for lemma in (["sehen"], 1, None, toy_lex.verbs_dat[0].lemma):
            with pytest.raises(DataFormatError, match=re.escape(f"verb {lemma!r} not in the lexicon")):
                _read(replace(record, metadata=dict(record.metadata, verb_lemma=lemma)), toy_lex)

    def test_a_pattern_name_that_is_not_canonical(self, toy_lex):
        record = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=1)[0]
        with pytest.raises(DataFormatError) as info:
            _read(replace(record, pattern_name="zzz"), toy_lex)
        assert str(info.value) == f"record {record.id}: not a canonical pattern name: 'zzz'"

    def test_a_pronoun_lemma_must_be_its_pronoun(self, toy_lex):
        record = generate_set(GenerationSet.P_SUBJECT, toy_lex, seed=1, per_pattern=1)[0]
        assert record.metadata["subject_kind"] == "pronoun"
        _, (subject, *_) = _read(record, toy_lex)
        assert subject.lemma == record.metadata["subject_lemma"]
        quatsch = dict(record.metadata, subject_lemma="Quatsch")
        with pytest.raises(DataFormatError, match=f"record {record.id}: subject_lemma is 'Quatsch'"):
            _read(replace(record, metadata=quatsch), toy_lex)

    def test_only_a_subject_can_be_a_pronoun(self, toy_lex):
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=1)
        record = next(r for r in records if r.metadata["object_kind"] == "proper")
        as_pronoun = dict(record.metadata, object_kind="pronoun")
        with pytest.raises(DataFormatError, match=f"record {record.id}: object: only a subject"):
            _read(replace(record, metadata=as_pronoun), toy_lex)

    @pytest.mark.parametrize("key, value", [
        ("subject_definiteness", "indefinite"),
        ("object_kind", "thing"),
    ])
    def test_metadata_must_be_what_its_np_writes(self, toy_lex, key, value):
        records = generate_set(GenerationSet.WOGLI, toy_lex, seed=1, per_pattern=1)
        record = next(r for r in records if r.metadata["subject_article"] == "def"
                      and r.metadata["object_kind"] == "common")
        edited = dict(record.metadata, **{key: value})
        with pytest.raises(DataFormatError, match=f"record {record.id}: {key} is {value!r}"):
            _read(replace(record, metadata=edited), toy_lex)

    def test_dative_records_round_trip(self, toy_lex):
        for record in generate_set(GenerationSet.DATIVE, toy_lex, seed=4, per_pattern=2):
            pattern, draw = _read(record, toy_lex)
            assert pattern.government is Government.DATIVE
            assert _say(draw) == record.premise
            assert _say(draw, record.hyp_kind) == record.hypothesis

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           with_replacement=st.booleans(), spaced=st.booleans())
    def test_every_record_is_rederivable(self, toy_lex_module, seed, with_replacement, spaced):
        for name in GenerationSet:
            records = generate_set(name, toy_lex_module, seed=seed, per_pattern=2,
                                   with_replacement=with_replacement, spaced_period=spaced)
            for r in records:
                pattern, draw = _read(r, toy_lex_module)
                case = pattern.government.object_case
                assert compile_sentence(case, None, spaced)(*draw) == r.premise, r.id
                assert compile_sentence(case, r.hyp_kind, spaced)(*draw) == r.hypothesis, r.id
                assert r.label is r.hyp_kind.label, r.id

    def test_ditransitive_records_round_trip(self, lex):
        for record in generate_set(GenerationSet.DITRANSITIVE, lex, seed=5, per_pattern=2):
            pattern, draw = _read(record, lex)
            assert pattern.government is Government.DITRANSITIVE
            assert draw[3].lemma == record.metadata["direct_object_lemma"]
            assert _say(draw) == record.premise
            assert compile_sentence(Case.DAT, record.hyp_kind)(*draw) == record.hypothesis

    def test_a_direct_object_must_be_one_its_verb_takes(self):
        toy = make_toy(
            verbs_ditransitive=[*TOY_LEXICON["verbs_ditransitive"],
                                {"lemma": "schicken", "form_3sg": "schickt", "form_3pl": "schicken",
                                 "category": "sending"}],
            thing_nouns=[*TOY_LEXICON["thing_nouns"],
                         {"lemma": "Brief", "gender": "masc", "number": "sg", "categories": ["sending"]}],
        )
        records = generate_set(GenerationSet.DITRANSITIVE, toy, seed=1, per_pattern=1)
        record = next(r for r in records if r.metadata["verb_lemma"] == "geben")
        brief = replace(record, metadata=dict(record.metadata, direct_object_lemma="Brief"))
        with pytest.raises(DataFormatError, match=re.escape(
                f"record {record.id}: direct_object_lemma is 'Brief', "
                f"but its direct_object writes 'Kuchen' (verb 'geben')")):
            _read(brief, toy)
        # a direct object on a row of another set stays a format error
        wogli_row = generate_set(GenerationSet.WOGLI, toy, seed=1, per_pattern=1)[0]
        with_thing = replace(wogli_row, metadata={**wogli_row.metadata, **brief.metadata})
        with pytest.raises(DataFormatError, match="only ditransitive records have a direct object"):
            _read(with_thing, toy)

    @pytest.mark.parametrize("row_id, change, premise, why", UNDRAWABLE_ROWS,
                             ids=["plural-subject", "self-pair"])
    def test_an_np_its_pattern_never_draws(self, lex, row_id, change, premise, why):
        records = generate_set(GenerationSet.WOGLI, lex, seed=3, per_pattern=8)
        record = next(r for r in records if r.id == row_id)
        edited = replace(record, premise=premise, metadata=dict(record.metadata, **change))
        with pytest.raises(DataFormatError, match=re.escape(f"record {row_id}: {why}")):
            _read(edited, lex)

    def test_derive_os_hard_matches_direct_generation(self, toy_lex):
        base = generate_set(GenerationSet.WOGLI, toy_lex, seed=3, per_pattern=2)
        direct = generate_set(GenerationSet.OS_HARD, toy_lex, seed=3, per_pattern=2)
        derived = derive_os_hard(base, toy_lex)
        assert [(r.id, r.premise, r.hypothesis, r.label) for r in derived] == \
               [(r.id, r.premise, r.hypothesis, r.label) for r in direct]

    @staticmethod
    def _strip_premise_ids(toy_lex, at):
        """WOGLI rows with premise_id dropped from row at onwards, and the row at."""
        base = generate_set(GenerationSet.WOGLI, toy_lex, seed=3, per_pattern=2)
        edited = [
            replace(r, metadata={k: v for k, v in r.metadata.items() if k != "premise_id"})
            if i >= at else r
            for i, r in enumerate(base)
        ]
        return edited, base[at]

    def test_derive_os_hard_without_premise_ids(self, toy_lex):
        # a row without one names no draw; its derived ids would be guesses
        edited, first = self._strip_premise_ids(toy_lex, 0)
        own = first.metadata["premise_id"]
        with pytest.raises(DataFormatError, match=re.escape(
                f"record {first.id}: premise_id is None, not {own!r}")):
            derive_os_hard(edited, toy_lex)

    def test_derive_os_hard_without_second_premise_id(self, toy_lex):
        # the rows before it are read; the first row without one is named
        edited, row = self._strip_premise_ids(toy_lex, 2)
        own = row.metadata["premise_id"]
        with pytest.raises(DataFormatError, match=re.escape(
                f"record {row.id}: premise_id is None, not {own!r}")):
            derive_os_hard(edited, toy_lex)

    def test_derive_os_hard_rejects_one_draw_under_two_subsets(self, toy_lex):
        # both sets name draw p00-d00000, so their derived ids would repeat
        base = generate_set(GenerationSet.WOGLI, toy_lex, seed=3, per_pattern=2)
        psub = generate_set(GenerationSet.P_SUBJECT, toy_lex, seed=3, per_pattern=2)
        with pytest.raises(DataFormatError, match=re.escape(
                f"record {psub[0].id}: premise {psub[0].metadata['premise_id']!r} has the draw "
                f"p00-d00000 of record {base[0].id}, another premise")):
            derive_os_hard(base + psub, toy_lex)

    def test_derive_os_hard_needs_metadata(self, toy_lex):
        base = generate_set(GenerationSet.WOGLI, toy_lex, seed=3, per_pattern=1)
        bare = [replace(r, metadata={}) for r in base]
        with pytest.raises(DataFormatError):
            derive_os_hard(bare, toy_lex)


def test_compiled_slots_match_render_np(lex):
    tables = generator._Tables(lex)
    specs = [spec for cls in NPClass for spec in tables.slots[cls]]
    # one pronoun spec per gender and number, told apart by identity
    pronouns = list({id(spec.pronoun): spec.pronoun for spec in specs}.values())
    assert len(pronouns) == 4
    specs += pronouns
    specs += [thing for _, thing in tables.verb_things[Government.DITRANSITIVE]]
    heads = {spec.head for spec in specs}
    assert heads >= {*lex.masc_common, *lex.fem_common, *lex.masc_proper, *lex.fem_proper}
    assert heads >= {*lex.thing_nouns}
    for spec in specs:
        want = [
            None if spec.head is PRONOUN and case is Case.DAT else " ".join(render_np(spec, case))
            for case in (Case.NOM, Case.ACC, Case.DAT)
        ]
        assert spec.texts == (*want, *(w and w[0].upper() + w[1:] for w in want))
        if spec.head is PRONOUN:
            with pytest.raises(MorphologyError):
                render_np(spec, Case.DAT)


def test_tables_go_with_their_last_reference(lex):
    """_Tables holds no reference cycle, the read side's tables included,
    so reference counting frees it without the cycle collector."""
    record = generate_set(GenerationSet.DITRANSITIVE, lex, seed=0, per_pattern=1)[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        tables = generator._Tables(lex)
        generator._read_record(record, tables)
        assert tables.indexes and tables.patterns
        freed = weakref.ref(tables)
        del tables
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_every_spec_owns_its_metadata_and_pronoun(lex):
    """The reader finds every spec of the bundled lexicon by its own
    metadata: each class spec as a subject and as an object of its class,
    its pronoun as a subject of that class, and each thing as the direct
    object of each verb that takes it; the agreeing pronoun is one spec per
    gender and number, shared."""
    tables = generator._Tables(lex)
    pronouns = {}
    for cls in NPClass:
        for spec in tables.slots[cls]:
            assert list(spec.metadata) == ["subject", "object"]
            for role, meta in spec.metadata.items():
                assert tables.np(cls, role, dict(meta), "spec") is spec, (spec, role)
            pronoun = spec.pronoun
            assert list(pronoun.metadata) == ["subject"]
            assert tables.np(cls, "subject", dict(pronoun.metadata["subject"]), "spec") is pronoun
            pronouns[id(pronoun)] = pronoun
    assert len(pronouns) == 4
    assert {(p.gender, p.number) for p in pronouns.values()} == \
           {(g, n) for g in (Gender.MASC, Gender.FEM) for n in Number}
    for pronoun in pronouns.values():
        assert pronoun.pronoun is pronoun
    things = set()
    for verb, specs in tables.verbs[Government.DITRANSITIVE]:
        for thing in specs:
            assert list(thing.metadata) == ["direct_object"]
            meta = dict(thing.metadata["direct_object"])
            assert tables.np(verb, "direct_object", meta, "spec") is thing, (verb, thing)
            things.add(thing.head)
    assert things == {*lex.thing_nouns}


def _reference_sentence(subject, obj, verb, object_case, kind, thing, spaced_period):
    """The token layout the compiled sentences replace: the nominative
    argument's tokens, the agreeing verb and the other argument's tokens in
    the kind's order, the direct object's, the first token capitalised."""
    subject_nominative = kind is None or kind.subject_nominative
    nominative, other = (subject, obj) if subject_nominative else (obj, subject)
    nominative_tokens, other_tokens = render_np(nominative, Case.NOM), render_np(other, object_case)
    verb_form = agree_verb(verb, nominative.number)
    if (kind is None or kind.subject_first) == subject_nominative:
        tokens = [*nominative_tokens, verb_form, *other_tokens]
    else:
        tokens = [*other_tokens, verb_form, *nominative_tokens]
    if thing is not None:
        tokens.extend(render_np(thing, Case.ACC))
    tokens[0] = tokens[0][0].upper() + tokens[0][1:]
    return " ".join(tokens) + (" ." if spaced_period else ".")


def test_compiled_sentences_match_token_layout(lex):
    """Every slot of the bundled lexicon, as subject and as object of every
    accusative, dative and ditransitive pattern, and pronoun subjects, in the
    premise and every hypothesis kind; a pronoun that would take the dative
    is an error in both."""
    tables = generator._Tables(lex)
    patterns = [*wogli_patterns(), *extended_patterns(Government.DATIVE),
                *extended_patterns(Government.DITRANSITIVE)]
    checked = errors = 0
    for pattern in patterns:
        case = pattern.government.object_case
        subjects, objects = tables.slots[pattern.subject], tables.slots[pattern.object]
        subjects = subjects + [spec.pronoun for spec in subjects[:8]]
        verb_things = tables.verb_things[pattern.government]
        for i in range(max(len(subjects), len(objects), len(verb_things))):
            subject, obj = subjects[i % len(subjects)], objects[i * 7 % len(objects)]
            verb, thing = verb_things[i % len(verb_things)]
            for kind in (None, *HypKind):
                for spaced in (False, True):
                    args = (subject, obj, verb, case, kind, thing, spaced)
                    try:
                        want = _reference_sentence(*args)
                    except MorphologyError:  # a pronoun has no dative
                        with pytest.raises(MorphologyError):
                            compile_sentence(case, kind, spaced)(subject, obj, verb, thing)
                        errors += 1
                        continue
                    assert compile_sentence(case, kind, spaced)(subject, obj, verb, thing) == want
                    checked += 1
    assert checked > 20_000 and errors > 0


def _digest(records, fmt="rows"):
    buf = io.StringIO()
    write_pairs(records, buf, fmt)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()[:16]


class TestPinnedOutputs:
    """sha256 prefixes of small outputs on the paths the seed-0 digests of the
    acceptance suite do not reach; sampling must keep its RNG call sequence."""

    def test_bundled_lexicon_paths(self, lex):
        psub = generate_set(GenerationSet.P_SUBJECT, lex, seed=5, per_pattern=40,
                            with_replacement=True)
        assert (len(psub), _digest(psub)) == (1338, "76329cdba2726bf6")
        dative = generate_set(GenerationSet.DATIVE, lex, seed=5, per_pattern=20,
                              spaced_period=True)
        assert (len(dative), _digest(dative)) == (960, "2db00ba2e304f353")
        ditrans = generate_set(GenerationSet.DITRANSITIVE, lex, seed=5, per_pattern=20)
        assert (len(ditrans), _digest(ditrans, "tsv")) == (960, "db29d1f359beab93")

    @pytest.mark.parametrize("name, rows, want", [
        (GenerationSet.WOGLI, 68, "f93d69aa16e47944"),
        (GenerationSet.P_SUBJECT, 58, "2c4806d1e37aad33"),
        (GenerationSet.DATIVE, 96, "feedd8c801a4c6d2"),
        (GenerationSet.DITRANSITIVE, 96, "a5b92239e339e7ac"),
        (GenerationSet.OS_HARD, 34, "42042357e5bd462a"),
    ])
    def test_enumeration_path(self, name, rows, want):
        toy = make_toy()
        compat = generator._compatible_things(toy)
        for pattern in generator._patterns_for(name):
            assert generator._space_size(pattern, toy, compat) <= generator._ENUMERATION_CUTOFF
        records = generate_set(name, toy, seed=5, per_pattern=2)
        assert (len(records), _digest(records)) == (rows, want)
