"""Inflection tables and NP rendering."""

import pytest

from wogli import (
    ArticleKind,
    Case,
    Gender,
    MorphologyError,
    NounKind,
    NPSpec,
    Number,
    PRONOUN,
    agree_verb,
    inflect_article,
    inflect_noun,
    inflect_pronoun,
    render_np,
)
from wogli.morphology import _ARTICLES, _PRONOUNS

DEF, INDEF, DEM = ArticleKind.DEF, ArticleKind.INDEF, ArticleKind.DEM
M, F, N = Gender.MASC, Gender.FEM, Gender.NEUT
SG, PL = Number.SG, Number.PL
NOM, ACC, DAT = Case.NOM, Case.ACC, Case.DAT


@pytest.mark.parametrize(
    "kind, gender, number, forms",
    [
        (DEF, M, SG, ("der", "den", "dem")),
        (DEF, F, SG, ("die", "die", "der")),
        (DEF, N, SG, ("das", "das", "dem")),
        (DEF, M, PL, ("die", "die", "den")),
        (DEF, F, PL, ("die", "die", "den")),
        (INDEF, M, SG, ("ein", "einen", "einem")),
        (INDEF, F, SG, ("eine", "eine", "einer")),
        (INDEF, N, SG, ("ein", "ein", "einem")),
        (DEM, M, SG, ("dieser", "diesen", "diesem")),
        (DEM, F, SG, ("diese", "diese", "dieser")),
        (DEM, N, SG, ("dieses", "dieses", "diesem")),
        (DEM, M, PL, ("diese", "diese", "diesen")),
    ],
)
def test_article_table(kind, gender, number, forms):
    assert tuple(inflect_article(kind, gender, number, c) for c in (NOM, ACC, DAT)) == forms


def test_article_none_renders_nothing():
    assert inflect_article(ArticleKind.NONE, M, SG, NOM) is None


def test_indefinite_has_no_plural():
    with pytest.raises(MorphologyError):
        inflect_article(INDEF, M, PL, NOM)


def test_article_paradigm_rows_match_inflect():
    # 3 kinds x 3 genders in the singular, 2 kinds in the plural, whose
    # forms hold for every gender
    assert len(_ARTICLES) == 11
    for (kind, gender, number), forms in _ARTICLES.items():
        for g in (M, F, N) if gender is None else (gender,):
            assert tuple(inflect_article(kind, g, number, c) for c in (NOM, ACC, DAT)) == forms


def find_noun(lex, lemma):
    for inventory in (lex.masc_common, lex.fem_common, lex.masc_proper, lex.fem_proper):
        for noun in inventory:
            if noun.lemma == lemma:
                return noun
    raise LookupError(lemma)


@pytest.mark.parametrize(
    "lemma, number, case, form",
    [
        ("Kunde", SG, NOM, "Kunde"),
        ("Kunde", SG, ACC, "Kunden"),
        ("Kunde", SG, DAT, "Kunden"),
        ("Kunde", PL, DAT, "Kunden"),
        ("Student", SG, ACC, "Studenten"),
        ("Student", SG, DAT, "Studenten"),
        ("Arzt", SG, ACC, "Arzt"),
        ("Arzt", PL, NOM, "Ärzte"),
        ("Arzt", PL, DAT, "Ärzten"),
        ("Berater", PL, NOM, "Berater"),
        ("Berater", PL, DAT, "Beratern"),
        ("Autorin", SG, ACC, "Autorin"),
        ("Autorin", PL, NOM, "Autorinnen"),
        ("Autorin", PL, DAT, "Autorinnen"),
        ("Professor", PL, NOM, "Professoren"),
        ("Professor", PL, DAT, "Professoren"),
    ],
)
def test_noun_cells(lex, lemma, number, case, form):
    assert inflect_noun(find_noun(lex, lemma), number, case) == form


def test_proper_names_are_invariant(lex):
    walter = find_noun(lex, "Walter")
    assert [inflect_noun(walter, SG, c) for c in (NOM, ACC, DAT)] == ["Walter"] * 3
    with pytest.raises(ValueError):
        inflect_noun(walter, PL, NOM)


def test_feminine_nom_acc_syncretism(lex):
    for noun in lex.fem_common:
        for number in (SG, PL):
            assert inflect_noun(noun, number, NOM) == inflect_noun(noun, number, ACC)
    for kind in (DEF, INDEF, DEM):
        if kind is INDEF:
            assert inflect_article(kind, F, SG, NOM) == inflect_article(kind, F, SG, ACC)
        else:
            for number in (SG, PL):
                assert inflect_article(kind, F, number, NOM) == inflect_article(kind, F, number, ACC)


def test_dative_always_changes_the_determiner():
    for kind in (DEF, INDEF, DEM):
        for gender in (M, F, N):
            assert inflect_article(kind, gender, SG, DAT) != inflect_article(kind, gender, SG, NOM)
        if kind is not INDEF:
            assert inflect_article(kind, M, PL, DAT) != inflect_article(kind, M, PL, NOM)


def test_dative_plural_n(lex):
    # appending -n is skipped exactly when the plural already ends in -n
    for noun in lex.masc_common + lex.fem_common:
        plural = inflect_noun(noun, PL, NOM)
        dative = inflect_noun(noun, PL, DAT)
        if plural.endswith("n"):
            assert dative == plural
        else:
            assert dative == plural + "n"


def test_weak_declension_full_lexicon(lex):
    for noun in lex.masc_common:
        accusative = inflect_noun(noun, SG, ACC)
        if noun.weak_declension:
            suffix = "n" if noun.lemma.endswith("e") else "en"
            assert accusative == noun.lemma + suffix
            assert inflect_noun(noun, SG, DAT) == accusative
        else:
            assert accusative == noun.lemma


@pytest.mark.parametrize(
    "gender, number, nom, acc",
    [(M, SG, "er", "ihn"), (F, SG, "sie", "sie"), (M, PL, "sie", "sie"), (F, PL, "sie", "sie")],
)
def test_pronoun_cells(gender, number, nom, acc):
    assert inflect_pronoun(gender, number, NOM) == nom
    assert inflect_pronoun(gender, number, ACC) == acc


def test_dative_pronoun_unsupported():
    with pytest.raises(MorphologyError):
        inflect_pronoun(M, SG, DAT)


def test_pronoun_paradigm_rows():
    assert _PRONOUNS[(M, SG)] == ("er", "ihn")
    for (gender, number), forms in _PRONOUNS.items():
        assert tuple(inflect_pronoun(gender, number, c) for c in (NOM, ACC)) == forms


def test_agree_verb(lex):
    warnen = next(v for v in lex.verbs_acc if v.lemma == "warnen")
    empfehlen = next(v for v in lex.verbs_acc if v.lemma == "empfehlen")
    geben = next(v for v in lex.verbs_ditrans if v.lemma == "geben")
    assert agree_verb(warnen, SG) == "warnt"
    assert agree_verb(empfehlen, SG) == "empfiehlt"
    assert agree_verb(empfehlen, PL) == "empfehlen"
    assert agree_verb(geben, SG) == "gibt"
    assert agree_verb(geben, PL) == "geben"


def test_render_np_shapes(lex):
    kunde = find_noun(lex, "Kunde")
    walter = find_noun(lex, "Walter")
    assert render_np(NPSpec(kunde, M, SG, DEF), ACC) == ["den", "Kunden"]
    assert render_np(NPSpec(kunde, M, PL, DEM), DAT) == ["diesen", "Kunden"]
    assert render_np(NPSpec(walter, M, SG, ArticleKind.NONE), ACC) == ["Walter"]
    assert render_np(NPSpec(PRONOUN, M, SG, ArticleKind.NONE), NOM) == ["er"]
    assert render_np(NPSpec(PRONOUN, M, SG, ArticleKind.NONE), ACC) == ["ihn"]


def test_npspec_guards(lex):
    walter = find_noun(lex, "Walter")
    with pytest.raises(ValueError):
        NPSpec(PRONOUN, M, SG, DEF)
    with pytest.raises(ValueError):
        NPSpec(walter, M, SG, DEF)
    with pytest.raises(ValueError):
        NPSpec(walter, M, PL, ArticleKind.NONE)
    assert walter.kind is NounKind.PROPER
