"""German NP and verb morphology for the generated sentence shapes.

Everything here is table-driven: articles come from a fixed paradigm,
noun forms from the entry plus two closed rules (weak masculine singulars,
dative-plural -n), verb forms straight from the lexicon entry. All functions
are pure and the tables are module constants. An NPSpec keeps each case
form once it is rendered, and clause lays such forms out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import ArticleKind, Case, Gender, HypKind, NounEntry, NounKind, Number, ThingNounEntry, VerbEntry
from .errors import MorphologyError


class _PronounHead:
    """Sentinel head for pronominalized subjects."""

    def __repr__(self):
        return "PRONOUN"


PRONOUN = _PronounHead()

_CASES = (Case.NOM, Case.ACC, Case.DAT)

# (nom, acc, dat) per (kind, gender, number); plural forms do not vary by gender.
_ARTICLES = {
    (ArticleKind.DEF, Gender.MASC, Number.SG): ("der", "den", "dem"),
    (ArticleKind.DEF, Gender.FEM, Number.SG): ("die", "die", "der"),
    (ArticleKind.DEF, Gender.NEUT, Number.SG): ("das", "das", "dem"),
    (ArticleKind.DEF, None, Number.PL): ("die", "die", "den"),
    (ArticleKind.INDEF, Gender.MASC, Number.SG): ("ein", "einen", "einem"),
    (ArticleKind.INDEF, Gender.FEM, Number.SG): ("eine", "eine", "einer"),
    (ArticleKind.INDEF, Gender.NEUT, Number.SG): ("ein", "ein", "einem"),
    (ArticleKind.DEM, Gender.MASC, Number.SG): ("dieser", "diesen", "diesem"),
    (ArticleKind.DEM, Gender.FEM, Number.SG): ("diese", "diese", "dieser"),
    (ArticleKind.DEM, Gender.NEUT, Number.SG): ("dieses", "dieses", "diesem"),
    (ArticleKind.DEM, None, Number.PL): ("diese", "diese", "diesen"),
}

# (nom, acc) per (gender, number); dative pronouns are deliberately not covered.
_PRONOUNS = {
    (Gender.MASC, Number.SG): ("er", "ihn"),
    (Gender.FEM, Number.SG): ("sie", "sie"),
    (Gender.MASC, Number.PL): ("sie", "sie"),
    (Gender.FEM, Number.PL): ("sie", "sie"),
}


def inflect_article(kind: ArticleKind, gender: Gender, number: Number, case: Case) -> str | None:
    """Article surface form, or None for bare NPs (proper names, pronouns)."""
    if kind is ArticleKind.NONE:
        return None
    if kind is ArticleKind.INDEF and number is Number.PL:
        raise MorphologyError("indefinite article has no plural form")
    key = (kind, gender if number is Number.SG else None, number)
    return _ARTICLES[key][_CASES.index(case)]


def inflect_noun(noun: NounEntry, number: Number, case: Case) -> str:
    """Noun surface form for the requested cell.

    Proper names are invariant. Weak masculine singulars take -n/-en in the
    accusative and dative. Plurals use plural_nom, appending -n in the dative
    unless the plural already ends in -n.
    """
    if noun.kind is NounKind.PROPER:
        if number is not Number.SG:
            raise ValueError(f"proper name {noun.lemma!r} has no plural")
        return noun.lemma
    if number is Number.SG:
        if noun.weak_declension and case in (Case.ACC, Case.DAT):
            return noun.lemma + ("n" if noun.lemma.endswith("e") else "en")
        return noun.lemma
    if noun.plural_nom is None:
        raise ValueError(f"common noun {noun.lemma!r} lacks a plural form")
    if case is Case.DAT and not noun.plural_nom.endswith("n"):
        return noun.plural_nom + "n"
    return noun.plural_nom


def inflect_pronoun(gender: Gender, number: Number, case: Case) -> str:
    if case is Case.DAT:
        raise MorphologyError("dative personal pronouns are not supported")
    forms = _PRONOUNS.get((gender, number))
    if forms is None:
        raise ValueError(f"no personal pronoun for {gender}/{number}")
    return forms[0] if case is Case.NOM else forms[1]


def agree_verb(verb: VerbEntry, number: Number) -> str:
    return verb.form_3sg if number is Number.SG else verb.form_3pl


@dataclass(frozen=True)
class NPSpec:
    """A noun phrase to realize: head plus its agreement features and article."""

    head: NounEntry | ThingNounEntry | _PronounHead
    gender: Gender
    number: Number
    article: ArticleKind

    def __post_init__(self):
        if self.head is PRONOUN and self.article is not ArticleKind.NONE:
            raise ValueError("pronouns take no article")
        if isinstance(self.head, NounEntry) and self.head.kind is NounKind.PROPER:
            if self.article is not ArticleKind.NONE or self.number is not Number.SG:
                raise ValueError("proper names are bare and singular")

    @property
    def lemma(self) -> str:
        if self.head is PRONOUN:
            return inflect_pronoun(self.gender, self.number, Case.NOM)
        return self.head.lemma

    @cached_property
    def nom(self) -> tuple[str, ...]:
        """The NP's tokens in the nominative, rendered on first use and kept."""
        return tuple(render_np(self, Case.NOM))

    @cached_property
    def acc(self) -> tuple[str, ...]:
        return tuple(render_np(self, Case.ACC))

    @cached_property
    def dat(self) -> tuple[str, ...]:
        return tuple(render_np(self, Case.DAT))


def render_np(spec: NPSpec, case: Case) -> list[str]:
    """Tokens of the NP in the given case (article lowercase, nouns as stored)."""
    if spec.head is PRONOUN:
        return [inflect_pronoun(spec.gender, spec.number, case)]
    if isinstance(spec.head, ThingNounEntry):
        # the surface of a thing noun is its lemma in the number it is listed for
        return [inflect_article(spec.article, spec.gender, spec.number, case), spec.head.lemma]
    if spec.head.kind is NounKind.PROPER:
        return [spec.head.lemma]
    article = inflect_article(spec.article, spec.gender, spec.number, case)
    noun = inflect_noun(spec.head, spec.number, case)
    return [article, noun] if article is not None else [noun]


def clause(
    subject: NPSpec, obj: NPSpec, verb: VerbEntry, object_case: Case, kind: HypKind | None = None
) -> list[str]:
    """Tokens of the premise's two arguments and verb in the layout of the
    hypothesis kind (the premise itself when kind is None). The nominative
    argument sets the verb's agreement; the other one takes object_case
    (accusative or dative)."""
    subject_nominative = kind is None or kind.subject_nominative
    nominative, other = (subject, obj) if subject_nominative else (obj, subject)
    other_tokens = other.acc if object_case is Case.ACC else other.dat
    verb_form = agree_verb(verb, nominative.number)
    if (kind is None or kind.subject_first) == subject_nominative:
        return [*nominative.nom, verb_form, *other_tokens]
    return [*other_tokens, verb_form, *nominative.nom]


def article_paradigm() -> list[dict]:
    """The full article table as rows, for table-driven tests and export."""
    rows = []
    for (kind, gender, number), forms in _ARTICLES.items():
        for case, form in zip(_CASES, forms):
            rows.append(
                {
                    "article": kind.value,
                    "gender": gender.value if gender is not None else "any",
                    "number": number.value,
                    "case": case.value,
                    "form": form,
                }
            )
    return rows


def pronoun_paradigm() -> list[dict]:
    rows = []
    for (gender, number), forms in _PRONOUNS.items():
        for case, form in zip((Case.NOM, Case.ACC), forms):
            rows.append(
                {"gender": gender.value, "number": number.value, "case": case.value, "form": form}
            )
    return rows
