"""German NP and verb morphology for the generated sentence shapes.

Everything here is table-driven: articles come from a fixed paradigm,
noun forms from the entry plus two closed rules (weak masculine singulars,
dative-plural -n), verb forms straight from the lexicon entry. All functions
are pure and the tables are module constants. An NPSpec keeps the text of
each case form once it is rendered, and a sentence compiled for a layout
fills those texts into one format. An NPSpec is also the whole premise
vocabulary of generation: it keeps the record metadata that names it and
its agreeing pronoun the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property

from .core import ArticleKind, Case, Gender, HypKind, NounEntry, NounKind, Number, ThingNounEntry, VerbEntry
from .errors import MorphologyError


class _PronounHead:
    """Sentinel head for pronominalized subjects."""

    def __repr__(self):
        return "PRONOUN"


PRONOUN = _PronounHead()

_CASES = (Case.NOM, Case.ACC, Case.DAT)
_CAPITALISED = len(_CASES)

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
# the article kinds a common noun admits in each number, in paradigm order
_ARTICLE_KINDS = {
    number: tuple(dict.fromkeys(kind for kind, _, n in _ARTICLES if n is number)) for number in Number
}

# (nom, acc) per (gender, number); dative pronouns are deliberately not covered.
_PRONOUNS = {
    (Gender.MASC, Number.SG): ("er", "ihn"),
    (Gender.FEM, Number.SG): ("sie", "sie"),
    (Gender.MASC, Number.PL): ("sie", "sie"),
    (Gender.FEM, Number.PL): ("sie", "sie"),
}

# The record metadata that names an NP in each role it can fill, in row
# order. A direct object is listed in its own number with the definite
# article, so it names neither kind nor article.
_NP_FIELDS = ("lemma", "kind", "gender", "number", "article", "definiteness")
_META_KEYS = {role: tuple(f"{role}_{field}" for field in fields) for role, fields in (
    ("subject", _NP_FIELDS), ("object", _NP_FIELDS), ("direct_object", ("lemma", "gender", "number")))}


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
    def texts(self) -> tuple[str | None, ...]:
        """The NP's text in each case of _CASES, then the same three texts
        with the first letter capitalised; rendered on first use and kept.
        None stands for the dative of a pronoun, which has no form."""
        texts = [
            None if self.head is PRONOUN and case is Case.DAT else " ".join(render_np(self, case))
            for case in _CASES
        ]
        return (*texts, *(text and text[0].upper() + text[1:] for text in texts))

    @cached_property
    def metadata(self) -> dict[str, dict]:
        """Role -> the record metadata that names this NP in that role, for
        each role it can fill: a thing only the direct object, a pronoun only
        the subject; built on first use and kept."""
        lemma, gender, number = self.lemma, self.gender.value, self.number.value
        if isinstance(self.head, ThingNounEntry):
            return {"direct_object": dict(zip(_META_KEYS["direct_object"], (lemma, gender, number)))}
        kind = "pronoun" if self.head is PRONOUN else self.head.kind.value
        definiteness = "indefinite" if self.article is ArticleKind.INDEF else "definite"
        values = (lemma, kind, gender, number, self.article.value, definiteness)
        roles = ("subject",) if self.head is PRONOUN else ("subject", "object")
        return {role: dict(zip(_META_KEYS[role], values)) for role in roles}

    @cached_property
    def fragments(self) -> dict[str, str]:
        """Role -> its metadata as a row writes it: the JSON object's members,
        without braces; built on first use and kept."""
        return {role: json.dumps(meta, ensure_ascii=False)[1:-1] for role, meta in self.metadata.items()}

    @cached_property
    def pronoun(self) -> NPSpec:
        """The personal pronoun agreeing with this NP, one spec shared by
        every NP of its gender and number."""
        return _pronoun(self.gender, self.number)


@cache
def _pronoun(gender: Gender, number: Number) -> NPSpec:
    return NPSpec(PRONOUN, gender, number, ArticleKind.NONE)


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


@cache
def compile_sentence(object_case: Case, kind: HypKind | None = None, spaced_period: bool = False):
    """The function (subject, obj, verb, direct object or None) -> text of
    the premise (kind None) or of one hypothesis of it, for premises whose
    object takes object_case.

    The layout of a kind is worked out here, once: the nominative argument
    (the premise subject unless the kind swaps the roles) sets the verb's
    agreement and the other one takes object_case; subject_first says
    whether the premise subject comes first. A ditransitive's direct object
    follows in the accusative, and the first letter is capitalised."""
    subject_nominative = kind is None or kind.subject_nominative
    nominative_first = (kind is None or kind.subject_first) == subject_nominative
    other_case = _CASES.index(object_case)
    # positions in NPSpec.texts; the capitalised texts follow the plain ones
    nominative_at = _CAPITALISED if nominative_first else 0
    other_at = other_case if nominative_first else other_case + _CAPITALISED
    thing_at = _CASES.index(Case.ACC)
    end = " ." if spaced_period else "."
    singular = Number.SG

    def sentence(subject: NPSpec, obj: NPSpec, verb: VerbEntry, thing: NPSpec | None = None) -> str:
        nominative, other = (subject, obj) if subject_nominative else (obj, subject)
        nominative_text, other_text = nominative.texts[nominative_at], other.texts[other_at]
        if other_text is None:
            render_np(other, object_case)  # raises the error that names the missing form
        first, second = (nominative_text, other_text) if nominative_first else (other_text, nominative_text)
        verb_form = verb.form_3sg if nominative.number is singular else verb.form_3pl  # as agree_verb
        if thing is None:
            return f"{first} {verb_form} {second}{end}"
        return f"{first} {verb_form} {second} {thing.texts[thing_at]}{end}"

    return sentence
