"""Shared vocabulary: enums and the entry/record dataclasses used across modules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Gender(enum.Enum):
    MASC = "masc"
    FEM = "fem"
    NEUT = "neut"


class Number(enum.Enum):
    SG = "sg"
    PL = "pl"


class Case(enum.Enum):
    NOM = "nom"
    ACC = "acc"
    DAT = "dat"


class ArticleKind(enum.Enum):
    DEF = "def"
    INDEF = "indef"
    DEM = "dem"
    NONE = "none"


class Government(enum.Enum):
    """Case a verb assigns to its (indirect) object."""

    ACCUSATIVE = "accusative"
    DATIVE = "dative"
    DITRANSITIVE = "ditransitive"

    @property
    def object_case(self) -> Case:
        # ditransitive verbs govern a dative indirect object
        return Case.ACC if self is Government.ACCUSATIVE else Case.DAT


class SemanticCategory(enum.Enum):
    """Verb classes that constrain which direct objects are plausible."""

    GIVING = "giving"
    TAKING = "taking"
    SENDING = "sending"
    COMMUNICATION = "communication"
    SECRET = "secret"


class NounKind(enum.Enum):
    COMMON = "common"
    PROPER = "proper"


@dataclass(frozen=True)
class VerbEntry:
    """A verb with both finite forms stored explicitly (no conjugation rules)."""

    lemma: str
    form_3sg: str
    form_3pl: str
    government: Government
    semantic_category: SemanticCategory | None = None
    symmetric: bool = False


@dataclass(frozen=True)
class NounEntry:
    """A noun naming a person: common (with its plural) or a proper name."""

    lemma: str
    gender: Gender
    plural_nom: str | None
    weak_declension: bool
    kind: NounKind


@dataclass(frozen=True)
class ThingNounEntry:
    """An inanimate direct-object noun, used in one fixed number."""

    lemma: str
    gender: Gender
    number: Number
    compatible_categories: frozenset[SemanticCategory]


class Label(enum.Enum):
    ENTAILED = "entailed"
    NOT_ENTAILED = "non-entailed"


class HypKind(enum.Enum):
    """Hypothesis construction: H1 swaps the arguments, H2 reorders the surface,
    H3 does both; SIO/IOS are the ditransitive variants. Each lays out the
    premise's NPs by whether its subject comes first and stays nominative."""

    H1_SO = "h1_so"
    H2_OS = "h2_os"
    H3_OS = "h3_os"
    H1_SIO = "h1_sio"
    H2_IOS = "h2_ios"

    @property
    def subject_first(self) -> bool:
        return self is HypKind.H3_OS

    @property
    def subject_nominative(self) -> bool:
        return self in (HypKind.H2_OS, HypKind.H2_IOS)

    @property
    def label(self) -> Label:
        # the roles survive exactly when the premise subject stays nominative
        return Label.ENTAILED if self.subject_nominative else Label.NOT_ENTAILED


@dataclass(slots=True)
class PairRecord:
    """One premise/hypothesis pair, the atomic dataset row.

    metadata describes the premise's arguments (lemmas, article kinds,
    genders, numbers, definiteness) so group analyses never re-parse text.
    """

    id: str
    subset: str
    premise: str
    hypothesis: str
    label: Label
    hyp_kind: HypKind
    pattern_name: str
    metadata: dict = field(default_factory=dict)
