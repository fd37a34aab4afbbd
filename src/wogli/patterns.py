"""Argument-class patterns, the premise ids that name their draws, and the
closed-form ambiguity rule.

A pattern names the subject and object argument classes of a premise
(`sing_masc_v_plural_fem` etc.). The generator inventories are fixed: 17
accusative patterns survive ambiguity_rule, the 8 it drops are those in
which German marks neither argument distinctly, and the dative and
ditransitive sets share one 24-pattern inventory. The tests check the rule
against an enumerating oracle over the lexicon.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cache

from .core import Gender, Government, Number
from .errors import DataFormatError


class NPClass(enum.Enum):
    """Argument slot classes. PNOUN leaves the name's gender open: it is
    sampled at generation time."""

    PNOUN = "pnoun"
    SING_MASC = "sing_masc"
    SING_FEM = "sing_fem"
    PLURAL_MASC = "plural_masc"
    PLURAL_FEM = "plural_fem"

    @property
    def is_proper(self) -> bool:
        return self is NPClass.PNOUN

    @property
    def number(self) -> Number:
        return Number.PL if self in (NPClass.PLURAL_MASC, NPClass.PLURAL_FEM) else Number.SG

    @property
    def gender(self) -> Gender | None:
        """Pinned gender, or None for the open proper-name class."""
        if self in (NPClass.SING_MASC, NPClass.PLURAL_MASC):
            return Gender.MASC
        if self in (NPClass.SING_FEM, NPClass.PLURAL_FEM):
            return Gender.FEM
        return None


class NumberClass(enum.Enum):
    ALL_SINGULAR = "all_singular"
    SINGULAR_PLURAL = "singular_plural"


@dataclass(frozen=True)
class Pattern:
    subject: NPClass
    object: NPClass
    government: Government

    @property
    def name(self) -> str:
        return f"{self.subject.value}_v_{self.object.value}"


def parse_pattern_name(name: str, government: Government) -> Pattern:
    """Inverse of Pattern.name."""
    subject_name, _, object_name = name.partition("_v_")
    try:
        return Pattern(NPClass(subject_name), NPClass(object_name), government)
    except ValueError:
        raise ValueError(f"not a canonical pattern name: {name!r}") from None


# Order is part of the output: a pattern's index seeds its RNG stream and
# appears in record ids. wogli_patterns() keeps this order for accusatives.
_EXTENDED_NAMES = (
    "pnoun_v_sing_masc",
    "pnoun_v_plural_masc",
    "pnoun_v_plural_fem",
    "pnoun_v_sing_fem",
    "plural_masc_v_pnoun",
    "plural_masc_v_sing_masc",
    "plural_masc_v_sing_fem",
    "plural_masc_v_plural_fem",
    "plural_masc_v_plural_masc",
    "plural_fem_v_sing_masc",
    "plural_fem_v_sing_fem",
    "plural_fem_v_pnoun",
    "plural_fem_v_plural_fem",
    "plural_fem_v_plural_masc",
    "sing_masc_v_sing_masc",
    "sing_masc_v_plural_masc",
    "sing_masc_v_plural_fem",
    "sing_masc_v_sing_fem",
    "sing_masc_v_pnoun",
    "sing_fem_v_sing_masc",
    "sing_fem_v_plural_fem",
    "sing_fem_v_plural_masc",
    "sing_fem_v_pnoun",
    "sing_fem_v_sing_fem",
)


def wogli_patterns() -> list[Pattern]:
    """The 17 unambiguous accusative patterns: the extended inventory, in its
    order, filtered by the closed-form ambiguity rule."""
    patterns = (parse_pattern_name(n, Government.ACCUSATIVE) for n in _EXTENDED_NAMES)
    return [p for p in patterns if not ambiguity_rule(p)]


def extended_patterns(government: Government) -> list[Pattern]:
    """The 24 patterns available once dative marking disambiguates."""
    if government is Government.ACCUSATIVE:
        raise ValueError("the extended inventory exists for dative and ditransitive verbs")
    return [parse_pattern_name(n, government) for n in _EXTENDED_NAMES]


# the end of an accusative record's id stem (the id without its last "-"
# part, as in its premise id): its pattern's index in wogli_patterns() and
# its draw's index, as generate writes them
_STEM_RE = re.compile(r"-p([0-9]{2})-d([0-9]{5,})$")


@cache
def _wogli_index() -> dict[str, int]:
    return {p.name: i for i, p in enumerate(wogli_patterns())}


def _premise_draw(record, stem: str, match) -> None:
    """Check that an accusative record names its own draw: its premise_id
    must be stem, its id without the last "-" part, then "-premise", and
    match, _STEM_RE's search of stem, must find there -pNN-dNNNNN, where NN
    is the index of the record's pattern among wogli_patterns(); anything
    else is a DataFormatError naming the record."""
    premise_id = record.metadata.get("premise_id")
    own = stem + "-premise"
    if premise_id != own:
        raise DataFormatError(f"record {record.id}: premise_id is {premise_id!r}, not {own!r}")
    index = _wogli_index().get(record.pattern_name)
    if index is None:
        raise DataFormatError(f"record {record.id}: {record.pattern_name!r} is not a wogli pattern")
    if match is None or int(match[1]) != index:
        raise DataFormatError(
            f"record {record.id}: premise_id {own!r} does not end in -p{index:02d}-dNNNNN-premise, "
            f"as a draw of pattern {record.pattern_name} does"
        )


def classify_number(pattern: Pattern) -> NumberClass:
    if pattern.subject.number is Number.SG and pattern.object.number is Number.SG:
        return NumberClass.ALL_SINGULAR
    return NumberClass.SINGULAR_PLURAL


def ambiguity_rule(pattern: Pattern) -> bool:
    """Closed form of the accusative ambiguity decision: the surfaces collide
    iff both arguments share a number and neither is a masculine singular
    common noun (the only class with distinct nominative/accusative marking)."""
    if pattern.government is not Government.ACCUSATIVE:
        raise ValueError("the closed form covers accusative patterns only")
    numbers_equal = pattern.subject.number is pattern.object.number
    masc_sg_common = NPClass.SING_MASC in (pattern.subject, pattern.object)
    return numbers_equal and not masc_sg_common
