"""Pattern inventories and the word-order ambiguity decision.

The three inventories are frozen here name for name so that any reordering
or substitution in the source tables fails loudly.
"""

import pytest

from wogli import (
    Government,
    NPClass,
    Number,
    NumberClass,
    Pattern,
    ambiguity_rule,
    classify_number,
    extended_patterns,
    parse_pattern_name,
    wogli_patterns,
)

from oracles import excluded_patterns, is_ambiguous

WOGLI_17 = (
    "pnoun_v_sing_masc",
    "pnoun_v_plural_masc",
    "pnoun_v_plural_fem",
    "plural_masc_v_pnoun",
    "plural_masc_v_sing_masc",
    "plural_masc_v_sing_fem",
    "plural_fem_v_sing_masc",
    "plural_fem_v_sing_fem",
    "plural_fem_v_pnoun",
    "sing_masc_v_sing_masc",
    "sing_masc_v_plural_masc",
    "sing_masc_v_plural_fem",
    "sing_masc_v_sing_fem",
    "sing_masc_v_pnoun",
    "sing_fem_v_sing_masc",
    "sing_fem_v_plural_fem",
    "sing_fem_v_plural_masc",
)

EXTENDED_24 = (
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

EXCLUDED_8 = (
    "sing_fem_v_pnoun",
    "pnoun_v_sing_fem",
    "pnoun_v_pnoun",
    "sing_fem_v_sing_fem",
    "plural_fem_v_plural_fem",
    "plural_masc_v_plural_masc",
    "plural_masc_v_plural_fem",
    "plural_fem_v_plural_masc",
)

ALL_SINGULAR_5 = {
    "pnoun_v_sing_masc",
    "sing_masc_v_sing_masc",
    "sing_masc_v_sing_fem",
    "sing_masc_v_pnoun",
    "sing_fem_v_sing_masc",
}


class TestInventories:
    def test_wogli_names_frozen(self):
        pats = wogli_patterns()
        assert tuple(p.name for p in pats) == WOGLI_17
        assert all(p.government is Government.ACCUSATIVE for p in pats)

    @pytest.mark.parametrize("gov", [Government.DATIVE, Government.DITRANSITIVE])
    def test_extended_names_frozen(self, gov):
        pats = extended_patterns(gov)
        assert tuple(p.name for p in pats) == EXTENDED_24
        assert all(p.government is gov for p in pats)

    def test_extended_rejects_accusative(self):
        with pytest.raises(ValueError):
            extended_patterns(Government.ACCUSATIVE)

    def test_excluded_names_frozen(self):
        pats = excluded_patterns()
        assert tuple(p.name for p in pats) == EXCLUDED_8
        assert all(p.government is Government.ACCUSATIVE for p in pats)

    def test_inventories_partition_the_class_square(self):
        # 5 argument classes give 25 ordered pairs; the accusative split is
        # exhaustive and the extended list is everything except pnoun_v_pnoun.
        assert set(WOGLI_17) & set(EXCLUDED_8) == set()
        fragments = ("pnoun", "sing_masc", "sing_fem", "plural_masc", "plural_fem")
        square = {f"{s}_v_{o}" for s in fragments for o in fragments}
        assert set(WOGLI_17) | set(EXCLUDED_8) == square
        assert set(EXTENDED_24) == square - {"pnoun_v_pnoun"}


class TestParse:
    def test_round_trip_over_all_inventories(self):
        pats = (
            wogli_patterns()
            + excluded_patterns()
            + extended_patterns(Government.DATIVE)
            + extended_patterns(Government.DITRANSITIVE)
        )
        for p in pats:
            assert parse_pattern_name(p.name, p.government) == p

    @pytest.mark.parametrize("government", list(Government))
    def test_every_class_pair_round_trips(self, government):
        # the five classes' values are the name fragments, pnoun included
        assert len(NPClass) == 5
        for s in NPClass:
            for o in NPClass:
                pattern = parse_pattern_name(f"{s.value}_v_{o.value}", government)
                assert pattern == Pattern(s, o, government)
                assert pattern.name == f"{s.value}_v_{o.value}"

    @pytest.mark.parametrize(
        "bad",
        ["sing_masc", "sing_masc_v_", "_v_sing_masc", "dog_v_sing_masc",
         "pnoun_m_v_sing_fem", "sing_masc_v_sing_masc_v_pnoun"],
    )
    def test_non_canonical_names_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_pattern_name(bad, Government.ACCUSATIVE)


class TestNPClass:
    def test_numbers(self):
        assert NPClass.PLURAL_FEM.number is Number.PL
        assert NPClass.PLURAL_MASC.number is Number.PL
        for cls in (NPClass.PNOUN, NPClass.SING_MASC, NPClass.SING_FEM):
            assert cls.number is Number.SG

    def test_gender_pins(self):
        assert NPClass.PNOUN.gender is None
        assert NPClass.SING_FEM.gender is not None
        assert NPClass.SING_FEM.gender is NPClass.PLURAL_FEM.gender

    def test_proper_flags(self):
        proper = {c for c in NPClass if c.is_proper}
        assert proper == {NPClass.PNOUN}


class TestNumberClass:
    def test_named_examples(self):
        acc = Government.ACCUSATIVE
        assert classify_number(parse_pattern_name("sing_masc_v_sing_fem", acc)) is NumberClass.ALL_SINGULAR
        assert classify_number(parse_pattern_name("sing_masc_v_plural_fem", acc)) is NumberClass.SINGULAR_PLURAL

    def test_split_over_wogli_is_5_12(self):
        singular = {p.name for p in wogli_patterns()
                    if classify_number(p) is NumberClass.ALL_SINGULAR}
        assert singular == ALL_SINGULAR_5
        assert len(wogli_patterns()) - len(singular) == 12


class TestAmbiguity:
    def test_excluded_patterns_are_ambiguous(self, lex):
        for p in excluded_patterns():
            assert is_ambiguous(p, lex), p.name

    def test_wogli_patterns_are_not(self, lex):
        for p in wogli_patterns():
            assert not is_ambiguous(p, lex), p.name

    @pytest.mark.parametrize("gov", [Government.DATIVE, Government.DITRANSITIVE])
    def test_extended_patterns_are_not(self, gov, lex):
        for p in extended_patterns(gov):
            assert not is_ambiguous(p, lex), p.name

    def test_two_proper_names_stay_ambiguous_under_dative(self, lex):
        # names carry no case and the verb form matches in both orders, so
        # dative marking cannot rescue this pair; hence its absence from the
        # extended inventory
        p = parse_pattern_name("pnoun_v_pnoun", Government.DATIVE)
        assert is_ambiguous(p, lex)

    def test_closed_form_agrees_with_enumeration(self, lex):
        fragments = ("pnoun", "sing_masc", "sing_fem", "plural_masc", "plural_fem")
        for s in fragments:
            for o in fragments:
                p = parse_pattern_name(f"{s}_v_{o}", Government.ACCUSATIVE)
                assert ambiguity_rule(p) == is_ambiguous(p, lex), p.name

    def test_closed_form_is_accusative_only(self):
        with pytest.raises(ValueError):
            ambiguity_rule(parse_pattern_name("sing_masc_v_sing_fem", Government.DATIVE))
