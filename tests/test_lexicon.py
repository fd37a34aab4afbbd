"""Lexicon parsing, serialization round-trips, and validation."""

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogli import (
    Gender,
    Government,
    LexiconError,
    Number,
    SemanticCategory,
    ValidationProfile,
    bundled_lexicon_path,
    default_lexicon_path,
    lexicon_from_text,
    load_lexicon,
    serialize_lexicon,
    surface_forms,
    validate_lexicon,
)
from conftest import TOY_LEXICON, make_toy

TSV_DOC = """\
# tiny lexicon
class\tlemma\tform2\tform3\tattrs
verb\twarnen\twarnt\twarnen\tACC\t-\tfalse
verb\thelfen\thilft\thelfen\tDAT\t-\tfalse
verb\tgeben\tgibt\tgeben\tDITRANS\tgiving\tfalse
noun\tKunde\tKunden\t-\tmasc\tweak
noun\tAutorin\tAutorinnen\t-\tfem\tstrong
pnoun\tWalter\t-\t-\tmasc
pnoun\tMaria\t-\t-\tfem
thing\tKuchen\t-\t-\tmasc\tsg\tgiving,taking
"""


def test_bundled_lexicon_passes_full_validation(lex):
    assert validate_lexicon(lex, ValidationProfile.FULL) == []


def test_bundled_inventory_counts(lex):
    assert len(lex.verbs_acc) == 50
    assert len(lex.verbs_dat) == 22
    assert len(lex.verbs_ditrans) == 21
    assert len(lex.masc_common) == 38
    assert len(lex.fem_common) == 24
    assert len(lex.masc_proper) == 41
    assert len(lex.fem_proper) == 41
    assert len(lex.thing_nouns) == 54
    assert sum(1 for n in lex.masc_common if n.weak_declension) == 6


def test_surface_form_count(lex):
    forms = surface_forms(lex)
    assert len(forms) == 181
    # weak masc: two distinct surfaces, plural-invariant -er noun: one
    assert {"Kunde", "Kunden"} <= forms
    assert "Berater" in forms
    assert {"Autorin", "Autorinnen", "Walter", "Maria"} <= forms


def test_tsv_document_parses():
    lex = lexicon_from_text(TSV_DOC, "doc")
    warnen = lex.verbs_acc[0]
    assert (warnen.lemma, warnen.form_3sg, warnen.form_3pl) == ("warnen", "warnt", "warnen")
    assert warnen.government is Government.ACCUSATIVE
    assert warnen.semantic_category is None
    assert lex.verbs_ditrans[0].semantic_category.value == "giving"
    assert lex.masc_common[0].weak_declension
    assert not lex.fem_common[0].weak_declension
    assert lex.masc_proper[0].lemma == "Walter"
    assert lex.thing_nouns[0].number.value == "sg"
    assert len(lex.thing_nouns[0].compatible_categories) == 2


def test_tsv_lines_break_only_at_line_ends():
    # str.splitlines would break at U+0085; here the cell keeps it, and a
    # name that holds it is refused as one row
    with pytest.raises(LexiconError, match=r"^doc:8: name 'Wal\\x85ter' is empty or holds whitespace$"):
        lexicon_from_text(TSV_DOC.replace("Walter", "Wal\x85ter"), "doc")
    crlf = lexicon_from_text(TSV_DOC.replace("\n", "\r\n"), "doc")
    assert crlf.masc_proper[0].lemma == "Walter"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_serialize_round_trip(lex, fmt):
    text = serialize_lexicon(lex, fmt)
    again = lexicon_from_text(text, "roundtrip")
    assert again == lex
    assert serialize_lexicon(again, fmt) == text


def test_round_trip_across_formats(toy_lex):
    via_tsv = lexicon_from_text(serialize_lexicon(toy_lex, "tsv"), "t")
    assert via_tsv == toy_lex


def test_empty_document_rejected():
    with pytest.raises(LexiconError):
        lexicon_from_text("", "empty")


def test_unknown_inventory_rejected():
    with pytest.raises(LexiconError, match="unknown inventory"):
        lexicon_from_text(json.dumps({"adverbs": []}), "doc")


def test_ditransitive_verb_needs_category():
    doc = dict(TOY_LEXICON)
    doc["verbs_ditransitive"] = [{"lemma": "geben", "form_3sg": "gibt", "form_3pl": "geben"}]
    with pytest.raises(LexiconError, match="category"):
        lexicon_from_text(json.dumps(doc), "doc")


def test_category_on_plain_verb_rejected():
    doc = dict(TOY_LEXICON)
    doc["verbs_accusative"] = [
        {"lemma": "sehen", "form_3sg": "sieht", "form_3pl": "sehen", "category": "giving"}
    ]
    with pytest.raises(LexiconError, match="category"):
        lexicon_from_text(json.dumps(doc), "doc")


def test_duplicate_lemma_rejected():
    doc = dict(TOY_LEXICON)
    doc["masc_proper"] = ["Peter", "Peter"]
    with pytest.raises(LexiconError, match="duplicate"):
        lexicon_from_text(json.dumps(doc), "doc")


def test_unknown_government_rejected():
    bad = TSV_DOC.replace("ACC", "GEN")
    with pytest.raises(LexiconError, match="government"):
        lexicon_from_text(bad, "doc")


def test_toy_profile_accepts_small_lexicon(toy_lex):
    assert validate_lexicon(toy_lex, ValidationProfile.TOY) == []


def test_full_profile_reports_counts(toy_lex):
    report = validate_lexicon(toy_lex, ValidationProfile.FULL)
    assert any("expected 50 accusative verbs, found 2" in line for line in report)
    assert any("181" in line for line in report)


def test_surface_forms_of_a_noun_without_a_plural():
    # a noun with no plural adds its singular forms only, so FULL counts the
    # forms and reports the missing plural, as TOY does, instead of raising
    arzt = {"lemma": "Arzt", "plural_nom": "Ärzte"}
    toy = make_toy(masc_common=[arzt, TOY_LEXICON["masc_common"][1]])
    without = make_toy(masc_common=[dict(arzt, plural_nom=None), TOY_LEXICON["masc_common"][1]])
    assert surface_forms(toy) - surface_forms(without) == {"Ärzte"}
    assert "Arzt" in surface_forms(without)
    report = validate_lexicon(without, ValidationProfile.FULL)
    assert "masc_common: 'Arzt' lacks a plural form" in report
    assert "expected 181 distinct noun surface forms, found 11" in report


def _first(**changes):
    return lambda entries: (replace(entries[0], **changes), *entries[1:])


def _twice(entries):
    return (*entries, entries[0])


@pytest.mark.parametrize("inventory,change,finding", [
    ("verbs_acc", _first(form_3sg="sieht den"), "verbs_acc: form_3sg 'sieht den' is empty or holds whitespace"),
    ("verbs_acc", _first(lemma="se hen"), "verbs_acc: lemma 'se hen' is empty or holds whitespace"),
    ("fem_common", _first(plural_nom=""), "fem_common: plural_nom '' is empty or holds whitespace"),
    ("masc_proper", _first(lemma="-"), "masc_proper: lemma '-' is the TSV mark of an empty cell"),
    ("thing_nouns", _first(lemma="Ku\ud800chen"),
     "thing_nouns: lemma 'Ku\\ud800chen' holds a lone surrogate (U+D800), which UTF-8 cannot encode"),
    ("verbs_dat", _twice, "verbs_dat: lemma 'helfen' is listed twice"),
    ("fem_proper", _twice, "fem_proper: lemma 'Anna' is listed twice"),
], ids=["form-space", "lemma-space", "plural-empty", "name-dash", "lone-surrogate", "verb-twice", "name-twice"])
@pytest.mark.parametrize("profile", list(ValidationProfile))
def test_loading_rules_for_a_lexicon_built_in_code(toy_lex, inventory, change, finding, profile):
    # loading refuses each of these; a lexicon built in code is reported on
    lex = replace(toy_lex, **{inventory: change(getattr(toy_lex, inventory))})
    assert finding in validate_lexicon(lex, profile)


def test_full_profile_flags_missing_compatible_thing():
    doc = dict(TOY_LEXICON)
    doc["verbs_ditransitive"] = [
        {"lemma": "stehlen", "form_3sg": "stiehlt", "form_3pl": "stehlen", "category": "taking"}
    ]
    lex = lexicon_from_text(json.dumps(doc), "doc")
    report = validate_lexicon(lex, ValidationProfile.TOY)
    assert any("stehlen" in line for line in report)


def test_load_lexicon_from_path(tmp_path):
    target = tmp_path / "lex.json"
    target.write_text(json.dumps(TOY_LEXICON), encoding="utf-8")
    lex = load_lexicon(target)
    assert len(lex.verbs_acc) == 2


# a TSV lexicon whose second line names J\xe4rg in Latin-1, not UTF-8
LATIN1_TSV = b"class\tlemma\tform2\tform3\tattrs\npnoun\tJ\xe4rg\t-\t-\tmasc\n"


@pytest.mark.parametrize("as_str", [False, True])
def test_undecodable_lexicon_path_names_line_and_byte(tmp_path, as_str):
    bad = tmp_path / "badlex.tsv"
    bad.write_bytes(LATIN1_TSV)
    want = f"{bad}: line 2: not valid UTF-8 (invalid continuation byte at byte 37)"
    with pytest.raises(LexiconError) as info:
        load_lexicon(str(bad) if as_str else bad)
    assert str(info.value) == want


def test_undecodable_lexicon_stream_names_file(tmp_path):
    with pytest.raises(LexiconError) as info:
        load_lexicon(io.TextIOWrapper(io.BytesIO(LATIN1_TSV), encoding="utf-8"))
    assert str(info.value) == "<stream>: not valid UTF-8 (invalid continuation byte)"
    bad = tmp_path / "badlex.tsv"
    bad.write_bytes(LATIN1_TSV)
    with open(bad, encoding="utf-8") as handle, pytest.raises(LexiconError) as info:
        load_lexicon(handle)
    assert str(info.value) == f"{bad}: not valid UTF-8 (invalid continuation byte)"


def test_default_lexicon_path_honors_environment(tmp_path, monkeypatch):
    monkeypatch.delenv("WOGLI_LEXICON", raising=False)
    assert default_lexicon_path() == bundled_lexicon_path()
    other = tmp_path / "other.json"
    monkeypatch.setenv("WOGLI_LEXICON", str(other))
    assert default_lexicon_path() == other


def test_tsv_dash_plural_is_an_empty_cell():
    doc = TSV_DOC.replace("noun\tAutorin\tAutorinnen", "noun\tAutorin\t-")
    lex = lexicon_from_text(doc, "doc")
    assert lex.fem_common[0].plural_nom is None
    report = validate_lexicon(lex, ValidationProfile.TOY)
    assert "fem_common: 'Autorin' lacks a plural form" in report
    assert lexicon_from_text(serialize_lexicon(lex, "tsv"), "again") == lex


def _tsv_with(row):
    return TSV_DOC + row + "\n"


def _json_with(**overrides):
    return json.dumps(dict(TOY_LEXICON, **overrides))


_EXTRA_ROW = len(TSV_DOC.splitlines()) + 1


@pytest.mark.parametrize("text,where,message", [
    (_tsv_with("adverb\tgern\t-\t-"), f"doc:{_EXTRA_ROW}", "unknown class 'adverb'"),
    (_tsv_with("verb\tsehen\tsieht"), f"doc:{_EXTRA_ROW}", "at least 4 tab-separated fields"),
    (_tsv_with("verb\tsehen\tsieht\tsehen\tACC\t-"), f"doc:{_EXTRA_ROW}",
     "verb rows take government, category, symmetric"),
    (_tsv_with("noun\tArzt\tÄrzte\t-\tmasc"), f"doc:{_EXTRA_ROW}",
     "noun rows take gender, weak|strong"),
    (_tsv_with("pnoun\tPeter\t-\t-\tmasc\tstrong"), f"doc:{_EXTRA_ROW}",
     "pnoun rows take a gender attribute"),
    (_tsv_with("thing\tBuch\t-\t-\tneut\tsg"), f"doc:{_EXTRA_ROW}",
     "thing rows take gender, number, categories"),
    (_tsv_with("verb\tsehen\tsieht\tsehen\tGEN\t-\tfalse"), f"doc:{_EXTRA_ROW}",
     "unknown government 'GEN'"),
    (_tsv_with("noun\tArzt\tÄrzte\t-\tmasc\tmixed"), f"doc:{_EXTRA_ROW}",
     "noun declension must be weak or strong"),
    (_tsv_with("thing\tBuch\t-\t-\tneuter\tsg\tgiving"), f"doc:{_EXTRA_ROW}", "'neuter'"),
    ("verb\tsehen\tsieht\tsehen\tACC\t-\tfalse\n", "doc:1", "expected header line"),
    ("[]", "doc", "expected a JSON object at top level"),
    (_json_with(masc_common={"lemma": "Arzt"}), "doc: masc_common", "expected an array"),
    (_json_with(masc_common=["Arzt"]), "doc: masc_common[0]", "expected an object"),
    (_json_with(verbs_dative=[{"lemma": "helfen", "form_3sg": "hilft"}]),
     "doc: verbs_dative[0]", "missing field 'form_3pl'"),
    (_json_with(fem_proper=["Anna", 7]), "doc: fem_proper[1]", "proper names are plain strings"),
    (_json_with(masc_common=[{"lemma": "Arzt", "plural_nom": "Ärzte", "weak": "yes"}]),
     "doc: masc_common[0]", "expected true/false, got 'yes'"),
    (_json_with(verbs_ditransitive=[
        {"lemma": "geben", "form_3sg": "gibt", "form_3pl": "geben", "category": "eating"}]),
     "doc: verbs_ditransitive[0]", "unknown semantic category 'eating'"),
    (_json_with(verbs_accusative=[{"lemma": 5, "form_3sg": "sieht", "form_3pl": "sehen"}]),
     "doc: verbs_accusative[0]", "unexpected value 5 for field 'lemma'"),
    (_json_with(masc_proper=["Peter", "Peter"]), "doc: masc_proper[1]",
     "duplicate lemma 'Peter' in masc_proper"),
    (_tsv_with("verb\twarnen\twarnt\twarnen\tACC\t-\tfalse"), f"doc:{_EXTRA_ROW}",
     "duplicate lemma 'warnen' in verbs_accusative"),
    (_tsv_with("pnoun\tWalter\tPeters\t-\tmasc"), f"doc:{_EXTRA_ROW}",
     "pnoun rows leave form2 empty ('-'), found 'Peters'"),
    (_tsv_with("pnoun\tWalter\t-\tX\tmasc"), f"doc:{_EXTRA_ROW}",
     "pnoun rows leave form3 empty ('-'), found 'X'"),
    (_tsv_with("noun\tArzt\tÄrzte\tÄrzten\tmasc\tstrong"), f"doc:{_EXTRA_ROW}",
     "noun rows leave form3 empty ('-'), found 'Ärzten'"),
    (_tsv_with("thing\tBuch\tBücher\t-\tneut\tsg\tgiving"), f"doc:{_EXTRA_ROW}",
     "thing rows leave form2 empty ('-'), found 'Bücher'"),
    (_tsv_with("thing\tBuch\t-\t\tneut\tsg\tgiving"), f"doc:{_EXTRA_ROW}",
     "thing rows leave form3 empty ('-'), found ''"),
    ('{"masc_proper": ["Peter",\n  "Paul",]}\n', "doc", "invalid JSON at line 2: Expecting value"),
    # a JSON escape can decode to half of a surrogate pair, which UTF-8
    # cannot encode; a text, unlike a file, can also hold one as a character
    (_json_with(masc_proper=["Mo\ud800ritz"]), "doc: masc_proper[0]",
     "name 'Mo\\ud800ritz' holds a lone surrogate (U+D800), which UTF-8 cannot encode"),
    (_json_with(verbs_accusative=[{"lemma": "warnen", "form_3sg": "warn\udc00t", "form_3pl": "warnen"}]),
     "doc: verbs_accusative[0]",
     "form_3sg 'warn\\udc00t' holds a lone surrogate (U+DC00)"),
    (_json_with(fem_common=[{"lemma": "Autorin", "plural_nom": "\ude00\ud83d"}]), "doc: fem_common[0]",
     "plural_nom '\\ude00\\ud83d' holds a lone surrogate (U+DE00)"),
    (_tsv_with("thing\tBuch\ud800\t-\t-\tneut\tsg\tgiving"), f"doc:{_EXTRA_ROW}",
     "lemma 'Buch\\ud800' holds a lone surrogate (U+D800)"),
], ids=[
    "tsv-unknown-class",
    "tsv-short-row",
    "tsv-verb-attrs",
    "tsv-noun-attrs",
    "tsv-pnoun-attrs",
    "tsv-thing-attrs",
    "tsv-government",
    "tsv-declension",
    "tsv-thing-gender",
    "tsv-no-header",
    "json-non-object",
    "json-inventory-not-array",
    "json-entry-not-object",
    "json-missing-field",
    "json-name-not-string",
    "json-weak-not-bool",
    "json-unknown-category",
    "json-lemma-not-string",
    "json-duplicate",
    "tsv-duplicate",
    "tsv-pnoun-form2",
    "tsv-pnoun-form3",
    "tsv-noun-form3",
    "tsv-thing-form2",
    "tsv-thing-form3",
    "json-invalid",
    "json-name-lone-surrogate",
    "json-form-lone-surrogate",
    "json-plural-reversed-pair",
    "tsv-lemma-lone-surrogate",
])
def test_reader_errors_name_their_place(text, where, message):
    with pytest.raises(LexiconError) as info:
        lexicon_from_text(text, "doc")
    assert str(info.value).startswith(f"{where}: ")
    assert message in str(info.value)


@pytest.mark.parametrize("overrides,message", [
    ({"verbs_accusative": [
        {"lemma": "treffen", "form_3sg": "trifft", "form_3pl": "treffen", "symmetric": True}]},
     "verb 'treffen': symmetric predicates are excluded"),
    ({"verbs_accusative": [{"lemma": "rufen", "form_3sg": "ruft", "form_3pl": "ruft"}]},
     "verb 'rufen': 3sg and 3pl forms must differ"),
    ({"verbs_accusative": [{"lemma": "helfen", "form_3sg": "hilft", "form_3pl": "helfen"}]},
     "verb 'helfen': appears in both accusative and dative inventories"),
    ({"fem_common": [{"lemma": "Kollegin", "plural_nom": "Kolleginnen", "weak": True}]},
     "fem_common: 'Kollegin' weak declension is restricted to masculine nouns"),
    ({"thing_nouns": [{"lemma": "Kuchen", "gender": "masc", "number": "sg", "categories": []}]},
     "thing noun 'Kuchen': needs at least one compatible category"),
    ({"masc_common": [{"lemma": "Arzt", "plural_nom": None}]},
     "masc_common: 'Arzt' lacks a plural form"),
    ({"thing_nouns": [{"lemma": "Brief", "gender": "masc", "number": "sg", "categories": ["sending"]}]},
     "verb 'geben': no direct-object noun matches its category"),
    ({"fem_proper": ["Anna", "DIESE"]}, "fem_proper: name 'DIESE' spells the article 'diese'"),
    ({"masc_proper": ["Peter", "Ihn"]}, "masc_proper: name 'Ihn' spells the pronoun 'ihn'"),
    ({"masc_common": [{"lemma": "Arzt", "plural_nom": "hören"}]},
     "masc_common: 'Arzt' has the form 'hören' of verb 'hören'"),
    ({"fem_proper": ["Anna", "hilft"]}, "fem_proper: 'hilft' has the form 'hilft' of verb 'helfen'"),
    ({"thing_nouns": [{"lemma": "gibt", "gender": "masc", "number": "sg", "categories": ["giving"]}]},
     "thing_nouns: 'gibt' has the form 'gibt' of verb 'geben'"),
])
def test_validation_rules(overrides, message):
    assert message in validate_lexicon(make_toy(**overrides), ValidationProfile.TOY)


def _verb(form_3sg="warnt", lemma="warnen"):
    return [{"lemma": lemma, "form_3sg": form_3sg, "form_3pl": "warnen"}]


# a lemma or form is one token: sentences join them with spaces, TSV fields
# with tabs, and augmentation reads heads at token positions
@pytest.mark.parametrize("text,where,message", [
    (_json_with(masc_proper=["Karl Heinz"]), "doc: masc_proper[0]", "name 'Karl Heinz'"),
    (_json_with(fem_proper=[""]), "doc: fem_proper[0]", "name ''"),
    (_json_with(verbs_accusative=_verb("warnt ")), "doc: verbs_accusative[0]", "form_3sg 'warnt '"),
    (_json_with(verbs_accusative=_verb(lemma="war\tnen")), "doc: verbs_accusative[0]", "lemma 'war\\tnen'"),
    (_json_with(masc_common=[{"lemma": "Ar\nzt", "plural_nom": "Ärzte"}]), "doc: masc_common[0]",
     "lemma 'Ar\\nzt'"),
    (_json_with(fem_common=[{"lemma": "Autorin", "plural_nom": "Autor\xa0innen"}]), "doc: fem_common[0]",
     "plural_nom 'Autor\\xa0innen'"),
    (_json_with(fem_common=[{"lemma": "Autorin", "plural_nom": ""}]), "doc: fem_common[0]", "plural_nom ''"),
    (_json_with(thing_nouns=[{"lemma": "", "gender": "masc", "number": "sg", "categories": ["giving"]}]),
     "doc: thing_nouns[0]", "lemma ''"),
    (_tsv_with("pnoun\tKarl Heinz\t-\t-\tmasc"), f"doc:{_EXTRA_ROW}", "name 'Karl Heinz'"),
    (_tsv_with("pnoun\t\t-\t-\tmasc"), f"doc:{_EXTRA_ROW}", "name ''"),
    (_tsv_with("verb\tsehen\tsieht \tsehen\tACC\t-\tfalse"), f"doc:{_EXTRA_ROW}", "form_3sg 'sieht '"),
    (_tsv_with("verb\tsehen\tsieht\t\tACC\t-\tfalse"), f"doc:{_EXTRA_ROW}", "form_3pl ''"),
    (_tsv_with("noun\tArzt\tÄrz\u2028te\t-\tmasc\tstrong"), f"doc:{_EXTRA_ROW}", "plural_nom 'Ärz\\u2028te'"),
    (_tsv_with("thing\tBu ch\t-\t-\tneut\tsg\tgiving"), f"doc:{_EXTRA_ROW}", "lemma 'Bu ch'"),
], ids=[
    "json-name-space", "json-name-empty", "json-form-trailing-space", "json-lemma-tab", "json-lemma-lf",
    "json-plural-nbsp", "json-plural-empty", "json-thing-empty", "tsv-name-space", "tsv-name-empty",
    "tsv-form-trailing-space", "tsv-form-empty", "tsv-plural-line-separator", "tsv-thing-space",
])
def test_entries_are_single_tokens(text, where, message):
    with pytest.raises(LexiconError) as info:
        lexicon_from_text(text, "doc")
    assert str(info.value) == f"{where}: {message} is empty or holds whitespace"


# "-" is the TSV mark of an empty cell, so no lemma, form or name may be it:
# a JSON plural "-" would read back from TSV as no plural
@pytest.mark.parametrize("text,where,field", [
    (_json_with(masc_common=[{"lemma": "Arzt", "plural_nom": "-"}]), "doc: masc_common[0]", "plural_nom"),
    (_json_with(masc_common=[{"lemma": "-", "plural_nom": "Ärzte"}]), "doc: masc_common[0]", "lemma"),
    (_json_with(verbs_accusative=_verb("-")), "doc: verbs_accusative[0]", "form_3sg"),
    (_json_with(fem_proper=["-"]), "doc: fem_proper[0]", "name"),
    (_tsv_with("pnoun\t-\t-\t-\tmasc"), f"doc:{_EXTRA_ROW}", "name"),
    (_tsv_with("verb\tsehen\tsieht\t-\tACC\t-\tfalse"), f"doc:{_EXTRA_ROW}", "form_3pl"),
    (_tsv_with("thing\t-\t-\t-\tneut\tsg\tgiving"), f"doc:{_EXTRA_ROW}", "lemma"),
], ids=["json-plural", "json-lemma", "json-form", "json-name", "tsv-name", "tsv-form", "tsv-thing"])
def test_the_empty_cell_mark_is_no_word(text, where, field):
    with pytest.raises(LexiconError) as info:
        lexicon_from_text(text, "doc")
    assert str(info.value) == f"{where}: {field} '-' is the TSV mark of an empty cell"


def test_an_escaped_surrogate_pair_reads():
    text = _json_with(masc_proper=["Mo\U0001F600ritz", "Paul"])
    assert "\\ud83d\\ude00" in text
    assert lexicon_from_text(text, "doc").masc_proper[0].lemma == "Mo\U0001F600ritz"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_a_byte_order_mark_is_refused(fmt, toy_lex, tmp_path):
    text = "\ufeff" + serialize_lexicon(toy_lex, fmt)
    with pytest.raises(LexiconError) as info:
        lexicon_from_text(text, "doc")
    assert str(info.value) == "doc: line 1: starts with a byte-order mark (U+FEFF)"
    path = tmp_path / f"lex.{fmt}"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(path)
    assert str(info.value) == f"{path}: line 1: starts with a byte-order mark (U+FEFF)"


# a lemma or form: any one token but "-"
_WORDS = st.text(min_size=1, max_size=5).filter(lambda w: w.split() == [w] and w != "-")
_CATEGORIES = st.sampled_from([c.value for c in SemanticCategory])


def _inventory(entry):
    return st.lists(entry, max_size=3, unique_by=lambda e: e if isinstance(e, str) else e["lemma"])


def _verbs(**category):
    return _inventory(st.fixed_dictionaries(
        {"lemma": _WORDS, "form_3sg": _WORDS, "form_3pl": _WORDS, "symmetric": st.booleans(), **category}))


_NOUNS = _inventory(st.fixed_dictionaries(
    {"lemma": _WORDS, "plural_nom": st.none() | _WORDS, "weak": st.booleans()}))
_LEXICON_DOCS = st.fixed_dictionaries({
    "verbs_accusative": _verbs(),
    "verbs_dative": _verbs(),
    "verbs_ditransitive": _verbs(category=_CATEGORIES),
    "masc_common": _NOUNS,
    "fem_common": _NOUNS,
    "masc_proper": _inventory(_WORDS),
    "fem_proper": _inventory(_WORDS),
    "thing_nouns": _inventory(st.fixed_dictionaries({
        "lemma": _WORDS,
        "gender": st.sampled_from([g.value for g in Gender]),
        "number": st.sampled_from([n.value for n in Number]),
        "categories": st.lists(_CATEGORIES, unique=True),
    })),
})


@settings(max_examples=100, deadline=None)
@given(doc=_LEXICON_DOCS, fmt=st.sampled_from(["json", "tsv"]))
def test_every_loadable_lexicon_round_trips(doc, fmt):
    """load_lexicon(serialize_lexicon(x, fmt)) == x, as serialize_lexicon's
    docstring promises, for any lexicon the loader accepts."""
    lex = lexicon_from_text(json.dumps(doc), "doc")
    text = serialize_lexicon(lex, fmt)
    assert load_lexicon(io.StringIO(text)) == lex
    assert serialize_lexicon(load_lexicon(io.StringIO(text)), fmt) == text
