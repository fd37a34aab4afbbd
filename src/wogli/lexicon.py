"""Lexicon container, file formats, validation, and the bundled word lists.

Two on-disk encodings are supported and round-trip losslessly:

* a JSON document with one array per inventory (the bundled format), and
* a line-oriented TSV with a ``class  lemma  form2  form3  attrs...`` header,
  ``#`` comments, and ``-`` for empty cells.

Both encodings describe an entry by the same JSON form, from which one
builder makes every entry. Loading rejects what cannot be an entry (missing
or ill-typed fields, a lemma or form that is empty or holds whitespace,
unknown values, misplaced categories, duplicate lemmas, a lemma or form
that is exactly ``-``, a leading byte-order mark);
rules a well-formed entry can still break live in ``validate_lexicon``, so
that broken toy lexicons can be built and reported on. Its TOY profile also
reports loading's word and lemma rules, which only a lexicon built in code
can break; generation and derive, library or CLI, refuse what it reports.
"""

from __future__ import annotations

import enum
import functools
import importlib.resources
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .core import (
    Gender,
    Government,
    NounEntry,
    NounKind,
    Number,
    SemanticCategory,
    ThingNounEntry,
    VerbEntry,
)
from .dataset_io import _BOM, _stream_lines, _undecodable
from .errors import LexiconError
from .morphology import _ARTICLES, _CASES, _PRONOUNS, Case, inflect_noun


class ValidationProfile(enum.Enum):
    FULL = "full"
    TOY = "toy"


@dataclass(frozen=True)
class Lexicon:
    verbs_acc: tuple[VerbEntry, ...]
    verbs_dat: tuple[VerbEntry, ...]
    verbs_ditrans: tuple[VerbEntry, ...]
    masc_common: tuple[NounEntry, ...]
    fem_common: tuple[NounEntry, ...]
    masc_proper: tuple[NounEntry, ...]
    fem_proper: tuple[NounEntry, ...]
    thing_nouns: tuple[ThingNounEntry, ...]

    def verbs(self, government: Government) -> tuple[VerbEntry, ...]:
        return getattr(self, _FIELDS["verb", government])

    def common_nouns(self, gender: Gender) -> tuple[NounEntry, ...]:
        return self.masc_common if gender is Gender.MASC else self.fem_common

    def proper_nouns(self, gender: Gender) -> tuple[NounEntry, ...]:
        return self.masc_proper if gender is Gender.MASC else self.fem_proper


# One row per inventory, in document order: JSON key -> (Lexicon field, TSV
# class, government or gender). Both encodings read and write through it.
_INVENTORIES = {
    "verbs_accusative": ("verbs_acc", "verb", Government.ACCUSATIVE),
    "verbs_dative": ("verbs_dat", "verb", Government.DATIVE),
    "verbs_ditransitive": ("verbs_ditrans", "verb", Government.DITRANSITIVE),
    "masc_common": ("masc_common", "noun", Gender.MASC),
    "fem_common": ("fem_common", "noun", Gender.FEM),
    "masc_proper": ("masc_proper", "pnoun", Gender.MASC),
    "fem_proper": ("fem_proper", "pnoun", Gender.FEM),
    "thing_nouns": ("thing_nouns", "thing", None),
}
_TSV_KEYS = {(cls, tag): key for key, (_, cls, tag) in _INVENTORIES.items()}
_FIELDS = {(cls, tag): field for field, cls, tag in _INVENTORIES.values()}
# the TSV government cell is written as the tag; either spelling reads back
_GOVERNMENT_TAGS = {
    Government.ACCUSATIVE: "ACC",
    Government.DATIVE: "DAT",
    Government.DITRANSITIVE: "DITRANS",
}
_GOVERNMENT_ALIASES = {
    alias: government
    for government, tag in _GOVERNMENT_TAGS.items()
    for alias in (tag.lower(), government.value)
}
_TSV_HEADER = "class\tlemma\tform2\tform3\tattrs"
_WORDS = {"verb": ("lemma", "form_3sg", "form_3pl"), "noun": ("lemma", "plural_nom")}  # else the lemma only


def load_lexicon(source) -> Lexicon:
    """Parse a lexicon document from a path or an open text file; text that
    is not UTF-8 is a LexiconError naming the file."""
    stream = hasattr(source, "read")
    try:
        text = source.read() if stream else Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(source, exc, LexiconError) from None
    return lexicon_from_text(text, name=getattr(source, "name", "<stream>") if stream else str(Path(source)))


def lexicon_from_text(text: str, name: str = "<string>") -> Lexicon:
    if text.startswith(_BOM):
        raise LexiconError(f"{name}: line 1: starts with a byte-order mark (U+FEFF)")
    rows = _json_rows(text, name) if text.lstrip()[:1] in ("{", "[") else _tsv_rows(text, name)
    inventories = {key: {} for key in _INVENTORIES}
    for key, fields, where in rows:
        entry = _entry(key, fields, where)
        if entry.lemma in inventories[key]:
            raise LexiconError(f"{where}: duplicate lemma {entry.lemma!r} in {key}")
        inventories[key][entry.lemma] = entry
    return Lexicon(
        **{field: tuple(inventories[key].values()) for key, (field, _, _) in _INVENTORIES.items()}
    )


def _bool(value, where: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise LexiconError(f"{where}: expected true/false, got {value!r}")


def _category(value, where: str) -> SemanticCategory:
    try:
        return SemanticCategory(value)
    except ValueError:
        raise LexiconError(f"{where}: unknown semantic category {value!r}") from None


def _field(fields: dict, name: str, where: str, types=str):
    if name not in fields:
        raise LexiconError(f"{where}: missing field {name!r}")
    if not isinstance(fields[name], types):
        raise LexiconError(f"{where}: unexpected value {fields[name]!r} for field {name!r}")
    return fields[name]


def _word(value, name: str, where: str):
    """value, a lemma or form: one token of a sentence, so neither empty
    nor holding whitespace (a token count, or a TSV field, would break),
    not "-", which a TSV cell reads as empty, and without a lone surrogate
    (a JSON escape such as \\ud800 gives one), which UTF-8 cannot encode."""
    if value is None:
        return value
    if value.split() != [value]:
        raise LexiconError(f"{where}: {name} {value!r} is empty or holds whitespace")
    if value == "-":
        raise LexiconError(f"{where}: {name} '-' is the TSV mark of an empty cell")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise LexiconError(f"{where}: {name} {value!r} holds a lone surrogate "
                           f"(U+{ord(value[exc.start]):04X}), which UTF-8 cannot encode") from None
    return value


def _entry(key: str, fields, where: str):
    """Build one entry of inventory key from its JSON form. Every entry-level
    check lives here, so both encodings reject the same entries alike."""
    _, cls, tag = _INVENTORIES[key]
    if cls == "pnoun":
        if not isinstance(fields, str):
            raise LexiconError(f"{where}: proper names are plain strings")
        return NounEntry(_word(fields, "name", where), tag, None, False, NounKind.PROPER)
    if not isinstance(fields, dict):
        raise LexiconError(f"{where}: expected an object")
    lemma = _word(_field(fields, "lemma", where), "lemma", where)
    if cls == "noun":
        plural = _word(_field(fields, "plural_nom", where, (str, type(None))), "plural_nom", where)
        weak = _bool(fields.get("weak", False), where)
        return NounEntry(lemma, tag, plural, weak, NounKind.COMMON)
    if cls == "verb":
        form_3sg = _word(_field(fields, "form_3sg", where), "form_3sg", where)
        form_3pl = _word(_field(fields, "form_3pl", where), "form_3pl", where)
        category = fields.get("category")
        if category is not None:
            category = _category(category, where)
        if tag is Government.DITRANSITIVE and category is None:
            raise LexiconError(f"{where}: ditransitive verb needs a semantic category")
        if tag is not Government.DITRANSITIVE and category is not None:
            raise LexiconError(f"{where}: only ditransitive verbs carry a semantic category")
        symmetric = _bool(fields.get("symmetric", False), where)
        return VerbEntry(lemma, form_3sg, form_3pl, tag, category, symmetric)
    try:
        gender = Gender(_field(fields, "gender", where))
        number = Number(_field(fields, "number", where))
    except ValueError as exc:
        raise LexiconError(f"{where}: {exc}") from None
    categories = _field(fields, "categories", where, list)
    return ThingNounEntry(lemma, gender, number, frozenset(_category(c, where) for c in categories))


def _json_rows(text: str, name: str):
    """The document's entries as (inventory key, JSON form, location)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LexiconError(f"{name}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise LexiconError(f"{name}: expected a JSON object at top level")
    for key in doc:
        if key not in _INVENTORIES:
            raise LexiconError(f"{name}: unknown inventory {key!r}")
    for key in _INVENTORIES:
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise LexiconError(f"{name}: {key}: expected an array")
        for i, fields in enumerate(entries):
            yield key, fields, f"{name}: {key}[{i}]"


def _tsv_rows(text: str, name: str):
    """The document's rows as (inventory key, JSON form, location); a cell
    holding "-" is empty: no plural, no category. Lines break as in pair
    files, so U+0085, U+2028 or a form feed stays in its cell."""
    header_seen = False
    for lineno, line in enumerate(_stream_lines(io.StringIO(text)), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        where = f"{name}:{lineno}"
        if not header_seen:
            if line.split("\t")[0] != "class":
                raise LexiconError(f"{where}: expected header line {_TSV_HEADER!r}")
            header_seen = True
            continue
        fields = line.split("\t")
        if len(fields) < 4:
            raise LexiconError(f"{where}: expected at least 4 tab-separated fields")
        cls, lemma, form2, form3, *attrs = fields
        filled = {"noun": 1, "pnoun": 0, "thing": 0}.get(cls, 2)  # form cells the class uses
        for cell, value in [("form2", form2), ("form3", form3)][filled:]:
            if value != "-":
                raise LexiconError(f"{where}: {cls} rows leave {cell} empty ('-'), found {value!r}")
        if cls == "verb":
            if len(attrs) != 3:
                raise LexiconError(f"{where}: verb rows take government, category, symmetric")
            tag = _GOVERNMENT_ALIASES.get(attrs[0].lower())
            if tag is None:
                raise LexiconError(f"{where}: unknown government {attrs[0]!r}")
            form = {"lemma": lemma, "form_3sg": form2, "form_3pl": form3, "symmetric": attrs[2]}
            if attrs[1] != "-":
                form["category"] = attrs[1]
        elif cls == "noun":
            if len(attrs) != 2 or attrs[0] not in ("masc", "fem"):
                raise LexiconError(f"{where}: noun rows take gender, weak|strong")
            if attrs[1] not in ("weak", "strong"):
                raise LexiconError(f"{where}: noun declension must be weak or strong")
            tag = Gender(attrs[0])
            plural = None if form2 == "-" else form2
            form = {"lemma": lemma, "plural_nom": plural, "weak": attrs[1] == "weak"}
        elif cls == "pnoun":
            if len(attrs) != 1 or attrs[0] not in ("masc", "fem"):
                raise LexiconError(f"{where}: pnoun rows take a gender attribute")
            tag, form = Gender(attrs[0]), lemma
        elif cls == "thing":
            if len(attrs) != 3:
                raise LexiconError(f"{where}: thing rows take gender, number, categories")
            tag = None
            gender, number, categories = attrs
            form = {"lemma": lemma, "gender": gender, "number": number,
                    "categories": [c for c in categories.split(",") if c]}
        else:
            raise LexiconError(f"{where}: unknown class {cls!r}")
        yield _TSV_KEYS[cls, tag], form, where
    if not header_seen:
        raise LexiconError(f"{name}: empty document, expected header line {_TSV_HEADER!r}")


def _json_form(cls: str, entry):
    """The JSON form of one entry of a class-cls inventory, the inverse of _entry."""
    if cls == "pnoun":
        return entry.lemma
    if cls == "noun":
        return {"lemma": entry.lemma, "plural_nom": entry.plural_nom, "weak": entry.weak_declension}
    if cls == "verb":
        category = entry.semantic_category
        return {
            "lemma": entry.lemma,
            "form_3sg": entry.form_3sg,
            "form_3pl": entry.form_3pl,
            **({"category": category.value} if category else {}),
            "symmetric": entry.symmetric,
        }
    return {
        "lemma": entry.lemma,
        "gender": entry.gender.value,
        "number": entry.number.value,
        "categories": sorted(c.value for c in entry.compatible_categories),
    }


def _tsv_row(key: str, form) -> str:
    """The TSV row of one JSON form, the inverse of _tsv_rows."""
    _, cls, tag = _INVENTORIES[key]
    if cls == "verb":
        cells = [form["lemma"], form["form_3sg"], form["form_3pl"], _GOVERNMENT_TAGS[tag],
                 form.get("category", "-"), str(form["symmetric"]).lower()]
    elif cls == "noun":
        declension = "weak" if form["weak"] else "strong"
        cells = [form["lemma"], form["plural_nom"] or "-", "-", tag.value, declension]
    elif cls == "pnoun":
        cells = [form, "-", "-", tag.value]
    else:
        cells = [form["lemma"], "-", "-", form["gender"], form["number"],
                 ",".join(form["categories"])]
    return "\t".join([cls, *cells])


def serialize_lexicon(lex: Lexicon, fmt: str = "json") -> str:
    """Render a lexicon back to text; load_lexicon(serialize_lexicon(x)) == x."""
    forms = {
        key: [_json_form(cls, entry) for entry in getattr(lex, field)]
        for key, (field, cls, _) in _INVENTORIES.items()
    }
    if fmt == "json":
        return json.dumps(forms, ensure_ascii=False, indent=2) + "\n"
    if fmt == "tsv":
        rows = [_tsv_row(key, form) for key, entries in forms.items() for form in entries]
        return "\n".join([_TSV_HEADER, *rows]) + "\n"
    raise ValueError(f"unknown lexicon format {fmt!r}")


def surface_forms(lex: Lexicon) -> set[str]:
    """Distinct noun surfaces: common nouns over sg/pl (those they have) x nom/acc, plus names."""
    nouns = lex.masc_common + lex.fem_common + lex.masc_proper + lex.fem_proper
    return {form for noun in nouns for form in _noun_forms(noun, (Case.NOM, Case.ACC))}


def _noun_forms(entry, cases=_CASES) -> list[str]:
    """The forms of a noun generation can write in cases: a common noun's
    in each number it has, a name's or a thing's lemma."""
    if not isinstance(entry, NounEntry) or entry.kind is NounKind.PROPER:
        return [entry.lemma]
    numbers = (Number.SG, Number.PL) if entry.plural_nom else (Number.SG,)
    return [inflect_noun(entry, number, case) for number in numbers for case in cases]


_FULL_COUNTS = (
    ("verbs_acc", "accusative verbs", 50),
    ("verbs_dat", "dative verbs", 22),
    ("verbs_ditrans", "ditransitive verbs", 21),
    ("masc_common", "masculine common nouns", 38),
    ("fem_common", "feminine common nouns", 24),
    ("masc_proper", "masculine proper names", 41),
    ("fem_proper", "feminine proper names", 41),
    ("thing_nouns", "direct-object nouns", 54),
)


def _tables(lex: Lexicon, cls: str) -> list[tuple]:
    """(field, entries, government or gender) of the inventories of one TSV class."""
    return [(field, getattr(lex, field), tag) for field, c, tag in _INVENTORIES.values() if c == cls]


def validate_lexicon(lex: Lexicon, profile: ValidationProfile = ValidationProfile.FULL) -> list[str]:
    """Return human-readable violation messages; an empty list means valid.

    TOY checks structure, loading's rules included; FULL also pins the
    inventory sizes and the 181-surface-form budget of the shipped word lists.
    """
    report = []

    for field, cls, _ in _INVENTORIES.values():  # loading's rules, for a lexicon built in code
        lemmas = set()
        for entry in getattr(lex, field):
            if entry.lemma in lemmas:
                report.append(f"{field}: lemma {entry.lemma!r} is listed twice")
            lemmas.add(entry.lemma)
            for name in _WORDS.get(cls, ("lemma",)):
                try:
                    _word(getattr(entry, name), name, field)
                except LexiconError as exc:
                    report.append(str(exc))

    for _, verbs, _ in _tables(lex, "verb"):
        for v in verbs:
            if v.symmetric:
                report.append(f"verb {v.lemma!r}: symmetric predicates are excluded")
            if v.form_3sg == v.form_3pl:
                report.append(f"verb {v.lemma!r}: 3sg and 3pl forms must differ")
    by_gov = {gov.value: {v.lemma for v in verbs} for _, verbs, gov in _tables(lex, "verb")}
    names = sorted(by_gov)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for lemma in sorted(by_gov[a] & by_gov[b]):
                report.append(f"verb {lemma!r}: appears in both {a} and {b} inventories")

    for inventory, nouns, _ in _tables(lex, "noun"):
        for n in nouns:
            if not n.plural_nom:
                report.append(f"{inventory}: {n.lemma!r} lacks a plural form")
            if n.weak_declension and n.gender is not Gender.MASC:
                report.append(
                    f"{inventory}: {n.lemma!r} weak declension is restricted to masculine nouns"
                )

    # so that no name in a premise reads as an article or a pronoun (the
    # first letter of a premise is capitalised), nor any noun as a verb
    closed = {word: what for what, table in (("article", _ARTICLES), ("pronoun", _PRONOUNS))
              for forms in table.values() for word in forms}
    for inventory, names, _ in _tables(lex, "pnoun"):
        for n in names:
            if (word := n.lemma.lower()) in closed:
                report.append(f"{inventory}: name {n.lemma!r} spells the {closed[word]} {word!r}")
    verb_forms = {form: v.lemma for _, verbs, _ in _tables(lex, "verb") for v in verbs
                  for form in (v.form_3sg, v.form_3pl)}
    for inventory, entries, _ in [*_tables(lex, "noun"), *_tables(lex, "pnoun"), *_tables(lex, "thing")]:
        for entry in entries:
            for form in dict.fromkeys(_noun_forms(entry)):
                if form in verb_forms:
                    report.append(f"{inventory}: {entry.lemma!r} has the form {form!r} of verb {verb_forms[form]!r}")

    for t in lex.thing_nouns:
        if not t.compatible_categories:
            report.append(f"thing noun {t.lemma!r}: needs at least one compatible category")
    for v in lex.verbs_ditrans:
        if not any(v.semantic_category in t.compatible_categories for t in lex.thing_nouns):
            report.append(f"verb {v.lemma!r}: no direct-object noun matches its category")

    if profile is ValidationProfile.FULL:
        for attr, label, want in _FULL_COUNTS:
            got = len(getattr(lex, attr))
            if got != want:
                report.append(f"expected {want} {label}, found {got}")
        weak = sum(1 for n in lex.masc_common if n.weak_declension)
        if weak != 6:
            report.append(f"expected 6 weak masculine nouns, found {weak}")
        forms = len(surface_forms(lex))
        if forms != 181:
            report.append(f"expected 181 distinct noun surface forms, found {forms}")
    return report


def _accepted(lex: Lexicon) -> Lexicon:
    """lex, if TOY validation finds nothing in it, else a LexiconError naming its first three findings."""
    if problems := validate_lexicon(lex, ValidationProfile.TOY):
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise LexiconError(f"lexicon rejected: {'; '.join(problems[:3])}{more}")
    return lex


def bundled_lexicon_path() -> Path:
    return Path(str(importlib.resources.files("wogli").joinpath("data/lexicon.json")))


@functools.cache
def bundled_lexicon() -> Lexicon:
    return load_lexicon(bundled_lexicon_path())


def default_lexicon_path() -> Path:
    """Resolve the lexicon to use: WOGLI_LEXICON if set, else the bundled file."""
    override = os.environ.get("WOGLI_LEXICON")
    return Path(override) if override else bundled_lexicon_path()
