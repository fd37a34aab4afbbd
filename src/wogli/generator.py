"""Premise sampling and hypothesis derivation for the challenge sets.

Sampling is deterministic: every pattern owns an independent RNG stream
derived from (seed, government, pattern index), so identical inputs give
byte-identical datasets, and the pronoun-subject set sees exactly the same
premise draws as the base accusative set.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass

from .core import (
    ArticleKind,
    Case,
    Gender,
    Government,
    HypKind,
    Number,
    PairRecord,
    VerbEntry,
)
from .dataset_io import _encode_str, _row, _row_tail
from .errors import DataFormatError, ExhaustionError
from .lexicon import Lexicon, _accepted
from .morphology import _ARTICLE_KINDS, _CAPITALISED, _CASES, _META_KEYS, NPSpec, agree_verb, compile_sentence
from .patterns import _STEM_RE, NPClass, Pattern, _inventory, _premise_draw

# a premise draw that keeps missing unseen texts this often has no space left
_REJECTION_MISS_BUDGET = 100_000
# below this space size, enumerate instead of rejection-sampling
_ENUMERATION_CUTOFF = 20_000
# where NPSpec.texts holds a premise's capitalised nominative and its accusative
_NOMINATIVE_FIRST, _ACCUSATIVE = _CAPITALISED + _CASES.index(Case.NOM), _CASES.index(Case.ACC)


class GenerationSet(enum.Enum):
    WOGLI = "wogli"
    P_SUBJECT = "p-subject"
    DATIVE = "dative"
    DITRANSITIVE = "ditransitive"
    OS_HARD = "os-hard"


# per set: the subset label its records carry, its verbs' government, the
# hypotheses of each premise, and the CLI's default premises per pattern
_SETS = {
    GenerationSet.WOGLI: ("wogli", Government.ACCUSATIVE, (HypKind.H1_SO, HypKind.H2_OS), 1000),
    GenerationSet.P_SUBJECT: ("wogli-p-subject", Government.ACCUSATIVE, (HypKind.H1_SO, HypKind.H2_OS), 1000),
    GenerationSet.DATIVE: ("wogli-dative", Government.DATIVE, (HypKind.H1_SO, HypKind.H2_OS), 150),
    GenerationSet.DITRANSITIVE: ("wogli-ditransitive", Government.DITRANSITIVE,
                                 (HypKind.H1_SIO, HypKind.H2_IOS), 500),
    GenerationSet.OS_HARD: ("wogli-os-hard", Government.ACCUSATIVE, (HypKind.H3_OS,), 1000),
}


@dataclass(frozen=True)
class PremiseInstance:
    """A fully lexicalized premise; seed_path is (pattern index, draw index)."""

    pattern: Pattern
    subject: NPSpec
    object: NPSpec
    verb: VerbEntry
    direct_object: NPSpec | None = None
    seed_path: tuple[int, int] = (0, 0)


def _render(inst: PremiseInstance, kind: HypKind | None, spaced_period: bool) -> str:
    sentence = compile_sentence(inst.pattern.government.object_case, kind, spaced_period)
    return sentence(inst.subject, inst.object, inst.verb, inst.direct_object)


def realize_premise(inst: PremiseInstance, spaced_period: bool = False) -> str:
    """Subject, agreeing verb, object in the governed case, capitalized and
    terminated (ditransitives append the accusative direct object)."""
    return _render(inst, None, spaced_period)


def derive_h1(inst: PremiseInstance, spaced_period: bool = False) -> str:
    """Argument swap in base order (not entailed): the old object becomes the
    nominative subject, the verb re-agrees, the old subject takes the object case."""
    return _render(inst, HypKind.H1_SO, spaced_period)


def derive_h2(inst: PremiseInstance, spaced_period: bool = False) -> str:
    """Surface reorder (entailed): object first, everything keeps its marking."""
    return _render(inst, HypKind.H2_OS, spaced_period)


class _Tables:
    """A lexicon the gate accepts, compiled into specs once, so that every
    NP form is rendered at most once per set of tables. Per argument class:
    groups, its specs as drawn (one choice of group and one within it: a
    name by gender then name, a common noun by noun then article kind; no
    group is empty), and slots, the same specs in one list. Per government:
    verbs, (verb, its compatible thing specs or None) per verb; verb_things,
    (verb, thing spec or None) per verb and direct object; and by_lemma,
    keyed by the government's value, its verbs by lemma. What only the read
    side needs is filled on a miss: indexes, np's per (role, owner)."""

    def __init__(self, lex: Lexicon):
        lex = _accepted(lex)
        # a gender with no names is no group: a draw of it would find none
        names = tuple(tuple(NPSpec(n, g, Number.SG, ArticleKind.NONE) for n in lex.proper_nouns(g))
                      for g in (Gender.MASC, Gender.FEM) if lex.proper_nouns(g))
        self.groups = {cls: names if cls.is_proper else tuple(
            tuple(NPSpec(noun, cls.gender, cls.number, kind) for kind in _ARTICLE_KINDS[cls.number])
            for noun in lex.common_nouns(cls.gender)) for cls in NPClass}
        self.slots = {cls: [spec for group in groups for spec in group] for cls, groups in self.groups.items()}
        fits = {}  # a category's value -> the specs of the things that fit it, in lexicon order
        for t in lex.thing_nouns:
            spec = NPSpec(t, t.gender, t.number, ArticleKind.DEF)
            for category in t.compatible_categories:
                fits.setdefault(category._value_, []).append(spec)
        self.verbs = {government: tuple(
            (v, tuple(fits[v.semantic_category._value_]) if government is Government.DITRANSITIVE else None)
            for v in lex.verbs(government)) for government in Government}
        self.verb_things = {government: [
            (verb, thing) for verb, things in verbs for thing in ((None,) if things is None else things)
        ] for government, verbs in self.verbs.items()}
        self.by_lemma = {government._value_: {verb.lemma: verb for verb, _ in verbs}
                         for government, verbs in self.verbs.items()}
        self.indexes = {}

    def space(self, pattern: Pattern) -> int:
        subjects, objects = self.slots[pattern.subject], self.slots[pattern.object]
        pairs = len(subjects) * len(objects)
        if pattern.subject is pattern.object:
            lemmas = Counter(spec.lemma for spec in subjects)
            pairs -= sum(lemmas[spec.lemma] for spec in objects)
        return pairs * len(self.verb_things[pattern.government])

    def np(self, owner, role: str, meta: dict, where: str) -> NPSpec:
        """The spec that owner, a class or a ditransitive verb, draws in role
        and whose metadata there meta holds exactly; a miss names the first
        field that differs from the nearest spec (most equal fields). A
        verb is one of by_lemma's, so that its lemma names it."""
        key = (role, owner.lemma if role == "direct_object" else owner._value_)
        index = self.indexes.get(key)
        if index is None:
            index = self.indexes[key] = self._index(owner, role)
        got = tuple(map(meta.get, _META_KEYS[role]))
        try:
            return index[got]
        except (KeyError, TypeError):  # TypeError: an unhashable value, which no spec writes
            pass
        if role == "object" and meta.get("object_kind") == "pronoun":
            raise DataFormatError(f"{where}: object: only a subject can be a pronoun")
        within = f"verb {owner.lemma!r}" if role == "direct_object" else f"class {owner.value}"
        if not index:
            raise DataFormatError(f"{where}: {within} has no {role}")
        nearest = max(index, key=lambda values: sum(a == b for a, b in zip(values, got)))
        key, value, want = next(f for f in zip(_META_KEYS[role], got, nearest) if f[1] != f[2])
        raise DataFormatError(f"{where}: {key} is {value!r}, but its {role} writes {want!r} ({within})")

    def _index(self, owner, role: str) -> dict:
        """owner's specs in role, a subject's with their pronouns, by the
        metadata values each writes there, in table order."""
        if role == "direct_object":
            specs = dict(self.verbs[Government.DITRANSITIVE])[owner]
        else:
            specs = self.slots[owner]
            if role == "subject":
                specs = specs + [spec.pronoun for spec in specs]
        return {tuple(spec.metadata[role].values()): spec for spec in specs}


def _compatible_things(lex: Lexicon) -> _Tables:
    """lex's tables, which the bench's workloads.sampling_paths builds once
    and passes to each _space_size call."""
    return _Tables(lex)


def _space_size(pattern: Pattern, lex: Lexicon, compat: _Tables) -> int:
    """pattern's lexicalization space in compat, lex's tables; lex is
    unused, and kept for the bench, which passes it."""
    return compat.space(pattern)


def _size(pool) -> tuple[int, int]:
    """pool's size n and the k = n.bit_length() bits random.Random.choice
    draws from it on CPython 3.10-3.13, redrawing while they read n or
    more. An empty pool is an IndexError: it would draw 0 bits forever."""
    n = len(pool)
    if not n:
        raise IndexError("cannot choose from an empty pool")
    return n, n.bit_length()


def _chooser(getrandbits, pool):
    """A function that draws one item of pool as choice(pool) does on a
    random.Random whose getrandbits this is."""
    n, k = _size(pool)

    def choose():
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return pool[r]

    return choose


def _group_chooser(getrandbits, groups):
    """A function that draws one item of one of groups as choice(choice(groups))
    does on a random.Random whose getrandbits this is, in one call."""
    n, k = _size(groups)
    sized = [(*_size(group), group) for group in groups]

    def choose():
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        m, j, group = sized[r]
        r = getrandbits(j)
        while r >= m:
            r = getrandbits(j)
        return group[r]

    return choose


def _sample_pattern(pattern, pattern_index, tables, seed, per_pattern, with_replacement,
                    spaced_period=False):
    """Yield (premise, draw, draw index) for one pattern, a draw being the
    (subject, object, verb, thing) its compiled sentence takes; premises are
    distinct unless drawn with replacement. Each premise is realized once, here."""
    if per_pattern < 1:
        raise ValueError("per_pattern must be positive")
    rng = random.Random(f"{seed}:{pattern.government.value}:{pattern_index}")
    premise_of = compile_sentence(pattern.government.object_case, None, spaced_period)
    same_class = pattern.subject is pattern.object
    space = tables.space(pattern)
    # with replacement any non-empty space will do; an empty one would redraw forever
    if per_pattern > space and (space == 0 or not with_replacement):
        raise ExhaustionError(
            f"pattern {pattern.name}: {per_pattern} distinct premises requested, "
            f"lexicalization space holds {space}"
        )
    enumerate_all = not with_replacement and (
        space <= _ENUMERATION_CUTOFF or per_pattern * 3 >= space)
    if enumerate_all:
        distinct = {}
        for subject, (verb, thing), obj in itertools.product(
            tables.slots[pattern.subject],
            tables.verb_things[pattern.government],
            tables.slots[pattern.object],
        ):
            if same_class and subject.head.lemma == obj.head.lemma:
                continue
            drawn = (subject, obj, verb, thing)
            distinct.setdefault(premise_of(*drawn), drawn)
        if per_pattern > len(distinct):
            raise ExhaustionError(
                f"pattern {pattern.name}: {per_pattern} distinct premises requested, "
                f"only {len(distinct)} distinct surfaces exist"
            )
        chosen = rng.sample(list(distinct.items()), per_pattern)
        for i, (premise, drawn) in enumerate(chosen):
            yield premise, drawn, i
        return
    # a draw makes the choices of drawing from the lexicon's pools: subject
    # group and subject, verb, object group and object (all again on a
    # same-lemma pair of one class), direct object
    getrandbits = rng.getrandbits
    subject_of = _group_chooser(getrandbits, tables.groups[pattern.subject])
    object_of = _group_chooser(getrandbits, tables.groups[pattern.object])
    verb_of = _chooser(getrandbits, [
        (verb, None if things is None else _chooser(getrandbits, things))
        for verb, things in tables.verbs[pattern.government]])
    seen = set()
    misses = count = 0
    while count < per_pattern:
        subject = subject_of()
        verb, thing_of = verb_of()
        obj = object_of()
        if same_class and subject.head.lemma == obj.head.lemma:
            continue
        drawn = (subject, obj, verb, None if thing_of is None else thing_of())
        premise = premise_of(*drawn)
        if not with_replacement:
            if premise in seen:
                misses += 1
                if misses > _REJECTION_MISS_BUDGET:
                    raise ExhaustionError(
                        f"pattern {pattern.name}: could not find {per_pattern} distinct premises"
                    )
                continue
            seen.add(premise)
        yield premise, drawn, count
        count += 1


def _patterns_for(name: GenerationSet) -> list[Pattern]:
    return [pattern for _, pattern in _inventory(_SETS[name][1]._value_).values()]


def sample_premises(
    name: GenerationSet,
    lex: Lexicon,
    seed: int,
    per_pattern: int,
    with_replacement: bool = False,
) -> list[PremiseInstance]:
    """Draw premises for every pattern of the set, pattern-major order.

    For P_SUBJECT and OS_HARD these are the base accusative draws, with
    noun subjects, not the premises the set writes. With replacement the
    raw draws are returned and are not deduplicated; the set collapses
    duplicate surfaces (keeping the first), which gives slightly fewer
    premises than patterns x per_pattern.
    """
    tables = _Tables(lex)
    return [
        PremiseInstance(p, *draw, (i, d))
        for i, p in enumerate(_patterns_for(name))
        for _, draw, d in _sample_pattern(p, i, tables, seed, per_pattern, with_replacement)
    ]


class _Records:
    """render(draw, premise, draw index): a set's rows of one premise, as
    PairRecords or, with encode, as the JSON lines write_pairs writes for
    them. What the set and the current pattern fix is worked out once, so
    a line adds only its draw index, two encoded texts and its metadata to
    it. rows counts the rows rendered. An id is the pattern's prefix, the
    draw index and the hypothesis kind's suffix, so the ids are distinct as
    long as no (pattern, draw index) is rendered twice; the callers see to
    that, and no id is kept."""

    def __init__(self, name: GenerationSet, spaced_period: bool, encode: bool = False):
        self.subset, _, self.kinds, _ = _SETS[name]
        self.spaced_period = spaced_period
        self.encode = encode
        self.rows = 0
        self.per_premise = len(self.kinds)
        self.render = self._rows if encode else self._records
        self.subset_json = _encode_str(self.subset)
        self.lemma_json = functools.cache(_encode_str)

    def for_pattern(self, pattern: Pattern, pattern_index: int) -> None:
        self.pattern_name = pattern.name
        # ASCII with nothing JSON escapes: the subset label, the index and a suffix
        self.prefix = f"{self.subset}-p{pattern_index:02d}-d"
        case = pattern.government.object_case
        self.premise_of = compile_sentence(case, None, self.spaced_period)
        self.hypotheses = [
            (kind, "-" + kind.value.split("_")[0], kind.label, compile_sentence(case, kind, self.spaced_period))
            for kind in self.kinds
        ]
        # per hypothesis kind, _row's line cut where a row's own parts go, and
        # the fixed parts of the id and premise_id put in: _rows adds the draw
        # index, the encoded texts and the NPs' and verb's metadata
        self.templates = []
        for kind, suffix, _, hypothesis_of in self.hypotheses:
            before_id, before_premise, before_hypothesis, before_meta, after_meta = _row(
                "\0", self.subset_json, "\0", "\0", _row_tail(kind, pattern.name), "\0").split("\0")
            self.templates.append((
                hypothesis_of, f'{before_id}"{self.prefix}', f'{suffix}"{before_premise}', before_hypothesis,
                f'{before_meta}{{"premise_id": "{self.prefix}', "}" + after_meta))

    def _records(self, draw, premise, draw_index):
        subject, obj, verb, thing = draw
        self.rows += self.per_premise
        stem = f"{self.prefix}{draw_index:05d}"
        metadata = {"premise_id": f"{stem}-premise", **subject.metadata["subject"],
                    **obj.metadata["object"], "verb_lemma": verb.lemma}
        if thing is not None:
            metadata.update(thing.metadata["direct_object"])
        # each record owns its metadata: copies for all but the last, which takes this dict
        owned = [*(dict(metadata) for _ in self.hypotheses[1:]), metadata]
        return [
            PairRecord(f"{stem}{suffix}", self.subset, premise, hypothesis_of(*draw),
                       label, kind, self.pattern_name, meta)
            for (kind, suffix, label, hypothesis_of), meta in zip(self.hypotheses, owned)
        ]

    def _rows(self, draw, premise, draw_index):
        subject, obj, verb, thing = draw
        self.rows += self.per_premise
        d = f"{draw_index:05d}"
        text = _encode_str(premise)
        # the metadata _records builds after its premise_id, in its key order
        meta = (f'{subject.fragments["subject"]}, {obj.fragments["object"]}, '
                f'"verb_lemma": {self.lemma_json(verb.lemma)}'
                f'{"" if thing is None else ", " + thing.fragments["direct_object"]}')
        return [
            f'{head}{d}{mid}{text}{between}{_encode_str(hypothesis_of(*draw))}{after}{d}-premise", {meta}{end}'
            for hypothesis_of, head, mid, between, after, end in self.templates
        ]


def generate_set(
    name: GenerationSet,
    lex: Lexicon,
    seed: int,
    per_pattern: int,
    with_replacement: bool = False,
    spaced_period: bool = False,
) -> list[PairRecord]:
    """Generate one challenge set as pair records.

    The base, dative, and ditransitive sets emit an argument-swap and a
    reorder hypothesis per premise; the pronoun-subject set pronominalizes the
    base premises (collapsing surface duplicates, first draw wins); the hard
    reorder set re-derives the base premises and emits the swapped-and-
    reordered hypothesis only.
    """
    return list(_set_records(name, lex, seed, per_pattern, with_replacement, _Records(name, spaced_period)))


def _set_records(name, lex, seed, per_pattern, with_replacement, build: _Records):
    """generate_set's rows as build renders them, each premise's built as
    they are consumed. Each pattern's draw indexes must rise, so that no id
    repeats."""
    tables = _Tables(lex)
    drawn = set()  # base premises seen so far, when drawing with replacement
    # the pronoun-subject premises kept so far: a bit per (pronoun, verb form)
    # head, and per object text the bits of the heads kept with it
    heads, kept = {}, {}
    for i, pattern in enumerate(_patterns_for(name)):
        build.for_pattern(pattern, i)
        pairs = _sample_pattern(
            pattern, i, tables, seed, per_pattern, with_replacement, build.spaced_period
        )
        last = -1  # the pattern's last draw index
        for premise, draw, d in pairs:
            if d <= last:
                rid = f"{build.prefix}{d:05d}{build.hypotheses[0][1]}"
                raise DataFormatError(f"duplicate record id {rid!r}")
            last = d
            if with_replacement:
                if premise in drawn:
                    continue
                drawn.add(premise)
            if name is GenerationSet.P_SUBJECT:
                subject, obj, verb, _ = draw = (draw[0].pronoun, *draw[1:])
                # the premise is "<Pronoun> <verb form> <object>.", and the
                # pronoun and the verb form are one token each (_Tables' lexicon
                # gate refuses whitespace in a form), so the text splits into these
                # parts one way only: two premises are equal exactly when their
                # parts are, and the parts are strings the lexicon's specs hold
                head = (subject.texts[_NOMINATIVE_FIRST], agree_verb(verb, subject.number))
                bit = heads.setdefault(head, 1 << len(heads))
                bits = kept.get(text := obj.texts[_ACCUSATIVE], 0)
                if bits & bit:
                    continue
                kept[text] = bits | bit
                premise = build.premise_of(*draw)
            yield from build.render(draw, premise, d)


_SUBSET_GOVERNMENT = {s: g for s, g, _, _ in _SETS.values() if g is not Government.ACCUSATIVE}


def _read_record(record: PairRecord, tables: _Tables):
    """(pattern, draw) behind a record, from its metadata: its set must draw
    its pattern, and its pattern's classes, or its verb, each NP."""
    meta = record.metadata
    where = f"record {record.id}"
    if not meta:
        raise DataFormatError(f"{where}: instance reconstruction needs row metadata")
    government = _SUBSET_GOVERNMENT.get(record.subset, Government.ACCUSATIVE)
    if government is not Government.DITRANSITIVE and not meta.keys().isdisjoint(_META_KEYS["direct_object"]):
        raise DataFormatError(f"{where}: only ditransitive records have a direct object")
    drawn = _inventory(government._value_).get(record.pattern_name)
    if drawn is None:
        raise DataFormatError(f"{where}: {record.pattern_name!r} is not a pattern {government.value} sets draw")
    pattern = drawn[1]
    lemma = meta.get("verb_lemma")
    verb = tables.by_lemma[government._value_].get(lemma) if isinstance(lemma, str) else None
    if verb is None:
        raise DataFormatError(f"{where}: verb {lemma!r} not in the lexicon")
    subject = tables.np(pattern.subject, "subject", meta, where)
    obj = tables.np(pattern.object, "object", meta, where)
    if pattern.subject is pattern.object and subject.lemma == obj.lemma:
        raise DataFormatError(f"{where}: subject and object are both {obj.lemma!r}, which no draw pairs")
    thing = tables.np(verb, "direct_object", meta, where) if government is Government.DITRANSITIVE else None
    return pattern, (subject, obj, verb, thing)


def derive_os_hard(records: list[PairRecord], lex: Lexicon, spaced_period: bool = False) -> list[PairRecord]:
    """One swapped-and-reordered (not entailed) pair per distinct premise of
    an accusative pair file. Every record's premise_id must name its own
    draw (patterns._premise_draw), and the first record of each premise
    must carry the premise text its metadata renders, with either period
    style. A record that repeats an earlier one's id is a DataFormatError."""
    return list(_os_hard_records(records, lex, _Records(GenerationSet.OS_HARD, spaced_period)))


def _os_hard_records(records, lex: Lexicon, build: _Records):
    """derive_os_hard's rows as build renders them, each premise's built as
    they are consumed. taken holds, per draw, the id stem of the premise
    that names it and a shared tuple of the suffixes of its ids so far; no
    id is kept. A row that repeats an earlier id is the duplicate error
    before any other check of it: every earlier row named a draw (or the
    error would have been its), and a row whose id stem names no draw
    repeats none of theirs. Each draw of taken is rendered once, so the
    output ids are distinct."""
    tables = _Tables(lex)
    taken = {}  # seed path -> (the id stem of its premise, the suffixes of that premise's ids)
    share = {}.setdefault
    current = None  # the (pattern, index) build was last set up for
    for record in records:
        stem, _, suffix = record.id.rpartition("-")
        named = _STEM_RE.search(stem)  # it matches for every row _premise_draw passes
        seed_path = named and (int(named[1]), int(named[2]))
        owner, suffixes = taken.get(seed_path, (stem, ()))
        if owner == stem and suffix in suffixes:
            raise DataFormatError(f"duplicate record id {record.id!r}")
        if record.subset in _SUBSET_GOVERNMENT:
            raise DataFormatError(
                f"record {record.id}: os-hard derivation needs accusative records, "
                f"not subset {record.subset!r}"
            )
        if not record.metadata:
            raise DataFormatError(f"record {record.id}: os-hard derivation needs row-format input, with metadata")
        _premise_draw(record, stem, named)
        if owner != stem:  # under another subset: its derived ids would repeat that premise's
            raise DataFormatError(
                f"record {record.id}: premise {record.metadata['premise_id']!r} has the draw "
                f"p{seed_path[0]:02d}-d{seed_path[1]:05d} of record {owner}-{suffixes[0]}, another premise"
            )
        taken[seed_path] = stem, share(grown := (*suffixes, suffix), grown)
        if suffixes:  # another row of that premise
            continue
        pattern, draw = _read_record(record, tables)
        if (pattern, seed_path[0]) != current:
            current = (pattern, seed_path[0])
            build.for_pattern(*current)
        premise = build.premise_of(*draw)
        spaced = record.premise.endswith(" .")
        rendered = premise if spaced == build.spaced_period else compile_sentence(
            pattern.government.object_case, None, spaced)(*draw)
        if record.premise != rendered:
            raise DataFormatError(
                f"record {record.id}: premise {record.premise!r} is not {rendered!r}, "
                f"the premise its metadata renders"
            )
        yield from build.render(draw, premise, seed_path[1])
