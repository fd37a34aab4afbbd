"""Premise sampling and hypothesis derivation for the challenge sets.

Sampling is deterministic: every pattern owns an independent RNG stream
derived from (seed, government, pattern index), so identical inputs give
byte-identical datasets, and the pronoun-subject set sees exactly the same
premise draws as the base accusative set.
"""

from __future__ import annotations

import enum
import itertools
import random
import re
from dataclasses import dataclass, replace

from .core import (
    ArticleKind,
    Case,
    Gender,
    Government,
    HypKind,
    Number,
    PairRecord,
    ThingNounEntry,
    VerbEntry,
)
from .errors import DataFormatError, ExhaustionError
from .lexicon import Lexicon
from .morphology import NPSpec, PRONOUN, clause, inflect_pronoun, render_np
from .patterns import Pattern, extended_patterns, parse_pattern_name, wogli_patterns

# a premise draw that keeps missing unseen texts this often has no space left
_REJECTION_MISS_BUDGET = 100_000
# below this space size, enumerate instead of rejection-sampling
_ENUMERATION_CUTOFF = 20_000


class GenerationSet(enum.Enum):
    WOGLI = "wogli"
    P_SUBJECT = "p-subject"
    DATIVE = "dative"
    DITRANSITIVE = "ditransitive"
    OS_HARD = "os-hard"

    @property
    def subset_label(self) -> str:
        return _SUBSET_LABELS[self]


# one shared label string per set, as every record of the set carries it
_SUBSET_LABELS = {s: f"wogli-{s.value}" for s in GenerationSet}
_SUBSET_LABELS[GenerationSet.WOGLI] = "wogli"


@dataclass(frozen=True)
class PremiseInstance:
    """A fully lexicalized premise; seed_path is (pattern index, draw index)."""

    pattern: Pattern
    subject: NPSpec
    object: NPSpec
    verb: VerbEntry
    direct_object: NPSpec | None = None
    seed_path: tuple[int, int] = (0, 0)


def _sentence(tokens: list[str], spaced_period: bool) -> str:
    tokens[0] = tokens[0][0].upper() + tokens[0][1:]
    return " ".join(tokens) + (" ." if spaced_period else ".")


def _tokens(inst: PremiseInstance, kind: HypKind | None = None) -> list[str]:
    """The premise (kind None) or one hypothesis as tokens: the argument
    layout of the kind, plus the accusative direct object of ditransitives."""
    tokens = clause(inst.subject, inst.object, inst.verb, inst.pattern.government.object_case, kind)
    if inst.direct_object is not None:
        tokens.extend(render_np(inst.direct_object, Case.ACC))
    return tokens


def realize_premise(inst: PremiseInstance, spaced_period: bool = False) -> str:
    """Subject, agreeing verb, object in the governed case, capitalized and
    terminated (ditransitives append the accusative direct object)."""
    return _sentence(_tokens(inst), spaced_period)


def derive_h1(inst: PremiseInstance, spaced_period: bool = False) -> str:
    """Argument swap in base order (not entailed): the old object becomes the
    nominative subject, the verb re-agrees, the old subject takes the object case."""
    return _sentence(_tokens(inst, HypKind.H1_SO), spaced_period)


def derive_h2(inst: PremiseInstance, spaced_period: bool = False) -> str:
    """Surface reorder (entailed): object first, everything keeps its marking."""
    return _sentence(_tokens(inst, HypKind.H2_OS), spaced_period)


def derive_h3(inst: PremiseInstance, spaced_period: bool = False) -> str:
    """Argument swap presented in object-first order (not entailed)."""
    if inst.pattern.government is not Government.ACCUSATIVE:
        raise ValueError("the object-first swap is defined for accusative premises")
    return _sentence(_tokens(inst, HypKind.H3_OS), spaced_period)


def pronominalize(inst: PremiseInstance) -> PremiseInstance:
    """Replace the premise subject with a personal pronoun of the same
    gender and number (accusative premises only)."""
    if inst.pattern.government is not Government.ACCUSATIVE:
        raise ValueError("pronoun subjects are defined for accusative premises")
    pronoun = NPSpec(PRONOUN, inst.subject.gender, inst.subject.number, ArticleKind.NONE)
    return replace(inst, subject=pronoun)


_SG_KINDS = (ArticleKind.DEF, ArticleKind.INDEF, ArticleKind.DEM)
_PL_KINDS = (ArticleKind.DEF, ArticleKind.DEM)


def _class_slots(cls, lex: Lexicon) -> list[NPSpec]:
    """All lexicalizations of one argument slot, in canonical order."""
    if cls.is_proper:
        genders = [cls.gender] if cls.gender else [Gender.MASC, Gender.FEM]
        return [
            NPSpec(noun, gender, Number.SG, ArticleKind.NONE)
            for gender in genders
            for noun in lex.proper_nouns(gender)
        ]
    kinds = _SG_KINDS if cls.number is Number.SG else _PL_KINDS
    return [
        NPSpec(noun, cls.gender, cls.number, kind)
        for noun in lex.common_nouns(cls.gender)
        for kind in kinds
    ]


def _compatible_things(lex: Lexicon) -> dict[str, list[ThingNounEntry]]:
    return {
        verb.lemma: [t for t in lex.thing_nouns if verb.semantic_category in t.compatible_categories]
        for verb in lex.verbs_ditrans
    }


def _space_size(pattern: Pattern, lex: Lexicon, compat) -> int:
    subjects = _class_slots(pattern.subject, lex)
    objects = _class_slots(pattern.object, lex)
    pairs = len(subjects) * len(objects)
    if pattern.subject.name_fragment == pattern.object.name_fragment:
        by_lemma = {}
        for spec in subjects:
            by_lemma.setdefault(spec.head.lemma, 0)
            by_lemma[spec.head.lemma] += 1
        for spec in objects:
            if spec.head.lemma in by_lemma:
                pairs -= by_lemma[spec.head.lemma]
    if pattern.government is Government.DITRANSITIVE:
        return pairs * sum(len(compat[v.lemma]) for v in lex.verbs_ditrans)
    return pairs * len(lex.verbs(pattern.government))


def _draw_np(rng: random.Random, cls, lex: Lexicon) -> NPSpec:
    if cls.is_proper:
        gender = cls.gender or rng.choice((Gender.MASC, Gender.FEM))
        return NPSpec(rng.choice(lex.proper_nouns(gender)), gender, Number.SG, ArticleKind.NONE)
    noun = rng.choice(lex.common_nouns(cls.gender))
    kinds = _SG_KINDS if cls.number is Number.SG else _PL_KINDS
    return NPSpec(noun, cls.gender, cls.number, rng.choice(kinds))


def _draw_instance(rng, pattern, lex, compat, seed_path) -> PremiseInstance:
    same_class = pattern.subject.name_fragment == pattern.object.name_fragment
    while True:
        subject = _draw_np(rng, pattern.subject, lex)
        verb = rng.choice(lex.verbs(pattern.government))
        obj = _draw_np(rng, pattern.object, lex)
        if same_class and subject.head.lemma == obj.head.lemma:
            continue
        break
    direct_object = None
    if pattern.government is Government.DITRANSITIVE:
        thing = rng.choice(compat[verb.lemma])
        direct_object = NPSpec(thing, thing.gender, thing.number, ArticleKind.DEF)
    return PremiseInstance(pattern, subject, obj, verb, direct_object, seed_path)


def _enumerate_instances(pattern, lex, compat):
    same_class = pattern.subject.name_fragment == pattern.object.name_fragment
    subjects = _class_slots(pattern.subject, lex)
    objects = _class_slots(pattern.object, lex)
    if pattern.government is Government.DITRANSITIVE:
        verb_things = [
            (verb, NPSpec(t, t.gender, t.number, ArticleKind.DEF))
            for verb in lex.verbs_ditrans
            for t in compat[verb.lemma]
        ]
    else:
        verb_things = [(verb, None) for verb in lex.verbs(pattern.government)]
    for subject, (verb, thing), obj in itertools.product(subjects, verb_things, objects):
        if same_class and subject.head.lemma == obj.head.lemma:
            continue
        yield PremiseInstance(pattern, subject, obj, verb, thing)


def _sample_pattern(pattern, pattern_index, lex, seed, per_pattern, with_replacement, compat,
                    spaced_period=False):
    """Yield (premise, instance) for one pattern; premises are distinct
    unless drawn with replacement. Each premise is realized once, here."""
    rng = random.Random(f"{seed}:{pattern.government.value}:{pattern_index}")
    if with_replacement:
        for i in range(per_pattern):
            inst = _draw_instance(rng, pattern, lex, compat, (pattern_index, i))
            yield realize_premise(inst, spaced_period), inst
        return
    space = _space_size(pattern, lex, compat)
    if per_pattern > space:
        raise ExhaustionError(
            f"pattern {pattern.name}: {per_pattern} distinct premises requested, "
            f"lexicalization space holds {space}"
        )
    if space <= _ENUMERATION_CUTOFF or per_pattern * 3 >= space:
        distinct = {}
        for inst in _enumerate_instances(pattern, lex, compat):
            distinct.setdefault(realize_premise(inst, spaced_period), inst)
        if per_pattern > len(distinct):
            raise ExhaustionError(
                f"pattern {pattern.name}: {per_pattern} distinct premises requested, "
                f"only {len(distinct)} distinct surfaces exist"
            )
        chosen = rng.sample(list(distinct.items()), per_pattern)
        for i, (premise, inst) in enumerate(chosen):
            yield premise, replace(inst, seed_path=(pattern_index, i))
        return
    seen = set()
    misses = 0
    while len(seen) < per_pattern:
        inst = _draw_instance(rng, pattern, lex, compat, (pattern_index, len(seen)))
        premise = realize_premise(inst, spaced_period)
        if premise in seen:
            misses += 1
            if misses > _REJECTION_MISS_BUDGET:
                raise ExhaustionError(
                    f"pattern {pattern.name}: could not find {per_pattern} distinct premises"
                )
            continue
        seen.add(premise)
        yield premise, inst


def _patterns_for(name: GenerationSet) -> list[Pattern]:
    if name is GenerationSet.DATIVE:
        return extended_patterns(Government.DATIVE)
    if name is GenerationSet.DITRANSITIVE:
        return extended_patterns(Government.DITRANSITIVE)
    return wogli_patterns()


def sample_premises(
    name: GenerationSet,
    lex: Lexicon,
    seed: int,
    per_pattern: int,
    with_replacement: bool = False,
) -> list[PremiseInstance]:
    """Draw premises for every pattern of the set, pattern-major order.

    In replacement mode the raw draws are returned and duplicate surfaces are
    collapsed later (keeping the first), matching the construction that gives
    slightly fewer premises than patterns x per_pattern.
    """
    compat = _compatible_things(lex)
    return [
        inst
        for i, p in enumerate(_patterns_for(name))
        for _, inst in _sample_pattern(p, i, lex, seed, per_pattern, with_replacement, compat)
    ]


def _np_metadata(prefix: str, spec: NPSpec) -> dict:
    if spec.head is PRONOUN:
        kind = "pronoun"
        lemma = inflect_pronoun(spec.gender, spec.number, Case.NOM)
    elif isinstance(spec.head, ThingNounEntry):
        kind = "thing"
        lemma = spec.head.lemma
    else:
        kind = spec.head.kind.value
        lemma = spec.head.lemma
    definiteness = "indefinite" if spec.article is ArticleKind.INDEF else "definite"
    return {
        f"{prefix}_lemma": lemma,
        f"{prefix}_kind": kind,
        f"{prefix}_gender": spec.gender.value,
        f"{prefix}_number": spec.number.value,
        f"{prefix}_article": spec.article.value,
        f"{prefix}_definiteness": definiteness,
    }


# hypotheses per premise; the other sets take the argument swap and the reorder
_HYP_KINDS = {
    GenerationSet.OS_HARD: (HypKind.H3_OS,),
    GenerationSet.DITRANSITIVE: (HypKind.H1_SIO, HypKind.H2_IOS),
}


def _records_for(inst, premise, name, hyp_kinds, spaced_period) -> list[PairRecord]:
    """The set's records of one premise instance, given its realized premise."""
    subset = name.subset_label
    pattern_index, draw_index = inst.seed_path
    stem = f"{subset}-p{pattern_index:02d}-d{draw_index:05d}"
    metadata = {"premise_id": f"{stem}-premise"}
    metadata.update(_np_metadata("subject", inst.subject))
    metadata.update(_np_metadata("object", inst.object))
    metadata["verb_lemma"] = inst.verb.lemma
    if inst.direct_object is not None:
        metadata["direct_object_lemma"] = inst.direct_object.head.lemma
        metadata["direct_object_gender"] = inst.direct_object.gender.value
        metadata["direct_object_number"] = inst.direct_object.number.value
    records = []
    for kind in hyp_kinds:
        suffix = kind.value.split("_")[0]
        records.append(
            PairRecord(
                id=f"{stem}-{suffix}",
                subset=subset,
                premise=premise,
                hypothesis=_sentence(_tokens(inst, kind), spaced_period),
                label=kind.label,
                hyp_kind=kind,
                pattern_name=inst.pattern.name,
                metadata=dict(metadata),
            )
        )
    return records


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
    hyp_kinds = _HYP_KINDS.get(name, (HypKind.H1_SO, HypKind.H2_OS))
    compat = _compatible_things(lex)
    drawn = set()  # base premises seen so far, when drawing with replacement
    seen = set()  # pronoun-subject premises seen so far
    records = []
    for i, pattern in enumerate(_patterns_for(name)):
        pairs = _sample_pattern(
            pattern, i, lex, seed, per_pattern, with_replacement, compat, spaced_period
        )
        for premise, inst in pairs:
            if with_replacement:
                if premise in drawn:
                    continue
                drawn.add(premise)
            if name is GenerationSet.P_SUBJECT:
                inst = pronominalize(inst)
                premise = realize_premise(inst, spaced_period)
                if premise in seen:
                    continue
                seen.add(premise)
            records.extend(_records_for(inst, premise, name, hyp_kinds, spaced_period))
    return records


_PREMISE_ID_RE = re.compile(r"-p(\d+)-d(\d+)-premise$")
_SUBSET_GOVERNMENT = {
    GenerationSet.DATIVE.subset_label: Government.DATIVE,
    GenerationSet.DITRANSITIVE.subset_label: Government.DITRANSITIVE,
}


def instance_from_record(record: PairRecord, lex: Lexicon) -> PremiseInstance:
    """Rebuild the premise instance behind a record from its metadata."""
    meta = record.metadata
    if not meta:
        raise DataFormatError(
            f"record {record.id}: instance reconstruction needs row metadata"
        )
    government = _SUBSET_GOVERNMENT.get(record.subset, Government.ACCUSATIVE)
    if government is Government.DITRANSITIVE or "direct_object_lemma" in meta:
        raise DataFormatError(
            f"record {record.id}: only accusative and dative records are supported"
        )
    try:
        pattern = parse_pattern_name(record.pattern_name, government)
    except ValueError as exc:
        raise DataFormatError(f"record {record.id}: {exc}") from None

    def np(prefix):
        try:
            kind = meta[f"{prefix}_kind"]
            lemma = meta[f"{prefix}_lemma"]
            gender = Gender(meta[f"{prefix}_gender"])
            number = Number(meta[f"{prefix}_number"])
            article = ArticleKind(meta[f"{prefix}_article"])
        except (KeyError, ValueError) as exc:
            raise DataFormatError(f"record {record.id}: bad metadata ({exc})") from None
        if kind == "pronoun":
            head = PRONOUN
        else:
            pool = lex.proper_nouns(gender) if kind == "proper" else lex.common_nouns(gender)
            for head in pool:
                if head.lemma == lemma:
                    break
            else:
                raise DataFormatError(f"record {record.id}: noun {lemma!r} not in the lexicon")
        try:
            return NPSpec(head, gender, number, article)
        except ValueError as exc:
            raise DataFormatError(f"record {record.id}: {prefix}: {exc}") from None

    verb = next((v for v in lex.verbs(government) if v.lemma == meta.get("verb_lemma")), None)
    if verb is None:
        raise DataFormatError(
            f"record {record.id}: verb {meta.get('verb_lemma')!r} not in the lexicon"
        )
    match = _PREMISE_ID_RE.search(meta.get("premise_id", ""))
    seed_path = (int(match.group(1)), int(match.group(2))) if match else (0, 0)
    return PremiseInstance(pattern, np("subject"), np("object"), verb, None, seed_path)


def derive_os_hard(records: list[PairRecord], lex: Lexicon, spaced_period: bool = False) -> list[PairRecord]:
    """One swapped-and-reordered (not entailed) pair per distinct premise of
    an accusative pair file."""
    out = []
    seen = set()
    fallback = 0
    hyp_kinds = _HYP_KINDS[GenerationSet.OS_HARD]
    for record in records:
        key = record.metadata.get("premise_id", record.premise)
        if key in seen:
            continue
        seen.add(key)
        if record.subset in _SUBSET_GOVERNMENT:
            raise DataFormatError(
                f"record {record.id}: os-hard derivation needs accusative records, "
                f"not subset {record.subset!r}"
            )
        inst = instance_from_record(record, lex)
        if not _PREMISE_ID_RE.search(record.metadata.get("premise_id", "")):
            inst = replace(inst, seed_path=(0, fallback))
            fallback += 1
        premise = realize_premise(inst, spaced_period)
        out.extend(_records_for(inst, premise, GenerationSet.OS_HARD, hyp_kinds, spaced_period))
    return out
