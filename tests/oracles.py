"""Reference implementations that only the tests run.

The ambiguity oracle decides by enumerating lexicalizations what
patterns.ambiguity_rule decides in closed form, and it justifies the 8
accusative patterns the wogli set leaves out. accuracy, select and
majority_vote rebuild build_report's rows one group at a time.
p_subject_records keeps the pronoun-subject set's premises by their texts.
"""

import itertools
import math
import statistics
from dataclasses import dataclass

from wogli import (
    ArticleKind,
    ConstraintError,
    Gender,
    GenerationSet,
    Government,
    HypKind,
    Label,
    Lexicon,
    NPClass,
    NPSpec,
    Number,
    Pattern,
    PredictionJoinError,
    PredictionSet,
    parse_pattern_name,
)
from wogli.generator import _patterns_for, _Records, _sample_pattern, _Tables
from wogli.morphology import _ARTICLE_KINDS, compile_sentence

_EXCLUDED_NAMES = (
    "sing_fem_v_pnoun",
    "pnoun_v_sing_fem",
    "pnoun_v_pnoun",
    "sing_fem_v_sing_fem",
    "plural_fem_v_plural_fem",
    "plural_masc_v_plural_masc",
    "plural_masc_v_plural_fem",
    "plural_fem_v_plural_masc",
)


def excluded_patterns() -> list[Pattern]:
    """The 8 accusative patterns dropped for argument-marking ambiguity."""
    return [parse_pattern_name(n, Government.ACCUSATIVE) for n in _EXCLUDED_NAMES]


def _representative_specs(cls: NPClass, lex: Lexicon, skip_lemmas: set[str]) -> list[NPSpec]:
    """A small lexicalization cover for one slot: every admissible article kind
    crossed with nouns of every declension behavior present in the class."""
    specs = []
    if cls.is_proper:
        for gender in (Gender.MASC, Gender.FEM):
            for noun in lex.proper_nouns(gender):
                if noun.lemma not in skip_lemmas:
                    specs.append(NPSpec(noun, gender, Number.SG, ArticleKind.NONE))
                    break
        return specs
    nouns = []
    pool = [n for n in lex.common_nouns(cls.gender) if n.lemma not in skip_lemmas]
    for weak in (True, False):
        for plural_is_lemma in (True, False):
            for n in pool:
                if n.weak_declension == weak and (n.plural_nom == n.lemma) == plural_is_lemma:
                    nouns.append(n)
                    break
    for noun in nouns:
        for kind in _ARTICLE_KINDS[cls.number]:
            specs.append(NPSpec(noun, cls.gender, cls.number, kind))
    return specs


def is_ambiguous(pattern: Pattern, lex: Lexicon) -> bool:
    """True iff the argument-swapped SO hypothesis and the reordered OS
    hypothesis coincide as strings for every lexicalization of the pattern.

    Checked by enumerating article kinds crossed with representative nouns of
    each declension behavior and two verbs. The surfaces either collide for
    all lexicalizations or for none, so the cover is decision-equivalent to
    full enumeration; a shared ditransitive direct object could never break a
    tie and is left out.
    """
    h1_of = compile_sentence(pattern.government.object_case, HypKind.H1_SO)
    h2_of = compile_sentence(pattern.government.object_case, HypKind.H2_OS)
    verbs = list(lex.verbs(pattern.government))[:2]
    subjects = _representative_specs(pattern.subject, lex, set())
    if not subjects or not verbs:
        raise ValueError(f"lexicon cannot realize pattern {pattern.name}")
    subject_lemmas = {s.head.lemma for s in subjects}
    same_class = pattern.subject is pattern.object
    objects = _representative_specs(
        pattern.object, lex, subject_lemmas if same_class else set()
    )
    if not objects:
        raise ValueError(f"lexicon cannot realize pattern {pattern.name}")

    outcomes = set()
    for subj, verb, obj in itertools.product(subjects, verbs, objects):
        if subj.head.lemma == obj.head.lemma:
            continue
        outcomes.add(h1_of(subj, obj, verb) == h2_of(subj, obj, verb))
    return outcomes == {True}


def select(group, records) -> list:
    """The records a GroupSpec matches, in their order."""
    return [r for r in records if group.matches(r)]


@dataclass(frozen=True)
class AccuracyResult:
    group: str
    n: int
    runs: int
    k: tuple[int, ...]
    per_run: tuple[float, ...]
    mean: float
    sd: float


def accuracy(gold, preds: PredictionSet, group=None, sample_sd: bool = False) -> AccuracyResult:
    """Per-run accuracy over the (optionally group-filtered) gold records."""
    records = list(gold) if group is None else select(group, gold)
    name = "all" if group is None else group.name
    k = [0] * preds.runs
    for record in records:
        try:
            labels = preds.labels[record.id]
        except KeyError:
            raise PredictionJoinError(f"no prediction for record {record.id!r}") from None
        for run, label in enumerate(labels):
            if label is record.label:
                k[run] += 1
    if not records:
        return AccuracyResult(name, 0, preds.runs, (), (), math.nan, math.nan)
    per_run = tuple(count / len(records) for count in k)
    spread = statistics.stdev if sample_sd else statistics.pstdev
    return AccuracyResult(name, len(records), preds.runs, tuple(k), per_run,
                          statistics.fmean(per_run), spread(per_run) if len(per_run) > 1 else 0.0)


def majority_vote(preds: PredictionSet, tie_break_not_entailed: bool = False) -> PredictionSet:
    """Collapse runs into a single-run PredictionSet; a tie is an error
    unless the flag resolves ties toward the not-entailed label."""
    out = {}
    for rid, labels in preds.labels.items():
        entailed = sum(1 for label in labels if label is Label.ENTAILED)
        rest = len(labels) - entailed
        if entailed > rest:
            out[rid] = (Label.ENTAILED,)
        elif rest > entailed:
            out[rid] = (Label.NOT_ENTAILED,)
        elif tie_break_not_entailed:
            out[rid] = (Label.NOT_ENTAILED,)
        else:
            raise ConstraintError(
                f"majority vote tie for {rid!r} over {len(labels)} runs; "
                "use an odd run count or allow tie-breaking"
            )
    return PredictionSet(runs=1, labels=out)


def p_subject_records(lex: Lexicon, seed: int, per_pattern: int, with_replacement: bool = False) -> list:
    """generate_set(P_SUBJECT, ...)'s records, its duplicates found by text:
    of the base draws, drawn with replacement, only the first of each base
    premise counts, and of those only the first of each pronoun premise."""
    build, tables = _Records(GenerationSet.P_SUBJECT, False), _Tables(lex)
    records, drawn, seen = [], set(), set()
    for i, pattern in enumerate(_patterns_for(GenerationSet.P_SUBJECT)):
        build.for_pattern(pattern, i)
        for base, (subject, *rest), draw_index in _sample_pattern(
                pattern, i, tables, seed, per_pattern, with_replacement):
            if with_replacement:
                if base in drawn:
                    continue
                drawn.add(base)
            draw = (subject.pronoun, *rest)
            premise = compile_sentence(pattern.government.object_case)(*draw)
            if premise not in seen:
                seen.add(premise)
                records += build.render(draw, premise, draw_index)
    return records
