"""Deterministic German word-order NLI challenge sets: generation,
augmentation subsets, and group-wise evaluation of model predictions."""

from .analysis import (
    AccuracyResult,
    GroupSpec,
    ScoreStat,
    ZTestResult,
    accuracy,
    build_report,
    definiteness_groups,
    gender_groups,
    majority_vote,
    number_groups,
    pll_aggregate,
    two_proportion_ztest,
)
from .augment import (
    AugmentationPlan,
    merge_training,
    plan_102,
    plan_1037,
    sample_augmentation,
    write_training_rows,
)
from .core import (
    ArticleKind,
    Case,
    Gender,
    Government,
    HypKind,
    Label,
    NounEntry,
    NounKind,
    Number,
    PairRecord,
    SemanticCategory,
    ThingNounEntry,
    VerbEntry,
)
from .dataset_io import PredictionSet, read_pairs, read_predictions, write_pairs
from .errors import (
    ConstraintError,
    DataFormatError,
    ExhaustionError,
    LexiconError,
    MorphologyError,
    PredictionJoinError,
    WogliError,
)
from .generator import (
    GenerationSet,
    PremiseInstance,
    derive_h1,
    derive_h2,
    derive_h3,
    derive_os_hard,
    generate_set,
    instance_from_record,
    pronominalize,
    realize_premise,
    sample_premises,
)
from .lexicon import (
    Lexicon,
    ValidationProfile,
    bundled_lexicon,
    bundled_lexicon_path,
    default_lexicon_path,
    lexicon_from_text,
    load_lexicon,
    serialize_lexicon,
    surface_form_count,
    surface_forms,
    validate_lexicon,
)
from .morphology import (
    NPSpec,
    PRONOUN,
    agree_verb,
    article_paradigm,
    inflect_article,
    inflect_noun,
    inflect_pronoun,
    pronoun_paradigm,
    render_np,
)
from .patterns import (
    NPClass,
    NumberClass,
    Pattern,
    ambiguity_rule,
    classify_number,
    excluded_patterns,
    extended_patterns,
    is_ambiguous,
    parse_pattern_name,
    pattern_inventory_text,
    wogli_patterns,
)

__version__ = "0.1.0"
