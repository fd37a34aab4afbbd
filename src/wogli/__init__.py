"""Deterministic German word-order NLI challenge sets: generation,
augmentation subsets, and group-wise evaluation of model predictions.

Importing the package imports none of its modules: a public name, or a
module, is imported on first use (PEP 562), so that each command loads
only the modules it runs."""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "analysis": (
        "AccuracyResult", "GroupSpec", "ZTestResult", "build_report", "definiteness_groups",
        "gender_groups", "number_groups", "two_proportion_ztest",
    ),
    "augment": (
        "AugmentationPlan", "merge_training", "plan_102", "plan_1037", "sample_augmentation",
        "write_training_rows",
    ),
    "core": (
        "ArticleKind", "Case", "Gender", "Government", "HypKind", "Label", "NounEntry", "NounKind",
        "Number", "PairRecord", "SemanticCategory", "ThingNounEntry", "VerbEntry",
    ),
    "dataset_io": ("PredictionSet", "read_pairs", "read_predictions", "write_pairs"),
    "errors": (
        "ConstraintError", "DataFormatError", "ExhaustionError", "LexiconError", "MorphologyError",
        "PredictionJoinError", "WogliError",
    ),
    "generator": (
        "GenerationSet", "PremiseInstance", "derive_h1", "derive_h2", "derive_os_hard", "generate_set",
        "realize_premise", "sample_premises",
    ),
    "lexicon": (
        "Lexicon", "ValidationProfile", "bundled_lexicon", "bundled_lexicon_path",
        "default_lexicon_path", "lexicon_from_text", "load_lexicon", "serialize_lexicon", "surface_forms",
        "validate_lexicon",
    ),
    "morphology": (
        "NPSpec", "PRONOUN", "agree_verb", "inflect_article", "inflect_noun", "inflect_pronoun",
        "render_np",
    ),
    "patterns": (
        "NPClass", "NumberClass", "Pattern", "ambiguity_rule", "classify_number", "extended_patterns",
        "parse_pattern_name", "wogli_patterns",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS, "cli"})
