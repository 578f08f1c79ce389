"""Computation with random substitution subshifts.

Parse or build a random substitution, enumerate its legal language,
compute substitution and induced matrices with their Perron-Frobenius
data, bracket the topological entropy, census periodic points into a
zeta series, probe topological mixing, and verify predicted word
frequencies against seeded Monte-Carlo samples.

The namespace is lazy (PEP 562): ``import randsub`` loads no submodule and
so neither numpy nor its BLAS; each public name, and each submodule named
in ``_EXPORTS``, is imported on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Alphabet",
        "RandomSubstitution",
        "Rule",
        "Word",
        "is_realisation",
        "letter_counts",
        "parse_spec",
        "power_realisations",
        "realisations",
        "same_support",
        "serialize",
        "subwords",
        "with_probabilities",
    ),
    "dynamics": (
        "EntropyBracket",
        "PeriodicCensus",
        "SplittingPair",
        "SplittingReport",
        "ZetaSeries",
        "entropy_bracket",
        "is_strong_affix",
        "max_realisation_lengths",
        "mixing_gaps",
        "periodic_census",
        "refine_census_by_frequencies",
        "series_exp",
        "series_log",
        "splitting_pairs",
        "zeta_series",
    ),
    "errors": (
        "BadProbabilityError",
        "BudgetExceededError",
        "DegenerateRuleError",
        "EmptyImageError",
        "EmptySubshiftError",
        "LengthOrderError",
        "NoConvergenceError",
        "NotPrimitiveError",
        "RandsubError",
        "SpecError",
        "SpecSyntaxError",
        "UnknownLetterError",
        "WordTooShortError",
    ),
    "examples": (
        "EXAMPLES",
        "ExampleSpec",
        "example_names",
        "get_example",
    ),
    "induced": (
        "ErgodicityVerdict",
        "ErgodicityWitness",
        "FrequencyVector",
        "InducedSubstitution",
        "RatioConditionReport",
        "RatioViolation",
        "induced_is_primitive",
        "induced_matrix",
        "induced_substitution",
        "ratio_condition_check",
        "unique_ergodicity_scan",
        "word_frequencies",
    ),
    "language": (
        "LanguageTable",
        "complexity",
        "is_empty_subshift",
        "is_legal",
        "legal_words",
    ),
    "matrices": (
        "PerronData",
        "is_irreducible",
        "is_irreducible_matrix",
        "is_primitive",
        "is_primitive_matrix",
        "perron_data",
        "substitution_matrix",
        "support_matrix",
    ),
    "sampler": (
        "SampleReport",
        "empirical_frequencies",
        "frequency_report",
        "sample_realisation",
        "stream_u01",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
