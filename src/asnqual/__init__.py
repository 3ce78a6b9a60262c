"""Quantitative analytics for national scientific qualification rounds.

The names below are imported from their modules on first access (PEP 562),
so that ``import asnqual`` loads no submodule and a command loads only what
it runs.
"""

import importlib

# The exported names of each submodule.
_EXPORTS = {
    "dominance": """
        ApplicationRecord PvrResult dominates pareto_dominates pareto_violation_ratio
        pvr violating_pairs""",
    "indicators": """
        OFFICIAL_WINDOW IndicatorKind IndicatorVector Publication PublicationKind
        PublicationRecord YearWindow citation_count compute_bibliometric
        compute_non_bibliometric hc_index normalized_citations scientific_age""",
    "ingest": """
        AREA_ACRONYMS ApplicationTable Diagnostic DisciplineRegistryEntry RoundDataset
        applicant_id discipline_kind load_default_registry load_round parse_applications
        parse_medians parse_registry write_applications write_medians write_registry""",
    "report": "InvalidDatasetError RoundReport analyze_round emit",
    "stats": """
        ConditionalRates CorrelationResult FiveNumberSummary Z95 conditional_rates
        five_number_summary proportion_diff_ci rates_from_flags spearman_rho""",
    "synth": """
        ComponentModel DecisionModel DisciplinePlan SynthConfig default_synth_config
        synthesize_round""",
    "thresholds": """
        DisciplineId MedianIndex MedianSet MedianTag MissingMedianSetError Role Standing
        ZeroMedianCensus classify compute_median exceeds_count required_exceedances
        tag_median_pair zero_median_census""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
