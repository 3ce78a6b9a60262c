"""Quantitative analytics for national scientific qualification rounds."""

from .dominance import (
    ApplicationRecord,
    PvrResult,
    dominates,
    pareto_dominates,
    pareto_violation_ratio,
    pvr,
    violating_pairs,
)
from .indicators import (
    OFFICIAL_WINDOW,
    IndicatorKind,
    IndicatorVector,
    Publication,
    PublicationKind,
    PublicationRecord,
    YearWindow,
    citation_count,
    compute_bibliometric,
    compute_non_bibliometric,
    hc_index,
    normalized_citations,
    scientific_age,
)
from .ingest import (
    AREA_ACRONYMS,
    ApplicationTable,
    Diagnostic,
    DisciplineRegistryEntry,
    RoundDataset,
    applicant_id,
    discipline_kind,
    load_default_registry,
    load_round,
    parse_applications,
    parse_medians,
    parse_registry,
    write_applications,
    write_medians,
    write_registry,
)
from .report import InvalidDatasetError, RoundReport, analyze_round, emit
from .stats import (
    ConditionalRates,
    CorrelationResult,
    FiveNumberSummary,
    Z95,
    conditional_rates,
    five_number_summary,
    proportion_diff_ci,
    rates_from_flags,
    spearman_rho,
)
from .synth import (
    ComponentModel,
    DecisionModel,
    DisciplinePlan,
    SynthConfig,
    default_synth_config,
    synthesize_round,
)
from .thresholds import (
    DisciplineId,
    MedianIndex,
    MedianSet,
    MedianTag,
    MissingMedianSetError,
    Role,
    Standing,
    ZeroMedianCensus,
    classify,
    compute_median,
    exceeds_count,
    required_exceedances,
    tag_median_pair,
    zero_median_census,
)

__version__ = "0.1.0"
