"""Acceptance gate: the nine headline checks, each timed against its budget.

Every test records a PASS/FAIL line (printed in the terminal summary) so a
plain pytest run shows the state of each criterion at a glance.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS

from asnqual.cli import main
from asnqual.dominance import (
    ApplicationRecord,
    pareto_dominates,
    pareto_violation_ratio,
    violating_pairs,
)
from asnqual.indicators import (
    IndicatorKind,
    IndicatorVector,
    Publication,
    PublicationKind,
    PublicationRecord,
    compute_bibliometric,
    compute_non_bibliometric,
    hc_index,
    normalized_citations,
    scientific_age,
)
from asnqual.ingest import load_default_registry
from asnqual.report import analyze_round
from asnqual.stats import conditional_rates, five_number_summary, spearman_rho
from asnqual.synth import (
    ComponentModel,
    DecisionModel,
    DisciplinePlan,
    SynthConfig,
    default_synth_config,
    synthesize_round,
)
from asnqual.thresholds import DisciplineId, MedianSet, Role, exceeds_count

B = IndicatorKind.BIBLIOMETRIC


@contextmanager
def criterion(label, budget_seconds):
    """Time a check, record its PASS/FAIL line, and enforce the budget."""
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        ACCEPTANCE_RESULTS.append((label, False, message))
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds < 1.0:
        timing = f"{elapsed * 1000:.2f} ms (budget {budget_seconds * 1000:g} ms)"
    else:
        timing = f"{elapsed:.2f} s (budget {budget_seconds:g} s)"
    detail = f"{info['detail']}; {timing}" if info["detail"] else timing
    within = elapsed <= budget_seconds
    ACCEPTANCE_RESULTS.append((label, within, detail))
    assert within, f"{label} exceeded its time budget: {timing}"


def vec(a, b, c, kind=B):
    return IndicatorVector(a, b, c, kind)


def test_criterion_1_worked_exceedance_example():
    medians = MedianSet(DisciplineId.parse("01/A1"), Role.FULL, 10, 13.2, 7, B)
    exceeds_count(vec(11, 15, 6), medians)  # warm-up
    with criterion("criterion 1: worked median-exceedance example (exact)", 0.001) as info:
        first = exceeds_count(vec(11, 15, 6), medians)
        second = exceeds_count(vec(13, 12, 7), medians)
        at_median = exceeds_count(vec(10, 13.2, 7), medians)
        assert first == 2
        assert second == 1
        assert at_median == 0
        info["detail"] = "exceedance counts (2, 1), equality not exceeding"


def test_criterion_2_twins_paradox():
    joint = [
        Publication("top", 2005, PublicationKind.TOP_JOURNAL_PAPER, 8, 5),
        Publication("jp", 2005, PublicationKind.JOURNAL_PAPER, 6, 2),
        Publication("book", 2005, PublicationKind.BOOK, 1, 0),
        Publication("chapter", 2005, PublicationKind.BOOK_CHAPTER, 2, 1),
    ]
    extra = Publication("early", 1999, PublicationKind.OTHER, 0, 0)
    compute_non_bibliometric(PublicationRecord(joint), 2012)  # warm-up
    with criterion("criterion 2: shorter-record twins paradox (exact)", 0.001) as info:
        short = PublicationRecord(joint)
        long = PublicationRecord(joint + [extra])
        assert set(short.publications) < set(long.publications)
        assert scientific_age(short, 2012) == 10
        assert scientific_age(long, 2012) == 14
        ns = compute_non_bibliometric(short, 2012)
        nl = compute_non_bibliometric(long, 2012)
        assert ns.ind1 > nl.ind1 and ns.ind2 > nl.ind2 and ns.ind3 > nl.ind3
        bs = compute_bibliometric(short, 2012)
        bl = compute_bibliometric(long, 2012)
        assert bs.ind1 > bl.ind1 and bs.ind2 > bl.ind2
        info["detail"] = "strict publication subset, strictly larger count indicators"


def _decided_pair(p_qualified, q_qualified):
    d = DisciplineId.parse("01/A1")
    p = ApplicationRecord("p|X", "p", "X", d, Role.FULL, vec(11, 8, 15), p_qualified)
    q = ApplicationRecord("q|X", "q", "X", d, Role.FULL, vec(10, 8, 13), q_qualified)
    return [p, q]


def test_criterion_3_dominance_example_and_violation_grid():
    pareto_violation_ratio(_decided_pair(True, True))  # warm-up
    with criterion("criterion 3: dominance example and violation grid (exact)", 0.001) as info:
        assert pareto_dominates(vec(11, 8, 15), vec(10, 8, 13))
        assert not pareto_dominates(vec(10, 8, 13), vec(11, 8, 15))
        outcomes = {}
        for p_q in (True, False):
            for q_q in (True, False):
                result = pareto_violation_ratio(_decided_pair(p_q, q_q))
                assert result.dominating_pairs == 1
                outcomes[(p_q, q_q)] = result.ratio
        assert outcomes == {
            (True, True): 0.0,
            (True, False): 0.0,
            (False, True): 1.0,
            (False, False): 0.0,
        }
        info["detail"] = "violation only for unqualified dominator over qualified dominated"


def _hc_enumeration_oracle(record, t):
    svals = [normalized_citations(p, t) for p in record.publications]
    for h in range(len(svals), -1, -1):
        if sum(1 for s in svals if s >= h) >= h:
            return h
    return 0


def test_criterion_4_hc_index_oracle_equivalence():
    rng = np.random.default_rng(41)
    records = []
    for _ in range(1000):
        n = int(rng.integers(0, 51))
        years = rng.integers(1990, 2013, n)
        cites_a = rng.integers(0, 501, n)
        cites_b = rng.integers(0, 501, n)
        records.append(
            PublicationRecord(
                Publication(f"p{i}", int(years[i]), PublicationKind.JOURNAL_PAPER,
                            int(cites_a[i]), int(cites_b[i]))
                for i in range(n)
            )
        )
    with criterion(
        "criterion 4: hc-index equals enumeration oracle on 1000 random records (exact)",
        1.0,
    ) as info:
        for record in records:
            assert hc_index(record, 2012) == _hc_enumeration_oracle(record, 2012)
        info["detail"] = "1000/1000 records agree"


def _pvr_enumeration_oracle(values, qualified):
    dominating = violating = 0
    n = len(values)
    for i in range(n):
        a1, a2, a3 = values[i]
        for j in range(n):
            if i == j:
                continue
            b1, b2, b3 = values[j]
            if a1 >= b1 and a2 >= b2 and a3 >= b3 and (a1 > b1 or a2 > b2 or a3 > b3):
                dominating += 1
                if not qualified[i] and qualified[j]:
                    violating += 1
    if dominating == 0:
        return 0.0, 0, 0
    return violating / dominating, dominating, violating


def _population(rng, n, integer_valued):
    d = DisciplineId.parse("01/A1")
    if integer_valued:
        values = rng.integers(0, 11, (n, 3)).astype(float)
    else:
        values = rng.uniform(0, 20, (n, 3))
    p_qualified = rng.uniform(0.2, 0.8)
    qualified = rng.random(n) < p_qualified
    apps = [
        ApplicationRecord(
            f"a{i}|X", f"a{i}", "X", d, Role.FULL,
            vec(*values[i]), bool(qualified[i]),
        )
        for i in range(n)
    ]
    return apps, values, qualified


def test_criterion_5_pvr_oracle_and_monotone_rules():
    rng = np.random.default_rng(53)
    populations = []
    for k in range(200):
        n = int(rng.integers(2, 201))
        populations.append(_population(rng, n, integer_valued=k % 2 == 0))
    rule_pops = [_population(rng, 60, integer_valued=False)[0] for _ in range(50)]
    weights = rng.uniform(0.1, 3.0, (100, 3))
    quantiles = rng.uniform(0.1, 0.9, 100)
    with criterion(
        "criterion 5: violation ratio equals enumeration oracle; monotone rules give zero (exact)",
        10.0,
    ) as info:
        for apps, values, qualified in populations:
            expected_ratio, expected_dom, expected_vio = _pvr_enumeration_oracle(
                [tuple(v) for v in values], list(qualified)
            )
            result = pareto_violation_ratio(apps)
            assert result.ratio == expected_ratio
            assert result.dominating_pairs == expected_dom
            assert len(violating_pairs(apps)) == expected_vio
        for w, q in zip(weights, quantiles):
            for apps in rule_pops:
                scores = np.array([a.indicators.as_tuple() for a in apps]) @ w
                threshold = float(np.quantile(scores, q))
                decided = [
                    dataclasses.replace(a, qualified=bool(s > threshold))
                    for a, s in zip(apps, scores)
                ]
                assert pareto_violation_ratio(decided).ratio == 0.0
        info["detail"] = "200 populations agree; 100 rules x 50 populations all zero"


def _monotone_map(values, rng):
    """Random strictly increasing transform over the sample's values."""
    order = np.argsort(values)
    levels = np.cumsum(rng.uniform(0.1, 2.0, len(values)))
    mapped = np.empty(len(values))
    mapped[order] = levels
    return mapped


def test_criterion_6_statistics_suite():
    rng = np.random.default_rng(61)
    dataset = synthesize_round(default_synth_config(), 7)
    index = dataset.median_index()
    with criterion(
        "criterion 6: correlation, summary, and mixture-identity suite (1e-12)", 5.0
    ) as info:
        distinct = rng.permutation(np.arange(30, dtype=float))
        assert spearman_rho(distinct, distinct).rho == 1.0
        assert spearman_rho(distinct, -distinct).rho == -1.0

        x = rng.normal(size=40)
        y = rng.normal(size=40) + 0.4 * x
        base = spearman_rho(x, y).rho
        for _ in range(100):
            assert abs(spearman_rho(_monotone_map(x, rng), y).rho - base) <= 1e-12

        for _ in range(100):
            sample = rng.uniform(-50, 50, int(rng.integers(1, 51)))
            scale = rng.uniform(0.1, 5.0)
            shift = rng.uniform(-10, 10)
            plain = five_number_summary(sample).as_tuple()
            scaled = five_number_summary(scale * sample + shift).as_tuple()
            for lhs, rhs in zip(scaled, plain):
                assert lhs == pytest.approx(scale * rhs + shift, abs=1e-9)

        groups = {}
        for app in dataset.applications:
            groups.setdefault((app.discipline, app.role), []).append(app)
        for (discipline, role), apps in groups.items():
            rates = conditional_rates(apps, index.resolve(discipline, role))
            w = rates.n_over / rates.n_total
            mix = (w * rates.pqo if w else 0.0) + ((1 - w) * rates.pqu if w < 1 else 0.0)
            assert abs(rates.pq - mix) <= 1e-12
        info["detail"] = (
            "rho exactly +1/-1, 100 monotone transforms, 100 affine samples, "
            f"mixture identity on {len(groups)} groups"
        )


def _full_scale_config(decision, flip_probability=0.0):
    components = (
        ComponentModel("lognormal", (1.2, 0.7)),
        ComponentModel("gamma", (2.0, 3.0)),
        ComponentModel("poisson", (6.0,)),
    )
    return SynthConfig(
        tuple(
            DisciplinePlan(
                entry.discipline.code,
                100,
                200,
                components,
                decision=decision,
                flip_probability=flip_probability,
            )
            for entry in load_default_registry()
        )
    )


FULL_SCALE_SEED = 1301


def test_criterion_7_end_to_end_synthetic_rounds():
    strict_config = _full_scale_config(DecisionModel.STRICT_MEDIAN)
    noisy_config = _full_scale_config(DecisionModel.NOISY_THRESHOLD, 0.1)
    with criterion(
        "criterion 7: end-to-end synthetic rounds, strict and noisy (<30 s each)", 60.0
    ) as info:
        start = time.perf_counter()
        strict_report = analyze_round(synthesize_round(strict_config, FULL_SCALE_SEED))
        strict_elapsed = time.perf_counter() - start

        assert strict_report.n_applications == 184 * 300
        assert strict_report.n_applications == sum(
            r.applications for r in strict_report.discipline_role_rows
        )
        assert strict_report.n_applications == sum(
            r.applications_total for r in strict_report.area_rows
        )
        assert strict_report.n_qualified == sum(
            r.qualified for r in strict_report.discipline_role_rows
        )
        assert strict_report.n_qualified == sum(
            r.qualified_total for r in strict_report.area_rows
        )
        for row in strict_report.discipline_role_rows:
            assert row.pqu == 0.0 or math.isnan(row.pqu)
            assert row.pvr == 0.0

        start = time.perf_counter()
        noisy_report = analyze_round(synthesize_round(noisy_config, FULL_SCALE_SEED))
        noisy_elapsed = time.perf_counter() - start

        violating_big_groups = [
            r
            for r in noisy_report.discipline_role_rows
            if r.applications >= 100 and r.pvr > 0
        ]
        assert violating_big_groups
        assert strict_elapsed < 30.0 and noisy_elapsed < 30.0
        info["detail"] = (
            f"strict round {strict_elapsed:.1f} s, noisy round {noisy_elapsed:.1f} s, "
            f"{len(violating_big_groups)} large groups with positive violation ratio"
        )


def test_criterion_8_registry_structure():
    with criterion("criterion 8: discipline registry structure (exact)", 1.0) as info:
        registry = load_default_registry()
        assert len(registry) == 184
        per_area = {}
        for entry in registry:
            per_area[entry.discipline.area] = per_area.get(entry.discipline.area, 0) + 1
        assert [per_area[f"{i:02d}"] for i in range(1, 15)] == [
            7, 6, 8, 4, 13, 26, 14, 12, 20, 19, 17, 16, 15, 7,
        ]
        kinds = {e.discipline.code: e.kind for e in registry}
        for code in ("08/C1", "08/D1", "08/E1", "08/E2", "08/F1"):
            assert kinds[code] is IndicatorKind.NON_BIBLIOMETRIC
        for code in ("11/E1", "11/E2", "11/E3", "11/E4"):
            assert kinds[code] is IndicatorKind.BIBLIOMETRIC
        for code, kind in kinds.items():
            expected = (
                IndicatorKind.BIBLIOMETRIC
                if int(code[:2]) <= 9
                else IndicatorKind.NON_BIBLIOMETRIC
            )
            if code not in {
                "08/C1", "08/D1", "08/E1", "08/E2", "08/F1",
                "11/E1", "11/E2", "11/E3", "11/E4",
            }:
                assert kind is expected
        info["detail"] = "184 disciplines, 14 area counts, kind partition with 9 exceptions"


def test_criterion_9_analyze_is_deterministic(tmp_path):
    round_dir = tmp_path / "round"
    assert main(["synth", "--out", str(round_dir), "--seed", "5"]) == 0
    with criterion("criterion 9: analyze output is byte-deterministic (exact)", 60.0) as info:
        args = [
            "analyze",
            "--applications", str(round_dir / "applications.csv"),
            "--medians", str(round_dir / "medians.csv"),
            "--registry", str(round_dir / "registry.csv"),
        ]
        for format_name in ("csv", "json"):
            first = tmp_path / f"{format_name}_a"
            second = tmp_path / f"{format_name}_b"
            assert main([*args, "--out", str(first), "--format", format_name]) == 0
            assert main([*args, "--out", str(second), "--format", format_name]) == 0
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes()
        info["detail"] = "two csv runs and two json runs byte-identical"
