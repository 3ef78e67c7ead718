"""Scenario generation determinism, coverage accounting, and scoring."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomerge import (
    GroundTruth,
    InfeasibleSpec,
    IntegrationError,
    Report,
    ScenarioMismatch,
    ScenarioSpec,
    evaluate,
    generate_scenario,
    integrate,
    parse_report,
    serialize_component,
    serialize_ontology,
    serialize_report,
)
from ontomerge.evalgen import PlantedRelation, parse_truth, serialize_truth
from ontomerge.model import VERDICTS
from ontomerge.terms import normalize_term

from .reference import expand_correspondences, reference_evaluate, reference_truth_document
from .strategies import truths


def test_generation_is_deterministic():
    spec = ScenarioSpec(20, 4, 2, 1.0, rng_seed=7)
    first = generate_scenario(spec)
    second = generate_scenario(spec)
    assert serialize_component(first[0][0]) == serialize_component(second[0][0])
    assert serialize_component(first[0][1]) == serialize_component(second[0][1])
    assert serialize_ontology(first[1]) == serialize_ontology(second[1])
    assert serialize_truth(first[2]) == serialize_truth(second[2])


def test_different_seeds_differ():
    base = ScenarioSpec(20, 4, 2, 1.0, rng_seed=7)
    other = ScenarioSpec(20, 4, 2, 1.0, rng_seed=8)
    assert serialize_ontology(generate_scenario(base)[1]) != serialize_ontology(
        generate_scenario(other)[1]
    )


def test_no_conflict_spec_has_no_conflict_truth():
    components, od, truth = generate_scenario(ScenarioSpec(10, 0, 0, 1.0, rng_seed=3))
    assert set(truth.verdicts.values()) <= {"Distinct", "Identical"}
    assert not od.relations
    assert not truth.planted


def test_half_coverage_declares_floor_of_relations():
    spec = ScenarioSpec(30, 5, 2, 0.5, rng_seed=11)
    components, od, truth = generate_scenario(spec)
    declared = [p for p in truth.planted if p.in_od]
    withheld = [p for p in truth.planted if not p.in_od]
    assert len(declared) == math.floor(0.5 * 7)
    assert len(withheld) == 7 - len(declared)
    # the declared primary relations are exactly the ones present in od
    primary_pairs = {frozenset((p.t1, p.t2)) for p in declared}
    od_pairs = {
        frozenset(
            (normalize_term(od.concepts[r.a].term), normalize_term(od.concepts[r.b].term))
        )
        for r in od.relations
        if r.kind in ("synonymy", "homonymy")
    }
    truth_pairs = {frozenset((p.t1, p.t2)) for p in truth.planted}
    assert primary_pairs <= od_pairs
    assert not (od_pairs & {frozenset((p.t1, p.t2)) for p in withheld})
    # scaffolding may add od relations, but never for a withheld pair
    assert len(od_pairs & truth_pairs) == len(primary_pairs)


def test_concept_count_bounds_pairs():
    with pytest.raises(InfeasibleSpec):
        ScenarioSpec(5, 2, 1, 1.0, rng_seed=0)
    with pytest.raises(InfeasibleSpec):
        ScenarioSpec(10, -1, 0, 1.0, rng_seed=0)
    with pytest.raises(InfeasibleSpec):
        ScenarioSpec(10, 1, 1, 1.5, rng_seed=0)


def test_truth_covers_every_cross_pair():
    components, od, truth = generate_scenario(ScenarioSpec(16, 3, 1, 0.5, rng_seed=5))
    expected = len(components[0].concepts) * len(components[1].concepts)
    assert len(truth.verdicts) == expected


def test_full_coverage_metrics_are_perfect():
    components, od, truth = generate_scenario(ScenarioSpec(20, 4, 2, 1.0, rng_seed=1))
    _, _, report = integrate(components, od)
    metrics = evaluate(report, truth)
    assert metrics["synonym"]["precision"] == 1.0
    assert metrics["synonym"]["recall"] == 1.0
    assert metrics["homonym"]["precision"] == 1.0
    assert metrics["homonym"]["recall"] == 1.0
    assert metrics["macro_f1"] == 1.0


def test_missing_synonym_lowers_recall():
    components, od, truth = generate_scenario(ScenarioSpec(20, 4, 0, 1.0, rng_seed=2))
    _, _, report = integrate(components, od)
    # downgrade one detected synonym to Distinct
    damaged = []
    dropped = False
    for corr in expand_correspondences(report):
        if corr.verdict == "Synonym" and not dropped:
            dropped = True
            from ontomerge import Correspondence, Evidence

            damaged.append(
                Correspondence(
                    c1=corr.c1, c2=corr.c2, score=0, verdict="Distinct",
                    evidence=Evidence(kind="syntactic"),
                )
            )
        else:
            damaged.append(corr)
    metrics = evaluate(Report(correspondences=damaged), truth)
    assert metrics["synonym"]["recall"] == 0.75
    assert metrics["synonym"]["precision"] == 1.0


def test_pair_mismatch_raises():
    components, od, truth = generate_scenario(ScenarioSpec(8, 1, 0, 1.0, rng_seed=4))
    _, _, report = integrate(components, od)
    pruned = GroundTruth(
        verdicts=dict(list(truth.verdicts.items())[:-1]), planted=truth.planted
    )
    with pytest.raises(ScenarioMismatch):
        evaluate(report, pruned)


def test_truth_round_trip(tmp_path):
    _, _, truth = generate_scenario(ScenarioSpec(12, 2, 1, 0.5, rng_seed=9))
    path = tmp_path / "truth.json"
    path.write_bytes(serialize_truth(truth))
    parsed = parse_truth(path)
    assert parsed.verdicts == truth.verdicts
    assert parsed.planted == truth.planted


@settings(max_examples=200, deadline=None)
@given(truths())
@example(GroundTruth({}))
@example(GroundTruth({("%s", "\u2028"): "Synonym"},
                    (PlantedRelation("é", "\U0001f600", "%", False),)))
def test_serialize_truth_matches_dumps_oracle(truth):
    document = reference_truth_document(truth)
    expected = json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert serialize_truth(truth) == expected.encode("utf-8")


def test_withheld_relations_recovered_via_enrichment():
    # enough withheld synonyms to rotate through all three cases
    spec = ScenarioSpec(40, 8, 2, 0.5, rng_seed=13)
    components, od, truth = generate_scenario(spec)
    withheld = [p for p in truth.planted if not p.in_od]
    assert {p.case for p in withheld} == {1, 2, 3}
    _, _, report = integrate(components, od)
    assert len(report.enrichments) == len(withheld)
    metrics = evaluate(report, truth)
    assert metrics["macro_f1"] == 1.0


rarely = st.sampled_from([False, False, False, False, False, True])


@st.composite
def evaluated_runs(draw):
    """(report, truth) of a small generated scenario, the report sparse as
    ``integrate`` returns it or explicit as ``parse_report`` reads it back,
    each maybe damaged: listed pairs dropped or repeated, truth verdicts
    changed, truth pairs dropped or added."""
    concepts = draw(st.integers(2, 14))
    synonyms = draw(st.integers(0, concepts // 2))
    homonyms = draw(st.integers(0, concepts // 2 - synonyms))
    coverage = draw(st.sampled_from([0, 0.5, 1]))
    spec = ScenarioSpec(concepts, synonyms, homonyms, coverage, draw(st.integers(0, 99)))
    components, od, truth = generate_scenario(spec)
    _, _, report = integrate(components, od)
    if draw(st.booleans()):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "report.json"
            path.write_bytes(serialize_report(report))
            report = parse_report(path)
    listed = report.correspondences
    if listed and draw(rarely):
        dropped = draw(st.sets(st.sampled_from(range(len(listed))), min_size=1, max_size=2))
        listed = [corr for index, corr in enumerate(listed) if index not in dropped]
    if listed and draw(rarely):
        listed.append(listed[0])
    verdicts = dict(truth.verdicts)
    pairs = sorted(verdicts)
    if pairs:
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            verdicts[pair] = draw(st.sampled_from(VERDICTS))
        if draw(rarely):
            del verdicts[draw(st.sampled_from(pairs))]
    if draw(rarely):
        verdicts["CM1#zz", "CM2#zz"] = "Distinct"
    return Report(listed, pair_space=report.pair_space), GroundTruth(verdicts, truth.planted)


def _evaluated(evaluator, report, truth):
    try:
        return evaluator(report, truth)
    except IntegrationError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(evaluated_runs())
def test_evaluate_matches_the_expanding_reference(run):
    # reading verdicts through pair_rows gives the metrics and the errors,
    # messages included, of building a Correspondence for every pair
    report, truth = run
    assert _evaluated(evaluate, report, truth) == _evaluated(reference_evaluate, report, truth)
