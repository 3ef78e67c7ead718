"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import (
    Concept,
    Ontology,
    Relation,
    ScenarioSpec,
    build_clusters,
    evaluate,
    generate_scenario,
    integrate,
    serialize_component,
    serialize_ontology,
    serialize_report,
)
from ontomerge.cli import main
from ontomerge.enrichment import RunMaps, enrich
from ontomerge.similarity import children_index, semantic_similarity, syntactic_similarity

from .conftest import make_cm1, make_cm2, make_edge, make_support_ontology
from .reference import (
    brute_force_closure,
    brute_force_syntactic,
    expand_correspondences,
    ontology_to_component,
    random_component,
)
from .strategies import concept_pairs, terms


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: canonical scenario reproduction


def test_criterion_1_canonical_scenario():
    started = time.perf_counter()
    merged, enriched, report = integrate(
        [make_cm1(), make_cm2()], make_support_ontology()
    )
    elapsed = time.perf_counter() - started
    verdicts = {c.pair: c.verdict for c in expand_correspondences(report)}
    assert verdicts[("CM1#service", "CM2#prestation")] == "Synonym"
    assert verdicts[("CM1#service", "CM2#service")] == "Homonym"
    assert verdicts[("CM1#compagnie", "CM2#cabinet")] == "Synonym"

    names = {c.term for c in merged.concepts.values()}
    assert len(merged.concepts) == 3
    # Compagnie/Cabinet and Service/Prestation each collapsed to one entity
    clusters = {frozenset(cl.members) for cl in report.clusters}
    assert frozenset({"CM1#compagnie", "CM2#cabinet"}) in clusters
    assert frozenset({"CM1#service", "CM2#prestation"}) in clusters
    # the two homonymous Service concepts stay apart, suffixed by source
    assert "Service (CM1)" in names and "Service (CM2)" in names

    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
    _report("criterion 1 (canonical scenario, < 1 s)")


# ---------------------------------------------------------------------------
# criterion 2: similarity properties, >= 1000 generated cases, exact


@settings(max_examples=500, deadline=None)
@given(concept_pairs(max_depth=2, max_children=4))
def test_criterion_2a_syntactic_oracle_and_symmetry(pair):
    c1, c2, o1, o2 = pair
    score = syntactic_similarity(c1, c2, children_index([o1, o2]))
    assert score == brute_force_syntactic(c1, c2, o1, o2)
    assert score == syntactic_similarity(c2, c1, children_index([o2, o1]))


@settings(max_examples=200, deadline=None)
@given(concept_pairs(max_depth=2, max_children=4))
def test_criterion_2b_reflexivity(pair):
    c1, _, o1, _ = pair
    assert syntactic_similarity(c1, c1, children_index([o1])) == Fraction(1)


@settings(max_examples=300, deadline=None)
@given(terms, terms, st.sampled_from(["synonymy", "homonymy", "none"]))
def test_criterion_2c_semantic_precedence_and_symmetry(t1, t2, kind):
    left = Ontology("L", concepts=[Concept(id="L#c", term=t1)])
    right = Ontology("R", concepts=[Concept(id="R#c", term=t2)])
    od = Ontology(
        "Od", concepts=[Concept(id="Od#a", term=t1), Concept(id="Od#b", term=t2)]
    )
    if kind != "none":
        od.add_relation(Relation("Od#a", "Od#b", kind))
    c1, c2 = left.concepts["L#c"], right.concepts["R#c"]
    corr = semantic_similarity(c1, c2, od, children_index([left, right]), Fraction(1))
    flipped = semantic_similarity(c2, c1, od, children_index([left, right]), Fraction(1))
    score, evidence = corr.score, corr.evidence
    assert score == flipped.score and corr.verdict == flipped.verdict
    if kind == "synonymy":
        assert score == Fraction(1) and evidence.kind == "od_synonymy"
    elif kind == "homonymy":
        assert score == Fraction(0) and evidence.kind == "od_homonymy"
    else:
        assert evidence.kind == "syntactic"
        assert score == syntactic_similarity(c1, c2, children_index([left, right]))


def test_criterion_2_report():
    # 500 + 200 + 300 generated cases ran above, all exact comparisons
    _report("criterion 2 (similarity properties, 1000 generated cases)")


# ---------------------------------------------------------------------------
# criterion 3: enrichment properties


def _case_fixtures():
    """(name, c1, c2, od, sources, expected kind) per enrichment case."""
    case1_src = Ontology(
        "O1",
        concepts=[Concept(id="O1#facture", term="facture"),
                  Concept(id="O1#note", term="note")],
        relations=[Relation("O1#facture", "O1#note", "synonymy")],
    )
    case1_od = Ontology(
        "Od", concepts=[Concept(id="Od#facture", term="facture"),
                        Concept(id="Od#note", term="note")]
    )

    case2_left = Ontology(
        "O1",
        concepts=[Concept(id="O1#client", term="client"),
                  Concept(id="O1#acheteur", term="acheteur")],
        relations=[Relation("O1#acheteur", "O1#client", "equivalence")],
    )
    case2_right = Ontology(
        "O2",
        concepts=[Concept(id="O2#commande", term="commande"),
                  Concept(id="O2#ordre", term="ordre")],
        relations=[Relation("O2#commande", "O2#ordre", "equivalence")],
    )
    case2_od = Ontology(
        "Od",
        concepts=[
            Concept(id="Od#client", term="client"),
            Concept(id="Od#commande", term="commande"),
            Concept(id="Od#acheteur", term="acheteur"),
            Concept(id="Od#ordre", term="ordre"),
        ],
        relations=[Relation("Od#acheteur", "Od#ordre", "synonymy")],
    )

    case3_left = Ontology(
        "O1",
        concepts=[
            Concept(id="O1#dossier", term="dossier",
                    children=("O1#patient", "O1#traitement")),
            Concept(id="O1#patient", term="patient"),
            Concept(id="O1#traitement", term="traitement"),
        ],
    )
    case3_right = Ontology(
        "O2",
        concepts=[
            Concept(id="O2#folder", term="folder",
                    children=("O2#patient", "O2#cure")),
            Concept(id="O2#patient", term="patient"),
            Concept(id="O2#cure", term="cure"),
        ],
    )
    case3_od = Ontology(
        "Od",
        concepts=[
            Concept(id="Od#dossier", term="dossier"),
            Concept(id="Od#folder", term="folder"),
            Concept(id="Od#traitement", term="traitement"),
            Concept(id="Od#cure", term="cure"),
        ],
        relations=[Relation("Od#cure", "Od#traitement", "synonymy")],
    )
    return [
        ("case1", "O1#facture", "O1#note", case1_od, [case1_src], "synonymy",
         "inferred_case1"),
        ("case2", "O1#client", "O2#commande", case2_od, [case2_left, case2_right],
         "synonymy", "inferred_case2"),
        ("case3", "O1#dossier", "O2#folder", case3_od, [case3_left, case3_right],
         "synonymy", "inferred_case3"),
    ]


def test_criterion_3_enrichment_properties():
    # each dedicated fixture fires exactly once with the expected tag
    for name, cid1, cid2, od, sources, kind, provenance in _case_fixtures():
        owner1 = next(s for s in sources if cid1 in s.concepts)
        owner2 = next(s for s in sources if cid2 in s.concepts)
        before = len(od.relations)
        record = enrich(
            owner1.concepts[cid1], owner2.concepts[cid2], RunMaps(od, sources),
        )
        assert record is not None, name
        assert record.injected.kind == kind, name
        assert record.injected.provenance == provenance, name
        assert len(od.relations) == before + 1, name
        # monotonicity: nothing removed or altered
        assert record.injected in od.relations

    # case order: 1 beats 2 beats 3 when several could fire
    combined_left = Ontology(
        "O1",
        concepts=[
            Concept(id="O1#a", term="avis", children=("O1#k",)),
            Concept(id="O1#k", term="karton"),
            Concept(id="O1#e", term="écho"),
        ],
        relations=[
            Relation("O1#a", "O1#e", "equivalence"),
        ],
    )
    combined_right = Ontology(
        "O2",
        concepts=[
            Concept(id="O2#b", term="billet", children=("O2#k",)),
            Concept(id="O2#k", term="karton"),
            Concept(id="O2#f", term="fanion"),
        ],
        relations=[Relation("O2#b", "O2#f", "equivalence")],
    )
    od = Ontology(
        "Od",
        concepts=[
            Concept(id="Od#avis", term="avis"),
            Concept(id="Od#billet", term="billet"),
            Concept(id="Od#echo", term="écho"),
            Concept(id="Od#fanion", term="fanion"),
        ],
        relations=[Relation("Od#echo", "Od#fanion", "synonymy")],
    )
    record = enrich(
        combined_left.concepts["O1#a"], combined_right.concepts["O2#b"],
        RunMaps(od, [combined_left, combined_right]),
    )
    assert record is not None
    assert record.injected.provenance == "inferred_case2"  # case 3 also possible

    direct_left = Ontology(
        "O1",
        concepts=[
            Concept(id="O1#tarif", term="tarif"),
            Concept(id="O1#taux", term="taux"),
            Concept(id="O1#echo", term="écho"),
        ],
        relations=[
            Relation("O1#tarif", "O1#taux", "synonymy"),
            Relation("O1#echo", "O1#tarif", "equivalence"),
        ],
    )
    direct_right = Ontology(
        "O2",
        concepts=[
            Concept(id="O2#taux", term="taux"),
            Concept(id="O2#fanion", term="fanion"),
        ],
        relations=[Relation("O2#fanion", "O2#taux", "equivalence")],
    )
    od = Ontology(
        "Od",
        concepts=[
            Concept(id="Od#tarif", term="tarif"),
            Concept(id="Od#taux", term="taux"),
            Concept(id="Od#echo", term="écho"),
            Concept(id="Od#fanion", term="fanion"),
        ],
        relations=[Relation("Od#echo", "Od#fanion", "synonymy")],
    )
    record = enrich(
        direct_left.concepts["O1#tarif"], direct_right.concepts["O2#taux"],
        RunMaps(od, [direct_left, direct_right]),
    )
    assert record is not None
    assert record.injected.provenance == "inferred_case1"  # case 2 also possible

    # never synonymy and homonymy on one pair, across a whole pipeline run
    for seed in range(5):
        components, support, _ = generate_scenario(
            ScenarioSpec(24, 5, 2, 0.4, rng_seed=seed)
        )
        _, enriched, _ = integrate(components, support)
        seen: dict[frozenset, set] = {}
        for relation in enriched.relations:
            if relation.kind == "part_of":
                continue
            pair = frozenset((relation.a, relation.b))
            seen.setdefault(pair, set()).add(relation.kind)
        for kinds in seen.values():
            assert not {"synonymy", "homonymy"} <= kinds
        # monotonic: every original relation survived
        for relation in support.relations:
            assert relation in enriched.relations
        assert len(enriched.relations) >= len(support.relations)
    _report("criterion 3 (enrichment properties)")


# ---------------------------------------------------------------------------
# criterion 4: cluster oracle, 200 random instances


def test_criterion_4_cluster_oracle():
    for seed in range(200):
        rng = random.Random(seed)
        ids = [f"c{i}" for i in range(rng.randint(1, 20))]
        edges = []
        for _ in range(rng.randint(0, 40)):
            c1, c2 = rng.sample(ids, 2) if len(ids) > 1 else (ids[0], ids[0])
            if c1 == c2:
                continue
            edges.append(make_edge(c1, c2, rng.choice(["Synonym", "Identical", "Distinct"])))
        merging = [(e.c1, e.c2) for e in edges if e.verdict in ("Synonym", "Identical")]
        assert build_clusters(edges, ids) == brute_force_closure(ids, merging)
    _report("criterion 4 (cluster oracle, 200 instances)")


# ---------------------------------------------------------------------------
# criterion 5: fixpoint


def test_criterion_5_fixpoint():
    # once on the canonical scenario...
    merged, enriched, _ = integrate([make_cm1(), make_cm2()], make_support_ontology())
    merged2, enriched2, report2 = integrate([merged, merged], enriched)
    assert report2.enrichments == []
    assert serialize_ontology(enriched2) == serialize_ontology(enriched)
    assert merged2 == merged

    # ...and once on a scenario whose first run exercised all three
    # enrichment cases (composites included)
    components, od, truth = generate_scenario(ScenarioSpec(40, 8, 2, 0.5, rng_seed=13))
    merged, enriched, report = integrate(components, od)
    assert report.enrichments  # the first run did enrich
    merged2, enriched2, report2 = integrate([merged, merged], enriched)
    assert report2.enrichments == []
    assert serialize_ontology(enriched2) == serialize_ontology(enriched)
    assert merged2 == merged
    _report("criterion 5 (fixpoint on own outputs)")


# ---------------------------------------------------------------------------
# criterion 6: synthetic evaluation


def test_criterion_6_synthetic_evaluation():
    # full coverage: perfect detection
    components, od, truth = generate_scenario(ScenarioSpec(20, 4, 2, 1.0, rng_seed=21))
    _, _, report = integrate(components, od)
    metrics = evaluate(report, truth)
    for verdict in ("synonym", "homonym"):
        assert metrics[verdict]["precision"] == 1.0
        assert metrics[verdict]["recall"] == 1.0

    # half coverage with planted evidence: every withheld relation recovered
    components, od, truth = generate_scenario(ScenarioSpec(40, 8, 2, 0.5, rng_seed=13))
    withheld = [p for p in truth.planted if not p.in_od]
    assert {p.case for p in withheld} == {1, 2, 3}  # all cases planted
    _, _, report = integrate(components, od)
    assert len(report.enrichments) == len(withheld)
    assert evaluate(report, truth)["macro_f1"] == 1.0

    # a 100-concept scenario completes within budget
    components, od, truth = generate_scenario(ScenarioSpec(100, 20, 10, 0.5, rng_seed=42))
    started = time.perf_counter()
    _, _, report = integrate(components, od)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"100-concept scenario took {elapsed:.2f}s"
    assert evaluate(report, truth)["macro_f1"] == 1.0
    _report("criterion 6 (synthetic evaluation, < 5 s at 100 concepts)")


# ---------------------------------------------------------------------------
# criterion 7: round trips, determinism, atomic outputs


def test_criterion_7_round_trip_determinism_atomicity(tmp_path):
    # transform round trip on 100 random components
    for seed in range(100):
        rng = random.Random(seed)
        component = random_component(rng, f"C{seed}")
        assert ontology_to_component(component, name=component.name) == component
        # serializers byte-identical across repeated calls
        assert serialize_component(component) == serialize_component(component)
        assert serialize_ontology(component) == serialize_ontology(component)

    # repeated full runs are byte-identical
    first = integrate([make_cm1(), make_cm2()], make_support_ontology())
    second = integrate([make_cm1(), make_cm2()], make_support_ontology())
    assert serialize_component(first[0]) == serialize_component(second[0])
    assert serialize_ontology(first[1]) == serialize_ontology(second[1])
    assert serialize_report(first[2]) == serialize_report(second[2])

    # forced output failure leaves nothing behind
    paths = {
        "cm1": tmp_path / "cm1.json",
        "cm2": tmp_path / "cm2.json",
        "od": tmp_path / "od.json",
    }
    paths["cm1"].write_bytes(serialize_component(make_cm1()))
    paths["cm2"].write_bytes(serialize_component(make_cm2()))
    paths["od"].write_bytes(serialize_ontology(make_support_ontology()))
    out = tmp_path / "out"
    out.mkdir()
    code = main([
        "integrate",
        "--component", str(paths["cm1"]),
        "--component", str(paths["cm2"]),
        "--ontology", str(paths["od"]),
        "--out-component", str(out / "cmr.json"),
        "--out-ontology", str(out / "od2.json"),
        "--report", str(tmp_path / "no-such-dir" / "report.json"),
    ])
    assert code != 0
    assert list(out.iterdir()) == []
    _report("criterion 7 (round trips, determinism, atomic outputs)")
