"""The three enrichment cases, their order, and the gate that `enrich` applies first."""

from fractions import Fraction

import pytest

from ontomerge import (
    Concept,
    EnrichmentRecord,
    Ontology,
    Relation,
    ScenarioSpec,
    align,
    generate_scenario,
    integrate,
    serialize_ontology,
)
from ontomerge import enrichment, integrator
from ontomerge.enrichment import RunMaps, enrich, infer_via_children, infer_via_equivalents
from ontomerge.similarity import lookup_relations, syntactic_similarity


def _ontology(oid, *concepts, relations=()):
    ontology = Ontology(oid)
    for spec in concepts:
        cid, term = spec[0], spec[1]
        children = spec[2] if len(spec) > 2 else ()
        ontology.add_concept(Concept(id=cid, term=term, children=children))
    for relation in relations:
        ontology.add_relation(relation)
    return ontology


def _support(*terms, relations=()):
    return _ontology("Od", *[(f"Od#{t}", t) for t in terms], relations=relations)


# ---------------------------------------------------------------------------
# case 1: a source already declares the relation


def _case1_fixture():
    source = _ontology(
        "OCM3",
        ("OCM3#facture", "facture"),
        ("OCM3#note", "note d'honoraires"),
        relations=[Relation("OCM3#facture", "OCM3#note", "synonymy")],
    )
    od = _support("facture", "note d'honoraires")
    return source, od


def test_find_direct_relation_hits_single_source():
    source, od = _case1_fixture()
    record = enrich(
        source.concepts["OCM3#facture"], source.concepts["OCM3#note"], RunMaps(od, [source]),
    )
    assert record is not None
    assert record.injected.provenance == "inferred_case1"
    assert record.injected.kind == "synonymy"


def test_find_direct_relation_misses_when_terms_absent():
    source, od = _case1_fixture()
    devis = _ontology("OCM4", ("OCM4#devis", "devis"))
    assert enrich(
        source.concepts["OCM3#facture"], devis.concepts["OCM4#devis"],
        RunMaps(od, [source, devis]),
    ) is None


def test_find_direct_relation_ignores_part_of():
    source = _ontology(
        "OCM1",
        ("OCM1#dossier", "dossier", ("OCM1#patient",)),
        ("OCM1#patient", "patient"),
    )
    od = _support("dossier", "patient")
    assert enrich(
        source.concepts["OCM1#dossier"], source.concepts["OCM1#patient"], RunMaps(od, [source]),
    ) is None


def test_case1_injects_declared_relation():
    source, od = _case1_fixture()
    record = enrich(
        source.concepts["OCM3#facture"], source.concepts["OCM3#note"], RunMaps(od, [source]),
    )
    assert record is not None
    assert record.injected.provenance == "inferred_case1"
    assert record.injected.kind == "synonymy"
    assert record.evidence == (Relation("OCM3#facture", "OCM3#note", "synonymy"),)
    assert len([r for r in od.relations if r.kind == "synonymy"]) == 1


# ---------------------------------------------------------------------------
# case 2: equivalents with a bridging relation


def _case2_fixture(bridge_kind="synonymy"):
    left = _ontology(
        "OCM1",
        ("OCM1#client", "client"),
        ("OCM1#acheteur", "acheteur"),
        relations=[Relation("OCM1#acheteur", "OCM1#client", "equivalence")],
    )
    right = _ontology(
        "OCM2",
        ("OCM2#commande", "commande"),
        ("OCM2#ordre", "ordre"),
        relations=[Relation("OCM2#commande", "OCM2#ordre", "equivalence")],
    )
    od = _support(
        "client", "commande", "acheteur", "ordre",
        relations=[Relation("Od#acheteur", "Od#ordre", bridge_kind)],
    )
    return left, right, od


def test_case2_propagates_bridge_synonymy():
    left, right, od = _case2_fixture()
    maps = RunMaps(od, [left, right])
    found = infer_via_equivalents("client", "commande", maps)
    assert found is not None
    kind, evidence = found
    assert kind == "synonymy"
    equivalences = [r for r in evidence if r.kind == "equivalence"]
    bridges = [r for r in evidence if r.kind != "equivalence"]
    assert len(equivalences) == 2 and len(bridges) == 1
    record = enrich(left.concepts["OCM1#client"], right.concepts["OCM2#commande"], maps)
    assert record is not None
    assert record.injected.kind == "synonymy"
    assert record.injected.provenance == "inferred_case2"
    assert record.evidence == evidence


def test_case2_propagates_bridge_homonymy():
    left, right, od = _case2_fixture(bridge_kind="homonymy")
    found = infer_via_equivalents("client", "commande", RunMaps(od, [left, right]))
    assert found is not None
    assert found[0] == "homonymy"


def test_case2_without_bridge_gives_none():
    left, right, _ = _case2_fixture()
    od = _support("client", "commande", "acheteur", "ordre")
    assert infer_via_equivalents("client", "commande", RunMaps(od, [left, right])) is None


def test_case2_requires_two_distinct_equivalences():
    # a single equivalence edge cannot vouch for both endpoints
    only = _ontology(
        "OCM1",
        ("OCM1#client", "client"),
        ("OCM1#acheteur", "acheteur"),
        relations=[Relation("OCM1#acheteur", "OCM1#client", "equivalence")],
    )
    od = _support("client", "acheteur")
    assert infer_via_equivalents("client", "acheteur", RunMaps(od, [only])) is None


# ---------------------------------------------------------------------------
# case 3: matching composite children


def _case3_fixture():
    left = _ontology(
        "OCM1",
        ("OCM1#dossier", "dossier", ("OCM1#patient", "OCM1#traitement")),
        ("OCM1#patient", "patient"),
        ("OCM1#traitement", "traitement"),
    )
    right = _ontology(
        "OCM2",
        ("OCM2#folder", "folder", ("OCM2#patient", "OCM2#cure")),
        ("OCM2#patient", "patient"),
        ("OCM2#cure", "cure"),
    )
    od = _support(
        "dossier", "folder", "traitement", "cure",
        relations=[Relation("Od#cure", "Od#traitement", "synonymy")],
    )
    return left, right, od


def test_case3_infers_synonymy_from_children():
    left, right, od = _case3_fixture()
    c1, c2 = left.concepts["OCM1#dossier"], right.concepts["OCM2#folder"]
    maps = RunMaps(od, [left, right])
    evidence = infer_via_children(c1, c2, maps)
    # one child pair matched by term equality, the other through the
    # declared synonymy, which must be cited
    assert evidence is not None
    assert [r.kind for r in evidence] == ["synonymy"]
    record = enrich(c1, c2, maps)
    assert record is not None
    assert record.injected.kind == "synonymy"
    assert record.injected.provenance == "inferred_case3"
    assert record.evidence == evidence


def test_case3_fails_on_partial_child_match():
    left, right, _ = _case3_fixture()
    od = _support("dossier", "folder", "traitement", "cure")  # no cure/traitement link
    assert infer_via_children(
        left.concepts["OCM1#dossier"], right.concepts["OCM2#folder"], RunMaps(od, [left, right]),
    ) is None


def test_case3_identical_children_need_no_relations():
    left = _ontology(
        "OCM1",
        ("OCM1#dossier", "dossier", ("OCM1#patient",)),
        ("OCM1#patient", "patient"),
    )
    right = _ontology(
        "OCM2",
        ("OCM2#chemise", "chemise", ("OCM2#patient",)),
        ("OCM2#patient", "patient"),
    )
    od = _support("dossier", "chemise")
    evidence = infer_via_children(
        left.concepts["OCM1#dossier"], right.concepts["OCM2#chemise"], RunMaps(od, [left, right]),
    )
    assert evidence == ()


def test_case3_skips_equal_parent_terms():
    # a same-termed composite pair must not manufacture a self-synonymy
    left = _ontology(
        "OCM1",
        ("OCM1#dossier", "dossier", ("OCM1#patient",)),
        ("OCM1#patient", "patient"),
    )
    right = _ontology(
        "OCM2",
        ("OCM2#dossier", "dossier", ("OCM2#patient",)),
        ("OCM2#patient", "patient"),
    )
    od = _support("dossier")
    assert infer_via_children(
        left.concepts["OCM1#dossier"], right.concepts["OCM2#dossier"], RunMaps(od, [left, right]),
    ) is None


@pytest.mark.parametrize("n", [9, 64])
def test_case3_has_no_arity_limit(n):
    left = _ontology(
        "OCM1",
        ("OCM1#big", "big", tuple(f"OCM1#k{i}" for i in range(n))),
        *[(f"OCM1#k{i}", f"k{i}") for i in range(n)],
    )
    right = _ontology(
        "OCM2",
        ("OCM2#large", "large", tuple(f"OCM2#k{i}" for i in range(n))),
        *[(f"OCM2#k{i}", f"k{i}") for i in range(n)],
    )
    od = _support("big", "large")
    warnings = []
    record = enrich(
        left.concepts["OCM1#big"], right.concepts["OCM2#large"], RunMaps(od, [left, right]),
        warnings=warnings,
    )
    assert record is not None
    assert record.injected.provenance == "inferred_case3"
    assert record.pair == ("OCM1#big", "OCM2#large")
    assert warnings == []
    assert [r.kind for r in od.relations if r.kind != "part_of"] == ["synonymy"]


# ---------------------------------------------------------------------------
# the enrich driver


def test_no_evidence_leaves_support_ontology_untouched():
    left = _ontology("OCM1", ("OCM1#a", "aube"))
    right = _ontology("OCM2", ("OCM2#b", "brume"))
    od = _support("aube", "brume")
    before = serialize_ontology(od)
    record = enrich(
        left.concepts["OCM1#a"], right.concepts["OCM2#b"], RunMaps(od, [left, right]),
    )
    assert record is None
    assert serialize_ontology(od) == before


def test_case_order_prefers_direct_relation():
    # both a declared relation (case 1) and matching children (case 3) exist
    left = _ontology(
        "OCM1",
        ("OCM1#dossier", "dossier", ("OCM1#patient",)),
        ("OCM1#patient", "patient"),
        ("OCM1#classeur", "classeur", ("OCM1#patient",)),
        relations=[Relation("OCM1#classeur", "OCM1#dossier", "synonymy")],
    )
    right = _ontology(
        "OCM2",
        ("OCM2#classeur", "classeur", ("OCM2#patient",)),
        ("OCM2#patient", "patient"),
    )
    od = _support("dossier", "classeur")
    record = enrich(
        left.concepts["OCM1#dossier"], right.concepts["OCM2#classeur"],
        RunMaps(od, [left, right]),
    )
    assert record is not None
    assert record.injected.provenance == "inferred_case1"


def test_consistency_guard_refuses_contradiction():
    # the support ontology already relates the pair, so enrich declines it
    # at its gate, before any case could derive the contradicting synonymy
    source = _ontology(
        "OCM1",
        ("OCM1#tarif", "tarif"),
        ("OCM1#taux", "taux"),
        relations=[Relation("OCM1#tarif", "OCM1#taux", "synonymy")],
    )
    od = _ontology(
        "Od",
        ("Od#tarif", "tarif"),
        ("Od#taux", "taux"),
        relations=[Relation("Od#tarif", "Od#taux", "homonymy")],
    )
    before = serialize_ontology(od)
    warnings = []
    record = enrich(
        source.concepts["OCM1#tarif"], source.concepts["OCM1#taux"],
        RunMaps(od, [source]), warnings=warnings,
    )
    assert record is None
    assert serialize_ontology(od) == before
    assert warnings == []


def test_enrich_declines_a_term_the_support_ontology_lacks():
    # a source declares synonymy(a, b), but the support ontology does not
    # hold b: enrich tries only known terms, so it creates no concept for b
    source = _ontology(
        "OCM1",
        ("OCM1#a", "a"),
        ("OCM1#b", "b"),
        relations=[Relation("OCM1#a", "OCM1#b", "synonymy")],
    )
    od = _support("a")
    before = serialize_ontology(od)
    assert enrich(
        source.concepts["OCM1#a"], source.concepts["OCM1#b"], RunMaps(od, [source]),
    ) is None
    assert serialize_ontology(od) == before


def test_enrich_is_idempotent():
    source, od = _case1_fixture()
    c1, c2 = source.concepts["OCM3#facture"], source.concepts["OCM3#note"]
    maps = RunMaps(od, [source])
    first = enrich(c1, c2, maps)
    after_first = serialize_ontology(od)
    second = enrich(c1, c2, maps)
    assert first is not None and second is None
    assert serialize_ontology(od) == after_first


def test_align_calls_enrich_only_where_its_guard_cannot_fire(monkeypatch):
    # align leaves the gate to enrich and asks at most once per pair; a
    # pair outside the gate is declined with no write, a commit decides its
    # own pair, and a pair that passed the gate but was not committed
    # keeps the syntactic score
    runs, injected = [], []

    def checked(c1, c2, maps, warnings=None):
        od = maps.od
        assert (c1.id, c2.id) not in runs[-1]  # no pair is attempted twice
        gated = (od.term_present(c1.key) and od.term_present(c2.key)
                 and not lookup_relations(od, c1.key, c2.key))
        size = len(od.relations)
        record = enrichment.enrich(c1, c2, maps, warnings)
        if not gated:
            assert record is None and len(od.relations) == size
        elif record is not None:
            injected.append(record)
        runs[-1][c1.id, c2.id] = record or (
            syntactic_similarity(c1, c2, maps.kids) if gated else None)
        return record

    monkeypatch.setattr(integrator, "enrich", checked)
    for coverage in (0, 0.5, 1):
        for seed in range(3):
            attempts = {}
            runs.append(attempts)
            components, od, _ = generate_scenario(ScenarioSpec(80, 15, 5, coverage, seed))
            _, _, report = integrate(components, od)
            scored = {c.pair: c for c in report.correspondences}
            for pair, outcome in attempts.items():
                got = scored[pair]
                if isinstance(outcome, EnrichmentRecord):
                    assert got.evidence.kind == "enriched"
                    if outcome.injected.kind == "synonymy":
                        assert (got.score, got.verdict) == (1, "Synonym")
                elif outcome is not None:
                    assert (got.score, got.evidence.kind) == (outcome, "syntactic")
    assert sum(map(len, runs)) > len(injected) > 0
    assert any(None in attempts.values() for attempts in runs)  # the gate declined some


def test_align_enriches_each_pair_once_before_scoring_it(monkeypatch):
    # a term outside the support ontology is never tried; a commit decides
    # its own pair as an enriched synonymy; a failed attempt, whether
    # case 3 finds an unrelated child or no case applies, leaves the pair
    # to the syntactic score
    left = _ontology(
        "OCM1",
        ("OCM1#devis", "devis"),
        ("OCM1#facture", "facture"),
        ("OCM1#lot", "lot", ("OCM1#devis", "OCM1#facture")),
        ("OCM1#note", "note"),
        relations=[Relation("OCM1#facture", "OCM1#note", "synonymy")],
    )
    right = _ontology(
        "OCM2",
        ("OCM2#article", "article"),
        ("OCM2#colis", "colis", ("OCM2#article", "OCM2#devis")),
        ("OCM2#devis", "devis"),
        ("OCM2#note", "note"),
    )
    od = _support("colis", "facture", "lot", "note")
    calls = []

    def counted(c1, c2, *args, **kwargs):
        calls.append((c1.id, c2.id))
        return enrichment.enrich(c1, c2, *args, **kwargs)

    monkeypatch.setattr(integrator, "enrich", counted)
    correspondences, enriched, records = align([left, right], od)
    assert calls == [
        ("OCM1#facture", "OCM2#note"), ("OCM1#lot", "OCM2#colis"), ("OCM1#note", "OCM2#note"),
    ]
    assert [record.pair for record in records] == [("OCM1#facture", "OCM2#note")]
    assert lookup_relations(enriched, "facture", "note") == (records[0].injected,)
    assert {c.pair: (c.score, c.verdict, c.evidence.kind) for c in correspondences} == {
        ("OCM1#devis", "OCM2#devis"): (1, "Identical", "syntactic"),
        ("OCM1#facture", "OCM2#note"): (1, "Synonym", "enriched"),
        ("OCM1#lot", "OCM2#colis"): (Fraction(1, 2), "Distinct", "syntactic"),
        ("OCM1#note", "OCM2#note"): (1, "Identical", "syntactic"),
    }


def test_same_term_injection_creates_second_endpoint():
    # homonymy between two meanings of one term needs two distinct concepts
    left = _ontology(
        "OCM1",
        ("OCM1#poste", "poste"),
        ("OCM1#guichet", "guichet"),
        relations=[Relation("OCM1#guichet", "OCM1#poste", "equivalence")],
    )
    right = _ontology(
        "OCM2",
        ("OCM2#poste", "poste"),
        ("OCM2#fonction", "fonction"),
        relations=[Relation("OCM2#fonction", "OCM2#poste", "equivalence")],
    )
    bridge_holder = _ontology(
        "OCM3",
        ("OCM3#guichet", "guichet"),
        ("OCM3#fonction", "fonction"),
        relations=[Relation("OCM3#fonction", "OCM3#guichet", "homonymy")],
    )
    od = _support("poste")
    record = enrich(
        left.concepts["OCM1#poste"], right.concepts["OCM2#poste"],
        RunMaps(od, [left, right, bridge_holder]),
    )
    assert record is not None
    assert record.injected.kind == "homonymy"
    assert {record.injected.a, record.injected.b} == {"Od#poste", "Od#poste~2"}
    assert "Od#poste~2" in od.concepts


def test_monotonicity_relation_count_never_shrinks():
    left, right, od = _case2_fixture()
    before = len(od.relations)
    enrich(left.concepts["OCM1#client"], right.concepts["OCM2#commande"],
           RunMaps(od, [left, right]))
    assert len(od.relations) == before + 1


def test_endpoints_are_resolved_once_per_injection(monkeypatch):
    # the cases only find evidence; enrich resolves and commits once
    calls = []
    resolve = enrichment.resolve_endpoints

    def counted(od, t1, t2):
        calls.append((t1, t2))
        return resolve(od, t1, t2)

    monkeypatch.setattr(enrichment, "resolve_endpoints", counted)
    components, od, _ = generate_scenario(ScenarioSpec(40, 8, 2, 0.5, rng_seed=13))
    _, _, report = integrate(components, od)
    assert report.enrichments
    assert len(calls) == len(report.enrichments)


def test_fresh_endpoint_skips_every_taken_suffix():
    # a same-term pair needs two endpoints; the term names one concept,
    # Od#x, and Od#x~2 is taken by a concept of another term
    od = _ontology("Od", ("Od#x", "x"), ("Od#x~2", "z"))
    assert enrichment.resolve_endpoints(od, "x", "x") == ("Od#x", "Od#x~3", [])
    assert set(od.concepts) == {"Od#x", "Od#x~2"}  # resolving creates nothing yet
