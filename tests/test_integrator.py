"""Alignment verdicts, clustering, merging, and the full pipeline."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import (
    Association,
    BusinessComponent,
    Concept,
    Correspondence,
    Entity,
    Evidence,
    HomonymClusterCollision,
    IntegrationError,
    Ontology,
    Relation,
    Report,
    SchemaViolation,
    align,
    build_clusters,
    component_to_ontology,
    expand_correspondences,
    integrate,
    merge,
    pair_space_of,
    serialize_component,
    serialize_ontology,
    serialize_report,
)

from .conftest import (
    make_cm1,
    make_cm2,
    make_conflicting_components,
    make_contradictory_od,
    make_support_ontology,
)
from .strategies import TERM_POOL, terms


def _verdicts(correspondences):
    return {c.pair: c.verdict for c in correspondences}


# ---------------------------------------------------------------------------
# align


def test_canonical_scenario_verdicts(cm1, cm2, support_od):
    sources = [component_to_ontology(cm1), component_to_ontology(cm2)]
    correspondences, _, records = align(sources, support_od)
    verdicts = _verdicts(expand_correspondences(
        Report(correspondences, pair_space=pair_space_of(sources))
    ))
    assert verdicts[("CM1#service", "CM2#prestation")] == "Synonym"
    assert verdicts[("CM1#service", "CM2#service")] == "Homonym"
    assert verdicts[("CM1#compagnie", "CM2#cabinet")] == "Synonym"
    assert verdicts[("CM1#compagnie", "CM2#service")] == "Distinct"
    assert not records


def test_two_lonely_concepts_are_distinct():
    sources = [
        component_to_ontology(
            BusinessComponent(id="A", name="a", entities=(Entity(name="Aube"),))
        ),
        component_to_ontology(
            BusinessComponent(id="B", name="b", entities=(Entity(name="Brume"),))
        ),
    ]
    correspondences, _, _ = align(sources, Ontology("Od"))
    correspondences = expand_correspondences(
        Report(correspondences, pair_space=pair_space_of(sources))
    )
    assert [c.verdict for c in correspondences] == ["Distinct"]


def test_same_term_without_coverage_is_identical_with_warning():
    sources = [
        component_to_ontology(
            BusinessComponent(id="A", name="a", entities=(Entity(name="Stock"),))
        ),
        component_to_ontology(
            BusinessComponent(id="B", name="b", entities=(Entity(name="Stock"),))
        ),
    ]
    warnings = []
    correspondences, _, _ = align(sources, Ontology("Od"), warnings=warnings)
    assert [c.verdict for c in correspondences] == ["Identical"]
    assert any("assumed identical: no O_d coverage" in w for w in warnings)


def test_align_requires_two_sources(support_od):
    with pytest.raises(SchemaViolation):
        align([component_to_ontology(make_cm1())], support_od)


def test_align_rejects_bad_threshold(cm1, cm2, support_od):
    sources = [component_to_ontology(cm1), component_to_ontology(cm2)]
    with pytest.raises(SchemaViolation):
        align(sources, support_od, tau=0)
    with pytest.raises(SchemaViolation):
        align(sources, support_od, tau=1.5)


def test_fractional_threshold_admits_partial_composites():
    # two composites sharing one child of two score 1/2
    left = BusinessComponent(
        id="CM1", name="a",
        entities=(
            Entity(name="Dossier", components=("Patient", "Traitement")),
            Entity(name="Patient"), Entity(name="Traitement"),
        ),
    )
    right = BusinessComponent(
        id="CM2", name="b",
        entities=(
            Entity(name="Dossier2", components=("Patient", "Facture")),
            Entity(name="Patient"), Entity(name="Facture"),
        ),
    )
    sources = [component_to_ontology(left), component_to_ontology(right)]
    od = Ontology("Od")

    strict, _, _ = align(sources, od)
    assert _verdicts(strict)[("CM1#dossier", "CM2#dossier2")] == "Distinct"

    from fractions import Fraction

    lax, _, _ = align(sources, od, tau=Fraction(1, 2))
    assert _verdicts(lax)[("CM1#dossier", "CM2#dossier2")] == "Identical"
    (pair_score,) = [
        c.score for c in lax if c.pair == ("CM1#dossier", "CM2#dossier2")
    ]
    assert pair_score == Fraction(1, 2)


@pytest.mark.parametrize("n", [12, 64])
def test_wide_composites_are_synonyms_through_their_children(n):
    # the parents' terms are in the support ontology with no relation
    # between them; their children pair up through declared synonymies,
    # so case-3 enrichment decides the pair whatever its width
    left_kids = [f"a{i}" for i in range(n)]
    right_kids = [f"b{i}" for i in range(n)]
    left = BusinessComponent(
        id="CM1", name="a",
        entities=(
            Entity(name="Big", components=tuple(left_kids)),
            *(Entity(name=kid) for kid in left_kids),
        ),
    )
    right = BusinessComponent(
        id="CM2", name="b",
        entities=(
            Entity(name="Large", components=tuple(right_kids)),
            *(Entity(name=kid) for kid in right_kids),
        ),
    )
    od = Ontology("Od")
    for term in ["big", "large", *left_kids, *right_kids]:
        od.add_concept(Concept(id=f"Od#{term}", term=term))
    for a, b in zip(left_kids, right_kids):
        od.add_relation(Relation(a=f"Od#{a}", b=f"Od#{b}", kind="synonymy"))

    _, _, report = integrate([left, right], od)
    (parent,) = [c for c in report.correspondences if c.pair == ("CM1#big", "CM2#large")]
    assert parent.verdict == "Synonym"
    assert parent.evidence.kind == "enriched"
    assert [r.injected.provenance for r in report.enrichments] == ["inferred_case3"]
    assert report.warnings == []


def test_align_does_not_mutate_its_input_ontology(cm1, cm2):
    source_a = BusinessComponent(
        id="CM1", name="a",
        entities=(Entity(name="Facture"), Entity(name="Avoir")),
        relations=(("Facture", "Avoir", "synonymy"),),
    )
    source_b = BusinessComponent(
        id="CM2", name="b", entities=(Entity(name="Avoir"),)
    )
    od = Ontology(
        "Od",
        concepts=[Concept(id="Od#facture", term="Facture"),
                  Concept(id="Od#avoir", term="Avoir")],
    )
    before = serialize_ontology(od)
    _, enriched, records = align(
        [component_to_ontology(source_a), component_to_ontology(source_b)], od
    )
    assert records  # the declared synonymy was injected...
    assert serialize_ontology(od) == before  # ...but only into the copy
    assert len(enriched.relations) == len(od.relations) + 1


# ---------------------------------------------------------------------------
# clustering


def _edge(c1, c2, verdict):
    if verdict in ("Synonym",):
        return Correspondence(
            c1=c1, c2=c2, score=1, verdict=verdict,
            evidence=Evidence(kind="od_synonymy",
                              relations_used=(dummy_relation(),)),
        )
    if verdict == "Homonym":
        return Correspondence(
            c1=c1, c2=c2, score=0, verdict=verdict,
            evidence=Evidence(kind="od_homonymy",
                              relations_used=(dummy_relation(),)),
        )
    if verdict == "Identical":
        return Correspondence(
            c1=c1, c2=c2, score=1, verdict=verdict, evidence=Evidence(kind="syntactic")
        )
    return Correspondence(
        c1=c1, c2=c2, score=0, verdict=verdict, evidence=Evidence(kind="syntactic")
    )


def dummy_relation():
    from ontomerge import Relation

    return Relation("Od#x", "Od#y", "synonymy")


def test_clusters_are_transitive():
    edges = [_edge("a", "b", "Synonym"), _edge("b", "c", "Synonym")]
    assert build_clusters(edges, ["a", "b", "c"]) == [("a", "b", "c")]


def test_no_edges_gives_singletons():
    assert build_clusters([], ["a", "b"]) == [("a",), ("b",)]


def test_homonym_chain_collision_reports_path():
    edges = [
        _edge("a", "b", "Synonym"),
        _edge("b", "c", "Synonym"),
        _edge("a", "c", "Homonym"),
    ]
    with pytest.raises(HomonymClusterCollision) as excinfo:
        build_clusters(edges, ["a", "b", "c"])
    chain = excinfo.value.chain
    assert chain  # the offending connecting path is reported
    assert chain[0][0] == "a" and chain[-1][1] == "c"


def test_collision_chain_takes_the_smallest_ids_level_by_level():
    edges = [_edge(a, b, "Synonym") for a, b in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))]
    edges.append(_edge("a", "d", "Homonym"))
    with pytest.raises(HomonymClusterCollision) as excinfo:
        build_clusters(edges, ["a", "b", "c", "d"])
    assert excinfo.value.chain == (("a", "b", "Synonym"), ("b", "d", "Synonym"))
    assert str(excinfo.value) == (
        "homonym pair (a, d) would land in one cluster via: "
        "a -[Synonym]- b ; b -[Synonym]- d"
    )


@pytest.mark.parametrize("verdict", ["Identical", "Homonym"])
def test_pair_outside_the_clustered_ids_is_schema_error(verdict):
    edges = [_edge("a", "b", "Synonym"), _edge("b", "z", verdict)]
    with pytest.raises(SchemaViolation, match=(
        rf"^{verdict} pair \('b', 'z'\) names a concept outside the clustered ids$"
    )):
        build_clusters(edges, ["a", "b", "c"])


def brute_force_closure(ids, edges):
    """Oracle: repeatedly merge clusters that share a merging edge."""
    clusters = [{cid} for cid in ids]
    changed = True
    while changed:
        changed = False
        for c1, c2 in edges:
            left = next(cl for cl in clusters if c1 in cl)
            right = next(cl for cl in clusters if c2 in cl)
            if left is not right:
                clusters.remove(right)
                left |= right
                changed = True
    return sorted(tuple(sorted(cl)) for cl in clusters)


@pytest.mark.parametrize("seed", range(20))
def test_union_find_matches_closure_oracle(seed):
    rng = random.Random(seed)
    ids = [f"c{i}" for i in range(rng.randint(1, 20))]
    edges = []
    for _ in range(rng.randint(0, 30)):
        c1, c2 = rng.choice(ids), rng.choice(ids)
        if c1 != c2:
            verdict = rng.choice(["Synonym", "Identical", "Distinct"])
            edges.append(_edge(c1, c2, verdict))
    merging = [
        (e.c1, e.c2) for e in edges if e.verdict in ("Synonym", "Identical")
    ]
    assert build_clusters(edges, ids) == brute_force_closure(ids, merging)


# ---------------------------------------------------------------------------
# merge


def test_canonical_term_prefers_support_vocabulary():
    sources = [
        component_to_ontology(
            BusinessComponent(id="CM1", name="a", entities=(Entity(name="Compagnie"),))
        ),
        component_to_ontology(
            BusinessComponent(id="CM2", name="b", entities=(Entity(name="Cabinet"),))
        ),
    ]
    od = make_support_ontology()
    correspondences, enriched, _ = align(sources, od)
    partition = build_clusters(
        correspondences, [cid for s in sources for cid in s.concepts]
    )
    merged, _ = merge(partition, sources, enriched, correspondences=correspondences)
    (concept,) = merged.concepts.values()
    assert concept.term == "Cabinet"  # both terms known; smallest wins
    assert concept.aliases == ("Compagnie",)


def test_homonym_clusters_get_source_suffixes(cm1, cm2, support_od):
    merged, _, report = integrate([cm1, cm2], support_od)
    names = {e.name for e in merged.entities}
    assert "Service (CM1)" in names
    assert "Service (CM2)" in names


def test_colliding_displays_are_suffixed_by_a_member_bearing_the_display():
    # Case 3 infers synonymy(bêta, alpha) from the composites' shared child,
    # so both clusters hold CM1 members and both are displayed "alpha".
    # Suffixing with the first member's source gave "alpha (CM1)" twice.
    def component(cid, entities):
        return BusinessComponent(id=cid, name=cid, entities=tuple(
            Entity(name=name, components=children) for name, children in entities
        ))

    components = [
        component("CM1", [("alpha", ()), ("bêta", ("delta",)), ("delta", ())]),
        component("CM2", [("alpha", ())]),
        component("CM3", [("alpha", ("delta",)), ("bêta", ()), ("delta", ())]),
    ]
    od = Ontology("Od", concepts=[Concept(id=f"Od#{t}", term=t) for t in ("alpha", "bêta")])
    merged, _, report = integrate(components, od)
    assert sorted(e.name for e in merged.entities) == ["alpha (CM1)", "alpha (CM3)", "delta"]
    assert {cl.term: cl.members for cl in report.clusters}["alpha (CM3)"] == (
        "CM1#bêta", "CM3#alpha",
    )


@pytest.mark.parametrize("order", [1, -1])
def test_aliases_take_the_term_of_the_smallest_id_whatever_the_member_order(order):
    sources = [
        Ontology("A", [Concept(id="A#k", term="Kay"), Concept(id="A#d", term="Dee")]),
        Ontology("B", [Concept(id="B#k", term="KAY")]),
    ]
    od = Ontology("Od", [Concept(id="Od#dee", term="dee")])
    part = ("A#d", "A#k", "B#k")[::order]
    _, clusters = merge([part], sources, od)
    assert [(cl.term, cl.aliases) for cl in clusters] == [("Dee", ("Kay",))]


@pytest.mark.parametrize("order", [1, -1])
def test_suffix_fallback_takes_the_source_of_the_smallest_id_whatever_the_member_order(order):
    # "Service (A)" is the homonym display of A#service and the term of a
    # concept of B; the part that no member bearing it names is suffixed
    # with the source of its smallest id, A, not of its first member
    sources = [
        Ontology("A", [Concept(id="A#service", term="Service")]),
        Ontology("B", [Concept(id="B#service", term="Service"),
                       Concept(id="B#service (a)", term="Service (A)")]),
        Ontology("C", [Concept(id="C#prestation", term="Prestation")]),
    ]
    partition = [("A#service", "C#prestation")[::order], ("B#service",), ("B#service (a)",)]
    homonymy = _edge("A#service", "B#service", "Homonym")
    _, clusters = merge(partition, sources, Ontology("Od"), correspondences=[homonymy])
    assert {cl.term: tuple(sorted(cl.members)) for cl in clusters} == {
        "Service (A) (A)": ("A#service", "C#prestation"),
        "Service (A) (B)": ("B#service (a)",),
        "Service (B)": ("B#service",),
    }


def _two_one_concept_sources():
    return [
        component_to_ontology(
            BusinessComponent(id="CM1", name="a", entities=(Entity(name="Aube"),))
        ),
        component_to_ontology(
            BusinessComponent(id="CM2", name="b", entities=(Entity(name="Brume"),))
        ),
    ]


def test_merge_rejects_a_cluster_member_no_source_holds():
    partition = [("CM1#aube",), ("CM2#brume",), ("CM9#y",), ("CM9#x",)]
    with pytest.raises(SchemaViolation) as caught:
        merge(partition, _two_one_concept_sources(), Ontology("Od"))
    assert str(caught.value) == (
        "concepts in clusters but in no source: ['CM9#x', 'CM9#y']"
    )


def test_merge_rejects_an_empty_cluster():
    partition = [(), ("CM1#aube",), ("CM2#brume",)]
    with pytest.raises(SchemaViolation, match="a cluster of the partition is empty"):
        merge(partition, _two_one_concept_sources(), Ontology("Od"))


def test_all_singletons_is_disjoint_union():
    sources = [
        component_to_ontology(
            BusinessComponent(
                id="CM1", name="a",
                entities=(Entity(name="Aube"), Entity(name="Crépuscule")),
            )
        ),
        component_to_ontology(
            BusinessComponent(id="CM2", name="b", entities=(Entity(name="Brume"),))
        ),
    ]
    partition = build_clusters([], [cid for s in sources for cid in s.concepts])
    merged, _ = merge(partition, sources, Ontology("Od"))
    assert len(merged.concepts) == 3
    assert sorted(c.term for c in merged.concepts.values()) == [
        "Aube", "Brume", "Crépuscule",
    ]


def test_mapping_covers_every_source_concept(cm1, cm2, support_od):
    sources = [component_to_ontology(cm1), component_to_ontology(cm2)]
    correspondences, enriched, _ = align(sources, support_od)
    all_ids = [cid for s in sources for cid in s.concepts]
    partition = build_clusters(correspondences, all_ids)
    merged, clusters = merge(partition, sources, enriched, correspondences=correspondences)
    assert sorted(m for cluster in clusters for m in cluster.members) == sorted(all_ids)
    assert len(merged.concepts) == len(partition)


# ---------------------------------------------------------------------------
# integrate


def test_entity_count_after_integration(cm1, cm2, support_od):
    merged, _, report = integrate([cm1, cm2], support_od)
    synonym_clusters = sum(1 for cl in report.clusters if len(cl.members) == 2)
    assert synonym_clusters == 2
    assert len(merged.entities) == len(cm1.entities) + len(cm2.entities) - synonym_clusters


def test_self_integration_is_identity_up_to_ordering(cm1):
    # an empty support ontology has no opinion, so every same-term pair
    # is assumed identical and the component maps onto itself
    merged, _, report = integrate([cm1, cm1], Ontology("Od"))
    assert sorted(e.name for e in merged.entities) == sorted(
        e.name for e in cm1.entities
    )
    same_term = [c for c in report.correspondences if c.verdict == "Identical"]
    assert len(same_term) == len(cm1.entities)


def test_duplicate_id_is_renamed_past_ids_already_in_use(cm1):
    # A, A, A~2: the second A may not take A~2, which the third input holds
    a, a2 = (BusinessComponent(cid, cm1.name, cm1.entities, cm1.relations)
             for cid in ("A", "A~2"))
    _, _, report = integrate([a, a, a2], Ontology("Od"))
    assert "duplicate component id 'A' renamed to 'A~3'" in report.warnings
    owners = {member.split("#")[0] for cl in report.clusters for member in cl.members}
    assert owners == {"A", "A~2", "A~3"}


def test_self_integration_honors_declared_homonymy(cm1, support_od):
    # the support ontology says "service" is ambiguous, so the two copies
    # cannot be assumed to mean the same thing
    merged, _, report = integrate([cm1, cm1], support_od)
    verdicts = _verdicts(report.correspondences)
    assert verdicts[("CM1#service", "CM1~2#service")] == "Homonym"
    assert {"Service (CM1)", "Service (CM1~2)"} <= {e.name for e in merged.entities}


def test_rerun_on_own_outputs_is_a_fixpoint(cm1, cm2, support_od):
    merged, enriched, report = integrate([cm1, cm2], support_od)
    merged2, enriched2, report2 = integrate([merged, merged], enriched)
    assert report2.enrichments == []
    assert serialize_ontology(enriched2) == serialize_ontology(enriched)
    assert _structure(merged2) == _structure(merged)


def _equivalent_composites(cid, term, composite):
    """{term, composite ⊃ (k1, k2)} with equivalence(term, composite)."""
    return BusinessComponent(
        id=cid, name=cid.lower(),
        entities=(Entity(term), Entity(composite, components=("k1", "k2")),
                  Entity("k1"), Entity("k2")),
        relations=((term, composite, "equivalence"),),
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_case3_commit_reaches_an_earlier_case2_pair_in_one_run():
    # case 3 makes s1 ~ s2 only when (CM1#s1, CM2#s2) is scored, after
    # (CM1#a, CM2#b), whose case-2 bridge needs that synonymy
    components = [_equivalent_composites("CM1", "a", "s1"),
                  _equivalent_composites("CM2", "b", "s2")]
    od = Ontology("Od", [Concept(id=f"Od#{t}", term=t) for t in ("a", "b", "s1", "s2")])
    _, enriched, report = integrate(components, od)
    assert _verdicts(report.correspondences).get(("CM1#a", "CM2#b")) == "Synonym"
    _, _, again = integrate(components, enriched)
    assert again.enrichments == []


def _structure(component):
    return sorted(
        (e.name, tuple(e.components), tuple(e.associations)) for e in component.entities
    )


def test_contradictory_support_ontology_collides():
    left, right = make_conflicting_components()
    with pytest.raises(HomonymClusterCollision):
        integrate([left, right], make_contradictory_od())


def test_outputs_are_deterministic(cm1, cm2, support_od):
    first = integrate([cm1, cm2], support_od)
    second = integrate([make_cm1(), make_cm2()], make_support_ontology())
    assert serialize_component(first[0]) == serialize_component(second[0])
    assert serialize_ontology(first[1]) == serialize_ontology(second[1])
    assert serialize_report(first[2]) == serialize_report(second[2])


def test_report_clusters_partition_all_concepts(cm1, cm2, support_od):
    _, _, report = integrate([cm1, cm2], support_od)
    members = [m for cl in report.clusters for m in cl.members]
    assert len(members) == len(set(members)) == 5


# ---------------------------------------------------------------------------
# input order


@st.composite
def small_components(draw, component_id):
    """A component over TERM_POOL with composition, associations and relations."""
    names = draw(st.lists(terms, min_size=1, max_size=6, unique=True))
    entities = []
    for i, name in enumerate(names):
        later = names[i + 1:]  # children come later in the list, so no cycle
        children = draw(st.lists(st.sampled_from(later), unique=True, max_size=3)) if later else []
        targets = draw(st.lists(st.sampled_from(names), unique=True, max_size=1))
        entities.append(Entity(
            name=name, components=tuple(children),
            associations=tuple(Association(target, "uses") for target in targets),
        ))
    relations = []
    if len(names) >= 2 and draw(st.booleans()):
        kind = draw(st.sampled_from(["synonymy", "homonymy", "equivalence"]))
        relations.append((names[0], names[1], kind))
    return BusinessComponent(
        id=component_id, name=component_id, entities=tuple(entities), relations=tuple(relations)
    )


@st.composite
def order_inputs(draw):
    ids = ["CM1", "CM2", "CM3", "CM4"][:draw(st.integers(min_value=3, max_value=4))]
    components = [draw(small_components(cid)) for cid in ids]
    od = Ontology("Od")
    known = draw(st.lists(st.sampled_from(TERM_POOL), unique=True, min_size=2, max_size=6))
    for term in known:
        od.add_concept(Concept(id=f"Od#{term}", term=term))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["synonymy", "homonymy"]))
        od.add_relation(Relation(f"Od#{known[0]}", f"Od#{known[1]}", kind))
    if draw(st.booleans()):  # the last known term is ambiguous
        od.add_concept(Concept(id=f"Od#{known[-1]}~2", term=known[-1]))
        od.add_relation(Relation(f"Od#{known[-1]}", f"Od#{known[-1]}~2", "homonymy"))
    tau = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    return components, od, tau


def _outcome(components, od, tau):
    try:
        merged, enriched, report = integrate(components, od, tau)
    except IntegrationError as error:
        return type(error).__name__, str(error)
    return serialize_component(merged), serialize_ontology(enriched), serialize_report(report)


@settings(max_examples=60, deadline=None)
@given(order_inputs())
def test_integrate_output_does_not_depend_on_component_order(inputs):
    components, od, tau = inputs
    expected = _outcome(components, od, tau)
    for order in permutations(components):
        assert _outcome(list(order), od, tau) == expected
