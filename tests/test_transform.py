"""Component <-> ontology conversion."""

import pytest

from ontomerge import (
    BusinessComponent,
    Concept,
    CyclicComposition,
    Entity,
    Ontology,
    SchemaViolation,
    build_clusters,
    align,
    component_to_ontology,
    merge,
    ontology_to_component,
)

from .conftest import make_cm1, make_cm2, make_support_ontology


def test_entities_become_prefixed_concepts(cm1):
    ontology = component_to_ontology(cm1)
    assert set(ontology.concepts) == {"CM1#service", "CM1#compagnie"}
    assert ontology.id == "CM1"


def test_composition_children_become_part_of_edges():
    component = BusinessComponent(
        id="CM3", name="dossier médical",
        entities=(
            Entity(name="Dossier", components=("Patient", "Traitement")),
            Entity(name="Patient"),
            Entity(name="Traitement"),
        ),
    )
    ontology = component_to_ontology(component)
    dossier = ontology.concepts["CM3#dossier"]
    assert dossier.children == ("CM3#patient", "CM3#traitement")
    part_of = [r for r in ontology.relations if r.kind == "part_of"]
    assert len(part_of) == 2


def test_empty_component_gives_empty_ontology():
    ontology = component_to_ontology(BusinessComponent(id="CM0", name="vide"))
    assert not ontology.concepts
    assert not ontology.relations


def test_concept_and_edge_counts_match(cm1, cm2):
    for component in (cm1, cm2):
        ontology = component_to_ontology(component)
        assert len(ontology.concepts) == len(component.entities)
        part_of = [r for r in ontology.relations if r.kind == "part_of"]
        assert len(part_of) == sum(len(e.components) for e in component.entities)


def test_round_trip_preserves_component(cm1, cm2):
    for component in (cm1, cm2):
        ontology = component_to_ontology(component)
        assert ontology_to_component(ontology, name=component.name) == component


def test_round_trip_preserves_declared_relations():
    component = BusinessComponent(
        id="CM4", name="factures",
        entities=(Entity(name="Facture"), Entity(name="Note d'honoraires")),
        relations=(("Facture", "Note d'honoraires", "synonymy"),),
    )
    ontology = component_to_ontology(component)
    assert any(r.kind == "synonymy" for r in ontology.relations)
    assert ontology_to_component(ontology, name=component.name) == component


def test_part_of_cycle_raises_cyclic_composition():
    ontology = Ontology("X")
    ontology.add_concept(Concept(id="X#a", term="a", children=("X#b",)))
    ontology.add_concept(Concept(id="X#b", term="b", children=("X#a",)))
    with pytest.raises(CyclicComposition):
        ontology_to_component(ontology, name="boucle")


def _chain(depth: int, closed: bool = False) -> tuple[Entity, ...]:
    """Entities e0 ⊃ e1 ⊃ ... ⊃ e<depth-1>, the last containing e0 if closed."""
    last = ("e0",) if closed else ()
    return tuple(
        Entity(name=f"e{i}", components=(f"e{i + 1}",) if i + 1 < depth else last)
        for i in range(depth)
    )


def test_deep_composition_chain_round_trips():
    component = BusinessComponent(id="CM9", name="chaîne", entities=_chain(3000))
    ontology = component_to_ontology(component)
    assert ontology.concepts["CM9#e0"].children == ("CM9#e1",)
    assert ontology_to_component(ontology, name=component.name) == component


def test_deep_cycles_raise_each_callers_error():
    with pytest.raises(SchemaViolation, match=r"^component 'CM9': composition cycle: e0 -> "):
        BusinessComponent(id="CM9", name="boucle", entities=_chain(3000, closed=True))
    ontology = Ontology("X")
    for i in range(3000):
        ontology.add_concept(Concept(id=f"X#{i:04}", term=f"t{i}",
                                     children=(f"X#{(i + 1) % 3000:04}",)))
    with pytest.raises(SchemaViolation, match=r"^composition cycle: X#0000 -> X#0001 -> "):
        ontology.validate()
    with pytest.raises(CyclicComposition, match=r"^part_of cycle: X#0000 -> .* -> X#0000$"):
        ontology_to_component(ontology, name="boucle")


def test_unknown_child_is_reported_after_a_cycle():
    ontology = Ontology("X")
    ontology.add_concept(Concept(id="X#a", term="a", children=("X#b", "X#z")))
    with pytest.raises(SchemaViolation, match=r"^concept 'X#a' references unknown child 'X#b'$"):
        ontology_to_component(ontology, name="x")
    ontology.add_concept(Concept(id="X#b", term="b", children=("X#a",)))
    with pytest.raises(CyclicComposition, match=r"^part_of cycle: X#a -> X#b -> X#a$"):
        ontology_to_component(ontology, name="x")
    with pytest.raises(SchemaViolation, match=r"^concept 'X#a' references unknown child 'X#z'$"):
        ontology.validate()


def test_merged_scenario_yields_one_entity_per_synonym_cluster():
    cm1, cm2 = make_cm1(), make_cm2()
    od = make_support_ontology()
    sources = [component_to_ontology(cm1), component_to_ontology(cm2)]
    correspondences, enriched, _ = align(sources, od)
    partition = build_clusters(
        correspondences, [cid for s in sources for cid in s.concepts]
    )
    merged, clusters = merge(partition, sources, enriched, correspondences=correspondences)
    component = ontology_to_component(merged, name="résultat")
    groups = [
        cluster for cluster in clusters
        if {"CM1#compagnie", "CM2#cabinet"} == set(cluster.members)
    ]
    assert len(groups) == 1
    assert any(e.name == groups[0].term for e in component.entities)
