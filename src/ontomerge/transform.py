"""Convert business components to ontologies and back.

Each entity becomes one concept whose id is ``<component id>#<normalized
entity name>``.  Composition children become concept children (and hence
part_of edges); declared component relations become semantic relations;
associations and attributes ride along as concept metadata so the round
trip is lossless.
"""

from __future__ import annotations

from .errors import CyclicComposition
from .model import BusinessComponent, ComponentRelation, Concept, Entity, Ontology, Relation
from .terms import name_sort_key, normalize_term

ALIAS_PREFIX = "alias: "


def concept_id(component_id: str, entity_name: str) -> str:
    return f"{component_id}#{normalize_term(entity_name)}"


def component_to_ontology(bc: BusinessComponent) -> Ontology:
    """Derive the ontology of one component.

    Deterministic: the ontology id is the component id and concept ids are
    built from normalized entity names.  Associations become no semantic
    relation; they are kept as concept metadata.  No validation walk:
    ``bc``'s constructor already checked its children and acyclicity.
    """
    ontology = Ontology(bc.id)
    for entity in bc.entities:
        ontology.add_concept(
            Concept(
                id=f"{bc.id}#{entity.key}",
                term=entity.name,
                children=tuple(concept_id(bc.id, child) for child in entity.components),
                attributes=entity.attributes,
                associations=entity.associations,
            )
        )
    for relation in bc.relations:
        ontology.add_relation(
            Relation(
                a=concept_id(bc.id, relation.a),
                b=concept_id(bc.id, relation.b),
                kind=relation.kind,
                provenance="declared",
            )
        )
    return ontology


def ontology_to_component(ontology: Ontology, name: str) -> BusinessComponent:
    """Rebuild a component from an ontology.

    Inverse of component_to_ontology on its image.  Concept aliases (from
    merging) surface as ``alias: <term>`` attribute annotations.  Raises
    CyclicComposition when part_of links form a cycle.
    """
    cycle = ontology.composition_cycle()
    if cycle:
        raise CyclicComposition("part_of cycle: " + " -> ".join(cycle))
    ontology.check_children()
    entities = []
    for concept in sorted(ontology.concepts.values(), key=lambda c: name_sort_key(c.term)):
        alias_notes = tuple(f"{ALIAS_PREFIX}{alias}" for alias in concept.aliases)
        entities.append(
            Entity(
                name=concept.term,
                attributes=concept.attributes + alias_notes,
                associations=concept.associations,
                components=tuple(
                    ontology.concepts[child].term for child in concept.children
                ),
            )
        )
    relations = tuple(
        ComponentRelation(
            a=ontology.concepts[rel.a].term,
            b=ontology.concepts[rel.b].term,
            kind=rel.kind,
        )
        for rel in ontology.relations
        if rel.kind != "part_of"
    )
    return BusinessComponent(
        id=ontology.id, name=name, entities=tuple(entities), relations=relations
    )

