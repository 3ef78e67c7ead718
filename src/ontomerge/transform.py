"""Convert business components to ontologies and back.

Each entity becomes one concept whose id is ``<component id>#<normalized
entity name>``.  Composition children become concept children (and hence
part_of edges); declared component relations become semantic relations;
associations and attributes ride along as concept metadata.  The round
trip respells a composition child or relation endpoint as the name of
its entity; an association target keeps its spelling.
"""

from __future__ import annotations

from .model import BusinessComponent, ComponentRelation, Concept, Entity, Ontology, Relation
from .terms import normalize_term


def component_to_ontology(bc: BusinessComponent) -> Ontology:
    """Derive the ontology of one component.

    Deterministic: the ontology id is the component id and concept ids are
    ``<component id>#<entity key>``.  Each concept takes its entity's key;
    a reference spelled other than its entity's name is the only term
    normalized again.  Associations become no semantic relation; they are
    kept as concept metadata.  No validation walk: ``bc``'s constructor
    already checked its children and acyclicity.
    """
    key_of = {entity.name: entity.key for entity in bc.entities}

    def concept_id(reference: str) -> str:
        return f"{bc.id}#{key_of.get(reference) or normalize_term(reference)}"

    ontology = Ontology(bc.id)
    for entity in bc.entities:
        ontology.add_concept(Concept._assembled(
            entity.key, f"{bc.id}#{entity.key}", entity.name,
            tuple(map(concept_id, entity.components)), entity.attributes,
            entity.associations,
        ))
    for relation in bc.relations:  # declared, the default provenance
        a, b = concept_id(relation.a), concept_id(relation.b)
        ontology.add_relation(Relation(a, b, relation.kind))
    return ontology


def ontology_to_component(ontology: Ontology, name: str) -> BusinessComponent:
    """Rebuild a component from an ontology.

    Inverse of component_to_ontology on its image, up to the respelling
    that the module docstring states.  Entities are in
    ``BusinessComponent``'s (key, name) order.  Raises SchemaViolation at
    an unknown child, then whatever ``BusinessComponent`` raises:
    CyclicComposition when part_of links form a cycle.
    """
    ontology.check_children()
    entities = [
        Entity(
            name=concept.term,
            attributes=concept.attributes,
            associations=concept.associations,
            components=tuple(ontology.concepts[child].term for child in concept.children),
        )
        for concept in ontology.concepts.values()
    ]
    relations = tuple(
        ComponentRelation(ontology.concepts[rel.a].term, ontology.concepts[rel.b].term, rel.kind)
        for rel in ontology.semantic_relations()
    )
    return BusinessComponent(
        id=ontology.id, name=name, entities=tuple(entities), relations=relations
    )

