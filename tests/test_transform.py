"""A component as the source ontology its constructor builds, and the
component document written from it."""

import json
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomerge import (
    Association,
    BusinessComponent,
    Concept,
    CyclicComposition,
    Entity,
    Ontology,
    Relation,
    SchemaViolation,
    align,
    merge,
    normalize_term,
    serialize_component,
)
from ontomerge import model

from .conftest import make_cm1, make_cm2, make_support_ontology, part_edges
from .reference import (
    ComponentInput,
    ontology_to_component,
    reference_component_document,
    reference_sources,
)
from .strategies import component_arguments


def test_entities_become_prefixed_concepts(cm1):
    assert set(cm1.concepts) == {"CM1#service", "CM1#compagnie"}
    assert cm1.id == "CM1"
    service = cm1.concepts["CM1#service"]
    assert (service.term, service.attributes) == ("Service", ("code", "tarif"))
    assert service.associations == (Association("Compagnie", "propose"),)


def test_composition_children_become_part_of_edges():
    component = BusinessComponent(
        id="CM3", name="dossier médical",
        entities=(
            Entity(name="Dossier", components=("PATIENT", "Traitement")),
            Entity(name="Patient"),
            Entity(name="Traitement"),
        ),
    )
    dossier = component.concepts["CM3#dossier"]
    assert dossier.children == ("CM3#patient", "CM3#traitement")
    assert [r for r in component.relations if r.kind == "part_of"] == [
        Relation("CM3#dossier", "CM3#patient", "part_of"),
        Relation("CM3#dossier", "CM3#traitement", "part_of"),
    ]
    assert component.semantic_relations() == []


def test_empty_component_gives_empty_ontology():
    component = BusinessComponent(id="CM0", name="vide")
    assert not component.concepts
    assert not component.relations


def test_concept_and_edge_counts_match(cm1, cm2):
    for component in (cm1, cm2):
        document = json.loads(serialize_component(component))
        assert len(component.concepts) == len(document["entities"])
        part_of = [r for r in component.relations if r.kind == "part_of"]
        assert len(part_of) == sum(len(e["components"]) for e in document["entities"])


def test_round_trip_preserves_component(cm1, cm2):
    for component in (cm1, cm2):
        assert ontology_to_component(component, name=component.name) == component


def test_round_trip_preserves_declared_relations():
    component = BusinessComponent(
        id="CM4", name="factures",
        entities=(Entity(name="Note d'honoraires"), Entity(name="Facture")),
        relations=(("NOTE D'HONORAIRES", "Facture", "synonymy"),),
    )
    assert component.semantic_relations() == [
        Relation("CM4#facture", "CM4#note d'honoraires", "synonymy", "declared")]
    assert ontology_to_component(component, name=component.name) == component


def test_part_of_cycle_raises_cyclic_composition():
    with pytest.raises(CyclicComposition,
                       match=r"^component 'X': composition cycle: a -> b -> a$"):
        BusinessComponent("X", "boucle", (Entity("a", components=("B",)),
                                          Entity("b", components=("a",))))


def _chain(depth: int, closed: bool = False) -> tuple[Entity, ...]:
    """Entities e0 ⊃ e1 ⊃ ... ⊃ e<depth-1>, the last containing e0 if closed."""
    last = ("e0",) if closed else ()
    return tuple(
        Entity(name=f"e{i}", components=(f"e{i + 1}",) if i + 1 < depth else last)
        for i in range(depth)
    )


def test_deep_composition_chain_round_trips():
    component = BusinessComponent(id="CM9", name="chaîne", entities=_chain(3000))
    assert component.concepts["CM9#e0"].children == ("CM9#e1",)
    assert ontology_to_component(component, name=component.name) == component


def test_deep_cycles_raise_each_callers_error():
    with pytest.raises(SchemaViolation, match=r"^component 'CM9': composition cycle: e0 -> "):
        BusinessComponent(id="CM9", name="boucle", entities=_chain(3000, closed=True))
    ontology = Ontology("X")
    for i in range(3000):
        ontology.add_concept(Concept(id=f"X#{i:04}", term=f"t{i}",
                                     children=(f"X#{(i + 1) % 3000:04}",)))
    with pytest.raises(SchemaViolation, match=r"^composition cycle: X#0000 -> X#0001 -> "):
        ontology.validate()
    with pytest.raises(CyclicComposition,
                       match=r"^component 'X': composition cycle: t0 -> t1 -> .* -> t0$"):
        ontology_to_component(ontology, name="boucle")


def test_unknown_child_is_reported_before_a_cycle():
    ontology = Ontology("X")
    ontology.add_concept(Concept(id="X#a", term="a", children=("X#b", "X#z")))
    with pytest.raises(SchemaViolation, match=r"^concept 'X#a' references unknown child 'X#b'$"):
        ontology_to_component(ontology, name="x")
    ontology.add_concept(Concept(id="X#b", term="b", children=("X#a",)))
    with pytest.raises(SchemaViolation, match=r"^concept 'X#a' references unknown child 'X#z'$"):
        ontology_to_component(ontology, name="x")
    with pytest.raises(SchemaViolation, match=r"^concept 'X#a' references unknown child 'X#z'$"):
        ontology.validate()


def _two_cycle() -> Ontology:
    return Ontology("X", [Concept(id="X#a", term="a", children=("X#b",)),
                          Concept(id="X#b", term="b", children=("X#a",))])


def _merge_into_a_cycle():
    # A#a ⊃ A#b and B#c ⊃ B#d, clustered as {a, d} and {b, c}: each contains the other
    sources = [Ontology("A", [Concept("A#a", "a", ("A#b",)), Concept("A#b", "b")]),
               Ontology("B", [Concept("B#c", "c", ("B#d",)), Concept("B#d", "d")])]
    merge(sources, Ontology("Od"), part_edges([("A#a", "B#d"), ("A#b", "B#c")]))


@pytest.mark.parametrize("close_a_cycle", [
    lambda: BusinessComponent(id="CM", name="boucle", entities=_chain(2, closed=True)),
    lambda: _two_cycle().validate(),
    _merge_into_a_cycle,
    lambda: ontology_to_component(_two_cycle(), name="boucle"),
], ids=["BusinessComponent", "Ontology.validate", "merge", "ontology_to_component"])
def test_every_cycle_check_raises_cyclic_composition(close_a_cycle):
    with pytest.raises(CyclicComposition, match="composition cycle: ") as caught:
        close_a_cycle()
    assert isinstance(caught.value, SchemaViolation)


def test_component_constructor_walks_the_composition_once(monkeypatch):
    walks = []
    walk = model.find_cycle

    def spy(roots, children):
        walks.append(sorted(roots))
        return walk(roots, children)

    monkeypatch.setattr(model, "find_cycle", spy)
    BusinessComponent(id="CM", name="arbre", entities=_chain(3))
    assert walks == [["CM#e0", "CM#e1"]]


def test_merged_scenario_yields_one_entity_per_synonym_cluster():
    sources = [make_cm1(), make_cm2()]
    correspondences, enriched, _ = align(sources, make_support_ontology())
    component, clusters = merge(sources, enriched, correspondences=correspondences)
    groups = [
        cluster for cluster in clusters
        if {"CM1#compagnie", "CM2#cabinet"} == set(cluster.members)
    ]
    assert len(groups) == 1
    assert any(c.term == groups[0].term for c in component.concepts.values())


# --- references spelled other than their entity's name -----------------------

NAMES = ("Dossier", "Prénom", "Libellé", "Agence bancaire", "Taux", "Éclair")


def _respell(name: str, how: int) -> str:
    """``name`` as a reference may spell it: same key, other characters."""
    return (
        name,
        name.upper(),
        name.swapcase(),
        f"  {name.replace(' ', '   ')} ",
        unicodedata.normalize("NFD", name),
        unicodedata.normalize("NFD", f" {name.lower()}\t"),
    )[how]


spellings = st.integers(min_value=0, max_value=5)


@st.composite
def respelled_components(draw):
    """The ``ComponentInput`` of a valid component whose references respell
    the entity names."""
    count = draw(st.integers(min_value=1, max_value=len(NAMES)))
    names = NAMES[:count]
    entities = []
    for i, name in enumerate(names):
        later = draw(st.sets(st.sampled_from(names[i + 1:]))) if i + 1 < count else set()
        targets = draw(st.lists(st.sampled_from(names), max_size=2))
        entities.append(Entity(
            name=name,
            components=tuple(_respell(child, draw(spellings)) for child in sorted(later)),
            associations=tuple(
                (_respell(target, draw(spellings)), f"lien{k}")
                for k, target in enumerate(targets)
            ),
        ))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    kinds = draw(st.lists(st.sampled_from(("synonymy", "homonymy", "equivalence")),
                          min_size=len(pairs), max_size=len(pairs)))
    relations = [
        (_respell(a, draw(spellings)), _respell(b, draw(spellings)), kind)
        for (a, b), kind, keep in zip(pairs, kinds, draw(st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs))))
        if keep
    ]
    return ComponentInput("CMx", "respelled", tuple(entities), tuple(relations))


@settings(max_examples=80, deadline=None)
@given(respelled_components())
def test_respelled_references_convert_like_the_naive_builder(inputs):
    (naive,), _ = reference_sources([inputs])
    component = BusinessComponent(*inputs)
    assert component.concepts == naive.concepts
    assert component.semantic_relations() == naive.semantic_relations()


def _spelled_as_entities(inputs: ComponentInput) -> ComponentInput:
    """``inputs`` with each child and relation endpoint spelled as the entity
    it names; association targets as they are."""
    name_of = {entity.key: entity.name for entity in inputs.entities}

    def name(reference: str) -> str:
        return name_of[normalize_term(reference)]

    return inputs._replace(
        entities=tuple(Entity(name=e.name, attributes=e.attributes,
                              associations=e.associations,
                              components=tuple(map(name, e.components)))
                       for e in inputs.entities),
        relations=tuple((name(a), name(b), kind) for a, b, kind in inputs.relations),
    )


_RESPELLED = ComponentInput(
    "CMx", "respelled",
    (Entity(name="Dossier", associations=(("TAUX ", "lien0"),)),
     Entity(name="Taux", components=("DOSSIER",))),
    (("taux", "DOSSIER", "synonymy"),),
)


@settings(max_examples=80, deadline=None)
@given(respelled_components())
@example(_RESPELLED)
def test_round_trip_respells_children_and_endpoints_only(inputs):
    component = BusinessComponent(*inputs)
    assert component == BusinessComponent(*_spelled_as_entities(inputs))
    assert ontology_to_component(component, name=inputs.name) == component


@settings(max_examples=150, deadline=None)
@given(respelled_components() | component_arguments())
@example(_RESPELLED)
@example(ComponentInput("C", "c"))
def test_component_chunks_match_the_entity_layout_oracle(inputs):
    written = serialize_component(BusinessComponent(*inputs)).decode("utf-8")
    assert written == reference_component_document(inputs)


def test_respelled_references_are_written_as_their_entities():
    document = json.loads(serialize_component(BusinessComponent(*_RESPELLED)))
    assert document["entities"] == [
        {"name": "Dossier", "attributes": [], "components": [],
         "associations": [{"target": "TAUX ", "label": "lien0"}]},
        {"name": "Taux", "attributes": [], "components": ["Dossier"], "associations": []},
    ]
    assert document["relations"] == [{"a": "Dossier", "b": "Taux", "kind": "synonymy"}]



# --- declared relations, checked by Ontology.add_relation -------------------


@st.composite
def relation_lists(draw):
    """Components of ``NAMES`` entities, children among later ones, whose
    relation lists may break any rule: reversed duplicates, self relations,
    synonymy beside homonymy on one pair, kinds that are not semantic or no
    kind at all, undeclared endpoints, and respelled endpoints."""
    count = draw(st.integers(min_value=2, max_value=5))
    names = NAMES[:count]
    entities = tuple(
        Entity(name=name, components=draw(st.sets(st.sampled_from(names[i + 1:])))
               if i + 1 < count else ())
        for i, name in enumerate(names)
    )
    ends = (*names, "Inconnu")
    pairs = sorted(((a, b) for a in ends for b in ends),  # valid pairs first
                   key=lambda pair: (pair[0] == pair[1], "Inconnu" in pair))
    kinds = (*model.SEMANTIC_KINDS * 3, "part_of", "parenté")
    relations = [
        (_respell(a, draw(spellings)), _respell(b, draw(spellings)), kind)
        for (a, b), kind in draw(st.lists(st.tuples(st.sampled_from(pairs),
                                                    st.sampled_from(kinds)), max_size=4))
    ]
    if relations and draw(st.booleans()):  # one pair again, reversed
        a, b, kind = draw(st.sampled_from(relations))
        kind = draw(st.sampled_from((kind, "synonymy", "homonymy")))
        relations.insert(draw(st.integers(0, len(relations))), (b, a, kind))
    return ComponentInput("CMr", "relations", entities, tuple(relations))


@settings(max_examples=300, deadline=None)
@given(relation_lists())
@example(ComponentInput("CMr", "relations", (Entity("Dossier", components=("Taux",)),
                                             Entity("Taux")), (("Dossier", "Taux", "part_of"),)))
def test_component_relation_rules_are_the_ontology_rules(inputs):
    keys = {entity.key for entity in inputs.entities}
    own_rule_fails = any(  # the rules that only a component has
        kind not in model.SEMANTIC_KINDS or not {normalize_term(a), normalize_term(b)} <= keys
        for a, b, kind in inputs.relations
    )
    try:
        (expected,), _ = reference_sources([inputs])
    except SchemaViolation as exc:
        expected = exc
    if own_rule_fails or isinstance(expected, SchemaViolation):
        with pytest.raises(SchemaViolation) as caught:
            BusinessComponent(*inputs)
        assert str(caught.value).startswith("component 'CMr': ")
        if not own_rule_fails:  # the first bad relation fails the same check
            assert str(caught.value) == f"component 'CMr': {expected}"
    else:
        assert BusinessComponent(*inputs).semantic_relations() == expected.semantic_relations()


@pytest.mark.parametrize("relations, message", [
    ([("a", "A ", "synonymy")], "relation may not join a concept to itself: 'CM#a'"),
    ([("a", "b", "synonymy"), ("B", "a", "synonymy")],
     "duplicate synonymy relation between 'CM#a' and 'CM#b'"),
    ([("b", "a", "homonymy"), ("a", "b", "synonymy")],
     "concept pair ('CM#a', 'CM#b') cannot carry both synonymy and homonymy"),
    ([("c", "b", "homonymy"), ("b", "c", "homonymy"), ("a", "b", "part_of")],
     "duplicate homonymy relation between 'CM#b' and 'CM#c'"),  # the first in input order
    ([("b", "c", "part_of"), ("a", "a", "synonymy")],  # a composition link all the same
     "relation kind 'part_of' is not one of ('equivalence', 'homonymy', 'synonymy')"),
])
def test_component_relation_errors_name_concept_ids(relations, message):
    entities = (Entity("a"), Entity("b", components=("c",)), Entity("c"))
    with pytest.raises(SchemaViolation) as caught:
        BusinessComponent("CM", "c", entities, relations)
    assert str(caught.value) == f"component 'CM': {message}"

# --- cycle walks rooted at composites ---------------------------------------


@st.composite
def digraphs(draw):
    """Node ids X#0..X#n-1 and, per node, children among them or unknown ids."""
    n = draw(st.integers(min_value=1, max_value=9))
    ids = [f"X#{i}" for i in range(n)]
    edges = {}
    for node in ids:
        others = [other for other in ids if other != node] + ["X#unknown"]
        edges[node] = draw(st.sets(st.sampled_from(others), max_size=3)) if draw(
            st.booleans()) else set()
    return edges


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_composite_rooted_walks_find_the_all_roots_cycle(edges):
    ontology = Ontology("X", [Concept(id=node, term=node[2:] or "t", children=tuple(kids))
                              for node, kids in edges.items()])

    def children(node):
        return [c for c in ontology.concepts[node].children if c in ontology.concepts]

    oracle = model.find_cycle(sorted(ontology.concepts), children)
    assert ontology.composition_cycle() == oracle

    entities = tuple(  # the same graph as a component, unknown children dropped
        Entity(name=f"e{node[2:]}", components=tuple(
            f"e{kid[2:]}" for kid in sorted(kids) if kid in edges))
        for node, kids in edges.items()
    )
    keys = {f"e{node[2:]}": [f"e{kid[2:]}" for kid in sorted(kids) if kid in edges]
            for node, kids in edges.items()}
    expected = model.find_cycle(sorted(keys), keys.__getitem__)
    if expected is None:
        BusinessComponent(id="CM", name="graphe", entities=entities)
    else:
        with pytest.raises(SchemaViolation) as caught:
            BusinessComponent(id="CM", name="graphe", entities=entities)
        assert str(caught.value) == "component 'CM': composition cycle: " + " -> ".join(expected)


def test_all_atomic_walks_call_no_children_function(monkeypatch):
    calls = []
    walk = model.find_cycle

    def spy(roots, children):
        calls.append("walk")
        return walk(roots, lambda node: calls.append(node) or children(node))

    monkeypatch.setattr(model, "find_cycle", spy)
    ontology = Ontology("X", [Concept(id=f"X#{i}", term=f"t{i}") for i in range(40)])
    assert ontology.composition_cycle() is None
    assert calls == ["walk"]  # walked from no root, so no children were listed
    BusinessComponent(id="CM", name="plat", entities=tuple(Entity(f"t{i}") for i in range(40)))
    assert calls == ["walk", "walk"]  # nor for a component without composites

    # C composites over 40 atoms, each holding every C-th atom and the next
    # composite: a walk lists the children of composites only, at most C times
    composites = 3
    holds = {f"k{j}": [f"t{i}" for i in range(j, 40, composites)]
             + ([f"k{j + 1}"] if j + 1 < composites else []) for j in range(composites)}
    calls.clear()
    Ontology("X", [*(Concept(id=f"X#t{i}", term=f"t{i}") for i in range(40)),
                   *(Concept(id=f"X#{k}", term=k, children=[f"X#{c}" for c in held])
                     for k, held in holds.items())]).validate()
    BusinessComponent(id="CM", name="mixte", entities=(
        *(Entity(f"t{i}") for i in range(40)),
        *(Entity(k, components=tuple(held)) for k, held in holds.items())))
    walks = []  # the nodes each walk listed the children of
    for call in calls:
        if call == "walk":
            walks.append([])
        else:
            walks[-1].append(call)
    assert len(walks) == 2
    assert all(0 < len(listed) <= composites for listed in walks)
