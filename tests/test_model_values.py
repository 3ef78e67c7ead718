"""Value semantics of the model types: equality, hashing, immutability,
order, canonical fields, construction and validation messages.

The five frozen values are NamedTuples checked in ``__new__``; the four
mutable types compare field by field and are unhashable.
"""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction

import pytest

from ontomerge import (
    Association,
    BusinessComponent,
    Cluster,
    ComponentRelation,
    Concept,
    Correspondence,
    EmptyTerm,
    EnrichmentRecord,
    Entity,
    Evidence,
    Ontology,
    Relation,
    Report,
    SchemaViolation,
)
from ontomerge.model import EVIDENCE_KINDS, PROVENANCES, RELATION_KINDS, VERDICTS

from .conftest import assert_relations_share_ids

SYNONYMY = Relation("C#a", "D#b", "synonymy")
INFERRED = Relation("C#a", "D#b", "synonymy", "inferred_case1")


def check_value(cls, kwargs: dict, other, frozen: bool):
    """``cls(**kwargs)`` against the contract that every model type keeps.

    Keyword and positional construction agree; equality needs the same type
    and equal fields; a frozen value hashes by its fields and refuses every
    assignment, a mutable one is unhashable.  Returns the value.
    """
    value = cls(**kwargs)
    assert value == cls(*kwargs.values()) and not value != cls(**kwargs)
    assert value != other and not value == other
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})(**kwargs)
    assert value != lookalike and lookalike != value
    name = next(iter(kwargs))
    if frozen:
        assert value != tuple(value) and tuple(value) != value
        assert hash(value) == hash(cls(**kwargs)) and len({value, cls(**kwargs)}) == 1
        for field in (name, "unknown_field"):
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(other, name))
        assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    return value


def raises(message: str):
    return pytest.raises(SchemaViolation, match=f"^{re.escape(message)}$")


def test_relation_value():
    kwargs = {"a": "D#b", "b": "C#a", "kind": "homonymy", "provenance": "inferred_case2"}
    relation = check_value(Relation, kwargs, SYNONYMY, frozen=True)
    assert (relation.a, relation.b) == ("C#a", "D#b")  # semantic endpoints are swapped
    assert Relation("D#b", "C#a", "part_of")[:2] == ("D#b", "C#a")  # part_of is directed
    assert Relation("C#a", "D#b", "synonymy").provenance == "declared"
    assert repr(SYNONYMY) == "Relation(a='C#a', b='D#b', kind='synonymy', provenance='declared')"
    relations = [
        INFERRED, SYNONYMY, Relation("C#a", "C#c", "part_of"),
        Relation("B#z", "C#a", "equivalence"), Relation("C#a", "D#b", "homonymy"),
    ]
    ordered = sorted(relations, key=lambda r: (r.a, r.b, r.kind, r.provenance))
    assert sorted(relations) == sorted(reversed(relations)) == ordered
    assert ordered[-2:] == [SYNONYMY, INFERRED]

    # _make and _replace construct through the checks
    assert Relation._make(["D#b", "C#a", "synonymy", "declared"]) == SYNONYMY
    assert SYNONYMY._replace(a="E#c") == Relation("D#b", "E#c", "synonymy")
    with raises("unknown relation kind 'bogus'"):
        SYNONYMY._replace(kind="bogus")
    with raises("unknown relation provenance 'guessed'"):
        Relation("C#a", "D#b", "synonymy", "guessed")
    with raises("relation may not join a concept to itself: 'C#a'"):
        SYNONYMY._replace(b="C#a")


def test_evidence_value():
    kwargs = {"kind": "od_synonymy", "relations_used": (SYNONYMY,)}
    evidence = check_value(Evidence, kwargs, Evidence("syntactic"), frozen=True)
    assert evidence.relations_used == (SYNONYMY,) and Evidence("enriched").relations_used == ()
    with raises("unknown evidence kind 'guess'"):
        Evidence("guess")
    with raises("evidence of kind 'od_homonymy' must reference at least one relation"):
        Evidence("syntactic")._replace(kind="od_homonymy")


def test_correspondence_value():
    syntactic = Evidence("syntactic")
    kwargs = {"c1": "C#a", "c2": "D#b", "score": Fraction(1, 2), "verdict": "Distinct",
              "evidence": syntactic}
    other = Correspondence("C#a", "D#b", Fraction(1), "Identical", syntactic)
    corr = check_value(Correspondence, kwargs, other, frozen=True)
    assert corr.pair == ("C#a", "D#b")
    assert Correspondence("C#a", "D#b", 0, "Distinct", syntactic).score == 0
    od = Evidence("od_synonymy", (SYNONYMY,))
    for change, message in [
        ({"verdict": "Maybe"}, "unknown verdict 'Maybe'"),
        ({"score": 0.5}, "similarity score 0.5 is not exact"),
        ({"score": Fraction(3, 2)}, "similarity score 3/2 out of [0, 1]"),
        ({"score": Fraction(-1)}, "similarity score -1 out of [0, 1]"),
        ({"verdict": "Synonym"}, "Synonym verdict requires score 1 and ontology evidence"),
        ({"verdict": "Synonym", "score": 1}, "Synonym verdict requires score 1 and ontology evidence"),
        ({"verdict": "Synonym", "evidence": od},
         "Synonym verdict requires score 1 and ontology evidence"),
        ({"verdict": "Homonym", "score": 0},
         "Homonym verdict requires score 0 and ontology evidence"),
        ({"verdict": "Identical", "evidence": od}, "Identical verdict requires syntactic evidence"),
    ]:
        with raises(message):
            corr._replace(**change)
    assert corr._replace(verdict="Synonym", score=Fraction(1), evidence=od).verdict == "Synonym"


def test_enrichment_record_value():
    kwargs = {"injected": INFERRED, "evidence": (SYNONYMY,), "pair": ("C#a", "D#b")}
    other = EnrichmentRecord(INFERRED, (), ("C#a", "D#b"))
    record = check_value(EnrichmentRecord, kwargs, other, frozen=True)
    assert record.case == "inferred_case1"
    with raises("only semantic relations can be injected, not 'part_of'"):
        record._replace(injected=Relation("C#a", "D#b", "part_of", "inferred_case3"))
    with raises("injected relation must carry inferred provenance, got 'declared'"):
        EnrichmentRecord(SYNONYMY, (), ("C#a", "D#b"))


def test_cluster_value():
    kwargs = {"term": "Service", "members": ["D#b", "C#a"], "aliases": ("b", "a", "A")}
    cluster = check_value(Cluster, kwargs, Cluster("Service", ("C#a",)), frozen=True)
    assert cluster.members == ("C#a", "D#b")
    assert cluster.aliases == ("A", "a", "b")  # normalized term, then raw
    assert Cluster("Service", ("C#a",)).aliases == ()
    with raises("cluster must have at least one member"):
        cluster._replace(members=())


def test_concept_value():
    kwargs = {"id": "C#s", "term": " Service ", "children": ("C#b", "C#a"),
              "attributes": ("z", "y"), "associations": (("C#b", "uses"), ("C#a", "uses"))}
    concept = check_value(Concept, kwargs, Concept("C#s", "Service"), frozen=False)
    assert concept.key == "service"
    assert (concept.children, concept.attributes) == (("C#a", "C#b"), ("y", "z"))
    assert concept.associations == (Association("C#a", "uses"), Association("C#b", "uses"))
    assert repr(Concept("C#a", "A")) == (
        "Concept(id='C#a', term='A', children=(), attributes=(), associations=())"
    )
    with raises("concept id must be nonempty"):
        Concept("", "Service")
    with pytest.raises(EmptyTerm):
        Concept("C#s", "  ")
    with raises("concept 'C#s' lists a duplicate child"):
        Concept("C#s", "Service", children=("C#a", "C#a"))
    with raises("concept 'C#s' lists itself as a child"):
        Concept("C#s", "Service", children=("C#s",))


def test_entity_value():
    kwargs = {"name": "Service", "attributes": ("b", "a"),
              "associations": (("Cabinet", "x"),), "components": ("cabinet", "Acte")}
    entity = check_value(Entity, kwargs, Entity("Service"), frozen=False)
    assert entity.key == "service" and entity.components == ("Acte", "cabinet")
    assert repr(Entity("A")) == "Entity(name='A', attributes=(), associations=(), components=())"
    with raises("entity 'Service' lists itself among its composition children"):
        Entity("Service", components=("SERVICE",))
    with raises("entity 'Service' lists duplicate composition child 'acte'"):
        Entity("Service", components=("Acte", "acte"))


def test_business_component_value():
    entities = (Entity("Service"), Entity("Cabinet"))
    kwargs = {"id": "CM", "name": "Clinic", "entities": entities,
              "relations": (ComponentRelation("Service", "Cabinet", "synonymy"),)}
    component = check_value(BusinessComponent, kwargs, BusinessComponent("CM", "Clinic"),
                            frozen=False)
    assert [c.term for c in component.concepts.values()] == ["Cabinet", "Service"]
    assert component.semantic_relations() == [Relation("CM#cabinet", "CM#service", "synonymy")]
    plain = Ontology("CM", component.concepts.values(), component.semantic_relations())
    assert component != plain and plain != component  # a component is no plain ontology
    assert repr(component) == "BusinessComponent(id='CM', concepts=2, relations=1)"
    with raises("component id must be nonempty"):
        BusinessComponent("", "Clinic")
    with raises("component 'CM': duplicate entity name 'service'"):
        BusinessComponent("CM", "Clinic", (Entity("Service"), Entity("service")))


def test_ontology_rejects_an_empty_id_and_a_repeated_concept_id():
    with raises("ontology id must be nonempty"):
        Ontology("")
    ontology = Ontology("Od", [Concept("Od#a", "a")])
    with raises("duplicate concept id 'Od#a' in ontology 'Od'"):
        ontology.add_concept(Concept("Od#a", "b"))
    assert list(ontology.concepts) == ["Od#a"]


def test_business_component_rejects_an_undeclared_composition_child():
    with raises("component 'CM': composition child 'Acte' of 'Service' is not a declared entity"):
        BusinessComponent("CM", "Clinic", (Entity("Service", components=("Acte",)),))


def test_report_value():
    corr = Correspondence("C#a", "D#b", Fraction(0), "Distinct", Evidence("syntactic"))
    kwargs = {"correspondences": [corr], "enrichments": [], "clusters": [],
              "warnings": ["w"], "pair_space": (("C#a",), ("D#b",))}
    report = check_value(Report, kwargs, Report(), frozen=False)
    assert report.correspondences == [corr]
    empty, other = Report(), Report()
    assert empty.warnings == [] and empty.warnings is not other.warnings
    assert repr(empty) == (
        "Report(correspondences=[], enrichments=[], clusters=[], warnings=[], pair_space=())"
    )


def _joined(text: str) -> str:
    """An equal string built at run time: a distinct object from ``text``."""
    joined = "".join([text[:1], text[1:]])
    assert joined == text and joined is not text
    return joined


def test_values_hold_the_model_constants_for_equal_strings():
    relation = Relation("C#a", "D#b", _joined("synonymy"), _joined("inferred_case2"))
    assert relation.kind is RELATION_KINDS[RELATION_KINDS.index("synonymy")]
    assert relation.provenance is PROVENANCES[PROVENANCES.index("inferred_case2")]
    evidence = Evidence(_joined("od_synonymy"), (relation,))
    assert evidence.kind is EVIDENCE_KINDS[EVIDENCE_KINDS.index("od_synonymy")]
    corr = Correspondence("C#a", "D#b", 1, _joined("Synonym"), evidence)
    assert corr.verdict is VERDICTS[VERDICTS.index("Synonym")]


@pytest.mark.parametrize("build, message", [
    (lambda: Relation("a", "b", ["synonymy"]), "unknown relation kind ['synonymy']"),
    (lambda: Relation("a", "b", "synonymy", {"declared": 1}),
     "unknown relation provenance {'declared': 1}"),
    (lambda: Correspondence("a", "b", 0, ["Distinct"], Evidence("syntactic")),
     "unknown verdict ['Distinct']"),
    (lambda: Evidence({"syntactic"}), "unknown evidence kind {'syntactic'}"),
], ids=["relation kind", "provenance", "verdict", "evidence kind"])
def test_an_unhashable_constant_is_a_schema_violation(build, message):
    with raises(message):
        build()


def test_stored_relations_and_children_hold_their_concepts_ids():
    ontology = Ontology("Od", [Concept(_joined("Od#a"), "a"), Concept(_joined("Od#b"), "b")],
                        [Relation(_joined("Od#b"), _joined("Od#a"), _joined("homonymy"))])
    assert_relations_share_ids(ontology)
    component = BusinessComponent("CM", "cm", [
        Entity("Dossier", components=("nom", "Date")), Entity("Nom"), Entity("Date"),
        Entity("Fichier"),
    ], [ComponentRelation("Fichier", "dossier", "synonymy"),
        ComponentRelation("nom", "Date", "equivalence")])
    assert_relations_share_ids(component)
    concepts = component.concepts
    assert concepts["CM#dossier"].children == ("CM#date", "CM#nom")
    assert all(child is concepts[child].id for child in concepts["CM#dossier"].children)
