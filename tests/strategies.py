"""Hypothesis strategies shared by the property tests: concept trees, and
the components, ontologies and reports that the document writers take."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from ontomerge import (
    Association,
    BusinessComponent,
    Cluster,
    ComponentRelation,
    Concept,
    Correspondence,
    EnrichmentRecord,
    Entity,
    Evidence,
    Ontology,
    Relation,
    Report,
)
from ontomerge.evalgen import GroundTruth, PlantedRelation
from ontomerge.model import PROVENANCES, RELATION_KINDS, SEMANTIC_KINDS
from ontomerge.terms import normalize_term

from .reference import ComponentInput

# Small pool so generated concepts collide on terms often.
TERM_POOL = ("alpha", "bêta", "gamma", "delta", "oméga", "sigma")

terms = st.sampled_from(TERM_POOL)

fractions01 = st.builds(
    lambda num, den: Fraction(num, den),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=6),
).filter(lambda f: 0 <= f <= 1)


@st.composite
def concept_trees(draw, max_depth: int = 2, max_children: int = 4):
    """A term tree: either a bare term or (term, [subtrees])."""
    term = draw(terms)
    if max_depth == 0 or draw(st.booleans()):
        return term
    width = draw(st.integers(min_value=1, max_value=max_children))
    children = [
        draw(concept_trees(max_depth=max_depth - 1, max_children=max_children))
        for _ in range(width)
    ]
    return (term, children)


def build_ontology(tree, ontology_id: str) -> tuple[Ontology, Concept]:
    """Materialize a term tree as an ontology; returns (ontology, root)."""
    ontology = Ontology(ontology_id)
    counter = [0]

    def add(node) -> str:
        counter[0] += 1
        cid = f"{ontology_id}#c{counter[0]}"
        if isinstance(node, tuple):
            term, subtrees = node
            children = tuple(add(sub) for sub in subtrees)
        else:
            term, children = node, ()
        ontology.add_concept(Concept(id=cid, term=term, children=children))
        return cid

    root_id = add(tree)
    return ontology, ontology.concepts[root_id]


@st.composite
def concept_pairs(draw, max_depth: int = 2, max_children: int = 4):
    """Two concepts in two ontologies, ready for similarity calls."""
    left_tree = draw(concept_trees(max_depth=max_depth, max_children=max_children))
    right_tree = draw(concept_trees(max_depth=max_depth, max_children=max_children))
    o1, c1 = build_ontology(left_tree, "L")
    o2, c2 = build_ontology(right_tree, "R")
    return c1, c2, o1, o2


@st.composite
def layered_ontologies(draw, ontology_id: str, levels: int = 3, max_width: int = 4):
    """An ontology of 1 to 5 atomic concepts over ``TERM_POOL`` and up to
    four composites on each of ``levels`` levels above them.  A composite
    holds 1 to ``max_width`` distinct concepts of the levels below, so
    composite children nest to depth ``levels``, one child sits under
    parents of several arities, two children of one composite may share a
    term and a term may name several concepts."""
    ontology = Ontology(ontology_id)
    below: list[str] = []
    for level in range(levels + 1):
        count = draw(st.integers(min_value=0 if level else 1, max_value=4 if level else 5))
        made = []
        for index in range(count):
            children = draw(st.lists(st.sampled_from(below), min_size=1, max_size=max_width,
                                     unique=True)) if level else ()
            made.append(f"{ontology_id}#{level}.{index}")
            ontology.add_concept(Concept(id=made[-1], term=draw(terms), children=children))
        below += made
    return ontology


# Ids mix the characters JSON escapes, a line separator it leaves raw, a
# formatting character and non-ASCII text; names (entity names, aliases)
# must also stay nonblank after normalization.
ids = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\u2028", "%", "é", "中", "a",
                     "#", " "]),
    min_size=1, max_size=6,
)
names = ids.filter(lambda s: s.strip())


def _relations(kinds, provenances):
    return st.tuples(ids, ids, st.sampled_from(kinds), st.sampled_from(provenances)).filter(
        lambda t: t[0] != t[1]
    ).map(lambda t: Relation(*t))


relations = _relations(RELATION_KINDS, PROVENANCES)


# (verdict, score) pairs each evidence kind admits; None draws any score.
VERDICTS_OF_KIND = {
    "syntactic": [("Distinct", None), ("Distinct", 1), ("Identical", None), ("Identical", 1)],
    "od_synonymy": [("Synonym", 1), ("Distinct", 1)],
    "enriched": [("Synonym", 1), ("Homonym", 0), ("Distinct", 1), ("Distinct", 0)],
    "od_homonymy": [("Homonym", 0), ("Distinct", 0)],
}
evidences = st.sampled_from(sorted(VERDICTS_OF_KIND)).flatmap(
    lambda kind: st.lists(
        relations, min_size=1 if kind.startswith("od_") else 0, max_size=3
    ).map(lambda used: Evidence(kind, tuple(used)))
)


@st.composite
def correspondences(draw, c1s, evidence, c2s=ids):
    chosen = draw(evidence)
    verdict, score = draw(st.sampled_from(VERDICTS_OF_KIND[chosen.kind]))
    return Correspondence(
        c1=draw(c1s), c2=draw(c2s),
        score=draw(fractions01) if score is None else Fraction(score),
        verdict=verdict, evidence=chosen,
    )


records = st.builds(
    EnrichmentRecord,
    injected=_relations(SEMANTIC_KINDS, PROVENANCES[1:]),
    evidence=st.lists(relations, max_size=3).map(tuple),
    pair=st.tuples(ids, ids),
)
clusters = st.builds(
    Cluster,
    term=ids,
    members=st.lists(ids, min_size=1, max_size=3).map(tuple),
    aliases=st.lists(names, max_size=2).map(tuple),
)


@st.composite
def reports(draw):
    """A report whose lists are already in the order the serializer writes."""
    # small pools, so one c1 and one evidence recur with other scores and verdicts
    c1s = st.sampled_from(draw(st.lists(ids, min_size=1, max_size=3)))
    shared = st.sampled_from(draw(st.lists(evidences, min_size=1, max_size=3)))
    return Report(
        correspondences=sorted(
            draw(st.lists(
                correspondences(c1s, shared), max_size=8, unique_by=lambda c: c.pair
            )),
            key=lambda c: c.pair,
        ),
        enrichments=sorted(
            draw(st.lists(records, max_size=3)), key=lambda r: (r.pair, r.injected)
        ),
        clusters=sorted(
            draw(st.lists(clusters, max_size=3)), key=lambda cl: (cl.term, cl.members)
        ),
        warnings=sorted(draw(st.lists(ids, max_size=3))),
    )


def _pairs(draw, items, max_size):
    """Distinct unordered pairs of ``items``."""
    pairs = [(a, b) for index, a in enumerate(items) for b in items[index + 1:]]
    return draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_size)) if pairs else []


@st.composite
def component_arguments(draw):
    """The ``ComponentInput`` of a valid component of up to five entities:
    associations within it, composition children among later entities, so
    none is cyclic, and declared relations on distinct pairs."""
    entity_names = draw(st.lists(names, max_size=5, unique_by=normalize_term))
    entities = []
    for index, name in enumerate(entity_names):
        later = entity_names[index + 1:]
        entities.append(Entity(
            name,
            attributes=draw(st.lists(ids, max_size=2)),
            associations=draw(st.lists(
                st.tuples(st.sampled_from(entity_names), ids), max_size=2)),
            components=draw(st.lists(st.sampled_from(later), unique=True, max_size=2))
            if later else (),
        ))
    relations = [ComponentRelation(a, b, draw(st.sampled_from(SEMANTIC_KINDS)))
                 for a, b in _pairs(draw, entity_names, 3)]
    return ComponentInput(draw(ids), draw(ids), tuple(entities), tuple(relations))


def components():
    """A valid component built from ``component_arguments``."""
    return component_arguments().map(lambda inputs: BusinessComponent(*inputs))


@st.composite
def ontologies(draw):
    """A valid ontology of up to five concepts, children among later
    concepts, attributes and associations present or not, and semantic
    relations on distinct pairs."""
    concept_ids = draw(st.lists(ids, max_size=5, unique=True))
    concepts = [
        Concept(cid, draw(names),
                children=draw(st.lists(st.sampled_from(concept_ids[index + 1:]), unique=True,
                                       max_size=2)) if index + 1 < len(concept_ids) else (),
                attributes=draw(st.lists(ids, max_size=2)),
                associations=draw(st.lists(st.builds(Association, ids, ids), max_size=2)))
        for index, cid in enumerate(concept_ids)
    ]
    relations = [Relation(a, b, draw(st.sampled_from(SEMANTIC_KINDS)),
                          draw(st.sampled_from(PROVENANCES)))
                 for a, b in _pairs(draw, concept_ids, 3)]
    return Ontology(draw(ids), concepts, relations)


# Ground-truth strings mix what JSON escapes, a line separator it leaves
# raw, a formatting character, and non-ASCII and astral characters; the
# writer takes any string, the empty one too.
_truth_text = st.text(
    st.sampled_from(['"', "\\", "\n", "\u2028", "%", "é", "中", "\U0001f600", "a"]),
    max_size=4,
)


def truths():
    """Ground truths of up to four pairs and three planted relations, each
    list possibly empty; ``case`` is None or any int."""
    planted = st.builds(PlantedRelation, _truth_text, _truth_text, _truth_text,
                        st.booleans(), st.none() | st.integers())
    return st.builds(
        GroundTruth,
        st.dictionaries(st.tuples(_truth_text, _truth_text), _truth_text, max_size=4),
        st.lists(planted, max_size=3).map(tuple),
    )
