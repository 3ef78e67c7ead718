"""``integrate`` against the reference pipeline of ``tests/reference.py``.

The merged component, its clusters and the warnings must equal those of
the path that built a merged ``Ontology`` and converted it back, byte for
byte; where either raises, both must raise the same class and message.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import (
    BusinessComponent,
    ComponentRelation,
    Concept,
    Correspondence,
    CyclicComposition,
    Entity,
    Evidence,
    HomonymClusterCollision,
    IntegrationError,
    Ontology,
    Relation,
    ScenarioSpec,
    generate_scenario,
    integrate,
    merge,
    serialize_component,
)
from ontomerge import model, terms
from ontomerge.integrator import MERGED_NAME

from .conftest import make_cm1, make_cm2, make_support_ontology, part_edges
from .reference import (
    _WORDS,
    component_inputs,
    ontology_to_component,
    random_component,
    reference_integrate,
    reference_merge,
    reference_sources,
)


def _outcome(run):
    """(merged component bytes, clusters, warnings), or the error's class and message."""
    try:
        component, clusters, warnings = run()
    except IntegrationError as exc:
        return type(exc), str(exc)
    return serialize_component(component), clusters, warnings


def _integrated(components, od):
    component, _, report = integrate(components, od)
    return component, report.clusters, report.warnings


def assert_matches_reference(components, od):
    outcome = _outcome(lambda: _integrated(components, od))
    assert outcome == _outcome(lambda: reference_integrate(components, od))
    return outcome


def _support(words, synonyms, homonyms) -> Ontology:
    """``words`` as support concepts, with synonymy between the ``synonyms``
    pairs and a homonym concept beside each of ``homonyms``."""
    od = Ontology("Od", [Concept(id=f"Od#{w}", term=w) for w in sorted(words)])
    for word in sorted(homonyms):
        od.add_concept(Concept(id=f"Od#{word}~2", term=word.upper()))
        od.add_relation(Relation(f"Od#{word}", f"Od#{word}~2", "homonymy"))
    for a, b in sorted({tuple(sorted(pair)) for pair in synonyms if pair[0] != pair[1]}):
        od.add_relation(Relation(f"Od#{a}", f"Od#{b}", "synonymy"))
    return od


words = st.sampled_from(_WORDS)


def _reshaped(component: BusinessComponent, capitalized, plain, doubled) -> BusinessComponent:
    """``component`` with the entities of ``capitalized`` capitalized, those of
    ``plain`` stripped of their associations and composition children, and
    those of ``doubled`` given an attribute twice and once more capitalized;
    references keep their spelling and resolve by key."""
    inputs = component_inputs(component)
    return BusinessComponent(inputs.id, inputs.name, [
        Entity(e.name.capitalize() if e.name in capitalized else e.name,
               (*e.attributes, "nom", "nom", "Nom") if e.name in doubled else e.attributes,
               () if e.name in plain else e.associations,
               () if e.name in plain else e.components)
        for e in inputs.entities
    ], inputs.relations)


@st.composite
def random_inputs(draw):
    """Two or three ``random_component``s (ids may repeat) and a support
    ontology over their vocabulary that declares synonyms and homonyms."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ids = draw(st.sampled_from([("CM1", "CM2"), ("CM2", "CM1", "CM3"), ("CM1", "CM1")]))
    capitalized = draw(st.sets(words))  # so that display order differs from key order
    plain = draw(st.sets(words))  # a part of one such member passes through merge
    doubled = draw(st.sets(words))  # merge deduplicates attributes
    components = [_reshaped(random_component(rng, cid), capitalized, plain, doubled)
                  for cid in ids]
    synonyms = draw(st.lists(st.tuples(words, words), max_size=6))
    homonyms = draw(st.sets(words, max_size=2))
    known = draw(st.sets(words, max_size=8)) | {w for pair in synonyms for w in pair} | homonyms
    return components, _support(known, synonyms, homonyms)


@settings(max_examples=150, deadline=None)
@given(random_inputs())
def test_integrate_equals_reference_on_random_components(inputs):
    assert_matches_reference(*inputs)


@settings(max_examples=150, deadline=None)
@given(random_inputs(), st.data())
def test_merge_equals_reference_on_any_partition(inputs, data):
    # any grouping of the concepts, each part given to merge as a chain of
    # Identical edges in any member order, and Homonym verdicts on any pairs,
    # even pairs that share a part.  Up to one part per concept: one-member
    # parts re-keyed by a homonym's suffix or by disambiguation (one key in two
    # parts)
    components, od = inputs
    sources, _ = reference_sources(list(map(component_inputs, components)))
    ids = sorted(cid for source in sources for cid in source.concepts)
    parts = data.draw(st.integers(1, len(ids)))
    part_of = data.draw(st.lists(st.integers(0, parts - 1), min_size=len(ids),
                                 max_size=len(ids)))
    partition = sorted(tuple(c for c, p in zip(ids, part_of) if p == part)
                       for part in range(parts) if part in part_of)
    chains = [data.draw(st.permutations(part)) for part in partition]
    homonyms = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                                  max_size=2))
    verdicts = [Correspondence(a, b, Fraction(0), "Homonym", Evidence("enriched"))
                for a, b in homonyms if a != b]

    def merged():
        warnings = []
        component, clusters = merge(sources, od, [*part_edges(chains), *verdicts], warnings)
        return component, clusters, warnings

    def reference():
        warnings = []
        merged, clusters = reference_merge(partition, sources, od, verdicts, warnings)
        return ontology_to_component(merged, name=MERGED_NAME), clusters, warnings

    got, expected = _outcome(merged), _outcome(reference)
    if any(part_of[ids.index(a)] == part_of[ids.index(b)] for a, b in homonyms if a != b):
        # both raise right after the partition is checked, before any display
        # is chosen; only the messages differ (merge's carries the chain)
        assert got[0] is expected[0] is HomonymClusterCollision
    else:
        assert got == expected


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.integers(min_value=0, max_value=1000),
)
def test_integrate_equals_reference_on_small_scenarios(count, synonyms, homonyms, coverage,
                                                        seed):
    synonyms = min(synonyms, count // 2)
    homonyms = min(homonyms, count // 2 - synonyms)
    components, od, _ = generate_scenario(ScenarioSpec(count, synonyms, homonyms, coverage,
                                                       seed))
    assert_matches_reference(components, od)


def _component(cid, entities):
    return BusinessComponent(id=cid, name=cid, entities=tuple(
        Entity(name=name, attributes=attributes, components=children)
        for name, attributes, children in entities
    ))


def _cycle_inputs():
    # each source is acyclic; the synonymies fold Dossier ⊃ Patient and
    # Malade ⊃ Fichier into two clusters that contain each other
    left = _component("CM1", [("Dossier", (), ("Patient",)), ("Patient", (), ())])
    right = _component("CM2", [("Malade", (), ("Fichier",)), ("Fichier", (), ())])
    od = _support({"dossier", "fichier", "patient", "malade"},
                  [("dossier", "fichier"), ("patient", "malade")], ())
    return [left, right], od


def _composite_inputs():
    # an aliased composite whose children merge too, listed in key order
    # ("acte" before "Malade"), and two displays that collide
    left = _component("CM1", [("Dossier", ("ref",), ("Patient", "acte")),
                              ("Patient", (), ()), ("acte", ("date",), ())])
    right = _component("CM2", [("Fichier", ("alias: X",), ("Malade", "Dossier")),
                               ("Malade", (), ()), ("Dossier", (), ())])
    od = _support({"dossier", "fichier", "patient", "malade"},
                  [("dossier", "fichier"), ("patient", "malade")], ())
    return [left, right], od


def _self_composition_inputs():
    # Dossier and its child Patient both merge with Malade: the merged
    # entity would list itself, so that link is dropped with a warning
    left = _component("CM1", [("Dossier", (), ("Patient",)), ("Patient", (), ())])
    right = _component("CM2", [("Malade", ("lit",), ())])
    od = _support({"dossier", "patient", "malade"},
                  [("dossier", "malade"), ("patient", "malade")], ())
    return [left, right], od


def _colliding_display_inputs():
    # "Service (CM1)" is a homonym display and also an entity of CM2
    left = _component("CM1", [("Service", (), ())])
    right = _component("CM2", [("Service", (), ()), ("Service (CM1)", (), ())])
    return [left, right], _support({"service"}, (), {"service"})


@pytest.mark.parametrize("inputs, expected", [
    (lambda: ([make_cm1(), make_cm2()], make_support_ontology()),
     ["Cabinet", "Service (CM1)", "Service (CM2)"]),
    (_composite_inputs, ["Dossier (CM1)", "Dossier (CM2)", "Malade", "acte"]),
    (_self_composition_inputs, ["Dossier"]),
    (_colliding_display_inputs,
     ["Service (CM1) (CM1)", "Service (CM1) (CM2)", "Service (CM2)"]),
])
def test_integrate_equals_reference_on_suffixed_aliased_and_composite_merges(inputs, expected):
    _, clusters, _ = assert_matches_reference(*inputs())
    assert sorted(cluster.term for cluster in clusters) == expected


def test_integrate_raises_the_reference_error_on_a_cycle_made_by_merging():
    assert assert_matches_reference(*_cycle_inputs()) == (
        CyclicComposition, "composition cycle: CMr#dossier -> CMr#malade -> CMr#dossier"
    )


def test_a_repeated_component_is_renamed_without_a_second_cycle_walk(monkeypatch):
    # the renamed copy keeps the entities and relations checked when the
    # component was built: the one walk with a root left is the merged
    # component's, after the renamed copy and the merged component are
    # each built empty, and so walked from no root
    walks = []
    walk = model.find_cycle

    def spy(roots, children):
        walks.append(sorted(roots))
        return walk(roots, children)

    monkeypatch.setattr(model, "find_cycle", spy)
    entities = [Entity("Dossier", components=("Patient", "acte")), Entity("Patient"),
                Entity("acte")]
    component = BusinessComponent("CM1", "CM1", entities,
                                  [ComponentRelation("Patient", "acte", "equivalence")])
    walks.clear()
    _, _, report = integrate([component, component], Ontology("Od"))
    assert walks == [[], [], ["CMr#dossier"]]
    assert "duplicate component id 'CM1' renamed to 'CM1~2'" in report.warnings
    assert report.pair_space == (("CM1#acte", "CM1#dossier", "CM1#patient"),
                                 ("CM1~2#acte", "CM1~2#dossier", "CM1~2#patient"))


def test_normalize_calls_in_integrate_are_bounded_by_new_displays_and_aliases(monkeypatch):
    # a term is normalized once, at parse (here, at generation); integrate
    # may normalize again only a display no member bears (a suffixed one);
    # merge keeps a cluster's aliases in key order, so none is sorted again
    components, od, _ = generate_scenario(ScenarioSpec(320, 8, 2, 1, 1))
    calls = []
    original = terms.normalize_term

    def counting(raw):
        calls.append(raw)
        return original(raw)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("ontomerge") and \
                getattr(module, "normalize_term", None) is original:
            monkeypatch.setattr(module, "normalize_term", counting)
    _, _, report = integrate(components, od)
    suffixed = sum(cluster.term.endswith(")") for cluster in report.clusters)
    aliases = sum(len(cluster.aliases) for cluster in report.clusters)
    assert (suffixed, aliases) == (4, 12)
    assert len(calls) <= suffixed
