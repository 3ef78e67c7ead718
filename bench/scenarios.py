"""Seeded input scenarios for the benchmark, written as ontomerge documents.

The benchmark builds its inputs itself instead of calling the program's
own generator, so that a later change to ``ontomerge.evalgen`` cannot
shift the inputs under a before/after comparison.  Two shapes exist:

* ``planted_scenario`` follows the recipe of ``ontomerge gen``: two
  components, planted synonym pairs (distinct terms) and homonym pairs
  (one shared term), declared in the support ontology or withheld and
  made recoverable through enrichment evidence, plus distinct fillers.
* ``composite_scenario`` builds three components whose composites share
  one child vocabulary, so that scoring runs the child-matching code and
  case-3 enrichment.

Every scenario carries its ground truth, derived from the construction
alone: the expected verdict of every cross-component concept pair.  All
documents are canonical (sorted keys and lists, as the program writes
them), so a scenario is fully described by its bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

Pair = tuple[str, str]


@dataclass(frozen=True)
class Scenario:
    """Input documents (file name -> bytes) plus expected verdicts."""

    files: dict[str, bytes]
    components: tuple[str, ...]   # file names of the component documents
    ontology: str                 # file name of the support ontology
    verdicts: dict[Pair, str]


def _dumps(document: dict) -> bytes:
    return (
        json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def _token_factory(rng: random.Random):
    used: set[str] = set()

    def token() -> str:
        while True:
            word = "".join(
                rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3)
            )
            if word not in used:
                used.add(word)
                return word

    return token


def _component_doc(cid: str, name: str, entities: dict[str, tuple[str, ...]],
                   relations: list[tuple[str, str, str]]) -> bytes:
    """Component document; ``entities`` maps a name to its composition children.

    Generated terms are lowercase ASCII, so plain string order is the
    program's canonical (normalized term) order.
    """
    return _dumps({
        "format_version": 1,
        "id": cid,
        "name": name,
        "entities": [
            {"name": entity, "attributes": [], "associations": [],
             "components": sorted(children)}
            for entity, children in sorted(entities.items())
        ],
        "relations": [
            {"a": a, "b": b, "kind": kind}
            for a, b, kind in sorted((*sorted((a, b)), kind) for a, b, kind in relations)
        ],
    })


def _ontology_doc(terms: dict[str, str], relations: list[tuple[str, str, str]]) -> bytes:
    """Support ontology of atomic concepts; ``terms`` maps concept id to term."""
    return _dumps({
        "format_version": 1,
        "id": "Od",
        "concepts": [
            {"id": cid, "term": term, "children": []}
            for cid, term in sorted(terms.items())
        ],
        "relations": [
            {"a": a, "b": b, "kind": kind, "provenance": "declared"}
            for a, b, kind in sorted((*sorted((a, b)), kind) for a, b, kind in relations)
        ],
    })


def _truth_doc(verdicts: dict[Pair, str], planted: list[dict]) -> bytes:
    """Ground truth in the document shape ``ontomerge eval --truth`` reads."""
    return _dumps({
        "format_version": 1,
        "pairs": [
            {"c1": c1, "c2": c2, "verdict": verdict}
            for (c1, c2), verdict in sorted(verdicts.items())
        ],
        "planted": planted,
    })


def planted_scenario(concept_count: int, synonym_pairs: int, homonym_pairs: int,
                     od_coverage: Fraction, seed: int) -> Scenario:
    """Two components with planted synonym and homonym conflicts.

    The first ``od_coverage`` share of the planted relations is declared
    in the support ontology.  Withheld synonym pairs rotate through the
    three enrichment cases (a relation declared in one component; an
    equivalence pair on each side bridged by a support-ontology synonymy;
    equal composite children).  Withheld homonym pairs use the
    equivalence-bridge case, the only one that can yield a homonymy.
    ``concept_count`` counts planted terms plus fillers; evidence
    scaffolding comes on top.
    """
    if 2 * (synonym_pairs + homonym_pairs) > concept_count:
        raise ValueError("planted pairs may not exceed half of concept_count")
    rng = random.Random(seed)
    token = _token_factory(rng)
    cm1: dict[str, tuple[str, ...]] = {}
    cm2: dict[str, tuple[str, ...]] = {}
    rel1: list[tuple[str, str, str]] = []
    rel2: list[tuple[str, str, str]] = []
    od_terms: dict[str, str] = {}
    od_relations: list[tuple[str, str, str]] = []
    overrides: dict[Pair, str] = {}
    planted: list[dict] = []

    def od_concept(term: str, copy: int = 1) -> str:
        cid = f"Od#{term}" if copy == 1 else f"Od#{term}~{copy}"
        od_terms[cid] = term
        return cid

    def plant(t1: str, t2: str, kind: str, case) -> None:
        planted.append({"t1": t1, "t2": t2, "kind": kind,
                        "in_od": case is None, "case": case})

    synonym_terms = [(token(), token()) for _ in range(synonym_pairs)]
    homonym_terms = [token() for _ in range(homonym_pairs)]
    primary = synonym_pairs + homonym_pairs
    declared = int(Fraction(od_coverage) * primary)
    withheld_case = 0

    for index, (a, b) in enumerate(synonym_terms):
        cm1[a] = ()
        cm2[b] = ()
        od_a, od_b = od_concept(a), od_concept(b)
        overrides[(f"CM1#{a}", f"CM2#{b}")] = "Synonym"
        if index < declared:
            od_relations.append((od_a, od_b, "synonymy"))
            plant(a, b, "synonymy", None)
            continue
        withheld_case = withheld_case % 3 + 1
        plant(a, b, "synonymy", withheld_case)
        if withheld_case == 1:
            cm1[b] = ()
            rel1.append((a, b, "synonymy"))
        elif withheld_case == 2:
            s1, s2 = token(), token()
            cm1[s1] = ()
            cm2[s2] = ()
            rel1.append((a, s1, "equivalence"))
            rel2.append((b, s2, "equivalence"))
            od_relations.append((od_concept(s1), od_concept(s2), "synonymy"))
            overrides[(f"CM1#{s1}", f"CM2#{s2}")] = "Synonym"
        else:
            k1, k2 = token(), token()
            for side in (cm1, cm2):
                side[k1] = ()
                side[k2] = ()
            cm1[a] = (k1, k2)
            cm2[b] = (k1, k2)

    for index, x in enumerate(homonym_terms):
        cm1[x] = ()
        cm2[x] = ()
        overrides[(f"CM1#{x}", f"CM2#{x}")] = "Homonym"
        if synonym_pairs + index < declared:
            od_relations.append((od_concept(x), od_concept(x, copy=2), "homonymy"))
            plant(x, x, "homonymy", None)
            continue
        od_concept(x)
        plant(x, x, "homonymy", 2)
        # equivalents r1 (CM1) and r2 (both), bridged by a homonymy declared
        # in CM1; the bridge terms stay out of the support ontology
        r1, r2 = token(), token()
        cm1[r1] = ()
        cm1[r2] = ()
        cm2[r2] = ()
        rel1.append((x, r1, "equivalence"))
        rel1.append((r1, r2, "homonymy"))
        rel2.append((x, r2, "equivalence"))

    for index in range(concept_count - 2 * primary):
        (cm1 if index % 2 == 0 else cm2)[token()] = ()

    verdicts = {}
    for e1 in cm1:
        for e2 in cm2:
            pair = (f"CM1#{e1}", f"CM2#{e2}")
            verdicts[pair] = overrides.get(pair, "Identical" if e1 == e2 else "Distinct")
    return Scenario(
        files={
            "cm1.json": _component_doc("CM1", "Generated component 1", cm1, rel1),
            "cm2.json": _component_doc("CM2", "Generated component 2", cm2, rel2),
            "od.json": _ontology_doc(od_terms, od_relations),
            "truth.json": _truth_doc(verdicts, planted),
        },
        components=("cm1.json", "cm2.json"),
        ontology="od.json",
        verdicts=verdicts,
    )


# composite_wide layout: fixed, so that every seed exercises the same
# mechanisms in the same amounts; the seed picks the terms and child sets.
_COMPONENTS = ("CM1", "CM2", "CM3")
_VOCABULARY = 48             # atomic child terms, declared in every component
_SHARED_FAMILIES = 24        # composites planted in two or three components
_SINGLES = 12                # composites planted in one component each
_NARROW_ARITIES = range(2, 9)
# (arity, parent terms in the support ontology) of the wide shared families
# planted in every component.  With the terms known, case-3 enrichment is
# asked to prove the synonymy, which the child-arity cap of 8 refuses today.
_WIDE_FAMILIES = ((12, True), (10, False))
_WIDE_SINGLE_ARITY = 11
# which components host shared family i: _PRESENCE[i % 4]
_PRESENCE = ((0, 1, 2), (0, 1), (0, 2), (1, 2))


def composite_scenario(seed: int) -> Scenario:
    """Three components of composites over one shared child vocabulary.

    A *family* is one child set under a different parent term in each
    component that hosts it.  Every other shared family has its parent
    terms in the support ontology (with no relation between them), so
    case-3 enrichment must infer the synonymy; the others are left to
    syntactic matching.  Ground truth, by construction:

    * two parents of one family: Synonym when all its terms are in the
      support ontology, else Identical (equal children score 1);
    * two atomic children with one term: Identical;
    * every other pair: Distinct (child sets are unique per family, so
      two different families never score 1).
    """
    rng = random.Random(seed)
    token = _token_factory(rng)
    vocabulary = sorted(token() for _ in range(_VOCABULARY))
    child_sets: set[frozenset[str]] = set()

    def child_set(arity: int) -> tuple[str, ...]:
        while True:
            chosen = frozenset(rng.sample(vocabulary, arity))
            if chosen not in child_sets:
                child_sets.add(chosen)
                return tuple(sorted(chosen))

    # family: (children, in support ontology, {component index: parent term})
    families: list[tuple[tuple[str, ...], bool, dict[int, str]]] = []
    arities = list(_NARROW_ARITIES)
    for index in range(_SHARED_FAMILIES):
        children = child_set(arities[index % len(arities)])
        hosts = _PRESENCE[index % len(_PRESENCE)]
        families.append((children, index % 2 == 0, {host: token() for host in hosts}))
    for arity, in_od in _WIDE_FAMILIES:
        families.append((child_set(arity), in_od, {h: token() for h in range(3)}))
    for host in range(len(_COMPONENTS)):
        for index in range(_SINGLES):
            families.append((child_set(arities[index % len(arities)]), False,
                             {host: token()}))
        families.append((child_set(_WIDE_SINGLE_ARITY), False, {host: token()}))

    entities = [dict.fromkeys(vocabulary, ()) for _ in _COMPONENTS]
    family_of: dict[str, int] = {}
    od_terms: dict[str, str] = {}
    planted = []
    for number, (children, in_od, parents) in enumerate(families):
        for host, term in parents.items():
            entities[host][term] = children
            family_of[f"{_COMPONENTS[host]}#{term}"] = number
            if in_od:
                od_terms[f"Od#{term}"] = term
        if in_od:
            terms = [parents[h] for h in sorted(parents)]
            planted.extend(
                {"t1": t1, "t2": t2, "kind": "synonymy", "in_od": False, "case": 3}
                for i, t1 in enumerate(terms) for t2 in terms[i + 1:]
            )

    verdicts: dict[Pair, str] = {}
    for i, left in enumerate(_COMPONENTS):
        for j in range(i + 1, len(_COMPONENTS)):
            right = _COMPONENTS[j]
            for e1 in entities[i]:
                for e2 in entities[j]:
                    c1, c2 = f"{left}#{e1}", f"{right}#{e2}"
                    number = family_of.get(c1)
                    if number is not None and number == family_of.get(c2):
                        verdict = "Synonym" if families[number][1] else "Identical"
                    elif e1 == e2:
                        verdict = "Identical"  # atomic vocabulary term
                    else:
                        verdict = "Distinct"
                    verdicts[(c1, c2)] = verdict

    files = {
        f"{cid.lower()}.json": _component_doc(cid, f"Composite component {n + 1}",
                                              entities[n], [])
        for n, cid in enumerate(_COMPONENTS)
    }
    files["od.json"] = _ontology_doc(od_terms, [])
    files["truth.json"] = _truth_doc(verdicts, planted)
    return Scenario(
        files=files,
        components=tuple(f"{cid.lower()}.json" for cid in _COMPONENTS),
        ontology="od.json",
        verdicts=verdicts,
    )
