"""Generate integration scenarios with known ground truth and score reports.

A scenario is two components plus a support ontology.  Conflict pairs are
planted with pronounceable nonsense tokens (unique by construction, so
ground truth stays exact): synonym pairs as two distinct terms, homonym
pairs as one shared term.  ``od_coverage`` controls how many planted
relations are declared directly in the support ontology; the rest are
withheld but made recoverable through enrichment evidence planted in the
components:

* withheld synonym pairs rotate through the three enrichment cases -
  a declared source relation, an equivalence pair with a support-ontology
  bridge, and matching composite children;
* withheld homonym pairs always use the equivalence-bridge case, the only
  one that can produce a homonymy (a single component cannot host two
  same-termed entities, and child matching never infers homonymy).

Ground truth records the expected verdict of every cross-component pair,
including those implied by the planted evidence itself.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from .errors import InfeasibleSpec, ScenarioMismatch
from .model import (
    VERDICTS,
    BusinessComponent,
    ComponentRelation,
    Concept,
    Entity,
    Ontology,
    Relation,
    Report,
    as_fraction,
    expand_correspondences,
)
from .model_io import FORMAT_VERSION, _check_version, _dumps, _expect, _get, _load_document

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one generated scenario."""

    concept_count: int
    synonym_pairs: int
    homonym_pairs: int
    od_coverage: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("concept_count", "synonym_pairs", "homonym_pairs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InfeasibleSpec(f"{name} must be a nonnegative integer, got {value!r}")
        if 2 * (self.synonym_pairs + self.homonym_pairs) > self.concept_count:
            raise InfeasibleSpec(
                "synonym_pairs + homonym_pairs may not exceed half of concept_count"
            )
        try:
            if isinstance(self.od_coverage, str):  # Fraction would parse "1/2"
                raise TypeError("od_coverage is a string")
            coverage = as_fraction(self.od_coverage)
        except (TypeError, ValueError) as exc:
            raise InfeasibleSpec(
                f"od_coverage must be a number, got {self.od_coverage!r}"
            ) from exc
        if isinstance(self.od_coverage, bool) or not 0 <= coverage <= 1:
            raise InfeasibleSpec(f"od_coverage must be in [0, 1], got {self.od_coverage!r}")
        if not isinstance(self.rng_seed, int) or isinstance(self.rng_seed, bool):
            raise InfeasibleSpec(f"rng_seed must be an integer, got {self.rng_seed!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise InfeasibleSpec("scenario spec must be a JSON object")
        unknown = sorted(set(data) - {spec_field.name for spec_field in fields(cls)})
        if unknown:
            raise InfeasibleSpec(f"scenario spec has unknown field {unknown[0]!r}")
        for spec_field in fields(cls):
            if spec_field.default is MISSING and spec_field.name not in data:
                raise InfeasibleSpec(f"scenario spec is missing field {spec_field.name!r}")
        return cls(**data)


@dataclass(frozen=True)
class PlantedRelation:
    """One ground-truth conflict relation and how it was realized."""

    t1: str
    t2: str
    kind: str                 # synonymy | homonymy
    in_od: bool
    case: Optional[int] = None  # enrichment case planted when withheld


@dataclass
class GroundTruth:
    """Expected verdict per cross-component pair, plus planting metadata."""

    verdicts: dict[tuple[str, str], str]
    planted: tuple[PlantedRelation, ...] = ()


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


def generate_scenario(
    spec: ScenarioSpec,
) -> tuple[list[BusinessComponent], Ontology, GroundTruth]:
    """Build (two components, support ontology, ground truth) from a spec.

    Deterministic in ``rng_seed``.  ``concept_count`` counts the primary
    concepts (conflict pairs plus distinct fillers); evidence scaffolding
    for withheld relations adds entities on top of that.
    """
    rng = random.Random(spec.rng_seed)
    token = _token_factory(rng)

    cm1: dict[str, Entity] = {}
    cm2: dict[str, Entity] = {}
    rel1: list[ComponentRelation] = []
    rel2: list[ComponentRelation] = []
    od_concepts: dict[str, Concept] = {}
    od_relations: list[Relation] = []
    overrides: dict[tuple[str, str], str] = {}
    planted: list[PlantedRelation] = []

    def od_concept(term: str, copy: int = 1) -> str:
        cid = f"Od#{term}" if copy == 1 else f"Od#{term}~{copy}"
        if cid not in od_concepts:
            od_concepts[cid] = Concept(id=cid, term=term)
        return cid

    synonym_terms = [(token(), token()) for _ in range(spec.synonym_pairs)]
    homonym_terms = [token() for _ in range(spec.homonym_pairs)]

    primary_count = spec.synonym_pairs + spec.homonym_pairs
    declared_count = math.floor(as_fraction(spec.od_coverage) * primary_count)
    withheld_case = 0  # rotates 1 -> 2 -> 3 over withheld synonym pairs

    for index, (a, b) in enumerate(synonym_terms):
        cm1[a] = Entity(name=a)
        cm2[b] = Entity(name=b)
        od_a, od_b = od_concept(a), od_concept(b)
        overrides[(f"CM1#{a}", f"CM2#{b}")] = "Synonym"
        if index < declared_count:
            od_relations.append(Relation(od_a, od_b, "synonymy"))
            planted.append(PlantedRelation(a, b, "synonymy", in_od=True))
            continue
        withheld_case = withheld_case % 3 + 1
        planted.append(PlantedRelation(a, b, "synonymy", in_od=False, case=withheld_case))
        if withheld_case == 1:
            # the first component hosts both terms and declares the relation
            cm1[b] = Entity(name=b)
            rel1.append(ComponentRelation(a, b, "synonymy"))
        elif withheld_case == 2:
            s1, s2 = token(), token()
            cm1[s1] = Entity(name=s1)
            cm2[s2] = Entity(name=s2)
            rel1.append(ComponentRelation(a, s1, "equivalence"))
            rel2.append(ComponentRelation(b, s2, "equivalence"))
            od_relations.append(Relation(od_concept(s1), od_concept(s2), "synonymy"))
            overrides[(f"CM1#{s1}", f"CM2#{s2}")] = "Synonym"
        else:
            k1, k2 = token(), token()
            for side in (cm1, cm2):
                side[k1] = Entity(name=k1)
                side[k2] = Entity(name=k2)
            cm1[a] = Entity(name=a, components=(k1, k2))
            cm2[b] = Entity(name=b, components=(k1, k2))

    for index, x in enumerate(homonym_terms):
        cm1[x] = Entity(name=x)
        cm2[x] = Entity(name=x)
        overrides[(f"CM1#{x}", f"CM2#{x}")] = "Homonym"
        if spec.synonym_pairs + index < declared_count:
            first, second = od_concept(x), od_concept(x, copy=2)
            od_relations.append(Relation(first, second, "homonymy"))
            planted.append(PlantedRelation(x, x, "homonymy", in_od=True))
            continue
        od_concept(x)
        planted.append(PlantedRelation(x, x, "homonymy", in_od=False, case=2))
        # Equivalents r1/r2 with a bridging homonymy declared inside the
        # first component.  The bridge terms stay out of the support
        # ontology on purpose: were they present, their cross pairs would
        # trigger case-1 injections of the scaffolding equivalences and
        # inflate the enrichment transcript.
        r1, r2 = token(), token()
        cm1[r1] = Entity(name=r1)
        cm1[r2] = Entity(name=r2)
        cm2[r2] = Entity(name=r2)
        rel1.append(ComponentRelation(x, r1, "equivalence"))
        rel1.append(ComponentRelation(r1, r2, "homonymy"))
        rel2.append(ComponentRelation(x, r2, "equivalence"))

    fillers = spec.concept_count - 2 * primary_count
    for index in range(fillers):
        side = cm1 if index % 2 == 0 else cm2
        word = token()
        side[word] = Entity(name=word)

    components = [
        BusinessComponent(
            id="CM1", name="Generated component 1",
            entities=tuple(cm1.values()), relations=tuple(rel1),
        ),
        BusinessComponent(
            id="CM2", name="Generated component 2",
            entities=tuple(cm2.values()), relations=tuple(rel2),
        ),
    ]
    od = Ontology("Od", concepts=od_concepts.values(), relations=od_relations)
    od.validate()

    verdicts: dict[tuple[str, str], str] = {}
    for e1 in components[0].entities:
        for e2 in components[1].entities:
            pair = (f"CM1#{e1.name}", f"CM2#{e2.name}")
            if pair in overrides:
                verdicts[pair] = overrides[pair]
            elif e1.name == e2.name:
                verdicts[pair] = "Identical"
            else:
                verdicts[pair] = "Distinct"
    return components, od, GroundTruth(verdicts=verdicts, planted=tuple(planted))


def evaluate(report: Report, truth: GroundTruth) -> dict:
    """Per-class precision/recall/F1 for Synonym and Homonym, plus macro F1.

    Reads every pair of the report through ``expand_correspondences``, so
    a sparse report's unlisted pairs count as Distinct.
    """
    predicted = {corr.pair: corr.verdict for corr in expand_correspondences(report)}
    if set(predicted) != set(truth.verdicts):
        missing = sorted(set(truth.verdicts) - set(predicted))[:3]
        extra = sorted(set(predicted) - set(truth.verdicts))[:3]
        raise ScenarioMismatch(
            f"report and truth cover different pairs (missing={missing}, extra={extra})"
        )
    outcomes = Counter((v, predicted[pair]) for pair, v in truth.verdicts.items())
    metrics: dict = {}
    f1_values = []
    for verdict in ("Synonym", "Homonym"):
        tp = outcomes[verdict, verdict]
        fp = sum(n for (v, p), n in outcomes.items() if p == verdict != v)
        fn = sum(n for (v, p), n in outcomes.items() if v == verdict != p)
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        metrics[verdict.lower()] = {"precision": precision, "recall": recall, "f1": f1}
        f1_values.append(f1)
    metrics["macro_f1"] = sum(f1_values) / len(f1_values)
    return metrics


# ---------------------------------------------------------------------------
# ground-truth documents


def serialize_truth(truth: GroundTruth) -> bytes:
    document = {
        "format_version": FORMAT_VERSION,
        "pairs": [
            {"c1": c1, "c2": c2, "verdict": verdict}
            for (c1, c2), verdict in sorted(truth.verdicts.items())
        ],
        "planted": [
            {
                "t1": planted.t1,
                "t2": planted.t2,
                "kind": planted.kind,
                "in_od": planted.in_od,
                "case": planted.case,
            }
            for planted in truth.planted
        ],
    }
    return _dumps(document)


def parse_truth(path) -> GroundTruth:
    """Read and validate one ground-truth document; as in ``model_io``'s
    parsers, an error names the path, the entry and the field."""
    document = _load_document(path)
    context = str(path)
    _check_version(document, context)
    verdicts: dict[tuple[str, str], str] = {}
    for index, entry in enumerate(_get(document, "pairs", list, context)):
        ectx = f"{context}: pairs[{index}]"
        _expect(isinstance(entry, dict), ectx, "pair must be an object")
        pair = (_get(entry, "c1", str, ectx), _get(entry, "c2", str, ectx))
        _expect("verdict" in entry, ectx, "missing field 'verdict'")
        verdict = entry["verdict"]
        _expect(verdict in VERDICTS, ectx, f"unknown ground-truth verdict {verdict!r}")
        _expect(pair not in verdicts, ectx, f"ground-truth pair {pair} is listed twice")
        verdicts[pair] = verdict
    planted = []
    for index, entry in enumerate(_get(document, "planted", list, context, default=[])):
        ectx = f"{context}: planted[{index}]"
        _expect(isinstance(entry, dict), ectx, "planted relation must be an object")
        kind = _get(entry, "kind", str, ectx)
        _expect(kind in ("synonymy", "homonymy"), ectx, f"unknown planted kind {kind!r}")
        _expect("in_od" in entry, ectx, "missing field 'in_od'")
        _expect(isinstance(entry["in_od"], bool), ectx, "field 'in_od' must be bool")
        planted.append(PlantedRelation(
            t1=_get(entry, "t1", str, ectx),
            t2=_get(entry, "t2", str, ectx),
            kind=kind,
            in_od=entry["in_od"],
            case=None if entry.get("case") is None else _get(entry, "case", int, ectx),
        ))
    return GroundTruth(verdicts=verdicts, planted=tuple(planted))
