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
from json.encoder import encode_basestring
from typing import Iterator, Optional

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
    pair_rows,
)
from .model_io import (FORMAT_VERSION, _check_version, _document, _expect, _field,
                       _load_document, _render, _streamed, _template)

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
    for c1 in components[0].concepts.values():
        for c2 in components[1].concepts.values():
            pair = (c1.id, c2.id)
            if pair in overrides:
                verdicts[pair] = overrides[pair]
            elif c1.term == c2.term:
                verdicts[pair] = "Identical"
            else:
                verdicts[pair] = "Distinct"
    return components, od, GroundTruth(verdicts=verdicts, planted=tuple(planted))


def evaluate(report: Report, truth: GroundTruth) -> dict:
    """Per-class precision/recall/F1 for Synonym and Homonym, plus macro F1.

    Reads every pair of the report through ``model.pair_rows``, so a
    sparse report's unlisted pairs count as Distinct.
    """
    verdicts = truth.verdicts
    outcomes: Counter = Counter()  # (truth verdict or None, predicted) -> pairs, each once
    for c1, _, partners, cells in pair_rows(report):
        outcomes.update((verdicts.get((c1, c2)), cells[k].verdict if k in cells else "Distinct")
                        for k, c2 in enumerate(partners))
    if outcomes.total() != len(verdicts) or any(v is None for v, _ in outcomes):
        predicted = {(c1, c2) for c1, _, partners, _ in pair_rows(report) for c2 in partners}
        missing = sorted(verdicts.keys() - predicted)[:3]
        extra = sorted(predicted - verdicts.keys())[:3]
        raise ScenarioMismatch(
            f"report and truth cover different pairs (missing={missing}, extra={extra})"
        )
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


def truth_chunks(truth: GroundTruth) -> Iterator[bytes]:
    """The bytes of ``serialize_truth`` in order, one pair (by c1, c2) and
    one planted relation at a time, each filled into its ``_template``."""
    pair = _template(("c1", "c2", "verdict"), "    ")
    planted = _template(("case", "in_od", "kind", "t1", "t2"), "    ")
    yield from _document({
        "format_version": FORMAT_VERSION,
        "pairs": _streamed(
            pair % (encode_basestring(c1), encode_basestring(c2), encode_basestring(verdict))
            for (c1, c2), verdict in sorted(truth.verdicts.items())),
        "planted": _streamed(
            planted % (_render(p.case, ""), _render(p.in_od, ""), encode_basestring(p.kind),
                       encode_basestring(p.t1), encode_basestring(p.t2))
            for p in truth.planted),
    })


def serialize_truth(truth: GroundTruth) -> bytes:
    return b"".join(truth_chunks(truth))


def parse_truth(path) -> GroundTruth:
    """Read and validate one ground-truth document; as in ``model_io``'s
    parsers, an error names the path, the entry and the field."""
    document = _load_document(path)
    context = str(path)
    _check_version(document, context)
    verdicts: dict[tuple[str, str], str] = {}
    for index, entry in enumerate(_field(document, "pairs", list, context)):
        at = (context, ": pairs", index)
        _expect(isinstance(entry, dict), at, "pair must be an object")
        pair = (_field(entry, "c1", str, at), _field(entry, "c2", str, at))
        _expect("verdict" in entry, at, "missing field 'verdict'")
        verdict = entry["verdict"]
        _expect(verdict in VERDICTS, at, f"unknown ground-truth verdict {verdict!r}")
        _expect(pair not in verdicts, at, f"ground-truth pair {pair} is listed twice")
        verdicts[pair] = verdict
    planted = []
    for index, entry in enumerate(_field(document, "planted", list, context, ())):
        at = (context, ": planted", index)
        _expect(isinstance(entry, dict), at, "planted relation must be an object")
        kind = _field(entry, "kind", str, at)
        _expect(kind in ("synonymy", "homonymy"), at, f"unknown planted kind {kind!r}")
        in_od = _field(entry, "in_od", bool, at)  # so errors come in order kind, in_od, t1, t2
        planted.append(PlantedRelation(
            t1=_field(entry, "t1", str, at),
            t2=_field(entry, "t2", str, at),
            kind=kind,
            in_od=in_od,
            case=None if entry.get("case") is None else _field(entry, "case", int, at),
        ))
    return GroundTruth(verdicts=verdicts, planted=tuple(planted))
