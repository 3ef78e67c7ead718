"""Per-layer tracing of one ``ontomerge`` run, applied from outside the program.

Each module of the package is a layer.  ``Tracer.install`` replaces the
public functions named in ``SPANS`` and ``COUNTS`` with wrappers, in every
loaded ``ontomerge`` module that holds a reference to them (the package
imports functions by name, so patching only the defining module would
miss most callers).  ``Tracer.restore`` puts the originals back.

Span wrappers record self time: the span's duration minus the part of it
covered by nested spans, summed per metric.  Hot leaves (called millions
of times) get a call count only, because a clock read per call would
distort the split.  A target that a refactor has removed is listed in
``Tracer.absent`` and its metrics read 0; installing never fails on it.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "ontomerge"

# (module, attribute, self-time metric, call-count metric or None).
# "Class.name" names a method.  Several targets may share one metric.
SPANS = (
    ("cli", "main", "cli.self_s", None),
    ("model_io", "parse_component", "model_io.parse_s", None),
    ("model_io", "parse_ontology", "model_io.parse_s", None),
    ("model_io", "serialize_component", "model_io.serialize_s", None),
    ("model_io", "serialize_ontology", "model_io.serialize_s", None),
    ("model_io", "serialize_report", "model_io.serialize_s", None),
    ("transform", "component_to_ontology", "transform.to_ontology_s", None),
    ("transform", "ontology_to_component", "transform.to_component_s", None),
    ("integrator", "align", "integrator.align_self_s", None),
    ("integrator", "build_clusters", "integrator.build_clusters_s", None),
    ("integrator", "merge", "integrator.merge_s", None),
    ("similarity", "semantic_similarity", "similarity.semantic_self_s", None),
    ("similarity", "syntactic_similarity", "similarity.syntactic_s",
     "similarity.syntactic_calls"),
    ("similarity", "lookup_relations", "similarity.lookup_s", "similarity.lookup_calls"),
    ("model", "Ontology.term_present", "model.term_present_s", "model.term_present_calls"),
    ("enrichment", "enrich", "enrichment.enrich_self_s", "enrichment.attempts"),
    ("matching", "max_weight_assignment", "matching.assign_s", "matching.assign_calls"),
)

COUNTS = (
    ("terms", "normalize_term", "terms.normalize_calls"),
    ("model", "find_owner", "model.find_owner_calls"),
    ("model", "Ontology.relations", "model.relations_calls"),
)

# metrics filled by result hooks below; they read 0 when their target is absent
HOOKED = (
    "integrator.pairs", "model_io.report_bytes", "matching.max_arity",
    "enrichment.hits_case1", "enrichment.hits_case2", "enrichment.hits_case3",
)


class Tracer:
    """Spans and counts for one traced run; install, run, restore, read."""

    def __init__(self, spans=SPANS, counts=COUNTS):
        self.spans = spans
        self.counts = counts
        self.values: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [0.0]  # time covered by child spans, per open span
        self._hooks = {
            "align": self._on_align,
            "serialize_report": self._on_report,
            "max_weight_assignment": self._on_assignment,
            "enrich": self._on_enrich,
        }

    # -- result hooks -------------------------------------------------------

    def _on_align(self, args, result) -> None:
        self.values["integrator.pairs"] += len(result[0])

    def _on_report(self, args, result) -> None:
        self.values["model_io.report_bytes"] += len(result)

    def _on_assignment(self, args, result) -> None:
        arity = len(args[0])
        if arity > self.values["matching.max_arity"]:
            self.values["matching.max_arity"] = arity

    def _on_enrich(self, args, result) -> None:
        if result is not None:
            case = result.injected.provenance.removeprefix("inferred_case")
            self.values[f"enrichment.hits_case{case}"] += 1

    # -- wrappers -----------------------------------------------------------

    def _span(self, function, metric, calls_metric, hook):
        stack = self._stack
        values = self.values

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                values[metric] += elapsed - stack.pop()
                stack[-1] += elapsed
                if calls_metric:
                    values[calls_metric] += 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _count(self, function, metric):
        values = self.values

        def counted(*args, **kwargs):
            values[metric] += 1
            return function(*args, **kwargs)

        return counted

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the others in ``absent``."""
        for module_name, attribute, metric, calls in self.spans:
            self._install(module_name, attribute, lambda fn, name: self._span(
                fn, metric, calls, self._hooks.get(name)))
        for module_name, attribute, metric in self.counts:
            self._install(module_name, attribute, lambda fn, name: self._count(fn, metric))

    def _install(self, module_name: str, attribute: str, wrap) -> None:
        owner, name, original = _resolve(module_name, attribute)
        if original is None:
            self.absent.append(f"{module_name}.{attribute}")
        elif isinstance(original, property):
            self._patch(owner, name, property(wrap(original.fget, name)))
        elif isinstance(owner, type):
            self._patch(owner, name, wrap(original, name))
        else:
            wrapper = wrap(original, name)
            for module in _loaded_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every span, count and hook metric, 0 where nothing was recorded."""
        names = [metric for _, _, metric, _ in self.spans]
        names += [calls for _, _, _, calls in self.spans if calls]
        names += [metric for _, _, metric in self.counts]
        names += HOOKED
        values = self.values
        out = {name: values[name] for name in dict.fromkeys(names)}
        hits = sum(values[f"enrichment.hits_case{case}"] for case in (1, 2, 3))
        attempts = values["enrichment.attempts"]
        out["enrichment.hit_ratio"] = hits / attempts if attempts else 0.0
        pairs = values["integrator.pairs"]
        out["terms.normalize_per_pair"] = values["terms.normalize_calls"] / pairs if pairs else 0.0
        return out


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, original) or (None, None, None) when absent."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None, None, None
    *classes, name = attribute.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name, None)
        if owner is None:
            return None, None, None
    original = vars(owner).get(name)
    if original is None:
        return None, None, None
    return owner, name, original


def _loaded_modules():
    return [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
