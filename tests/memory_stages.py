"""Per-stage memory of one ``integrate`` run, stage by stage as ``cli`` runs it.

Parses the inputs, integrates them, then writes the merged component,
the enriched support ontology and the report into a temporary directory,
each streamed chunk by chunk as ``ontomerge integrate`` writes it, and
each stage's inputs dropped once no later stage reads them.  The run is
done once untraced, to warm caches and imports, then again under
``tracemalloc``; for each stage it prints the traced peak during the
stage and the size still live after it, in KiB:

    PYTHONPATH=src python tests/memory_stages.py \\
        --component fixtures/cm1.json --component fixtures/cm2.json \\
        --ontology fixtures/od.json

Stdlib only, and it reads the package through its public functions.
"""

from __future__ import annotations

import argparse
import gc
import tempfile
import tracemalloc
from pathlib import Path

from ontomerge import integrate, parse_component, parse_ontology
from ontomerge.model_io import component_chunks, ontology_chunks, report_chunks

STAGES = ("parse", "integrate", "write component", "write ontology", "write report")


def run(components: list[str], ontology: str, out: Path, mark) -> None:
    """One run, calling ``mark(stage)`` after each stage of ``STAGES``."""
    inputs = [parse_component(path) for path in components], parse_ontology(ontology)
    mark("parse")
    merged, enriched_od, report = integrate(*inputs)
    del inputs
    mark("integrate")
    writers = {"write component": component_chunks(merged),
               "write ontology": ontology_chunks(enriched_od),
               "write report": report_chunks(report)}
    del merged, enriched_od, report  # each lives on in its writer alone
    for stage in STAGES[2:]:
        with open(out / stage.replace(" ", "_"), "wb") as handle:
            handle.writelines(writers.pop(stage))
        mark(stage)


def stage_table(components: list[str], ontology: str) -> list[tuple[str, int, int]]:
    """(stage, traced peak during it, traced size live after it) in bytes, one
    row per stage of ``STAGES``, for a run after one warm-up run."""
    rows: list[tuple[str, int, int]] = []

    def mark(stage: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        rows.append((stage, peak, current))
        tracemalloc.reset_peak()

    with tempfile.TemporaryDirectory() as out:
        run(components, ontology, Path(out), lambda stage: None)
        gc.collect()
        tracemalloc.start()
        try:
            run(components, ontology, Path(out), mark)
        finally:
            tracemalloc.stop()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--component", action="append", required=True, dest="components")
    parser.add_argument("--ontology", required=True)
    args = parser.parse_args(argv)
    print(f"{'stage':<16} {'peak_kib':>10} {'live_kib':>10}")
    for stage, peak, live in stage_table(args.components, args.ontology):
        print(f"{stage:<16} {peak / 1024:>10.1f} {live / 1024:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
