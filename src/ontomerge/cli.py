"""Command-line front end for the integration pipeline.

Subcommands: ``integrate`` (full pipeline), ``align`` (the same pipeline,
writing the report and optionally the enriched ontology but no merged
component), ``gen`` (synthetic scenario), ``eval`` (score a report
against ground truth), ``export-dot`` (ontology inspection graph).

Exit codes: 0 success, 1 usage error, 2 parse/schema error,
3 homonym-cluster collision, 4 internal invariant violation.  Output
files are written to temporaries and renamed at the end, so a nonzero
exit never leaves a partial output behind; the report is streamed into
its temporary one row at a time.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import model_io
from .errors import HomonymClusterCollision, IntegrationError
from .integrator import integrate
from .model import Report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_COLLISION = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


def _tau(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"--tau must be in (0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ontomerge", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    integrate_cmd = commands.add_parser(
        "integrate", help="integrate components into one, resolving naming conflicts"
    )
    _add_input_flags(integrate_cmd)
    integrate_cmd.add_argument("--out-component", required=True, metavar="PATH",
                               help="where to write the merged component")
    integrate_cmd.add_argument("--out-ontology", required=True, metavar="PATH",
                               help="where to write the enriched support ontology")
    integrate_cmd.add_argument("--report", required=True, metavar="PATH",
                               help="where to write the conflict report")

    align_cmd = commands.add_parser(
        "align", help="run the pipeline but write no merged component"
    )
    _add_input_flags(align_cmd)
    align_cmd.add_argument("--report", required=True, metavar="PATH")
    align_cmd.add_argument("--out-ontology", metavar="PATH",
                           help="optionally write the enriched support ontology")
    align_cmd.set_defaults(out_component=None)

    gen_cmd = commands.add_parser("gen", help="generate a synthetic scenario")
    gen_cmd.add_argument("--out-dir", required=True, metavar="DIR")
    gen_cmd.add_argument("--spec", metavar="PATH",
                         help="scenario spec as JSON (overrides the count flags)")
    gen_cmd.add_argument("--concepts", type=int, default=20)
    gen_cmd.add_argument("--synonym-pairs", type=int, default=4)
    gen_cmd.add_argument("--homonym-pairs", type=int, default=2)
    gen_cmd.add_argument("--od-coverage", type=float, default=1.0)
    gen_cmd.add_argument("--seed", type=int, default=0)

    eval_cmd = commands.add_parser("eval", help="score a report against ground truth")
    eval_cmd.add_argument("--report", required=True, metavar="PATH")
    eval_cmd.add_argument("--truth", required=True, metavar="PATH")
    eval_cmd.add_argument("--out", metavar="PATH", help="write metrics JSON here "
                          "instead of stdout")

    dot_cmd = commands.add_parser("export-dot", help="render an ontology as DOT")
    dot_cmd.add_argument("--ontology", required=True, metavar="PATH")
    dot_cmd.add_argument("--out", metavar="PATH", help="write the graph here "
                         "instead of stdout")
    return parser


def _add_input_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--component", action="append", required=True, metavar="PATH",
                     dest="components", help="component document (give at least twice)")
    cmd.add_argument("--ontology", required=True, metavar="PATH",
                     help="support (domain) ontology document")
    cmd.add_argument("--tau", type=_tau, default=Fraction(1),
                     help="verdict threshold for composite scores (default 1)")


def _write_outputs(outputs: dict[str, Iterable[bytes]]) -> None:
    """Write all files, or none: check the targets, stream each output's
    chunks into a temporary, then rename.  Any exception, a chunk
    iterator's too, removes the temporaries and propagates unchanged."""
    for path in outputs:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path}")
    staged: list[tuple[str, str]] = []
    try:
        for path, chunks in outputs.items():
            temp = f"{path}.tmp.{os.getpid()}"
            staged.append((temp, path))
            with open(temp, "wb") as handle:
                handle.writelines(chunks)
        while staged:
            os.replace(*staged[-1])
            staged.pop()  # renamed: no temporary left to remove
    except BaseException:
        for temp, _ in staged:
            try:
                os.unlink(temp)
            except OSError:
                pass
        raise


def _distinct_outputs(paths: Sequence[str]) -> None:
    resolved = [os.path.realpath(p) for p in paths]
    if len(set(resolved)) != len(resolved):
        raise _UsageError(f"output paths must be distinct, got {sorted(resolved)}")


def _load_inputs(args):
    if len(args.components) < 2:
        raise _UsageError("give --component at least twice")
    components = [model_io.parse_component(path) for path in args.components]
    od = model_io.parse_ontology(args.ontology)
    return components, od


def _cmd_integrate(args) -> int:
    """Run ``integrate``, or ``align``: no --out-component, optional --out-ontology."""
    _distinct_outputs([p for p in (args.out_component, args.out_ontology, args.report) if p])
    components, od = _load_inputs(args)
    merged, enriched_od, report = integrate(components, od, tau=args.tau)
    outputs = {}
    if args.out_component:
        outputs[args.out_component] = [model_io.serialize_component(merged)]
    if args.out_ontology:
        outputs[args.out_ontology] = [model_io.serialize_ontology(enriched_od)]
    outputs[args.report] = model_io.report_chunks(report)
    _write_outputs(outputs)
    return EXIT_OK


def _cmd_gen(args) -> int:
    from . import evalgen  # imported here, so that integrate never loads it

    if args.spec:
        spec = evalgen.ScenarioSpec.from_dict(model_io._load_document(args.spec))
    else:
        spec = evalgen.ScenarioSpec(
            concept_count=args.concepts,
            synonym_pairs=args.synonym_pairs,
            homonym_pairs=args.homonym_pairs,
            od_coverage=args.od_coverage,
            rng_seed=args.seed,
        )
    components, od, truth = evalgen.generate_scenario(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_outputs(
        {
            str(out / "cm1.json"): [model_io.serialize_component(components[0])],
            str(out / "cm2.json"): [model_io.serialize_component(components[1])],
            str(out / "od.json"): [model_io.serialize_ontology(od)],
            str(out / "truth.json"): [evalgen.serialize_truth(truth)],
        }
    )
    print(f"wrote cm1.json, cm2.json, od.json, truth.json to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import evalgen

    report: Report = model_io.parse_report(args.report)
    truth = evalgen.parse_truth(args.truth)
    return _write_or_print(args.out, model_io._dumps(evalgen.evaluate(report, truth)))


def _cmd_export_dot(args) -> int:
    return _write_or_print(args.out, model_io.export_dot(model_io.parse_ontology(args.ontology)))


def _write_or_print(path: Optional[str], payload: bytes) -> int:
    """Write ``payload`` to ``path``, or to standard output when it is None."""
    if path:
        _write_outputs({path: [payload]})
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return EXIT_OK


_HANDLERS = {
    "integrate": _cmd_integrate,
    "align": _cmd_integrate,
    "gen": _cmd_gen,
    "eval": _cmd_eval,
    "export-dot": _cmd_export_dot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HomonymClusterCollision as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except IntegrationError as exc:  # parse, schema and spec errors alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        # input read failures surface as MalformedFile; what is left is a
        # bad output location, which is the caller's mistake
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - surfaced as internal error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
