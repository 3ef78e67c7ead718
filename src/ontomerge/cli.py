"""Command-line front end for the integration pipeline.

Subcommands: ``integrate`` (full pipeline), ``align`` (the same pipeline,
writing the report and optionally the enriched ontology but no merged
component), ``gen`` (synthetic scenario), ``eval`` (score a report
against ground truth), ``export-dot`` (ontology inspection graph).
Each ``main`` call builds its parser anew, with the arguments of the
command that ``argv`` names first and of no other; help texts, usage
errors and exit codes are those of the parser of every command.

Exit codes: 0 success, 1 usage error, 2 parse/schema error,
3 homonym-cluster collision, 4 internal invariant violation.  Output
files are written to temporaries and renamed at the end, so a nonzero
exit never leaves a partial output behind.  Each output is streamed into
its temporary record by record and released after: ``integrate`` keeps
neither its inputs nor its results past the output that needs them.
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


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The ``ontomerge`` parser.  When ``argv`` starts with a command name,
    argparse hands all that follows to that command's parser, so the other
    commands are left out; otherwise every command is built."""
    parser = _Parser(prog="ontomerge", description=__doc__.splitlines()[0])
    named = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    commands = parser.add_subparsers(
        dest="command", required=True,
        # keeps every command in the usage line; only errors about the command
        # argument, which need all commands built, would show the metavar
        metavar="{" + ",".join(_COMMANDS) + "}" if len(named) == 1 else None,
    )
    for name in named:
        summary, add_arguments, _ = _COMMANDS[name]
        add_arguments(commands.add_parser(name, help=summary))
    return parser


def _add_input_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--component", action="append", required=True, metavar="PATH",
                     dest="components", help="component document (give at least twice)")
    cmd.add_argument("--ontology", required=True, metavar="PATH",
                     help="support (domain) ontology document")
    cmd.add_argument("--tau", type=_tau, default=Fraction(1),
                     help="verdict threshold for composite scores (default 1)")


def _integrate_arguments(cmd: argparse.ArgumentParser) -> None:
    _add_input_flags(cmd)
    cmd.add_argument("--out-component", required=True, metavar="PATH",
                     help="where to write the merged component")
    cmd.add_argument("--out-ontology", required=True, metavar="PATH",
                     help="where to write the enriched support ontology")
    cmd.add_argument("--report", required=True, metavar="PATH",
                     help="where to write the conflict report")


def _align_arguments(cmd: argparse.ArgumentParser) -> None:
    _add_input_flags(cmd)
    cmd.add_argument("--report", required=True, metavar="PATH")
    cmd.add_argument("--out-ontology", metavar="PATH",
                     help="optionally write the enriched support ontology")
    cmd.set_defaults(out_component=None)


def _gen_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--out-dir", required=True, metavar="DIR")
    cmd.add_argument("--spec", metavar="PATH",
                     help="scenario spec as JSON (overrides the count flags)")
    cmd.add_argument("--concepts", type=int, default=20)
    cmd.add_argument("--synonym-pairs", type=int, default=4)
    cmd.add_argument("--homonym-pairs", type=int, default=2)
    cmd.add_argument("--od-coverage", type=float, default=1.0)
    cmd.add_argument("--seed", type=int, default=0)


def _eval_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--report", required=True, metavar="PATH")
    cmd.add_argument("--truth", required=True, metavar="PATH")
    cmd.add_argument("--out", metavar="PATH", help="write metrics JSON here "
                     "instead of stdout")


def _export_dot_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--ontology", required=True, metavar="PATH")
    cmd.add_argument("--out", metavar="PATH", help="write the graph here "
                     "instead of stdout")


def _write_outputs(outputs: dict[str, Iterable[bytes]]) -> None:
    """Write all files, or none: check the targets, stream each output's
    chunks into a temporary, then rename.  Each iterable is taken out of
    ``outputs`` when its turn comes and dropped once its temporary is
    written, so a lazy one holds what it renders no longer than that.  Any
    exception, a chunk iterator's too, removes the temporaries and
    propagates unchanged."""
    for path in outputs:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path is a directory: {path}")
    staged: list[tuple[str, str]] = []
    try:
        for path in list(outputs):
            temp = f"{path}.tmp.{os.getpid()}"
            staged.append((temp, path))
            with open(temp, "wb") as handle:
                handle.writelines(outputs.pop(path))
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


def _integrated(args) -> dict[str, Iterable[bytes]]:
    """``integrate``'s outputs by path, each streamed record by record when
    it is written.  Returning drops the inputs and results: each lives on
    only in the chunk iterator of the output that renders it."""
    merged, enriched_od, report = integrate(*_load_inputs(args), tau=args.tau)
    outputs = {}
    if args.out_component:
        outputs[args.out_component] = model_io.component_chunks(merged)
    if args.out_ontology:
        outputs[args.out_ontology] = model_io.ontology_chunks(enriched_od)
    outputs[args.report] = model_io.report_chunks(report)
    return outputs


def _cmd_integrate(args) -> int:
    """Run ``integrate``, or ``align``: no --out-component, optional --out-ontology."""
    _distinct_outputs([p for p in (args.out_component, args.out_ontology, args.report) if p])
    _write_outputs(_integrated(args))
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
    _write_outputs({
        str(out / "cm1.json"): model_io.component_chunks(components[0]),
        str(out / "cm2.json"): model_io.component_chunks(components[1]),
        str(out / "od.json"): model_io.ontology_chunks(od),
        str(out / "truth.json"): evalgen.truth_chunks(truth),
    })
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


# name -> (help, what adds its arguments, handler), in the order --help lists them
_COMMANDS = {
    "integrate": ("integrate components into one, resolving naming conflicts",
                  _integrate_arguments, _cmd_integrate),
    "align": ("run the pipeline but write no merged component",
              _align_arguments, _cmd_integrate),
    "gen": ("generate a synthetic scenario", _gen_arguments, _cmd_gen),
    "eval": ("score a report against ground truth", _eval_arguments, _cmd_eval),
    "export-dot": ("render an ontology as DOT", _export_dot_arguments, _cmd_export_dot),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command][2](args)
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
