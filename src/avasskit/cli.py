"""Command-line front door: every analysis in the package behind one executable.

Layout of a run: verdicts and results go to standard output, diagnostics to
standard error.  Decision verbs print a machine-parseable ``verdict: yes|no``
as their first line; the exit code never encodes the answer.  Codes: 0 the
analysis ran and produced its output, 3 bad input (usage, parse, or machine
errors), 4 an internal budget gave out (cycle cap, solver arity, a set wider
than ``semiset.MASK_WIDTH_CAP``, 2^28 bits: a value or constant past 2^28).

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call: argparse keeps no state of a
parse on the parser, and it looks up ``sys.stdout`` and ``sys.stderr`` only
when it writes, so an in-process call pays only for its verb.  Each verb is
declared once in :func:`build_parser`, with its handler, what its ``file``
holds and its own options; every verb takes ``--json`` last.  :func:`main`
parses a machine verb's file and calls the handler with the machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import signal
import sys
import threading

from . import __version__
from .decide import (
    control_state_reachable,
    coverable,
    coverable_via_reduction,
    is_strongly_monotone,
    is_well_structured,
    reachable,
)
from .errors import ArityError, AvassKitError, BudgetExceededError
from .frontend import (
    machine_to_json_obj,
    parse_configuration,
    parse_formula_file,
    parse_machine,
    render_bool,
    render_state_sets,
    serialize_machine,
    serialize_transition,
)
from .generators import (
    PCPInstance,
    build_n1,
    build_n2,
    build_pcp_machine,
    builtin_examples,
)
from .machine import Configuration, Machine, UpwardTarget, classify
from .omega import reachable_totally_positive
from .presburger import is_functional, is_wqo
from .prestar import compute_pre_star, compute_pre_star_upward
from .simulator import Budget, find_path, post_star

__all__ = ["main"]


# --------------------------------------------------------------------------
# plumbing


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 3."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_machine(path: str) -> Machine:
    return parse_machine(_read_file(path))


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


# --------------------------------------------------------------------------
# verbs


def _cmd_parse(args, m: Machine) -> int:
    if args.json:
        _emit_json(machine_to_json_obj(m))
    else:
        sys.stdout.write(serialize_machine(m))
    return 0


_CLASSIFY_ROWS = (
    ("vass", "is_vass"),
    ("avass", "is_avass"),
    ("positive-avass", "is_positive_avass"),
    ("totally-positive-avass", "is_totally_positive_avass"),
    ("minsky", "is_minsky"),
    ("syntactically-functional", "is_functional_syntactically"),
)


def _cmd_classify(args, m: Machine) -> int:
    flags = classify(m)
    if args.json:
        _emit_json({label: getattr(flags, attr) for label, attr in _CLASSIFY_ROWS})
    else:
        for label, attr in _CLASSIFY_ROWS:
            print(f"{label}: {render_bool(getattr(flags, attr))}")
    return 0


def _cmd_prestar(args, m: Machine) -> int:
    target = Configuration(args.state, (args.value,))
    if args.upward:
        result = compute_pre_star_upward(m, UpwardTarget(target))
    else:
        result = compute_pre_star(m, target)
    if args.json:
        _emit_json({
            "machine": m.name,
            "target": target.render(),
            "upward": args.upward,
            "sweeps": result.sweeps,
            "sets": {q: result.sets[q].to_json_obj() for q in m.states},
        })
    else:
        sys.stdout.write(render_state_sets(m.states, result.sets))
    return 0


def _print_verdict(flag: bool, args, detail: dict | None = None) -> int:
    """``verdict: yes|no`` and a ``key: value`` line per detail that is not None, or JSON."""
    obj = {"verdict": render_bool(flag), **(detail or {})}
    if args.json:
        _emit_json(obj)
    else:
        for key, value in obj.items():
            if value is not None:
                print(f"{key}: {value}")
    return 0


def _cmd_reach(args, m: Machine) -> int:
    src = parse_configuration(args.source, m.dimension)
    dst = parse_configuration(args.to, m.dimension)
    if args.total_positive:
        ok = reachable_totally_positive(m, src, dst)
    else:
        ok = reachable(m, src, dst)
    return _print_verdict(ok, args)


def _cmd_cover(args, m: Machine) -> int:
    src = parse_configuration(args.source, m.dimension)
    dst = parse_configuration(args.to, m.dimension)
    route = coverable_via_reduction if args.via_reduction else coverable
    return _print_verdict(route(m, src, dst), args)


def _cmd_state_reach(args, m: Machine) -> int:
    src = parse_configuration(args.source, m.dimension)
    return _print_verdict(control_state_reachable(m, src, args.state), args)


def _cmd_wsts(args, m: Machine) -> int:
    verdict = is_well_structured(m)
    detail: dict = {"witness": None, "counterexample": None}
    if not verdict.well_structured:
        t = verdict.witness
        detail = {
            "witness": serialize_transition(t),
            "counterexample": f"{t.source}:{verdict.counterexample}",
        }
    return _print_verdict(verdict.well_structured, args, detail)


def _cmd_strong_mono(args, m: Machine) -> int:
    verdict = is_strongly_monotone(m)
    detail: dict = {"witness": None}
    if not verdict.strongly_monotone:
        detail = {"witness": serialize_transition(verdict.witness)}
    return _print_verdict(verdict.strongly_monotone, args, detail)


def _cmd_wqo(args, _) -> int:
    formula, declared = parse_formula_file(_read_file(args.file))
    if declared and len(declared) != 2:
        raise AvassKitError(
            f"the ordering test needs exactly two variables, got {len(declared)}")
    x, y = declared if declared else ("x", "y")
    verdict = is_wqo(formula, x, y)
    if args.json:
        obj = {"verdict": verdict.kind}
        if verdict.kind == "not-wqo":
            obj["modulus"] = verdict.modulus
            obj["gap"] = verdict.gap
            obj["bad-residue"] = verdict.bad_residue
            obj["witness-head"] = verdict.witness_sequence(8)
        elif verdict.kind == "not-quasi-ordering":
            obj["failed-axiom"] = verdict.failed_axiom
            obj["counterexample"] = verdict.counterexample
        _emit_json(obj)
        return 0
    print(f"verdict: {verdict.kind}")
    if verdict.kind == "not-wqo":
        head = ", ".join(str(v) for v in verdict.witness_sequence(8))
        print(f"witness-head: {head}, ...")
    elif verdict.kind == "not-quasi-ordering":
        print(f"failed-axiom: {verdict.failed_axiom}")
        assignment = ", ".join(
            f"{k}={v}" for k, v in sorted(verdict.counterexample.items()))
        print(f"counterexample: {assignment}")
    return 0


def _cmd_functional(args, m: Machine) -> int:
    report = is_functional(m)
    failures = [(t, witness) for t, ok, witness in report.entries if not ok]
    if args.json:
        _emit_json({
            "verdict": render_bool(report.all_functional),
            "failures": [
                {"transition": serialize_transition(t),
                 "witness": {k: witness[k] for k in sorted(witness)}}
                for t, witness in failures
            ],
        })
        return 0
    print(f"verdict: {render_bool(report.all_functional)}")
    for t, witness in failures:
        assignment = ", ".join(f"{k}={witness[k]}" for k in sorted(witness))
        print(f"not functional: {serialize_transition(t)}  ({assignment})")
    return 0


def _parse_tiles(text: str) -> PCPInstance:
    tiles = []
    for chunk in text.split(","):
        if chunk.count(":") != 1:
            raise AvassKitError(f"tile {chunk!r} is not of the form TOP:BOTTOM")
        top, bottom = chunk.split(":")
        tiles.append((top, bottom))
    return PCPInstance(tuple(tiles))


def _cmd_gen(args, _) -> int:
    if args.what in ("n1", "n2"):
        if args.minsky is None:
            raise AvassKitError(f"gen {args.what} needs --minsky FILE")
        source = _load_machine(args.minsky)
        halt = args.halt if args.halt is not None else source.states[-1]
        built = (build_n1 if args.what == "n1" else build_n2)(source, halt)
        machines = [built]
    elif args.what == "pcp":
        if args.tiles is None:
            raise AvassKitError("gen pcp needs --tiles TOP:BOTTOM,TOP:BOTTOM,…")
        machines = [build_pcp_machine(_parse_tiles(args.tiles))]
    else:
        machines = builtin_examples()
    if args.name is not None:
        if len(machines) != 1:
            raise AvassKitError("--name applies to a single generated machine")
        machines = [dataclasses.replace(machines[0], name=args.name)]
    if args.json:
        objs = [machine_to_json_obj(m) for m in machines]
        _emit_json(objs[0] if len(objs) == 1 else objs)
        return 0
    chunks = [f"# {m.name}\n{serialize_machine(m)}" for m in machines]
    sys.stdout.write("\n".join(chunks))
    return 0


def _cmd_sim(args, m: Machine) -> int:
    src = parse_configuration(args.source, m.dimension)
    budget = Budget(max_value=args.max_value, max_configs=args.max_configs)
    if args.pre is None:
        result = post_star(m, src, budget)
        rendered = result.configs.rendered()
        if args.json:
            _emit_json({"configs": rendered,
                        "truncated": result.truncated})
            return 0
        for line in rendered:
            print(line)
        print(f"truncated: {render_bool(result.truncated)}")
        return 0
    goal = parse_configuration(args.pre, m.dimension)
    target = UpwardTarget(goal) if args.upward else goal
    steps, truncated = find_path(m, src, target, budget)
    found = steps is not None
    path = None
    if found:
        path = [src.render()] + [c.render() for _, c in steps]
    if args.json:
        _emit_json({"verdict": render_bool(found),
                    "truncated": truncated,
                    "path": path})
        return 0
    print(f"verdict: {render_bool(found)}")
    print(f"truncated: {render_bool(truncated)}")
    if found:
        print(f"path: {' -> '.join(path)}")
    return 0


# --------------------------------------------------------------------------
# argument wiring


def _verb(verbs, name: str, help: str, run, reads: str | None = "machine") -> _Parser:
    """Add a verb's subparser, its ``file`` (a machine, a formula, or none) and handler."""
    p = verbs.add_parser(name, help=help)
    if reads is not None:
        p.add_argument("file")
    p.set_defaults(run=run, reads=reads)
    return p


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: built on the first call, then shared."""
    parser = _Parser(prog="avasskit",
                     description="exact analyses for affine counter machines")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True,
                                  parser_class=_Parser, metavar="VERB")

    _verb(verbs, "parse", "parse a machine file and echo it back", _cmd_parse)
    _verb(verbs, "classify", "syntactic flavor flags of a machine", _cmd_classify)

    p = _verb(verbs, "prestar", "symbolic backward reachability of one target",
              _cmd_prestar)
    p.add_argument("--state", required=True, metavar="Q")
    p.add_argument("--value", required=True, type=int, metavar="N",
                   help="target counter value; 2^28 and up exit 4, as does any "
                        "set over 2^28 bits wide")
    p.add_argument("--upward", action="store_true",
                   help="treat the target as upward-closed")

    p = _verb(verbs, "reach", "is the target configuration reachable?", _cmd_reach)
    p.add_argument("--from", dest="source", required=True, metavar="Q:N")
    p.add_argument("--to", required=True, metavar="Q:N")
    p.add_argument("--total-positive", action="store_true",
                   help="finite-abstraction route for totally positive machines")

    p = _verb(verbs, "cover", "is some configuration above the target reachable?",
              _cmd_cover)
    p.add_argument("--from", dest="source", required=True, metavar="Q:N")
    p.add_argument("--to", required=True, metavar="Q:N")
    p.add_argument("--via-reduction", action="store_true",
                   help="answer through the widening construction instead")

    p = _verb(verbs, "state-reach", "is the control state reachable at all?",
              _cmd_state_reach)
    p.add_argument("--from", dest="source", required=True, metavar="Q:N")
    p.add_argument("--state", required=True, metavar="Q")

    _verb(verbs, "wsts", "is the machine well-structured under <=?", _cmd_wsts)
    _verb(verbs, "strong-mono", "does every step survive raising the source?",
          _cmd_strong_mono)
    _verb(verbs, "wqo", "is the relation in a formula file a wqo on N?", _cmd_wqo,
          reads="formula")
    _verb(verbs, "functional", "does every transition relation define a map?",
          _cmd_functional)

    p = _verb(verbs, "gen", "emit a built machine as DSL text", _cmd_gen, reads=None)
    p.add_argument("what", choices=("n1", "n2", "pcp", "examples"))
    p.add_argument("--minsky", metavar="FILE",
                   help="two-counter machine file for n1/n2")
    p.add_argument("--halt", metavar="STATE",
                   help="halting state (default: last declared)")
    p.add_argument("--tiles", metavar="T:B,T:B,…",
                   help="tile list for pcp, binary words")
    p.add_argument("--name", metavar="NAME", help="rename the generated machine")

    p = _verb(verbs, "sim", "bounded concrete exploration", _cmd_sim)
    p.add_argument("--from", dest="source", required=True, metavar="Q:N")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--post", action="store_true",
                       help="enumerate forward-reachable configurations (default)")
    group.add_argument("--pre", metavar="Q:N",
                       help="search a run from --from to this target")
    p.add_argument("--upward", action="store_true",
                   help="with --pre: accept anything at or above the target")
    p.add_argument("--max-value", type=int, default=Budget.max_value, metavar="V")
    p.add_argument("--max-configs", type=int, default=Budget.max_configs, metavar="C")

    for p in verbs.choices.values():
        p.add_argument("--json", action="store_true",
                       help="structured output with stable keys")
    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(signal, "SIGPIPE") and threading.current_thread() is threading.main_thread():
        # die quietly when a downstream reader closes early, like cat/grep do;
        # only the main thread may install a handler
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        m = _load_machine(args.file) if args.reads == "machine" else None
        return args.run(args, m)
    except (BudgetExceededError, ArityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (AvassKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
