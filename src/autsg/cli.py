"""Command-line front end.

Exit statuses: 0 for Equal or plain success, 10 for NotEqual, 1 for usage
errors, 2 for unreadable or malformed input, 3 for an exceeded config
budget. Results go to stdout, diagnostics to stderr. Subcommands taking
`--porcelain` emit one stable machine-readable line per result instead of
the human wording: `EQUAL` or `NOT-EQUAL <len> <tok> <tok> ...`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields as dataclass_fields

from .errors import AutomatonError, ConfigBudgetExceeded
from .gadgets import GADGET_NAMES, build_gadget, separation_instance
from .mealy import Defined, act_word, check_properties
from .reductions import DfaList, reduce_dfa_emptiness, reduce_dfa_intersection
from .textio import (
    parse_file,
    resolve_sequence,
    serialize_automaton,
    serialize_instance,
)
from .turing import TmReductionParams, _reduce_quotient, encode_computation
from .wordproblem import EQUAL, NOT_EQUAL, decide, oracle_decide


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here reserves 2 for
    input errors, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _single(mapping: dict, kind: str):
    if len(mapping) != 1:
        raise AutomatonError(f"expected exactly one {kind} in the file, found {len(mapping)}")
    return next(iter(mapping.values()))


def _verdict_line(verdict, porcelain: bool) -> str:
    if verdict.kind == NOT_EQUAL:
        toks = " ".join(verdict.witness)
        if porcelain:
            return f"NOT-EQUAL {len(verdict.witness)} {toks}"
        return f"NOT-EQUAL witness: {toks}"
    return "EQUAL"


def _cmd_check(args) -> int:
    doc = parse_file(args.file)
    if not doc.automata:
        raise AutomatonError("no automaton in the file")
    for name, automaton in doc.automata.items():
        report = check_properties(automaton)
        parts = [
            f"{f.name.replace('_', '-')}={str(getattr(report, f.name)).lower()}"
            for f in dataclass_fields(report)
        ]
        prefix = f"{name} " if len(doc.automata) > 1 else ""
        print(prefix + " ".join(parts))
    return 0


def _cmd_act(args) -> int:
    doc = parse_file(args.file)
    automaton = _single(doc.automata, "automaton")
    seq = resolve_sequence(args.seq, automaton)
    result = act_word(automaton, seq, tuple(args.word))
    if isinstance(result, Defined):
        print(" ".join(result.output))
    elif args.porcelain:
        print(f"UNDEFINED {result.index}")
    else:
        print(f"undefined at {result.index}")
    return 0


def _instances(doc):
    if not doc.instances:
        raise AutomatonError("no instance in the file")
    for parsed in doc.instances:
        yield parsed, doc.resolve(parsed)


def _cmd_decide(args) -> int:
    status = 0
    for parsed, inst in _instances(parse_file(args.file)):
        budget = args.max_configs if args.max_configs is not None else parsed.budget
        verdict = decide(inst, max_configs=budget)
        print(_verdict_line(verdict, args.porcelain))
        if verdict.kind == NOT_EQUAL:
            status = 10
    return status


def _cmd_oracle(args) -> int:
    status = 0
    for _parsed, inst in _instances(parse_file(args.file)):
        verdict = oracle_decide(inst, max_len=args.max_len, naive=args.naive)
        if verdict.kind == EQUAL and not args.porcelain:
            print(f"EQUAL (all words up to length {args.max_len})")
        else:
            print(_verdict_line(verdict, args.porcelain))
        if verdict.kind == NOT_EQUAL:
            status = 10
    return status


def _cmd_gadget(args) -> int:
    if args.n is None:
        print(serialize_automaton(build_gadget(args.name)), end="")
    else:
        print(serialize_instance(separation_instance(args.name, args.n)), end="")
    return 0


def _cmd_reduce_dfa_intersection(args) -> int:
    dfas = []
    for path in args.files:
        dfas.extend(parse_file(path).acceptors.values())
    inst = reduce_dfa_intersection(DfaList(dfas), group_variant=args.group)
    print(serialize_instance(inst), end="")
    return 0


def _cmd_reduce_dfa_empty(args) -> int:
    acceptor = _single(parse_file(args.file).acceptors, "acceptor")
    print(serialize_instance(reduce_dfa_emptiness(acceptor)), end="")
    return 0


def _tm_params(args, group: bool) -> TmReductionParams:
    return TmReductionParams(
        p_val=args.space,
        input_word=tuple(args.input),
        group_variant=group,
    )


def _cmd_reduce_tm(args) -> int:
    """Emits the instance over the Moore quotient of the literal automaton
    (turing._reduce_quotient)."""
    tm = _single(parse_file(args.file).machines, "tm")
    print(serialize_instance(_reduce_quotient(tm, _tm_params(args, args.group))), end="")
    return 0


def _cmd_encode_tm(args) -> int:
    tm = _single(parse_file(args.file).machines, "tm")
    word = encode_computation(tm, _tm_params(args, False), args.steps)
    print(" ".join(word))
    return 0


def _add_porcelain(p) -> None:
    p.add_argument("--porcelain", action="store_true", help="stable one-line output")


@functools.cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="autsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="classify the automata in a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("act", help="apply a state sequence to a word")
    p.add_argument("file")
    p.add_argument("--seq", nargs="*", default=[], help="state tokens, rightmost acts first")
    p.add_argument("--word", nargs="*", default=[], help="input letters")
    _add_porcelain(p)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("decide", help="decide the instances in a file")
    p.add_argument("file")
    p.add_argument("--max-configs", type=int, default=None)
    _add_porcelain(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("oracle", help="bounded brute-force check of the instances")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--naive", action="store_true", help="literal enumeration")
    _add_porcelain(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gadget", help="emit a built-in automaton")
    p.add_argument("name", choices=sorted(GADGET_NAMES))
    p.add_argument("-n", type=int, default=None, help="emit the n-th separation instance")
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("reduce", help="compile a reduction to an instance file")
    rsub = p.add_subparsers(dest="target", required=True, parser_class=_Parser)
    q = rsub.add_parser("dfa-intersection", help="DFA-list intersection emptiness")
    q.add_argument("files", nargs="+")
    q.add_argument("--group", action="store_true")
    q.set_defaults(func=_cmd_reduce_dfa_intersection)
    q = rsub.add_parser("dfa-empty", help="single-DFA emptiness")
    q.add_argument("file")
    q.set_defaults(func=_cmd_reduce_dfa_empty)
    q = rsub.add_parser("tm", help="space-bounded machine acceptance")
    q.add_argument("file")
    q.add_argument("--input", nargs="*", default=[])
    q.add_argument("--space", type=int, required=True)
    q.add_argument("--group", action="store_true")
    q.set_defaults(func=_cmd_reduce_tm)

    p = sub.add_parser("encode", help="encode canonical words")
    esub = p.add_subparsers(dest="target", required=True, parser_class=_Parser)
    q = esub.add_parser("tm", help="computation word for the first T steps")
    q.add_argument("file")
    q.add_argument("--input", nargs="*", default=[])
    q.add_argument("--space", type=int, required=True)
    q.add_argument("--steps", type=int, required=True)
    q.set_defaults(func=_cmd_encode_tm)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except ConfigBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AutomatonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
