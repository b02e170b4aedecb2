"""The public surface: the names autsg exports and the subcommands of the
autsg command. A name or a subcommand added or removed must show here."""

import re

import autsg
from autsg.cli import run

PUBLIC_NAMES = [
    "Acceptor", "AutomatonError", "BOTTOM_LETTER", "ConfigBudgetExceeded",
    "Defined", "DfaList", "DocumentSet", "EQUAL", "GADGET_NAMES",
    "LeftEdgeViolated", "Letter", "MalformedDfa", "MealyAutomaton", "NOT_EQUAL",
    "NotGAutomaton", "NotInverseDeterministic", "ParseError", "ParsedInstance",
    "PropertyReport", "ReservedTokenCollision", "SignedState", "SimulationResult",
    "SpaceBoundViolated", "State", "StateSequence", "TmReductionParams",
    "TuringMachineSpec", "UNDEFINED", "UndefinedAt", "UnknownLetter",
    "UnknownState", "Verdict", "Word", "WordProblemInstance", "ZERO_STATE",
    "acceptor_accepts", "act_step", "act_word", "build_gadget",
    "build_tm_automaton", "check_properties", "complete_with_zero",
    "config_bound", "counter_sequence", "decide", "dfa_intersection_empty",
    "dual", "encode_computation", "invert", "minimize", "oracle_decide",
    "parse_file", "parse_text", "reduce_dfa_emptiness", "reduce_dfa_intersection",
    "reduce_tm", "resolve_sequence", "separation_instance", "sequence_tokens",
    "serialize_acceptor", "serialize_automaton", "serialize_instance",
    "serialize_tm", "simulate_tm", "union",
]

SUBCOMMANDS = ["check", "act", "decide", "oracle", "gadget", "reduce", "encode"]


def test_public_names():
    assert len(PUBLIC_NAMES) == 65
    assert sorted(autsg.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(autsg, name), name


def test_help_lists_the_subcommands(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"\{([a-z,]+)\}", out).group(1).split(",") == SUBCOMMANDS
    listed = re.findall(r"^ {4}([a-z]+) ", out, flags=re.MULTILINE)
    assert listed == SUBCOMMANDS
