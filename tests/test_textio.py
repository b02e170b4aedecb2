"""Text format tests: parsing, resolution, serialization round-trips."""

import pytest

from autsg.errors import ParseError
from autsg.gadgets import build_gadget
from autsg.mealy import Acceptor, MealyAutomaton, SignedState
from autsg.reductions import DfaList, reduce_dfa_intersection
from autsg.textio import (
    parse_file,
    parse_text,
    sequence_tokens,
    serialize_acceptor,
    serialize_automaton,
    serialize_instance,
    serialize_tm,
)
from autsg.turing import TuringMachineSpec
from autsg.wordproblem import WordProblemInstance

from helpers import S

ADDING = build_gadget("adding")

EXAMPLE = """
% a two-state machine over a one-letter alphabet
mealy tick
alphabet a
states odd even
t even a a odd   % flips parity
t odd a a even
end

acceptor evenlen
alphabet a
states e o
initial e
final e
t e a o
t o a e
end

instance
automaton tick
lhs even even
rhs
constraint evenlen
budget 500
end
"""


def test_parse_example_document():
    doc = parse_text(EXAMPLE)
    assert list(doc.automata) == ["tick"]
    assert list(doc.acceptors) == ["evenlen"]
    tick = doc.automata["tick"]
    assert tick.transitions[("even", "a")] == ("a", "odd")
    assert len(doc.instances) == 1
    parsed = doc.instances[0]
    assert parsed.budget == 500
    inst = doc.resolve(parsed)
    assert inst.lhs == S("even", "even")
    assert len(inst.rhs) == 0
    assert inst.constraints[0].name == "evenlen"


def test_hash_is_a_data_letter():
    doc = parse_text(
        "mealy h\nalphabet # a\nstates q\nt q # a q\nt q a # q\nend\n"
    )
    assert doc.automata["h"].transitions[("q", "#")] == ("a", "q")


def test_roundtrip_automata():
    for name in ("adding", "free", "free-partial", "bireversible", "dual-adding"):
        aut = build_gadget(name)
        doc = parse_text(serialize_automaton(aut))
        assert doc.automata[aut.name] == aut


def test_roundtrip_acceptor():
    acc = Acceptor(
        "zeros", ["0", "1"], ["s", "t"], {("s", "0", "s"), ("s", "1", "t")},
        ["s"], ["s", "t"],
    )
    doc = parse_text(serialize_acceptor(acc))
    assert doc.acceptors["zeros"] == acc


def test_roundtrip_tm():
    tm = TuringMachineSpec(
        "scan",
        ["_", "a"],
        "_",
        ["z0", "zf"],
        "z0",
        ["zf"],
        {("z0", "a"): ("a", "z0", "R"), ("z0", "_"): ("_", "zf", "N")},
    )
    doc = parse_text(serialize_tm(tm))
    assert doc.machines["scan"] == tm  # includes the totalized rules


def test_roundtrip_instance_with_constraint():
    d = DfaList(
        [
            Acceptor(
                "z",
                ["0", "1"],
                ["s"],
                {("s", "0", "s"), ("s", "1", "s")},
                ["s"],
                ["s"],
            )
        ]
    )
    inst = reduce_dfa_intersection(d, group_variant=True)
    text = serialize_instance(inst, budget=1234)
    doc = parse_text(text)
    parsed = doc.instances[0]
    assert parsed.budget == 1234
    assert doc.resolve(parsed) == inst


def test_roundtrip_inverted_items():
    inst = WordProblemInstance(ADDING, S("~+1", "+1"), S())
    doc = parse_text(serialize_instance(inst))
    back = doc.resolve(doc.instances[0])
    assert back == inst
    assert back.lhs[0] == SignedState("+1", inverted=True)


def test_tilde_prefers_literal_state():
    aut = MealyAutomaton(
        "odd",
        ["a"],
        ["q", "~q"],
        {("q", "a"): ("a", "~q"), ("~q", "a"): ("a", "q")},
    )
    doc = parse_text(
        serialize_automaton(aut) + "instance\nautomaton odd\nlhs ~q\nrhs q q\nend\n"
    )
    inst = doc.resolve(doc.instances[0])
    assert inst.lhs[0] == SignedState("~q")  # the literal state, not ~ of q
    assert not inst.lhs[0].inverted


def test_serializer_refuses_shadowed_inversion():
    aut = MealyAutomaton(
        "odd",
        ["a"],
        ["q", "~q"],
        {("q", "a"): ("a", "~q"), ("~q", "a"): ("a", "q")},
    )
    with pytest.raises(ValueError, match="literally"):
        sequence_tokens(S("~q"), aut)
    # the plain spelling of the literal "~q" state is fine
    assert sequence_tokens(
        WordProblemInstance(aut, [SignedState("~q")], []).lhs, aut
    ) == ["~q"]


def test_serializer_refuses_percent_tokens():
    aut = MealyAutomaton("m", ["a%b"], ["q"], {("q", "a%b"): ("a%b", "q")})
    with pytest.raises(ValueError, match="comment"):
        serialize_automaton(aut)


@pytest.mark.parametrize(
    "text,line",
    [
        ("mealy m\nalphabet a\nstates q\nt q a a\nend\n", 4),
        ("mealy m\nalphabet a\nstates q\n", 1),
        ("wibble\n", 1),
        ("mealy m\nalphabet a\nstates q\nt q a a q\nt q a a q\nend\n", 5),
        ("mealy m\nalphabet a\nstates q\nend\nmealy m\nalphabet a\nstates q\nend\n", 5),
        ("instance\nlhs\nrhs\nend\n", 1),
        ("instance\nautomaton m\nlhs\nend\n", 1),
        ("instance\nautomaton m\nlhs\nrhs\nbudget x\nend\n", 5),
        ("instance\nautomaton m\nlhs\nrhs\nbudget 0\nend\n", 5),
        ("instance\nautomaton m\nlhs\nrhs\nbudget \u00b2\nend\n", 5),
        ("tm t\ntape _\nstates z\ninitial z\nend\n", 1),
        ("tm t\ntape _\nblank _\nstates z\ninitial z\nrule z _ _ X z\nend\n", 6),
        ("acceptor a\nalphabet x\nstates s\ninitial s\nfinal\nt s x\nend\n", 6),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert exc.value.line == line


def test_resolution_errors():
    doc = parse_text("instance\nautomaton nosuch\nlhs\nrhs\nend\n")
    with pytest.raises(ParseError, match="unknown automaton"):
        doc.resolve(doc.instances[0])
    doc2 = parse_text(
        serialize_automaton(ADDING)
        + "instance\nautomaton adding\nlhs +2\nrhs\nend\n"
    )
    with pytest.raises(ParseError, match="not a state"):
        doc2.resolve(doc2.instances[0])
    doc3 = parse_text(
        serialize_automaton(ADDING)
        + "instance\nautomaton adding\nlhs\nrhs\nconstraint c\nend\n"
    )
    with pytest.raises(ParseError, match="unknown acceptor"):
        doc3.resolve(doc3.instances[0])
    # r emits b twice, so ~r is undefined: rejected at the instance line
    doc4 = parse_text(
        serialize_automaton(build_gadget("bireversible"))
        + "instance\nautomaton bireversible\nlhs ~r\nrhs\nend\n"
    )
    with pytest.raises(ParseError, match="~r") as exc:
        doc4.resolve(doc4.instances[0])
    assert exc.value.line is not None
    assert exc.value.line == doc4.instances[0].line


def test_include_splices_and_dedupes(tmp_path):
    (tmp_path / "base.aut").write_text(serialize_automaton(ADDING), encoding="utf-8")
    (tmp_path / "mid.aut").write_text(
        "include base.aut\nacceptor all\nalphabet 0 1\nstates s\ninitial s\n"
        "final s\nt s 0 s\nt s 1 s\nend\n",
        encoding="utf-8",
    )
    main = tmp_path / "main.aut"
    main.write_text(
        "include base.aut\ninclude mid.aut\n"
        "instance\nautomaton adding\nlhs +1\nrhs +1\nconstraint all\nend\n",
        encoding="utf-8",
    )
    doc = parse_file(main)
    assert set(doc.automata) == {"adding"}
    assert set(doc.acceptors) == {"all"}
    inst = doc.resolve(doc.instances[0])
    assert inst.lhs == S("+1")


def test_include_errors(tmp_path):
    with pytest.raises(ParseError, match="only available"):
        parse_text("include foo.aut\n")
    main = tmp_path / "main.aut"
    main.write_text("include nosuch.aut\n", encoding="utf-8")
    with pytest.raises(ParseError, match="cannot include"):
        parse_file(main)


def test_comments_and_blank_lines_everywhere():
    text = (
        "\n\n% leading comment\nmealy m % trailing\n"
        "alphabet a\n\nstates q\nt q a a q\nend\n\n% done\n"
    )
    doc = parse_text(text)
    assert doc.automata["m"].name == "m"
