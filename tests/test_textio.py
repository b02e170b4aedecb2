"""Text format tests: parsing, resolution, serialization round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from autsg.turing import MOVES, TuringMachineSpec
from autsg.wordproblem import WordProblemInstance

from helpers import S, rename_letters, rename_states, stdout_under_hash_seeds
from test_mealy import automata

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
        # a row naming an undeclared token is blamed, not the head line
        ("mealy m\nalphabet a\nstates q\nt q a a zz\nend\n", 4),
        ("acceptor x\nalphabet a\nstates s\ninitial s\nfinal s\nt s b s\nend\n", 6),
        ("tm t\ntape _\nblank _\nstates z\ninitial z\nrule z _ _ N zz\nend\n", 6),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_text(text)
    assert exc.value.line == line


def test_acceptor_error_does_not_depend_on_string_hashing():
    # two triples with undeclared letters: the first one in the file is the
    # one named, at its own line, whatever order a set would iterate them in
    text = "acceptor z\nstates s t\ninitial s\nfinal t\nt s 0 t\nt t 1 s\nend\n"
    script = (
        "import sys\n"
        "from autsg.errors import ParseError\n"
        "from autsg.textio import parse_text\n"
        "try:\n"
        "    parse_text(sys.argv[1])\n"
        "except ParseError as exc:\n"
        "    print(exc)\n"
    )
    messages = stdout_under_hash_seeds(["-c", script, text], seeds=("1", "2"))
    assert messages == ["line 5: acceptor transition letter '0' not in alphabet\n"] * 2


def test_resolution_errors():
    # each error names the line that caused it: the automaton, lhs, rhs or
    # constraint line (the last, where one is repeated)
    doc = parse_text("instance\nautomaton x\nlhs\nrhs\nautomaton nosuch\nend\n")
    with pytest.raises(ParseError, match="unknown automaton") as exc:
        doc.resolve(doc.instances[0])
    assert exc.value.line == 5
    head = serialize_automaton(ADDING).count("\n")
    doc2 = parse_text(
        serialize_automaton(ADDING)
        + "instance\nautomaton adding\nlhs +2\nrhs\nend\n"
    )
    with pytest.raises(ParseError, match="not a state") as exc:
        doc2.resolve(doc2.instances[0])
    assert exc.value.line == head + 3
    repeated = parse_text(
        serialize_automaton(ADDING)
        + "instance\nautomaton adding\nrhs +0\nlhs +1\nrhs +1 +2\nend\n"
    )
    with pytest.raises(ParseError, match="'\\+2' is not a state") as exc:
        repeated.resolve(repeated.instances[0])
    assert exc.value.line == head + 5
    doc3 = parse_text(
        serialize_automaton(ADDING)
        + "acceptor c\nalphabet 0 1\nstates s\ninitial s\nend\n"
        + "instance\nautomaton adding\nlhs\nconstraint c\nrhs\nconstraint d\nend\n"
    )
    with pytest.raises(ParseError, match="unknown acceptor 'd'") as exc:
        doc3.resolve(doc3.instances[0])
    assert exc.value.line == head + 11
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


def test_an_included_file_names_the_file_of_its_errors(tmp_path):
    # each error names the file that holds its line, as the include line
    # wrote it, or no file when that is the file parsed
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.aut").write_text(
        "mealy m\nalphabet a\nstates q\nt q a a r\nend\n", encoding="utf-8"
    )
    (tmp_path / "sub" / "mid.aut").write_text("% mid\ninclude b.aut\n", encoding="utf-8")
    gone = "% gone\n% gone\ninclude nosuch.aut\n"
    (tmp_path / "sub" / "gone.aut").write_text(gone, encoding="utf-8")
    (tmp_path / "sub" / "bad.aut").write_bytes(NOT_UTF8)
    (tmp_path / "sub" / "to-bad.aut").write_text("include bad.aut\n", encoding="utf-8")
    cases = [
        ("include sub/b.aut\n", "sub/b.aut", 4, "transition target 'r' is not a declared state"),
        ("include sub/mid.aut\n", "b.aut", 4, "transition target 'r' is not a declared state"),
        ("include sub/gone.aut\n", "sub/gone.aut", 3, "cannot include 'nosuch.aut'"),
        ("% x\ninclude sub/to-bad.aut\n", None, 2, "bad.aut is not UTF-8"),
    ]
    main = tmp_path / "main.aut"
    for text, file, line, reason in cases:
        main.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            parse_file(main)
        assert (exc.value.file, exc.value.line) == (file, line)
        prefix = f"line {line}: " if file is None else f"{file}: line {line}: "
        assert str(exc.value).startswith(prefix + reason)


# 0xff is never UTF-8; on line 2, after a comment line
NOT_UTF8 = b"% a comment\nmealy m \xff\nalphabet a\nstates q\nend\n"


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_bytes(NOT_UTF8)
    main = tmp_path / "main.aut"
    main.write_text("% line 1\ninclude bad.aut\n", encoding="utf-8")
    for path in (bad, main):
        with pytest.raises(ParseError, match="^line 2: bad.aut is not UTF-8") as exc:
            parse_file(path)
        assert exc.value.line == 2
        assert isinstance(exc.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xffmealy m\n", 1),
        (b"mealy m\r\n\r\nalphabet \xe2\x82\n", 3),  # a truncated sequence
        (b"mealy m\ralphabet a\r\xc3\x28\n", 3),  # lone CRs break lines too
        (b"mealy m\n\n\n\x80", 4),
    ],
)
def test_an_undecodable_byte_is_numbered_as_the_parser_numbers_lines(tmp_path, data, line):
    path = tmp_path / "bad.aut"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        parse_file(path)
    assert exc.value.line == line


def test_line_endings_do_not_change_line_numbers(tmp_path):
    text = "mealy m\nalphabet a\nstates q\nt q a a r\nend\n"
    with pytest.raises(ParseError) as lf:
        parse_text(text)
    for newline in ("\r\n", "\r"):
        path = tmp_path / "m.aut"
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(ParseError) as other:
            parse_file(path)
        assert other.value.line == lf.value.line == 4


def test_comments_and_blank_lines_everywhere():
    text = (
        "\n\n% leading comment\nmealy m % trailing\n"
        "alphabet a\n\nstates q\nt q a a q\nend\n\n% done\n"
    )
    doc = parse_text(text)
    assert doc.automata["m"].name == "m"


def test_repeated_lines():
    """Fixed-size lines and lhs/rhs: the last one wins. Lists add up."""
    doc = parse_text(
        "tm t\ntape _ a\ntape b\nblank a\nblank _\nstates y\nstates z\n"
        "initial z\ninitial y\nfinal y\nfinal z\nend\n"
        "instance\nautomaton m\nautomaton n\nlhs a b\nlhs c\nrhs d\nrhs\n"
        "constraint x\nconstraint y\nbudget 5\nbudget 7\nend\n"
    )
    tm = doc.machines["t"]
    assert tm.tape_alphabet == {"_", "a", "b"} and tm.blank == "_"
    assert tm.states == tm.finals == {"y", "z"} and tm.initial == "y"
    (parsed,) = doc.instances
    assert parsed.automaton_name == "n"
    assert (parsed.lhs_tokens, parsed.rhs_tokens) == (("c",), ())
    assert parsed.constraint_names == ("x", "y") and parsed.budget == 7


def test_serialize_instance_golden():
    ends0 = Acceptor(
        "ends0",
        ["0", "1"],
        ["e", "f"],
        {("e", "0", "f"), ("e", "1", "e"), ("f", "0", "f"), ("f", "1", "e")},
        ["e"],
        ["f"],
    )
    inst = WordProblemInstance(ADDING, S("~+1", "+0"), S("+1"), [ends0])
    assert serialize_instance(inst, budget=9) == (
        "mealy adding\n"
        "alphabet 0 1\n"
        "states +0 +1\n"
        "t +0 0 0 +0\n"
        "t +0 1 1 +0\n"
        "t +1 0 1 +0\n"
        "t +1 1 0 +1\n"
        "end\n"
        "acceptor ends0\n"
        "alphabet 0 1\n"
        "states e f\n"
        "initial e\n"
        "final f\n"
        "t e 0 f\n"
        "t e 1 e\n"
        "t f 0 f\n"
        "t f 1 e\n"
        "end\n"
        "instance\n"
        "automaton adding\n"
        "lhs ~+1 +0\n"
        "rhs +1\n"
        "constraint ends0\n"
        "budget 9\n"
        "end\n"
    )


# ------------------------------------------------------------ property style

# tokens with the characters the format treats specially ("~", "#") inside
NAMES = st.text("ab~#_+", min_size=1, max_size=3)
LETTERS = NAMES.filter(lambda t: not t.startswith("~"))
TAPE = LETTERS.filter(lambda t: t != "#")


def _distinct(draw, tokens, n):
    return draw(st.lists(tokens, min_size=n, max_size=n, unique=True))


@st.composite
def named_automata(draw):
    """test_mealy.automata() with its name, states and letters redrawn."""
    aut = draw(automata())
    states = _distinct(draw, NAMES, len(aut.states))
    letters = _distinct(draw, LETTERS, len(aut.alphabet))
    aut = rename_states(aut, dict(zip(sorted(aut.states), states)), draw(NAMES))
    return rename_letters(aut, dict(zip(sorted(aut.alphabet), letters)))


@st.composite
def acceptors(draw, alphabet=None):
    letters = sorted(alphabet or draw(st.sets(LETTERS, min_size=1, max_size=3)))
    states = sorted(draw(st.sets(NAMES, min_size=1, max_size=3)))
    triples = st.tuples(
        st.sampled_from(states), st.sampled_from(letters), st.sampled_from(states)
    )
    return Acceptor(
        draw(NAMES),
        letters,
        states,
        draw(st.sets(triples, max_size=6)),
        draw(st.sets(st.sampled_from(states), min_size=1)),
        draw(st.sets(st.sampled_from(states))),
    )


@st.composite
def machines(draw):
    tape = sorted(draw(st.sets(TAPE, min_size=1, max_size=3)))
    states = sorted(draw(st.sets(NAMES, min_size=1, max_size=3)))
    rules = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(states), st.sampled_from(tape)),
            st.tuples(
                st.sampled_from(tape), st.sampled_from(states), st.sampled_from(MOVES)
            ),
            max_size=6,
        )
    )
    return TuringMachineSpec(
        draw(NAMES),
        tape,
        draw(st.sampled_from(tape)),
        states,
        draw(st.sampled_from(states)),
        draw(st.sets(st.sampled_from(states))),
        rules,
    )


@st.composite
def instances(draw):
    """An instance with inverted items, constraints and maybe a budget, on
    an automaton whose states emit pairwise distinct letters (so every ~q
    is defined)."""
    aut = draw(named_automata())
    letters = sorted(aut.alphabet)
    trans = {}
    for q in sorted(aut.states):
        outs = dict(zip(letters, draw(st.permutations(letters))))
        for (p, a), (_b, nxt) in aut.transitions.items():
            if p == q:
                trans[q, a] = (outs[a], nxt)
    aut = MealyAutomaton(aut.name, letters, aut.states, trans)
    # an inversion spelled like a literal state cannot be written out
    invertible = [q for q in sorted(aut.states) if "~" + q not in aut.states]
    items = st.sampled_from(sorted(aut.states)).map(SignedState)
    if invertible:
        items |= st.sampled_from(invertible).map(lambda q: SignedState(q, True))
    constraints = draw(
        st.lists(acceptors(aut.alphabet), max_size=2, unique_by=lambda acc: acc.name)
    )
    inst = WordProblemInstance(
        aut,
        draw(st.lists(items, max_size=3)),
        draw(st.lists(items, max_size=3)),
        constraints,
    )
    return inst, draw(st.none() | st.integers(1, 10**6))


@given(named_automata())
def test_roundtrip_random_automata(aut):
    assert parse_text(serialize_automaton(aut)).automata == {aut.name: aut}


@given(acceptors())
def test_roundtrip_random_acceptors(acc):
    assert parse_text(serialize_acceptor(acc)).acceptors == {acc.name: acc}


@given(machines())
def test_roundtrip_random_machines(tm):
    assert parse_text(serialize_tm(tm)).machines == {tm.name: tm}


@given(instances())
@settings(max_examples=60)
def test_roundtrip_random_instances(drawn):
    inst, budget = drawn
    doc = parse_text(serialize_instance(inst, budget))
    (parsed,) = doc.instances
    assert parsed.budget == budget
    assert doc.resolve(parsed) == inst


# keyword -> argument count (None: any) by block kind; the soup mostly
# keeps to these shapes, so that it reaches the builders and constructors
SHAPES = {
    "mealy": {"alphabet": None, "states": None, "t": 4},
    "acceptor": {"alphabet": None, "states": None, "initial": None, "final": None, "t": 3},
    "tm": {"tape": None, "blank": 1, "states": None, "initial": 1, "final": None, "rule": 5},
    "instance": {"automaton": 1, "lhs": None, "rhs": None, "constraint": 1, "budget": 1},
}
WORDS = st.sampled_from("a b q z _ ~q # 0 7 L N R end include %".split()) | NAMES


def _arguments(count):
    """Mostly count words (any number where count is None), else any."""
    anything = st.lists(WORDS, max_size=6)
    if count is None:
        return anything
    exact = st.lists(WORDS, min_size=count, max_size=count)
    return st.one_of(exact, exact, exact, anything)


def _body_lines(shape):
    """Lines of the shapes, now and then a line of random words."""
    shaped = st.sampled_from(sorted(shape.items())).flatmap(
        lambda kc: _arguments(kc[1]).map(lambda args: [kc[0], *args])
    )
    return st.one_of(*[shaped] * 4, st.lists(WORDS, min_size=1, max_size=6))


@st.composite
def soup_blocks(draw):
    kind = draw(st.sampled_from(sorted(SHAPES)))
    head = [kind, *draw(_arguments(0 if kind == "instance" else 1))]
    return [head, *draw(st.lists(_body_lines(SHAPES[kind]), max_size=8)), ["end"]]


@given(st.lists(soup_blocks(), max_size=3))
@settings(max_examples=300)
def test_token_soup_raises_only_parse_errors(blocks):
    text = "\n".join(" ".join(line) for block in blocks for line in block)
    try:
        parse_text(text)
    except ParseError:
        pass
