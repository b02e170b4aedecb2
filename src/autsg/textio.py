"""Line-oriented text formats for automata, acceptors, machines, instances.

Files are UTF-8 with LF line endings. Tokens are maximal runs of
non-whitespace characters; "%" starts a comment running to the end of the
line ("#" is an ordinary data letter, the reductions depend on it). Blank
lines are ignored. Blocks:

    mealy NAME            acceptor NAME         tm NAME
    alphabet TOK ...      alphabet TOK ...      tape TOK ...
    states TOK ...        states TOK ...        blank TOK
    t STATE IN OUT STATE  initial TOK ...       states TOK ...
    end                   final TOK ...         initial TOK
                          t STATE IN STATE      final TOK ...
                          end                   rule STATE READ WRITE MOVE STATE
                                                end

    instance
    automaton NAME
    lhs TOK ...
    rhs TOK ...
    constraint NAME       % zero or more
    budget N              % optional decide budget
    end

A top-level `include PATH` line splices another file (path relative to the
including file, included at most once per parse). In sequences a leading
"~" marks an inverted state, resolved exact-match-first: if the automaton
has a state literally named "~q", the token "~q" denotes that state and
never the inversion of "q".

Serializers emit blocks with sorted alphabets, states and transitions, so
output is deterministic; they refuse tokens that would not survive a parse
(a "%" anywhere, or an inverted state whose "~"-prefixed spelling collides
with a literal state name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import AutomatonError, ParseError
from .mealy import Acceptor, MealyAutomaton, SignedState, StateSequence
from .turing import TuringMachineSpec
from .wordproblem import WordProblemInstance

MOVE_TOKENS = ("L", "N", "R")


@dataclass
class ParsedInstance:
    """An instance block before name resolution."""

    automaton_name: str
    lhs_tokens: tuple[str, ...]
    rhs_tokens: tuple[str, ...]
    constraint_names: tuple[str, ...] = ()
    budget: int | None = None
    line: int | None = None


@dataclass
class DocumentSet:
    """Everything declared in one file (plus includes), in declaration
    order. Automata, acceptors and machines live in separate namespaces."""

    automata: dict[str, MealyAutomaton] = field(default_factory=dict)
    acceptors: dict[str, Acceptor] = field(default_factory=dict)
    machines: dict[str, TuringMachineSpec] = field(default_factory=dict)
    instances: list[ParsedInstance] = field(default_factory=list)

    def resolve(self, parsed: ParsedInstance) -> WordProblemInstance:
        if parsed.automaton_name not in self.automata:
            raise ParseError(
                f"instance refers to unknown automaton {parsed.automaton_name!r}",
                parsed.line,
            )
        automaton = self.automata[parsed.automaton_name]
        constraints = []
        for name in parsed.constraint_names:
            if name not in self.acceptors:
                raise ParseError(
                    f"instance refers to unknown acceptor {name!r}", parsed.line
                )
            constraints.append(self.acceptors[name])
        lhs = [_resolve_seq_token(t, automaton, parsed.line) for t in parsed.lhs_tokens]
        rhs = [_resolve_seq_token(t, automaton, parsed.line) for t in parsed.rhs_tokens]
        try:
            return WordProblemInstance(automaton, lhs, rhs, constraints)
        except (ValueError, AutomatonError) as exc:
            raise ParseError(str(exc), parsed.line) from exc


def _resolve_seq_token(
    tok: str, automaton: MealyAutomaton, line: int | None
) -> SignedState:
    if tok in automaton.states:
        return SignedState(tok)
    if tok.startswith("~") and tok[1:] in automaton.states:
        return SignedState(tok[1:], inverted=True)
    raise ParseError(f"sequence token {tok!r} is not a state of the automaton", line)


def resolve_sequence(tokens, automaton: MealyAutomaton) -> StateSequence:
    """Resolve file spellings ("~"-prefixed means inverted, literal states
    win over inversions) into a sequence over the automaton's states."""
    return StateSequence([_resolve_seq_token(t, automaton, None) for t in tokens])


# ---------------------------------------------------------------------------
# parsing


def parse_file(path: str | Path) -> DocumentSet:
    path = Path(path)
    doc = DocumentSet()
    _parse_into(doc, path.read_text(encoding="utf-8"), path.parent, {path.resolve()})
    return doc


def parse_text(text: str, base_dir: str | Path | None = None) -> DocumentSet:
    doc = DocumentSet()
    base = Path(base_dir) if base_dir is not None else None
    _parse_into(doc, text, base, set())
    return doc


def _rows(text: str) -> list[tuple[int, list[str]]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("%", 1)[0].split()
        if toks:
            rows.append((lineno, toks))
    return rows


def _parse_into(
    doc: DocumentSet, text: str, base_dir: Path | None, seen: set[Path]
) -> None:
    rows = _rows(text)
    i = 0
    while i < len(rows):
        lineno, toks = rows[i]
        head = toks[0]
        if head == "include":
            if len(toks) != 2:
                raise ParseError("include takes exactly one path", lineno)
            if base_dir is None:
                raise ParseError("include is only available when parsing a file", lineno)
            target = (base_dir / toks[1]).resolve()
            if target not in seen:
                seen.add(target)
                try:
                    text2 = target.read_text(encoding="utf-8")
                except OSError as exc:
                    raise ParseError(f"cannot include {toks[1]!r}: {exc}", lineno) from exc
                _parse_into(doc, text2, target.parent, seen)
            i += 1
        elif head == "mealy":
            i = _parse_mealy(doc, rows, i)
        elif head == "acceptor":
            i = _parse_acceptor(doc, rows, i)
        elif head == "tm":
            i = _parse_tm(doc, rows, i)
        elif head == "instance":
            i = _parse_instance(doc, rows, i)
        else:
            raise ParseError(f"unexpected token {head!r} at top level", lineno)


def _block_name(rows, i, kind: str) -> str:
    lineno, toks = rows[i]
    if len(toks) != 2:
        raise ParseError(f"{kind} head line needs exactly one name", lineno)
    return toks[1]


def _parse_mealy(doc: DocumentSet, rows, i: int) -> int:
    start, _ = rows[i]
    name = _block_name(rows, i, "mealy")
    if name in doc.automata:
        raise ParseError(f"duplicate automaton name {name!r}", start)
    alphabet: list[str] = []
    states: list[str] = []
    trans: dict[tuple[str, str], tuple[str, str]] = {}
    i += 1
    while i < len(rows):
        lineno, toks = rows[i]
        if toks == ["end"]:
            try:
                doc.automata[name] = MealyAutomaton(name, alphabet, states, trans)
            except (ValueError, AutomatonError) as exc:
                raise ParseError(str(exc), start) from exc
            return i + 1
        if toks[0] == "alphabet":
            alphabet.extend(toks[1:])
        elif toks[0] == "states":
            states.extend(toks[1:])
        elif toks[0] == "t":
            if len(toks) != 5:
                raise ParseError("t line needs STATE IN OUT STATE", lineno)
            key = (toks[1], toks[2])
            if key in trans:
                raise ParseError(
                    f"duplicate transition for state {toks[1]!r} on {toks[2]!r}", lineno
                )
            trans[key] = (toks[3], toks[4])
        else:
            raise ParseError(f"unexpected {toks[0]!r} in mealy block", lineno)
        i += 1
    raise ParseError("mealy block not closed with 'end'", start)


def _parse_acceptor(doc: DocumentSet, rows, i: int) -> int:
    start, _ = rows[i]
    name = _block_name(rows, i, "acceptor")
    if name in doc.acceptors:
        raise ParseError(f"duplicate acceptor name {name!r}", start)
    alphabet: list[str] = []
    states: list[str] = []
    initial: list[str] = []
    final: list[str] = []
    triples: set[tuple[str, str, str]] = set()
    i += 1
    while i < len(rows):
        lineno, toks = rows[i]
        if toks == ["end"]:
            try:
                doc.acceptors[name] = Acceptor(
                    name, alphabet, states, triples, initial, final
                )
            except (ValueError, AutomatonError) as exc:
                raise ParseError(str(exc), start) from exc
            return i + 1
        if toks[0] == "alphabet":
            alphabet.extend(toks[1:])
        elif toks[0] == "states":
            states.extend(toks[1:])
        elif toks[0] == "initial":
            initial.extend(toks[1:])
        elif toks[0] == "final":
            final.extend(toks[1:])
        elif toks[0] == "t":
            if len(toks) != 4:
                raise ParseError("t line needs STATE IN STATE", lineno)
            triples.add((toks[1], toks[2], toks[3]))
        else:
            raise ParseError(f"unexpected {toks[0]!r} in acceptor block", lineno)
        i += 1
    raise ParseError("acceptor block not closed with 'end'", start)


def _parse_tm(doc: DocumentSet, rows, i: int) -> int:
    start, _ = rows[i]
    name = _block_name(rows, i, "tm")
    if name in doc.machines:
        raise ParseError(f"duplicate tm name {name!r}", start)
    tape: list[str] = []
    states: list[str] = []
    final: list[str] = []
    blank: str | None = None
    initial: str | None = None
    rules: dict[tuple[str, str], tuple[str, str, str]] = {}
    i += 1
    while i < len(rows):
        lineno, toks = rows[i]
        if toks == ["end"]:
            if blank is None:
                raise ParseError("tm block needs a blank line", start)
            if initial is None:
                raise ParseError("tm block needs an initial line", start)
            try:
                doc.machines[name] = TuringMachineSpec(
                    name, tape, blank, states, initial, final, rules
                )
            except ValueError as exc:
                raise ParseError(str(exc), start) from exc
            return i + 1
        if toks[0] == "tape":
            tape.extend(toks[1:])
        elif toks[0] == "states":
            states.extend(toks[1:])
        elif toks[0] == "final":
            final.extend(toks[1:])
        elif toks[0] == "blank":
            if len(toks) != 2:
                raise ParseError("blank line needs exactly one token", lineno)
            blank = toks[1]
        elif toks[0] == "initial":
            if len(toks) != 2:
                raise ParseError("initial line needs exactly one token", lineno)
            initial = toks[1]
        elif toks[0] == "rule":
            if len(toks) != 6:
                raise ParseError("rule line needs STATE READ WRITE MOVE STATE", lineno)
            if toks[4] not in MOVE_TOKENS:
                raise ParseError(f"move must be one of {MOVE_TOKENS}", lineno)
            key = (toks[1], toks[2])
            if key in rules:
                raise ParseError(
                    f"duplicate rule for state {toks[1]!r} reading {toks[2]!r}", lineno
                )
            rules[key] = (toks[3], toks[5], toks[4])
        else:
            raise ParseError(f"unexpected {toks[0]!r} in tm block", lineno)
        i += 1
    raise ParseError("tm block not closed with 'end'", start)


def _parse_instance(doc: DocumentSet, rows, i: int) -> int:
    start, toks = rows[i]
    if len(toks) != 1:
        raise ParseError("instance head line takes no arguments", start)
    automaton: str | None = None
    lhs: tuple[str, ...] | None = None
    rhs: tuple[str, ...] | None = None
    constraints: list[str] = []
    budget: int | None = None
    i += 1
    while i < len(rows):
        lineno, toks = rows[i]
        if toks == ["end"]:
            if automaton is None:
                raise ParseError("instance needs an automaton line", start)
            if lhs is None or rhs is None:
                raise ParseError("instance needs lhs and rhs lines", start)
            doc.instances.append(
                ParsedInstance(automaton, lhs, rhs, tuple(constraints), budget, start)
            )
            return i + 1
        if toks[0] == "automaton":
            if len(toks) != 2:
                raise ParseError("automaton line needs exactly one name", lineno)
            automaton = toks[1]
        elif toks[0] == "lhs":
            lhs = tuple(toks[1:])
        elif toks[0] == "rhs":
            rhs = tuple(toks[1:])
        elif toks[0] == "constraint":
            if len(toks) != 2:
                raise ParseError("constraint line needs exactly one name", lineno)
            constraints.append(toks[1])
        elif toks[0] == "budget":
            if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 1:
                raise ParseError("budget needs one positive integer", lineno)
            budget = int(toks[1])
        else:
            raise ParseError(f"unexpected {toks[0]!r} in instance block", lineno)
        i += 1
    raise ParseError("instance block not closed with 'end'", start)


# ---------------------------------------------------------------------------
# serialization


def _check_emittable(tok: str) -> str:
    if "%" in tok:
        raise ValueError(f"token {tok!r} contains '%' and would parse as a comment")
    return tok


def _token_line(keyword: str, toks) -> str:
    parts = [keyword]
    parts.extend(_check_emittable(t) for t in toks)
    return " ".join(parts)


def serialize_automaton(automaton: MealyAutomaton) -> str:
    lines = [_token_line("mealy", [automaton.name])]
    lines.append(_token_line("alphabet", sorted(automaton.alphabet)))
    lines.append(_token_line("states", sorted(automaton.states)))
    for (q, a) in sorted(automaton.transitions):
        b, p = automaton.transitions[(q, a)]
        lines.append(_token_line("t", [q, a, b, p]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_acceptor(acceptor: Acceptor) -> str:
    lines = [_token_line("acceptor", [acceptor.name])]
    lines.append(_token_line("alphabet", sorted(acceptor.alphabet)))
    lines.append(_token_line("states", sorted(acceptor.states)))
    lines.append(_token_line("initial", sorted(acceptor.initial)))
    lines.append(_token_line("final", sorted(acceptor.final)))
    for q, a, p in sorted(acceptor.transitions):
        lines.append(_token_line("t", [q, a, p]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_tm(tm: TuringMachineSpec) -> str:
    lines = [_token_line("tm", [tm.name])]
    lines.append(_token_line("tape", sorted(tm.tape_alphabet)))
    lines.append(_token_line("blank", [tm.blank]))
    lines.append(_token_line("states", sorted(tm.states)))
    lines.append(_token_line("initial", [tm.initial]))
    lines.append(_token_line("final", sorted(tm.finals)))
    for (z, g) in sorted(tm.rules):
        write, nxt, move = tm.rules[(z, g)]
        lines.append(_token_line("rule", [z, g, write, move, nxt]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def sequence_tokens(seq: StateSequence, automaton: MealyAutomaton) -> list[str]:
    """File spellings of the sequence items, refusing spellings the parser
    would resolve differently (an inversion shadowed by a literal state)."""
    toks = []
    for item in seq:
        if not item.inverted:
            toks.append(item.base)
            continue
        tok = "~" + item.base
        if tok in automaton.states:
            raise ValueError(
                f"cannot serialize inverted {item.base!r}: a state is literally "
                f"named {tok!r}"
            )
        toks.append(tok)
    return toks


def serialize_instance(
    instance: WordProblemInstance, budget: int | None = None
) -> str:
    """A self-contained document: the automaton, any constraint acceptors,
    and the instance block referring to them."""
    parts = [serialize_automaton(instance.automaton)]
    emitted: dict[str, Acceptor] = {}
    for acc in instance.constraints:
        if acc.name in emitted:
            if emitted[acc.name] != acc:
                raise ValueError(
                    f"two different constraint acceptors share the name {acc.name!r}"
                )
            continue
        emitted[acc.name] = acc
        parts.append(serialize_acceptor(acc))
    lines = ["instance", _token_line("automaton", [instance.automaton.name])]
    lines.append(
        _token_line("lhs", sequence_tokens(instance.lhs, instance.automaton))
    )
    lines.append(
        _token_line("rhs", sequence_tokens(instance.rhs, instance.automaton))
    )
    for acc in instance.constraints:
        lines.append(_token_line("constraint", [acc.name]))
    if budget is not None:
        lines.append(f"budget {budget}")
    lines.append("end")
    parts.append("\n".join(lines) + "\n")
    return "".join(parts)
