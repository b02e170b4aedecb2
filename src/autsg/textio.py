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

Within a block, list lines (alphabet, states, tape, final, constraint and
an acceptor's initial) add up when repeated; of other repeated lines, lhs
and rhs among them, the last one wins. _BLOCKS states the table above
once, with the builder of each kind: one reader collects a block's lines up
to end, checking keywords and the size of fixed-size lines, and the builder
makes the object. A ParseError names its line: a line's own fault names
that line, a block its constructor rejects names the first line using a
token the block does not declare, or else the head line, an instance names
the automaton, lhs, rhs or constraint line whose name does not resolve, and
bytes that are not UTF-8 name the line of the first one in their file.

Serializers emit blocks with sorted alphabets, states and transitions, so
output is deterministic; they refuse tokens that would not survive a parse
(a "%" anywhere, or an inverted state whose "~"-prefixed spelling collides
with a literal state name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .errors import AutomatonError, ParseError
from .mealy import Acceptor, MealyAutomaton, SignedState, StateSequence, _gc_paused
from .turing import MOVES, TuringMachineSpec
from .wordproblem import WordProblemInstance


@dataclass
class ParsedInstance:
    """An instance block before name resolution."""

    automaton_name: str
    lhs_tokens: tuple[str, ...]
    rhs_tokens: tuple[str, ...]
    constraint_names: tuple[str, ...] = ()
    budget: int | None = None
    line: int | None = None
    # the lines of the automaton, lhs and rhs keywords, then of each constraint
    lines: tuple[int, ...] = field(default=(), compare=False, repr=False)


@dataclass
class DocumentSet:
    """Everything declared in one file (plus includes), in declaration
    order. Automata, acceptors and machines live in separate namespaces."""

    automata: dict[str, MealyAutomaton] = field(default_factory=dict)
    acceptors: dict[str, Acceptor] = field(default_factory=dict)
    machines: dict[str, TuringMachineSpec] = field(default_factory=dict)
    instances: list[ParsedInstance] = field(default_factory=list)

    def resolve(self, parsed: ParsedInstance) -> WordProblemInstance:
        at_automaton, at_lhs, at_rhs, *at_constraints = (
            parsed.lines or [parsed.line] * (3 + len(parsed.constraint_names))
        )
        if parsed.automaton_name not in self.automata:
            raise ParseError(
                f"instance refers to unknown automaton {parsed.automaton_name!r}",
                at_automaton,
            )
        automaton = self.automata[parsed.automaton_name]
        constraints = []
        for name, line in zip(parsed.constraint_names, at_constraints, strict=True):
            if name not in self.acceptors:
                raise ParseError(f"instance refers to unknown acceptor {name!r}", line)
            constraints.append(self.acceptors[name])
        lhs = [_resolve_seq_token(t, automaton, at_lhs) for t in parsed.lhs_tokens]
        rhs = [_resolve_seq_token(t, automaton, at_rhs) for t in parsed.rhs_tokens]
        try:
            return WordProblemInstance(automaton, lhs, rhs, constraints)
        except AutomatonError as exc:
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


@_gc_paused
def parse_file(path: str | Path) -> DocumentSet:
    path = Path(path)
    doc = DocumentSet()
    _parse_into(doc, _read_text(path), path.parent, {path.resolve()})
    return doc


def _read_text(path: Path) -> str:
    """The file's text; a ParseError names the line of its first byte that is
    not UTF-8, numbered as _rows numbers lines."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(f"{path.name} is not UTF-8 text: {exc.reason}", line) from exc


@_gc_paused
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
    rows = iter(_rows(text))
    for lineno, toks in rows:
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
                    text2 = _read_text(target)
                except OSError as exc:
                    raise ParseError(f"cannot include {toks[1]!r}: {exc}", lineno) from exc
                _parse_into(doc, text2, target.parent, seen)
        elif head in _BLOCKS:
            _read_block(doc, rows, lineno, toks)
        else:
            raise ParseError(f"unexpected token {head!r} at top level", lineno)


_Body = dict[str, list[tuple[int, list[str]]]]


def _read_block(doc: DocumentSet, rows, start: int, head: list[str]) -> None:
    """Read one block from rows (an iterator positioned after its head line)
    up to its end line, collecting the body lines by keyword, then build it
    and store it in doc."""
    kind, name = head[0], None
    field, usages, build = _BLOCKS[kind]
    if field is None:
        if len(head) != 1:
            raise ParseError("instance head line takes no arguments", start)
    elif len(head) != 2:
        raise ParseError(f"{kind} head line needs exactly one name", start)
    else:
        name = head[1]
        if name in getattr(doc, field):
            noun = "automaton" if kind == "mealy" else kind
            raise ParseError(f"duplicate {noun} name {name!r}", start)
    arity = {kw: len(u.split()) + 1 for kw, u in usages.items() if u is not None}
    body: _Body = {kw: [] for kw in usages}
    for row in rows:
        lineno, toks = row
        keyword = toks[0]
        if keyword == "end" and len(toks) == 1:
            built = build(name, start, body)
            if field is None:
                doc.instances.append(built)
            else:
                getattr(doc, field)[name] = built
            return
        lines = body.get(keyword)
        if lines is None:
            raise ParseError(f"unexpected {keyword!r} in {kind} block", lineno)
        n = arity.get(keyword)
        if n is not None and len(toks) != n:
            usage = usages[keyword]
            needs = usage if " " in usage else f"exactly one {usage.lower()}"
            raise ParseError(f"{keyword} line needs {needs}", lineno)
        lines.append(row)
    raise ParseError(f"{kind} block not closed with 'end'", start)


def _tokens(lines) -> list[str]:
    """The arguments of every line, in order."""
    return [tok for _, toks in lines for tok in toks[1:]]


def _last(lines) -> list[str] | None:
    """The arguments of the last line (a repeated line overrides), if any."""
    return lines[-1][1][1:] if lines else None


def _culprit(start: int, body: _Body, **declared) -> int:
    """The line to blame once a constructor has rejected a block: the first
    line naming a token the block does not declare, searching the keywords
    in the order given (the order the constructor checks them); else the
    head line, for faults of the block as a whole. declared maps a keyword
    to the set its arguments come from, or to one set per argument (None
    for an argument that is not a declared token)."""
    for keyword, sets in declared.items():
        for lineno, toks in body[keyword]:
            args = toks[1:]
            expected = [sets] * len(args) if isinstance(sets, set) else sets
            if any(s is not None and tok not in s for tok, s in zip(args, expected)):
                return lineno
    return start


def _build_mealy(name: str, start: int, body: _Body) -> MealyAutomaton:
    trans: dict[tuple[str, str], tuple[str, str]] = {}
    for lineno, (_, q, a, b, p) in body["t"]:
        if (q, a) in trans:
            raise ParseError(f"duplicate transition for state {q!r} on {a!r}", lineno)
        trans[q, a] = (b, p)
    alphabet, states = _tokens(body["alphabet"]), _tokens(body["states"])
    try:
        return MealyAutomaton(name, alphabet, states, trans)
    except AutomatonError as exc:
        q, a = set(states), set(alphabet)
        raise ParseError(str(exc), _culprit(start, body, t=(q, a, a, q))) from exc


def _build_acceptor(name: str, start: int, body: _Body) -> Acceptor:
    alphabet, states = _tokens(body["alphabet"]), _tokens(body["states"])
    initial, final = _tokens(body["initial"]), _tokens(body["final"])
    triples = [(q, a, p) for _, (_, q, a, p) in body["t"]]
    try:
        return Acceptor(name, alphabet, states, triples, initial, final)
    except AutomatonError as exc:
        q, a = set(states), set(alphabet)
        line = _culprit(start, body, t=(q, a, q), initial=q, final=q)
        raise ParseError(str(exc), line) from exc


def _build_tm(name: str, start: int, body: _Body) -> TuringMachineSpec:
    rules: dict[tuple[str, str], tuple[str, str, str]] = {}
    for lineno, (_, z, g, write, move, nxt) in body["rule"]:
        if move not in MOVES:
            raise ParseError(f"move must be one of {MOVES}", lineno)
        if (z, g) in rules:
            raise ParseError(f"duplicate rule for state {z!r} reading {g!r}", lineno)
        rules[z, g] = (write, nxt, move)
    blank, initial = _last(body["blank"]), _last(body["initial"])
    if blank is None:
        raise ParseError("tm block needs a blank line", start)
    if initial is None:
        raise ParseError("tm block needs an initial line", start)
    tape, states, final = (_tokens(body[kw]) for kw in ("tape", "states", "final"))
    try:
        return TuringMachineSpec(name, tape, blank[0], states, initial[0], final, rules)
    except AutomatonError as exc:
        z, g = set(states), set(tape)
        line = _culprit(start, body, blank=g, initial=z, final=z, rule=(z, g, g, None, z))
        raise ParseError(str(exc), line) from exc


def _build_instance(_name: None, start: int, body: _Body) -> ParsedInstance:
    for lineno, toks in body["budget"]:
        if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 1:
            raise ParseError("budget needs one positive integer", lineno)
    automaton, lhs, rhs, budget = (
        _last(body[kw]) for kw in ("automaton", "lhs", "rhs", "budget")
    )
    if automaton is None:
        raise ParseError("instance needs an automaton line", start)
    if lhs is None or rhs is None:
        raise ParseError("instance needs lhs and rhs lines", start)
    constraints = tuple(_tokens(body["constraint"]))
    budget = None if budget is None else int(budget[0])
    lines = tuple(body[kw][-1][0] for kw in ("automaton", "lhs", "rhs"))
    lines += tuple(lineno for lineno, _ in body["constraint"])
    return ParsedInstance(automaton[0], tuple(lhs), tuple(rhs), constraints, budget, start, lines)


# kind -> (the DocumentSet field a named kind is stored in, {keyword: usage of
# a fixed-size line, None for a line of any length (budget too: its builder
# checks it)}, builder). A one-word usage such as TOKEN reads "exactly one
# token" in the error message.
_BLOCKS = {
    "mealy": ("automata", {
        "alphabet": None, "states": None, "t": "STATE IN OUT STATE",
    }, _build_mealy),
    "acceptor": ("acceptors", {
        "alphabet": None, "states": None, "initial": None, "final": None,
        "t": "STATE IN STATE",
    }, _build_acceptor),
    "tm": ("machines", {
        "tape": None, "blank": "TOKEN", "states": None, "initial": "TOKEN", "final": None,
        "rule": "STATE READ WRITE MOVE STATE",
    }, _build_tm),
    "instance": (None, {
        "automaton": "NAME", "lhs": None, "rhs": None, "constraint": "NAME", "budget": None
    }, _build_instance),
}


# ---------------------------------------------------------------------------
# serialization


def _block(head: str, lines) -> str:
    """A block: the head line, one line per token sequence in lines, then
    end. Refuses a token containing "%", which would parse as the start of a
    comment."""
    text = "\n".join([head, *map(" ".join, lines), "end\n"])
    if "%" in text:
        tok = next(t for t in text.split() if "%" in t)
        raise AutomatonError(f"token {tok!r} contains '%' and would parse as a comment")
    return text


# The serializers pass rows as generators, and serialize_automaton streams
# the table's cells, already sorted, so that the rows of a large automaton
# are held neither as tuples nor as a dict next to their text.


def serialize_automaton(automaton: MealyAutomaton) -> str:
    head = [
        ("alphabet", *sorted(automaton.alphabet)),
        ("states", *sorted(automaton.states)),
    ]
    rows = (("t", *cell) for cell in automaton._table.cells())
    return _block(f"mealy {automaton.name}", chain(head, rows))


def serialize_acceptor(acceptor: Acceptor) -> str:
    keywords = ("alphabet", "states", "initial", "final")
    head = [(kw, *sorted(getattr(acceptor, kw))) for kw in keywords]
    rows = (("t", *triple) for triple in sorted(acceptor.transitions))
    return _block(f"acceptor {acceptor.name}", chain(head, rows))


def serialize_tm(tm: TuringMachineSpec) -> str:
    head = [
        ("tape", *sorted(tm.tape_alphabet)),
        ("blank", tm.blank),
        ("states", *sorted(tm.states)),
        ("initial", tm.initial),
        ("final", *sorted(tm.finals)),
    ]
    rules = sorted(tm.rules.items())
    rows = (("rule", z, g, write, move, z2) for (z, g), (write, z2, move) in rules)
    return _block(f"tm {tm.name}", chain(head, rows))


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
            raise AutomatonError(
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
                raise AutomatonError(
                    f"two different constraint acceptors share the name {acc.name!r}"
                )
            continue
        emitted[acc.name] = acc
        parts.append(serialize_acceptor(acc))
    lines = [
        ("automaton", instance.automaton.name),
        ("lhs", *sequence_tokens(instance.lhs, instance.automaton)),
        ("rhs", *sequence_tokens(instance.rhs, instance.automaton)),
        *(("constraint", acc.name) for acc in instance.constraints),
    ]
    if budget is not None:
        lines.append(("budget", str(budget)))
    parts.append(_block("instance", lines))
    return "".join(parts)
