"""Exception hierarchy for the whole package.

Everything raised on purpose derives from AutomatonError so callers (and the
CLI) can catch one base class for "bad input or bad usage" and let genuine
bugs propagate. AutomatonError is a ValueError, as json.JSONDecodeError is;
a sequence item that is not a str or a SignedState raises TypeError.
"""

from __future__ import annotations


class AutomatonError(ValueError):
    """Base class for all errors raised by this package."""


class UnknownLetter(AutomatonError):
    """A letter was used that the automaton's alphabet does not declare."""


class UnknownState(AutomatonError):
    """A state was referenced that the automaton does not declare."""


class NotInverseDeterministic(AutomatonError):
    """An inverse step or invert() needed pairwise-distinct outputs at a state."""


class ReservedTokenCollision(AutomatonError):
    """A construction needed a reserved token that is already in use."""


class ConfigBudgetExceeded(AutomatonError):
    """decide() explored more configurations than the caller allowed.

    configs is the number of configurations stored and depth the
    breadth-first depth reached when the search stopped."""

    def __init__(self, message: str, configs: int, depth: int):
        self.configs = configs
        self.depth = depth
        super().__init__(f"{message} ({configs} stored, depth {depth} reached)")


class MalformedDfa(AutomatonError):
    """An acceptor that must be a complete binary DFA is not one."""


class NotGAutomaton(AutomatonError):
    """Internal assertion: a group-variant construction failed its own check."""


class SpaceBoundViolated(AutomatonError):
    """A machine run left the declared tape window."""


class LeftEdgeViolated(AutomatonError):
    """A machine run tried to move left of position 0."""


class ParseError(AutomatonError):
    """A text block could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
