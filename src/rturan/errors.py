"""Shared exception types.

The CLI maps these onto exit codes: malformed input (GraphError, PathError,
PreconditionError) exits 2, guard/budget refusals (GuardError) exit 3, and
property violations found at runtime (WitnessError, FalsificationError, suite
failures) exit 1. Any other exception, a bare ValueError included, is a bug
and exits 4 with a one-line "internal error" message. So code that reads
user input refuses it with one of the three input types, never with a bare
ValueError; all three subclass ValueError, so library callers may still
catch that.
"""

from __future__ import annotations

import sys


class GraphError(ValueError):
    """Malformed graph data or graph file."""


class PathError(ValueError):
    """A vertex sequence that is not a path of the graph (structural error)."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold."""


class GuardError(RuntimeError):
    """A size/budget guard refused the computation (honest refusal, not failure)."""

    def __init__(self, topic: str, detail: str | None = None):
        super().__init__(topic if detail is None else f"{topic}: {detail}")
        self.topic = topic
        self.detail = detail


def too_deep(topic: str, walk: str) -> GuardError:
    """What a recursive walk raises in place of its RecursionError."""
    return GuardError(topic, f"{walk} recursed past the interpreter's "
                             f"limit ({sys.getrecursionlimit()} frames)")


class WitnessError(RuntimeError):
    """A rule-derived witness failed re-validation.

    This is the engine's soundness tripwire: it means a rotation rule produced
    a bad path, which is a bug, never acceptable data.
    """

    def __init__(self, rule: str, detail: str):
        super().__init__(f"witness validation failed for rule '{rule}': {detail}")
        self.rule = rule
        self.detail = detail


class FalsificationError(RuntimeError):
    """A quantity the source argument proves impossible was observed.

    Raised only by hard checks whose failure would falsify the underlying
    counting argument (e.g. the matched-step edge bound); treated as a bug in
    this package until proven otherwise.
    """
