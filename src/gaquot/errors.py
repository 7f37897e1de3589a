"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from ``GaquotError`` so callers (in
particular the CLI) can distinguish bad input from genuine bugs.
"""

from __future__ import annotations


class GaquotError(Exception):
    """Base class for all errors raised deliberately by this package."""


class VariableTableMismatch(GaquotError, ValueError):
    """Two polynomials over different variable tables were combined."""


class ExprSyntaxError(GaquotError, ValueError):
    """Malformed polynomial expression; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotDivisible(GaquotError, ArithmeticError):
    """Exact division was requested but the quotient is not polynomial."""


class NonInvariantInput(GaquotError, ValueError):
    """A polynomial that must be killed by the derivation is not."""


class GraphInconsistency(GaquotError, ValueError):
    """A graph presentation is not stable under the ambient derivation."""


class ConstructionFailure(GaquotError, RuntimeError):
    """An operator triple could not be solved or failed its bracket checks."""


class UnsupportedBlock(GaquotError, ValueError):
    """No closed-form invariants are catalogued for the requested summands."""


class InternalInconsistency(GaquotError, RuntimeError):
    """Two independent characterisations disagreed; always a bug or a
    falsified fixture, never a legitimate answer."""


class JobError(GaquotError, ValueError):
    """A CLI job file is malformed or references unknown data."""
