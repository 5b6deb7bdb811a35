"""Shared exception types with the exit-code semantics the CLI relies on."""

from __future__ import annotations

__all__ = [
    "InputError",
    "ParseError",
    "ValidationError",
    "PreconditionError",
    "InternalInvariantError",
]


class InputError(ValueError):
    """Invalid argument (dimension mismatch, containment violation, ...)."""


class ParseError(InputError):
    """Malformed text input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(Exception):
    """Structurally parseable input that fails a mathematical check."""

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class PreconditionError(ValueError):
    """An operation was called on data violating its stated precondition."""


class InternalInvariantError(RuntimeError):
    """A certified internal identity failed; indicates corrupt input or a bug."""
