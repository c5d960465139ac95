"""Exception types shared across pipeline stages."""

from __future__ import annotations


class TagEvolError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TagEvolError):
    """A model reply does not follow the expected reply format.

    ``reason`` is a stable machine-readable code such as ``MissingMarker``,
    ``BadObject``, ``Empty``, ``MissingStep3`` or ``BadSubset``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class PreconditionError(TagEvolError, ValueError):
    """An operation was invoked with inputs that violate its preconditions."""
