"""Exception types shared across pipeline stages."""

from __future__ import annotations


class TagEvolError(Exception):
    """Base class for all errors raised by this package."""


class RecordError(TagEvolError):
    """One record failed; ``Gateway.map_in_order`` lists it in the stage's failures and the stage carries on."""


class ParseError(RecordError):
    """A model reply does not follow the expected reply format.

    ``reason`` is a stable machine-readable code such as ``MissingMarker``,
    ``BadObject``, ``Empty``, ``MissingStep3`` or ``BadSubset``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class PreconditionError(TagEvolError, ValueError):
    """An operation was invoked with inputs that violate its preconditions."""


class LoadError(TagEvolError):
    """An input file (dataset, pool, config, mock script) cannot be read, is not UTF-8 or is malformed."""

    def __init__(self, path, line: int, detail: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {detail}")
