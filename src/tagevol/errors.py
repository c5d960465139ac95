"""Exception types shared across pipeline stages."""

from __future__ import annotations


class TagEvolError(Exception):
    """Base class for all errors raised by this package."""


class RecordError(TagEvolError):
    """One record failed; ``Gateway.map_in_order`` lists it in the stage's failures and the stage carries on."""


class ParseError(RecordError):
    """A model reply does not follow the expected reply format.

    ``reason`` is a stable machine-readable code such as ``MissingMarker``,
    ``BadObject``, ``Empty``, ``MissingStep3``, ``BadSubset`` or
    ``Truncated``. ``Gateway.complete`` alone raises ``Truncated``, for a
    reply that stopped at ``max_tokens``, in every stage.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class StageFailed(TagEvolError):
    """A stage produced no usable output, such as a tag pool or a round; the CLI exits 3."""


class PreconditionError(TagEvolError, ValueError):
    """An operation was invoked with inputs that violate its preconditions."""


class WriteError(TagEvolError):
    """A dataset, JSON artifact or cache entry could not be written."""


class LoadError(TagEvolError):
    """An input file (dataset, pool, config, mock script) cannot be read, is not UTF-8 or is malformed."""

    def __init__(self, path, line: int, detail: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {detail}")
