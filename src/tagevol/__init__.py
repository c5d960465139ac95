"""Knowledge-tag instruction evolution pipeline.

Build a fine-grained tag pool from a seed dataset, inject budget-controlled
tag combinations into seed instructions through a chat-completion backend,
generate responses, and audit the result with n-gram leakage and tag-based
difficulty/diversity reports.

The package root re-exports only the calls of a basic run and the error
bases; the submodules (``gateway``, ``tagging``, ``evolution``,
``responding``, ``records``, ``leakage``, ``metrics``, ``cli``) are the full
API.
"""

from .errors import ParseError, PreconditionError, RecordError, TagEvolError
from .evolution import evolve_rounds
from .gateway import Gateway, MockBackend
from .records import load_dataset, merge_rounds
from .responding import generate_responses
from .tagging import build_tag_pool

__version__ = "0.1.0"

__all__ = [
    "Gateway",
    "MockBackend",
    "ParseError",
    "PreconditionError",
    "RecordError",
    "TagEvolError",
    "build_tag_pool",
    "evolve_rounds",
    "generate_responses",
    "load_dataset",
    "merge_rounds",
]
