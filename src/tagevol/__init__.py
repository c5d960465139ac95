"""Knowledge-tag instruction evolution pipeline.

Build a fine-grained tag pool from a seed dataset, inject budget-controlled
tag combinations into seed instructions through a chat-completion backend,
generate responses, and audit the result with n-gram leakage and tag-based
difficulty/diversity reports.
"""

from .errors import ParseError, PreconditionError, RecordError, TagEvolError
from .evolution import (
    PRESETS,
    RecordFailed,
    RoundsResult,
    build_evolution_prompt,
    evolve_record,
    evolve_rounds,
    parse_evolution_response,
    sample_candidates,
    validate_result,
)
from .gateway import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    Gateway,
    HttpBackend,
    MockBackend,
    ResponseCache,
    prompt_digest,
    user_message,
)
from .leakage import LeakageReport, count_matches, extract_ngrams
from .metrics import MetricsReport, difficulty, diversity, evaluate_dataset
from .records import (
    DatasetManifest,
    EvolvedRecord,
    InstructionRecord,
    build_manifest,
    load_dataset,
    merge_rounds,
    write_dataset,
)
from .responding import generate_responses
from .tagging import (
    TagEntry,
    TagPool,
    build_tag_pool,
    build_tagging_prompt,
    load_pool,
    normalize_tag,
    parse_tagging_response,
    save_pool,
)

__version__ = "0.1.0"

__all__ = [
    "ChatMessage",
    "ChatRequest",
    "ChatResponse",
    "DatasetManifest",
    "EvolvedRecord",
    "Gateway",
    "HttpBackend",
    "InstructionRecord",
    "LeakageReport",
    "MetricsReport",
    "MockBackend",
    "ParseError",
    "PreconditionError",
    "PRESETS",
    "RecordError",
    "RecordFailed",
    "ResponseCache",
    "RoundsResult",
    "TagEntry",
    "TagEvolError",
    "TagPool",
    "build_evolution_prompt",
    "build_manifest",
    "build_tag_pool",
    "build_tagging_prompt",
    "count_matches",
    "difficulty",
    "diversity",
    "evaluate_dataset",
    "evolve_record",
    "evolve_rounds",
    "extract_ngrams",
    "generate_responses",
    "load_dataset",
    "load_pool",
    "merge_rounds",
    "normalize_tag",
    "parse_evolution_response",
    "parse_tagging_response",
    "prompt_digest",
    "sample_candidates",
    "save_pool",
    "user_message",
    "validate_result",
    "write_dataset",
]
