"""Budget-controlled tag injection: sample a candidate tag batch, prompt the
model to select a budget-sized subset and rewrite the instruction, parse the
four-step reply, validate the selection constraints, and orchestrate
multi-round evolution over a seed dataset.

Every round evolves from the seed dataset (never from a prior round), so a
round is one pass over the seeds at a fixed budget. Validation flags are
advisory: violating records are kept with the violation named, and callers
may filter on flags downstream.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ParseError, PreconditionError
from .gateway import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_RETRIES,
    DEFAULT_TEMPERATURE,
    ChatRequest,
    ChatResponse,
    Gateway,
    user_message,
)
from .records import (
    FLAG_FINAL_EQUALS_ORIGINAL,
    FLAG_SUBSET_NOT_IN_CANDIDATES,
    FLAG_SUBSET_SIZE_MISMATCH,
    FLAG_TAG_ALREADY_PRESENT,
    FLAG_WORD_DELTA_OUT_OF_RANGE,
    EvolvedRecord,
    InstructionRecord,
    dedup_key,
)
from .tagging import TagPool, extract_balanced, fill_template, normalized_tags, parse_literal

log = logging.getLogger(__name__)

DEFAULT_CANDIDATE_SIZE = 30
WORD_DELTA_MIN = 10
WORD_DELTA_PER_BUDGET = 20

# Round schedules per domain: three budgets, one round each.
PRESETS = {"math": [1, 3, 5], "code": [3, 5, 7]}

EVOLUTION_PROMPT = """\
You are an Instruction Rewriter that rewrites the given #Instruction# into a more challenging version based on the given tags.

Here is the #Instruction#: {instruction}

Here is the #Tag List#:
{tag_list}

Please follow the steps below to rewrite the given #Instruction# into a more intricate and demanding version.

Step 1: Carefully read the #Instruction# and #Tag List#. Select a subset from the #Tag List# that will allow the #Instruction# to evolve and become more complex. The chosen subset should provide richer, more nuanced information that enhances the original prompt, ultimately increasing its difficulty and quality. Aim to challenge advanced AI assistants like ChatGPT and GPT-4. The subset should contain {budget} tags and must exclude any tags already present in the #Instruction#.

Step 2: Develop a comprehensive plan based on the #Tag subset# generated in Step 1 to make the #Instruction# more challenging. This plan should focus on seamlessly integrating multiple tags from the #Tag subset# into the original #Instruction#.

Step 3: Execute the plan step by step and provide the #Rewritten Instruction#. The #Rewritten Instruction# may only add between 10 and {word_limit} words to the original #Instruction#.

Step 4: Thoroughly review the #Rewritten Instruction# to identify any inconsistencies. Ensure that the #Rewritten Instruction# is solely a more challenging version of the original #Instruction#.Provide only the #Final Rewritten Instruction# without any additional explanation.

Please reply strictly in the following format:
Step 1 #Tag subset#:
Step 2 #Plan#:
Step 3 #Rewritten Instruction#:
Step 4 #Finally Rewritten Instruction#:
"""

# Step markers in the model reply. "final" must be listed before "rewritten"
# so the longer marker wins where both could start, and it tolerates the
# Final/Finally variation.
_MARKER_RE = re.compile(
    r"#\s*(?:(?P<subset>tag\s*subset)|(?P<plan>plan)"
    r"|(?P<final>final(?:ly)?\s+rewritten\s+instruction)"
    r"|(?P<rewritten>rewritten\s+instruction))\s*#",
    re.IGNORECASE,
)
_SECTION_ORDER = ("subset", "plan", "rewritten", "final")


@dataclass(frozen=True)
class ParsedEvolution:
    """The four reply sections: tag subset, plan, rewritten and final text."""

    subset: list[str]
    plan: str
    rewritten: str
    final: str


def sample_candidates(pool: TagPool, size: int, rng: random.Random) -> list[str]:
    """Uniform sample without replacement over distinct tag strings.

    A ``size`` above the pool's distinct tag count returns the whole pool
    shuffled; :func:`evolve_rounds` clamps it once per run, with a warning.
    Deterministic for a given rng state.
    """
    tags = pool.distinct_tags()
    return rng.sample(tags, min(size, len(tags)))


def build_evolution_prompt(
    record: InstructionRecord | str, budget: int, cand: Sequence[str]
) -> str:
    """Render the rewriting prompt with instruction, tag list and budget filled in.

    The tag list renders as a JSON array of strings and the word-limit clause
    renders the per-budget cap as a literal number (20 times the budget).
    :func:`evolve_rounds` checks that ``cand`` holds at least ``budget`` >= 1 tags.
    """
    text = record.instruction if isinstance(record, InstructionRecord) else str(record)
    return fill_template(
        EVOLUTION_PROMPT,
        {
            "instruction": text,
            "tag_list": json.dumps(list(cand), ensure_ascii=False),
            "budget": str(budget),
            "word_limit": str(WORD_DELTA_PER_BUDGET * budget),
        },
    )


def _clean_section(text: str) -> str:
    """Trim a section body, dropping leading colon/markdown residue from the marker line."""
    text = text.strip()
    while text and text[0] in ":*`":
        text = text[1:].lstrip()
    return text.rstrip()


def _parse_subset(section: str) -> list[str]:
    """Read the step-1 tag list: JSON array, quoted bracket list, or comma line.

    A list nested too deeply to parse is :class:`ParseError` ``BadSubset``.
    """
    text = _clean_section(section)
    bracket = extract_balanced(text, "[", "]")
    try:
        value = None if bracket is None else parse_literal(bracket)
    except (ValueError, SyntaxError, TypeError):
        value = None
    except RecursionError as err:
        raise ParseError("BadSubset", f"cannot parse step 1 subset: {err}") from err
    if isinstance(value, (list, tuple)):
        items = [str(v) for v in value]
    else:
        line = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
        line = line.strip("[]")
        items = [piece.strip().strip("'\"") for piece in line.split(",")]
    tags = list(dict.fromkeys(tag for _, tag in normalized_tags(items)))
    if not tags:
        raise ParseError("BadSubset", f"no usable tags in step 1 subset: {text[:80]!r}")
    return tags


def parse_evolution_response(text: str) -> ParsedEvolution:
    """Split the reply into its four step sections by their ``#...#`` markers.

    Marker matching is case-insensitive; when a marker repeats, the last
    occurrence wins. Subset tags come back normalized.
    """
    hits: list[tuple[str, int, int]] = []
    for match in _MARKER_RE.finditer(text):
        kind = next(k for k in _SECTION_ORDER if match.group(k))
        hits.append((kind, match.start(), match.end()))
    sections: dict[str, str] = {}
    for i, (kind, _, end) in enumerate(hits):
        next_start = hits[i + 1][1] if i + 1 < len(hits) else len(text)
        sections[kind] = text[end:next_start]
    for step, kind in enumerate(_SECTION_ORDER, start=1):
        if kind not in sections:
            raise ParseError(f"MissingStep{step}", f"no marker for step {step} ({kind})")
    final = _clean_section(sections["final"])
    if not final:
        raise ParseError("MissingStep4", "step 4 section is empty")
    return ParsedEvolution(
        subset=_parse_subset(sections["subset"]),
        plan=_clean_section(sections["plan"]),
        rewritten=_clean_section(sections["rewritten"]),
        final=final,
    )


def word_count(text: str) -> int:
    """Whitespace word count; the oracle behind the word-delta check."""
    return len(text.split())


def validate_result(
    parsed: ParsedEvolution, budget: int, cand: Sequence[str], original: str
) -> list[str]:
    """Check the parsed reply against the selection constraints; return flag codes.

    All flags are advisory. The tag-presence check uses normalized substring
    matching against the original instruction; the word-delta window is
    [10, 20 * budget] added words.
    """
    flags: list[str] = []
    cand_set = set(cand)
    if len(parsed.subset) != budget:
        flags.append(FLAG_SUBSET_SIZE_MISMATCH)
    if not set(parsed.subset) <= cand_set:
        flags.append(FLAG_SUBSET_NOT_IN_CANDIDATES)
    original_norm = dedup_key(original.lower())
    if any(tag in original_norm for tag in parsed.subset):
        flags.append(FLAG_TAG_ALREADY_PRESENT)
    delta = word_count(parsed.final) - word_count(original)
    if not (WORD_DELTA_MIN <= delta <= WORD_DELTA_PER_BUDGET * budget):
        flags.append(FLAG_WORD_DELTA_OUT_OF_RANGE)
    if dedup_key(parsed.final) == dedup_key(original):
        flags.append(FLAG_FINAL_EQUALS_ORIGINAL)
    return flags


def evolve_record(
    record: InstructionRecord,
    budget: int,
    pool: TagPool,
    gateway: Gateway,
    rng: random.Random,
    cand_size: int = DEFAULT_CANDIDATE_SIZE,
    retries: int = DEFAULT_RETRIES,
    *,
    model: str,
    round_index: int = 1,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> EvolvedRecord:
    """Evolve one record: sample candidates, prompt, parse, validate, package.

    Each attempt draws a fresh candidate batch from ``rng``; an unparseable
    reply consumes one of ``retries`` extra attempts. A backend failure ends
    the record at once, because the gateway has already retried the
    transient ones. Raises the gateway's :class:`BackendError`, or the last
    :class:`ParseError` when no reply parses. The returned record carries
    full provenance (candidates, subset, plan, flags, reply digest).
    :func:`evolve_rounds` checks ``budget``, ``cand_size`` and the pool size
    before any send.
    """
    candidates: list[str] = []

    def next_request() -> ChatRequest:
        candidates[:] = sample_candidates(pool, cand_size, rng)
        prompt = build_evolution_prompt(record, budget, candidates)
        return ChatRequest(
            model=model,
            messages=(user_message(prompt),),
            temperature=temperature,
            max_tokens=max_tokens,
        )

    def parse(response: ChatResponse) -> tuple[ParsedEvolution, str]:
        parsed = parse_evolution_response(response.content)
        return parsed, hashlib.sha256(response.content.encode("utf-8")).hexdigest()

    parsed, digest = gateway.ask(next_request, parse, retries)
    return EvolvedRecord(
        id=f"{record.id}:round{round_index}",
        instruction=parsed.final,
        response=None,
        meta={},
        parent_id=record.id,
        round=round_index,
        budget=budget,
        selected_tags=list(parsed.subset),
        candidate_tags=list(candidates),
        plan=parsed.plan,
        flags=validate_result(parsed, budget, candidates, record.instruction),
        raw_digest=digest,
    )


def record_seed(master_seed: int, round_index: int, record_index: int) -> int:
    """Per-record rng seed derived from the master seed.

    String seeding hashes through SHA-512 inside random.Random, so the value
    is stable across processes and independent of dispatch order.
    """
    return random.Random(f"{master_seed}:{round_index}:{record_index}").getrandbits(63)


@dataclass
class RoundsResult:
    """Per-round evolved datasets plus the per-record failure report."""

    rounds: list[list[EvolvedRecord]] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)


def evolve_rounds(
    seed_records: Sequence[InstructionRecord],
    budgets: Sequence[int],
    pool: TagPool,
    gateway: Gateway,
    master_seed: int,
    cand_size: int = DEFAULT_CANDIDATE_SIZE,
    retries: int = DEFAULT_RETRIES,
    *,
    model: str,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> RoundsResult:
    """Run one round per budget, always evolving from the seed dataset.

    Round ``i`` applies ``budgets[i-1]`` to every seed record. Rounds share no
    state, so all (round, record) jobs go through one ``gateway.map_in_order``
    call in round-major order and no round waits for the previous one.
    Per-record rng streams are derived from the master seed and the
    (round, record) position, so outputs are bit-reproducible regardless of
    scheduling. Failed records are skipped and reported in round-major seed
    order, never silently dropped.

    This is the one check of the run's budgets: they must be a nonempty list
    of integers >= 1, and both ``cand_size`` and the pool's distinct tag
    count must reach the largest budget. A violation raises
    :class:`PreconditionError` before any send. A ``cand_size`` above the
    distinct tag count is clamped to it, with one warning per run.
    """
    budgets = list(budgets)
    if not budgets or any(b < 1 for b in budgets):
        raise PreconditionError("budgets must be a nonempty list of integers >= 1")
    largest = max(budgets)
    if cand_size < largest:
        raise PreconditionError(f"candidate_size {cand_size} is smaller than the largest budget {largest}")
    distinct = pool.distinct_tag_count
    if distinct < largest:
        raise PreconditionError(f"pool has {distinct} distinct tags but the largest budget is {largest}")
    if cand_size > distinct:
        log.warning("candidate batch clamped: requested %d, pool holds %d", cand_size, distinct)
        cand_size = distinct
    seed_records = list(seed_records)
    jobs = [
        (round_index, budget, index, record)
        for round_index, budget in enumerate(budgets, start=1)
        for index, record in enumerate(seed_records)
    ]

    def evolve_job(job: tuple[int, int, int, InstructionRecord]) -> EvolvedRecord:
        round_index, budget, index, record = job
        return evolve_record(
            record,
            budget,
            pool,
            gateway,
            random.Random(record_seed(master_seed, round_index, index)),
            cand_size,
            retries,
            model=model,
            round_index=round_index,
            temperature=temperature,
            max_tokens=max_tokens,
        )

    evolved, failures = gateway.map_in_order(
        evolve_job, jobs, label=lambda job: {"round": job[0], "record_id": job[3].id}
    )
    result = RoundsResult(rounds=[[] for _ in budgets], failures=failures)
    for record in evolved:
        if record is not None:
            result.rounds[record.round - 1].append(record)
    return result
