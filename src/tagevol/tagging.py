"""Tag pool construction: two-step aspect-then-tag prompting of the backend,
strict parsing of the reply, tag normalization, and pool persistence.

The tagging prompt asks the model to first name abstract aspects of a task
and then assign concrete tags under each aspect, replying with a final
``#Aspect2Tags#`` object. Only that object is consumed; the step-1 reasoning
is kept in the build report for audit.
"""

from __future__ import annotations

import ast
import json
import logging
import re
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import LoadError, ParseError, PreconditionError, TagEvolError
from .gateway import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_RETRIES,
    DEFAULT_TEMPERATURE,
    ChatRequest,
    ChatResponse,
    Gateway,
    user_message,
)
from .records import InstructionRecord, _checked, _is_int, _is_str, _is_str_list, read_json, write_json

log = logging.getLogger(__name__)

POOL_FORMAT_VERSION = 1

TAGGING_PROMPT = """\
You are a tagging system that provides useful tags for task intentions to distinguish tasks for a helpful AI assistant.
#Task {instruction}
Please follow the steps below to assign tags to the given task.
Step 1: Consider from which aspects that tags can be assigned to cover main features of the task and provide a brief explanation. Aspects need to be summarizing, such as 'Required skill'. etc. Please summarize this task with as few aspects as possible.
Step 2: Based on the #Aspect List# obtained in Step 1, assign core tags to the given task from each aspect.

Please reply strictly in the following format:
Step 1 #Aspect List and Explanation#:
Step 2 #Aspect2Tags#:

#Aspect2Tags#
{"xxx":[tag1, tag2, ...], "xxx":[tag1, tag2, ...], ...}
where xxx means aspect you get in step 1.
"""

_SLOT_RE = re.compile(r"\{(instruction|tag_list|budget|word_limit)\}")
_ASPECT2TAGS_RE = re.compile(r"#\s*aspect\s*2\s*tags\s*#", re.IGNORECASE)


class RejectedTag(TagEvolError):
    """Normalization left nothing usable (e.g. punctuation-only input)."""


class BuildFailed(TagEvolError):
    """Tag pool construction produced no usable tags."""


def fill_template(template: str, values: dict[str, str]) -> str:
    """Substitute named slots in a single pass, leaving all other text verbatim.

    Single-pass substitution means slot-like text inside the values can never
    be re-expanded, and literal braces elsewhere in the template survive.
    """
    return _SLOT_RE.sub(lambda match: values[match.group(1)], template)


def build_tagging_prompt(record: InstructionRecord | str) -> str:
    """Render the tagging prompt with the instruction substituted verbatim; an empty one is a :class:`PreconditionError`."""
    text = record.instruction if isinstance(record, InstructionRecord) else str(record)
    if not text.strip():
        raise PreconditionError("cannot tag an empty instruction")
    return fill_template(TAGGING_PROMPT, {"instruction": text})


def extract_balanced(text: str, open_char: str, close_char: str) -> str | None:
    """Return the first balanced ``open_char``...``close_char`` span, or None.

    Quotes (single and double) are respected so that brackets inside string
    literals do not affect the balance.
    """
    start = text.find(open_char)
    if start < 0:
        return None
    depth = 0
    quote: str | None = None
    i = start
    while i < len(text):
        ch = text[i]
        if quote is not None:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == open_char:
            depth += 1
        elif ch == close_char:
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
        i += 1
    return None


def parse_literal(text: str):
    """``text`` as JSON, else as a Python literal.

    Raises ValueError, SyntaxError or TypeError when it is neither, and
    RecursionError when it nests deeper than either parser can follow.
    """
    try:
        return json.loads(text)
    except ValueError:
        pass
    try:
        return ast.literal_eval(text)
    except MemoryError as err:
        # CPython's parser reports a stack overflow on deep nesting as MemoryError.
        raise RecursionError(f"literal nests too deeply: {err}") from err


def parse_tagging_response(text: str) -> dict[str, list[str]]:
    """Extract the aspect-to-tags map that follows the final ``#Aspect2Tags#`` marker.

    The marker match is case-insensitive and ignores surrounding markdown.
    Aspects whose tag list is empty are dropped; an empty result is an error.
    """
    markers = list(_ASPECT2TAGS_RE.finditer(text))
    if not markers:
        raise ParseError("MissingMarker", "no #Aspect2Tags# marker in reply")
    tail = text[markers[-1].end() :]
    object_text = extract_balanced(tail, "{", "}")
    if object_text is None:
        raise ParseError("BadObject", "no tag object after the final marker")
    try:
        parsed = parse_literal(object_text)
    except (ValueError, SyntaxError, TypeError, RecursionError) as err:
        raise ParseError("BadObject", f"cannot parse tag object: {err}") from err
    if not isinstance(parsed, dict):
        raise ParseError("BadObject", "tag payload is not an object")
    result: dict[str, list[str]] = {}
    for aspect, tags in parsed.items():
        if isinstance(tags, str):
            tags = [tags]
        if not isinstance(tags, (list, tuple)):
            continue
        cleaned = [str(t) for t in tags if isinstance(t, (str, int, float)) and str(t).strip()]
        if cleaned:
            result[str(aspect)] = cleaned
    if not result:
        raise ParseError("Empty", "no aspects with tags in reply")
    return result


def _is_edge_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def normalize_tag(raw: str) -> str:
    """Canonical tag form: lowercase, single-spaced, edge punctuation stripped.

    Leading and trailing runs of punctuation and whitespace are removed
    together, so the result starts and ends on a word character and the
    function is idempotent. Raises :class:`RejectedTag` when nothing survives.
    """
    text = str(raw).lower()
    start, end = 0, len(text)
    while start < end and (text[start].isspace() or _is_edge_punct(text[start])):
        start += 1
    while end > start and (text[end - 1].isspace() or _is_edge_punct(text[end - 1])):
        end -= 1
    text = " ".join(text[start:end].split())
    if not text:
        raise RejectedTag(f"nothing left after normalizing {raw!r}")
    return text


def normalized_tags(raw_tags: Iterable) -> Iterator[tuple[str, str]]:
    """Yield ``(raw, normalized)`` for each tag that :func:`normalize_tag` accepts."""
    for raw in raw_tags:
        try:
            yield raw, normalize_tag(raw)
        except RejectedTag:
            continue


@dataclass
class TagEntry:
    """One normalized tag under one normalized aspect, with bookkeeping."""

    tag: str
    aspect: str
    surface_forms: set[str] = field(default_factory=set)
    sources: set[str] = field(default_factory=set)
    count: int = 0


@dataclass
class TagPool:
    """Merged tag collection keyed by (aspect, tag).

    :meth:`add` is the only mutator: pass every entry to the constructor or
    add it, never write into ``entries`` directly. The sampling space
    (:meth:`distinct_tags`) is computed once per pool and refreshed only when
    ``add`` creates a new ``(aspect, tag)`` entry.
    """

    entries: dict[tuple[str, str], TagEntry] = field(default_factory=dict)
    model: str = ""
    built_from: dict | None = None
    _distinct_tags: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def add(self, aspect: str, tag: str, surface: str, source: str) -> None:
        entry = self.entries.get((aspect, tag))
        if entry is None:
            entry = TagEntry(tag=tag, aspect=aspect)
            self.entries[(aspect, tag)] = entry
            self._distinct_tags = None
        entry.surface_forms.add(surface)
        entry.sources.add(source)
        entry.count += 1

    def distinct_tags(self) -> tuple[str, ...]:
        """Distinct tag strings ignoring aspect, sorted; the sampling space.

        Built on first use and kept until :meth:`add` creates a new entry, so
        every sample from an unchanged pool reuses the same tuple.
        """
        if self._distinct_tags is None:
            self._distinct_tags = tuple(sorted({tag for (_, tag) in self.entries}))
        return self._distinct_tags

    @property
    def distinct_tag_count(self) -> int:
        return len(self.distinct_tags())

    @property
    def entry_count(self) -> int:
        return len(self.entries)


@dataclass
class TagPoolBuildReport:
    """Outcome of one pool build: per-record failures and step-1 audit text."""

    total_records: int = 0
    tagged_records: int = 0
    failures: list[dict] = field(default_factory=list)
    preambles: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _reply_preamble(text: str) -> str:
    """Reply text before the final marker: the step-1 reasoning, kept for audit."""
    markers = list(_ASPECT2TAGS_RE.finditer(text))
    if not markers:
        return ""
    return text[: markers[-1].start()].strip()


def _parse_tagging_reply(response: ChatResponse) -> tuple[dict[str, list[str]], str]:
    return parse_tagging_response(response.content), _reply_preamble(response.content)


def tag_record(
    record: InstructionRecord,
    gateway: Gateway,
    retries: int,
    *,
    model: str,
    temperature: float,
    max_tokens: int,
) -> tuple[dict[str, list[str]], str]:
    """Tag one record: its aspect-to-tags map and the step-1 reply preamble.

    An unparseable reply is retried with the identical prompt up to
    ``retries`` times, and every retry is a fresh send; the gateway caches
    only replies that parse. Raises the gateway's :class:`BackendError`, or
    the last :class:`ParseError` when no reply parses.
    """
    request = ChatRequest(
        model=model,
        messages=(user_message(build_tagging_prompt(record)),),
        temperature=temperature,
        max_tokens=max_tokens,
    )
    return gateway.ask(lambda: request, _parse_tagging_reply, retries)


def build_tag_pool(
    records: Sequence[InstructionRecord],
    gateway: Gateway,
    retries_per_record: int = DEFAULT_RETRIES,
    *,
    model: str,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> tuple[TagPool, TagPoolBuildReport]:
    """Tag every record through the gateway and merge the results into a pool.

    One ``gateway.map_in_order`` call runs :func:`tag_record` with
    ``retries_per_record`` parse retries on every record; the gateway has
    already retried transient backend failures. A record that still fails
    (a :class:`RecordError`) is recorded in the report, not fatal. Merging
    runs single-threaded over the outcomes in input order, so the pool is
    deterministic for a deterministic backend. An empty ``records`` raises
    :class:`PreconditionError` before any send.
    """
    records = list(records)
    if not records:
        raise PreconditionError("no records to tag")
    outcomes, failures = gateway.map_in_order(
        lambda record: tag_record(
            record, gateway, retries_per_record, model=model, temperature=temperature, max_tokens=max_tokens
        ),
        records,
    )

    pool = TagPool(model=model)
    report = TagPoolBuildReport(total_records=len(records), failures=failures)
    for record, outcome in zip(records, outcomes):
        if outcome is None:
            continue
        parsed, preamble = outcome
        report.tagged_records += 1
        if preamble:
            report.preambles[record.id] = preamble
        for aspect_raw, aspect in normalized_tags(parsed):
            for tag_raw, tag in normalized_tags(parsed[aspect_raw]):
                pool.add(aspect, tag, surface=tag_raw, source=record.id)
    if not pool.entries:
        raise BuildFailed(
            f"no usable tags from {len(records)} records ({len(report.failures)} record failures)"
        )
    return pool, report


def save_pool(pool: TagPool, path: str | Path) -> None:
    """Persist a pool as JSON; sets become sorted lists so saves are stable."""
    entries = [
        {
            "tag": entry.tag,
            "aspect": entry.aspect,
            "surface_forms": sorted(entry.surface_forms),
            "sources": sorted(entry.sources),
            "count": entry.count,
        }
        for (_, _), entry in sorted(pool.entries.items())
    ]
    payload = {
        "version": POOL_FORMAT_VERSION,
        "model": pool.model,
        "built_from": pool.built_from,
        "entries": entries,
    }
    write_json(payload, path)


def load_pool(path: str | Path) -> TagPool:
    """Load a pool saved by :func:`save_pool`; lossless round trip.

    Entry fields are checked, never coerced, as :func:`records.record_from_json`
    checks them; a wrong type raises :class:`LoadError`, as do an unreadable
    file, a repeated ``(aspect, tag)`` entry, a ``model`` that is not a string
    and a ``built_from`` that is neither an object nor null (the last three
    :func:`save_pool` never writes).
    """
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise LoadError(path, 0, "expected a JSON object")
    if payload.get("version") != POOL_FORMAT_VERSION:
        raise LoadError(path, 0, f"unsupported pool version {payload.get('version')!r}")
    entries: dict[tuple[str, str], TagEntry] = {}
    try:
        model = _checked(payload, "model", _is_str, "a string", "")
        built_from = _checked(payload, "built_from", lambda v: v is None or isinstance(v, dict), "an object or null")
        for item in payload["entries"]:
            if not isinstance(item, dict):
                raise TypeError(f"entry is not an object: {json.dumps(item, ensure_ascii=False)}")
            entry = TagEntry(
                tag=_checked(item, "tag", _is_str, "a string"),
                aspect=_checked(item, "aspect", _is_str, "a string"),
                surface_forms=set(_checked(item, "surface_forms", _is_str_list, "a list of strings")),
                sources=set(_checked(item, "sources", _is_str_list, "a list of strings")),
                count=_checked(item, "count", _is_int, "an integer"),
            )
            if (entry.aspect, entry.tag) in entries:
                raise ValueError(f"repeated entry for aspect {entry.aspect!r}, tag {entry.tag!r}")
            entries[(entry.aspect, entry.tag)] = entry
    except (KeyError, TypeError, ValueError) as err:
        raise LoadError(path, 0, f"malformed pool: {err}") from err
    return TagPool(entries=entries, model=model, built_from=built_from)
