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
import re
import sys
import unicodedata
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_type_hints

from .errors import LoadError, ParseError, PreconditionError, StageFailed, TagEvolError
from .gateway import (
    DEFAULT_RETRIES,
    ChatRequest,
    ChatResponse,
    Gateway,
    user_message,
)
from .records import InstructionRecord, _checked, read_json, write_json

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
{{"xxx":[tag1, tag2, ...], "xxx":[tag1, tag2, ...], ...}}
where xxx means aspect you get in step 1.
"""

_ASPECT2TAGS_RE = re.compile(r"#\s*aspect\s*2\s*tags\s*#", re.IGNORECASE)


class RejectedTag(TagEvolError):
    """Normalization left nothing usable (e.g. punctuation-only input)."""


def build_tagging_prompt(record: InstructionRecord) -> str:
    """Render the tagging prompt; ``str.format`` fills the slot once, so the instruction stays verbatim."""
    return TAGGING_PROMPT.format(instruction=record.instruction)


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


@dataclass(slots=True)
class TagEntry:
    """One normalized tag under one normalized aspect, with bookkeeping.

    ``surface_forms`` and ``sources`` are sorted tuples without repeats, the
    order :func:`save_pool` writes.
    """

    tag: str
    aspect: str
    surface_forms: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()
    count: int = 0


@dataclass
class TagPool:
    """Merged tag collection keyed by (aspect, tag).

    :meth:`add` is the only public mutator: pass every entry to the
    constructor or add it, never write into ``entries`` directly. The sampling
    space (:meth:`distinct_tags`) is computed once per pool and refreshed only
    when a new ``(aspect, tag)`` entry is created.
    """

    entries: dict[tuple[str, str], TagEntry] = field(default_factory=dict)
    model: str = ""
    built_from: dict | None = None
    _distinct_tags: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def add(self, aspect: str, tag: str, surface: str, source: str) -> None:
        """Record one observation of ``tag`` under ``aspect``, both interned as in
        :func:`build_tag_pool`; O(k) for an entry holding k forms or sources."""
        entry = self.entries.get((aspect, tag))
        if entry is None:
            entry = TagEntry(tag=sys.intern(tag), aspect=sys.intern(aspect))
            self.entries[(entry.aspect, entry.tag)] = entry
            self._distinct_tags = None
        if surface not in entry.surface_forms:
            entry.surface_forms = tuple(sorted((*entry.surface_forms, entry.tag if surface == entry.tag else surface)))
        if source not in entry.sources:
            entry.sources = tuple(sorted((*entry.sources, source)))
        entry.count += 1

    def distinct_tags(self) -> tuple[str, ...]:
        """Distinct tag strings ignoring aspect, sorted; the sampling space.

        Built on first use and kept until a new entry is created, so
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
    """Reply text before the final marker, which a parsed reply holds: the step-1 reasoning, kept for audit."""
    markers = list(_ASPECT2TAGS_RE.finditer(text))
    return text[: markers[-1].start()].strip()


def _parse_tagging_reply(response: ChatResponse) -> tuple[dict[str, list[str]], str]:
    return parse_tagging_response(response.content), _reply_preamble(response.content)


def tag_record(
    record: InstructionRecord,
    gateway: Gateway,
    retries: int,
    *,
    model: str,
    **decoding,
) -> tuple[dict[str, list[str]], str]:
    """Tag one record: its aspect-to-tags map and the step-1 reply preamble.

    An unparseable reply, or one the gateway rejects as cut off at
    ``max_tokens`` (:class:`ParseError` ``Truncated``), is retried with the
    identical prompt up to ``retries`` times, and every retry is a fresh send;
    the gateway caches only replies that parse. Raises the gateway's
    :class:`BackendError`, or the last :class:`ParseError` when no reply
    parses.
    """
    request = ChatRequest(
        model=model,
        messages=(user_message(build_tagging_prompt(record)),),
        **decoding,
    )
    return gateway.ask(lambda: request, _parse_tagging_reply, retries)


def build_tag_pool(
    records: Sequence[InstructionRecord],
    gateway: Gateway,
    retries_per_record: int = DEFAULT_RETRIES,
    *,
    model: str,
    **decoding,
) -> tuple[TagPool, TagPoolBuildReport]:
    """Tag every record through the gateway and merge the results into a pool.

    One ``gateway.map_in_order`` call runs :func:`tag_record` with
    ``retries_per_record`` parse retries on every record; the gateway has
    already retried transient backend failures. A record that still fails
    (a :class:`RecordError`) is recorded in the report, not fatal. Merging
    runs single-threaded over the outcomes in input order, so the pool is
    deterministic for a deterministic backend. A set per ``(aspect, tag)``
    gathers its observations and each entry is built once from them, so a tag
    seen in k records costs O(k log k), against O(k^2) for k :meth:`TagPool.add`
    calls. Tags and aspects are interned (``sys.intern``), so each is one string
    across entries, and a surface form spelled as its tag is the tag. An empty
    ``records`` raises :class:`PreconditionError` before any send; no usable
    tag at all raises :class:`StageFailed`.
    """
    records = list(records)
    if not records:
        raise PreconditionError("no records to tag")
    outcomes, failures = gateway.map_in_order(
        lambda record: tag_record(record, gateway, retries_per_record, model=model, **decoding),
        records,
    )

    report = TagPoolBuildReport(total_records=len(records), failures=failures)
    observed: defaultdict[tuple[str, str], list] = defaultdict(lambda: [set(), set(), 0])
    for record, outcome in zip(records, outcomes):
        if outcome is None:
            continue
        parsed, preamble = outcome
        report.tagged_records += 1
        if preamble:
            report.preambles[record.id] = preamble
        for aspect_raw, aspect in normalized_tags(parsed):
            for tag_raw, tag in normalized_tags(parsed[aspect_raw]):
                seen = observed[(sys.intern(aspect), sys.intern(tag))]
                seen[0].add(tag_raw)
                seen[1].add(record.id)
                seen[2] += 1
    entries = {
        (aspect, tag): TagEntry(tag, aspect, tuple(sorted(tag if f == tag else f for f in forms)), tuple(sorted(sources)), count)
        for (aspect, tag), (forms, sources, count) in observed.items()
    }
    pool = TagPool(entries, model=model)
    if not pool.entries:
        raise StageFailed(f"no usable tags from {len(records)} records ({len(report.failures)} record failures)")
    return pool, report


_ENTRY_FIELDS = {key: list[str] if hint == tuple[str, ...] else hint for key, hint in get_type_hints(TagEntry).items()}
"""The pool-entry schema: each :class:`TagEntry` field ``save_pool`` writes, with its type hint
for :func:`records._checked`; a tuple field is a JSON list of strings."""


def save_pool(pool: TagPool, path: str | Path) -> None:
    """Persist a pool as JSON, entries sorted by ``(aspect, tag)``, so saves are stable."""
    payload = {
        "version": POOL_FORMAT_VERSION,
        "model": pool.model,
        "built_from": pool.built_from,
        "entries": [{key: getattr(entry, key) for key in _ENTRY_FIELDS} for _, entry in sorted(pool.entries.items())],
    }
    write_json(payload, path)


def _entry_parser():
    """A parse hook for one load: an object exactly as :func:`save_pool` writes an entry becomes that entry.

    "Exactly" means the keys of ``_ENTRY_FIELDS`` and no other, well-typed
    values, and sorted lists without repeats, so the entry holds all the
    object did and :func:`_as_parsed` gives it back. Any other object stays
    as parsed, for :func:`load_pool` to check field by field. Tags and aspects
    are interned. One dict, which lives as long as the hook, makes equal
    ``surface_forms`` tuples, equal ``sources`` tuples and equal source ids in
    lists of two or more one object each across the entries the hook builds:
    a pool that ``tag`` built repeats a seed's id in every entry the seed fed,
    and a tag's forms and sources under every aspect it has. Ids are not
    ``sys.intern``-ed, so they go when the pool goes.
    """
    shared: dict = {}

    def entry_or_object(obj: dict):
        if obj.keys() != _ENTRY_FIELDS.keys():
            return obj
        tag, aspect, forms, sources, count = obj["tag"], obj["aspect"], obj["surface_forms"], obj["sources"], obj["count"]
        # Written out, not read from the table: this runs once per object in the file. The sorted check types each
        # list past its first item: str.__gt__(later, earlier) raises TypeError unless ``later`` is a string (str.__lt__
        # would not). A list of one item, the most common, needs only its first-item test.
        try:
            if not (
                type(tag) is str and type(aspect) is str and type(count) is int and type(forms) is list and type(sources) is list
                and (not forms or type(forms[0]) is str) and (not sources or type(sources[0]) is str)
                and (len(forms) < 2 or all(map(str.__gt__, forms[1:], forms)))
                and (len(sources) < 2 or all(map(str.__gt__, sources[1:], sources)))
            ):
                return obj
        except TypeError:
            return obj
        tag = sys.intern(tag)
        if tag in forms:
            forms[forms.index(tag)] = tag
        forms = tuple(forms)
        sources = tuple(map(shared.setdefault, sources, sources)) if len(sources) > 1 else tuple(sources)
        return TagEntry(tag, sys.intern(aspect), shared.setdefault(forms, forms), shared.setdefault(sources, sources), count)

    return entry_or_object


def _as_parsed(value):
    """``value`` with each entry the parse hook built turned back into its object. The default is not
    ``asdict``, whose nested calls would fail on an entry nested near the parser's limit."""
    return json.loads(json.dumps(value, default=lambda entry: {key: getattr(entry, key) for key in _ENTRY_FIELDS}))


def load_pool(path: str | Path) -> TagPool:
    """Load a pool saved by :func:`save_pool`; lossless round trip.

    Entry fields are checked, never coerced, as :func:`records.record_from_json`
    checks them; a wrong type raises :class:`LoadError`, as do an unreadable
    file, an ``entries`` that is not a list, a repeated ``(aspect, tag)``
    entry, a ``model`` that is not a string and a ``built_from`` that is
    neither an object nor null (the last four :func:`save_pool` never writes).

    Each entry is built while the JSON is parsed (a ``json`` object hook), so
    no parsed payload sits beside the pool and the load peaks at the file text
    plus the pool it returns. Any other item of ``entries`` is checked field
    by field (extra keys ignored, lists sorted without repeats) and built by
    the same hook. Everything outside ``entries`` reads as parsed, an object
    that looks like an entry, in ``built_from`` say, included. The hook is made
    per call (:func:`_entry_parser`), so the entries of one load share their
    equal tuples and source ids, and its dict is dropped when the call returns.
    """
    parse_entry = _entry_parser()
    payload = read_json(path, object_hook=parse_entry)
    items = payload.pop("entries", None) if isinstance(payload, dict) else None
    try:
        payload = _as_parsed(payload)
        if not isinstance(payload, dict):
            raise LoadError(path, 0, "expected a JSON object")
        if payload.get("version") != POOL_FORMAT_VERSION:
            raise LoadError(path, 0, f"unsupported pool version {payload.get('version')!r}")
        if not isinstance(items, list):
            raise LoadError(path, 0, f"malformed pool: 'entries' must be a list, got {type(_as_parsed(items)).__name__}")
        model = _checked(payload, "model", str, "")
        built_from = _checked(payload, "built_from", dict | None)
        entries: dict[tuple[str, str], TagEntry] = {}
        for item in items:
            if not isinstance(item, TagEntry):
                item = _as_parsed(item)
                if not isinstance(item, dict):
                    raise TypeError(f"entry is not an object: {json.dumps(item, ensure_ascii=False)}")
                fields = {key: _checked(item, key, hint) for key, hint in _ENTRY_FIELDS.items()}
                fields["surface_forms"] = sorted(set(fields["surface_forms"]))
                fields["sources"] = sorted(set(fields["sources"]))
                item = parse_entry(fields)
            if (item.aspect, item.tag) in entries:
                raise ValueError(f"repeated entry for aspect {item.aspect!r}, tag {item.tag!r}")
            entries[(item.aspect, item.tag)] = item
    except (TypeError, ValueError, RecursionError) as err:
        raise LoadError(path, 0, f"malformed pool: {err}") from err
    return TagPool(entries=entries, model=model, built_from=built_from)
