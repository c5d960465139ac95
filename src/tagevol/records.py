"""Instruction dataset records, JSONL persistence, merging and manifests.

Dataset files are UTF-8 with one JSON object per line. The only required
field is "instruction"; "id", "response" and "meta" are optional. Evolved
records additionally carry their provenance, the keys of ``_EVOLVED_FIELDS``.
Writes are deterministic: the same record list always produces byte-identical
files. They are also atomic: a killed process leaves either the old file or
the new one.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import LoadError, WriteError

# Validation-flag codes stored on evolved records.
FLAG_SUBSET_SIZE_MISMATCH = "SubsetSizeMismatch"
FLAG_SUBSET_NOT_IN_CANDIDATES = "SubsetNotInCandidates"
FLAG_TAG_ALREADY_PRESENT = "TagAlreadyPresent"
FLAG_WORD_DELTA_OUT_OF_RANGE = "WordDeltaOutOfRange"
FLAG_FINAL_EQUALS_ORIGINAL = "FinalEqualsOriginal"
VALIDATION_FLAGS = (
    FLAG_SUBSET_SIZE_MISMATCH,
    FLAG_SUBSET_NOT_IN_CANDIDATES,
    FLAG_TAG_ALREADY_PRESENT,
    FLAG_WORD_DELTA_OUT_OF_RANGE,
    FLAG_FINAL_EQUALS_ORIGINAL,
)


@dataclass(frozen=True, slots=True)
class InstructionRecord:
    """One instruction with an optional response and open metadata.

    Fields live in slots: no per-instance ``__dict__``, no weak references.
    """

    id: str
    instruction: str
    response: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be nonempty")
        if not self.instruction.strip():
            raise ValueError("instruction must be nonempty")


@dataclass(frozen=True, slots=True, kw_only=True)
class EvolvedRecord(InstructionRecord):
    """An instruction produced by tag injection, with full provenance.

    Flags are advisory: a record violating a constraint is kept, with the
    violation named in ``flags``. The subset/budget coherence checks below
    are therefore conditional on the corresponding flag being absent.
    """

    parent_id: str
    round: int
    budget: int
    selected_tags: list = field(default_factory=list)
    candidate_tags: list = field(default_factory=list)
    plan: str = ""
    flags: list = field(default_factory=list)
    raw_digest: str = ""

    def __post_init__(self):
        # Not super(): slots=True builds a new class, which a zero-argument
        # super() in the old class body rejects on CPython 3.10-3.13.
        InstructionRecord.__post_init__(self)
        if not self.parent_id:
            raise ValueError("parent_id must be nonempty")
        if self.round < 1:
            raise ValueError("round must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if FLAG_SUBSET_SIZE_MISMATCH not in self.flags and len(self.selected_tags) != self.budget:
            raise ValueError("selected tag count must equal budget unless flagged")
        if FLAG_SUBSET_NOT_IN_CANDIDATES not in self.flags and not set(self.candidate_tags).issuperset(self.selected_tags):
            raise ValueError("selected tags must come from the candidate batch unless flagged")


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # the only form of a surrogate in strict UTF-8 JSON


def _is_unicode(*texts: str) -> bool:
    """False if a text holds a lone UTF-16 surrogate, which UTF-8 cannot encode."""
    try:
        for text in texts:
            text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _reject_surrogates(path, line: int, text: str, value) -> None:
    """Raise :class:`LoadError` if ``value``, parsed from JSON ``text``, holds a lone surrogate."""
    if _SURROGATE_ESCAPE.search(text) and not _is_unicode(json.dumps(value, ensure_ascii=False)):
        raise LoadError(path, line, "text holds a lone UTF-16 surrogate, which UTF-8 cannot encode")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _checked(obj: dict, key: str, accepts, expected: str, default=None):
    """``obj[key]`` when ``accepts`` it, or ``default`` (unless None) for an
    absent or null key. Values are checked, never coerced: any other value is
    a ValueError naming ``key``."""
    value = obj.get(key)
    if value is None and default is not None:
        return default
    if not accepts(value):
        raise ValueError(f"{key!r} must be {expected}, got {json.dumps(value, ensure_ascii=False)}")
    return value


_EVOLVED_FIELDS = {
    "parent_id": (_is_str, "a string", None),
    "round": (_is_int, "an integer", None),
    "budget": (_is_int, "an integer", None),
    "selected_tags": (_is_str_list, "a list of strings", []),
    "candidate_tags": (_is_str_list, "a list of strings", []),
    "plan": (_is_str, "a string", ""),
    "flags": (_is_str_list, "a list of strings", []),
    "raw_digest": (_is_str, "a string", ""),
}
"""The evolved-record schema, in field order: each provenance key with its check, the type its
error names and the default for an absent or null value. A default of None marks a required key,
and the required keys are the ones whose presence makes a record evolved."""
_EVOLVED_MARKER_KEYS = tuple(key for key, (_, _, default) in _EVOLVED_FIELDS.items() if default is None)


def record_from_json(obj: dict, *, default_id: str) -> InstructionRecord:
    """Build a record from one parsed JSONL object. Raises ValueError on schema problems.

    Only types are checked here, never coerced; nonempty values and ranges
    are left to the record constructors. ``id`` defaults to ``default_id``.
    The provenance keys, their types and their defaults are those of
    ``_EVOLVED_FIELDS``.

    Its tag and flag lists hold interned strings (``sys.intern``): they come
    from closed sets, so equal tags are one object across records and loads.
    On CPython 3.12 interned strings are immortal: a process keeps each
    distinct tag it ever loaded, a cost bounded by the distinct-tag count.
    """
    instruction = obj.get("instruction")
    if not isinstance(instruction, str):
        raise ValueError("missing 'instruction' field or not a string")
    record_id = obj.get("id", default_id)
    if not isinstance(record_id, str):
        raise ValueError("'id' must be a string")
    response = obj.get("response")
    if response is not None and not isinstance(response, str):
        raise ValueError("'response' must be a string or null")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be an object")

    if not any(key in obj for key in _EVOLVED_MARKER_KEYS):
        return InstructionRecord(id=record_id, instruction=instruction, response=response, meta=meta)
    missing = [key for key in _EVOLVED_MARKER_KEYS if key not in obj]
    if missing:
        raise ValueError(f"evolved record missing fields: {', '.join(missing)}")
    fields = {}
    for key, (accepts, expected, default) in _EVOLVED_FIELDS.items():
        value = obj.get(key)
        # A string list is interned, and absent or null is a fresh list; sys.intern
        # raises TypeError on a non-string, which leaves that value to _checked.
        if accepts is _is_str_list and (value is None or isinstance(value, list)):
            try:
                fields[key] = list(map(sys.intern, value or ()))
                continue
            except TypeError:
                pass
        fields[key] = _checked(obj, key, accepts, expected, default)
    return EvolvedRecord(id=record_id, instruction=instruction, response=response, meta=meta, **fields)


def record_to_json(record: InstructionRecord) -> dict:
    """Serialize a record to a JSON-ready dict with fixed field order."""
    payload: dict = {"id": record.id, "instruction": record.instruction, "response": record.response}
    if record.meta:
        payload["meta"] = record.meta
    if isinstance(record, EvolvedRecord):
        for key in _EVOLVED_FIELDS:
            payload[key] = getattr(record, key)
    return payload


def load_dataset(path: str | Path) -> list[InstructionRecord]:
    """Read a JSONL dataset, assigning "<filename>:<line#>" ids where absent.

    Evolved records share one interned string per distinct tag and flag, so
    a list slot costs a pointer, not a string. On CPython 3.12 those strings
    are immortal (see :func:`record_from_json`).
    """
    path = Path(path)
    records: list[InstructionRecord] = []
    seen: set[str] = set()
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    _reject_surrogates(path, lineno, line, obj)
                except json.JSONDecodeError as err:
                    raise LoadError(path, lineno, f"invalid JSON: {err.msg}") from err
                except RecursionError as err:
                    raise LoadError(path, lineno, "invalid JSON: nested too deeply") from err
                if not isinstance(obj, dict):
                    raise LoadError(path, lineno, "expected a JSON object")
                try:
                    record = record_from_json(obj, default_id=f"{path.name}:{lineno}")
                except ValueError as err:
                    raise LoadError(path, lineno, str(err)) from err
                if record.id in seen:
                    raise LoadError(path, lineno, f"duplicate record id {record.id!r}")
                seen.add(record.id)
                records.append(record)
    except (OSError, UnicodeDecodeError) as err:
        raise LoadError(path, 0, f"cannot read: {err}") from err
    return records


# One JSON line per record or cache entry. Shared, since json.dumps builds a
# new encoder on every call that passes an option.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_dataset(records: Sequence[InstructionRecord], path: str | Path) -> None:
    """Write records as JSONL; reruns with equal input are byte-identical."""

    def write(fh) -> None:
        for record in records:
            fh.write(_LINE_ENCODER.encode(record_to_json(record)) + "\n")

    _replace_file(path, write)


def dedup_key(instruction: str) -> str:
    """Whitespace-normalized instruction text used for exact duplicate removal."""
    return " ".join(instruction.split())


def merge_rounds(
    rounds: Sequence[Sequence[InstructionRecord]], seed: Sequence[InstructionRecord] = ()
) -> list[InstructionRecord]:
    """Concatenate ``seed`` and the round datasets in order, then drop exact instruction duplicates.

    Duplicates are detected on whitespace-normalized instruction text; the
    earliest occurrence wins.
    """
    seen: set[str] = set()
    merged: list[InstructionRecord] = []
    for record in itertools.chain(seed, *rounds):
        key = dedup_key(record.instruction)
        if key in seen:
            continue
        seen.add(key)
        merged.append(record)
    return merged


def build_manifest(
    name: str,
    sources: Sequence[str],
    records: Sequence[InstructionRecord],
    parameters: dict,
) -> dict:
    """Summarize a record list into a manifest with a per-round breakdown, as the JSON object written."""
    buckets = Counter((r.round, r.budget) if isinstance(r, EvolvedRecord) else (None, None) for r in records)
    rounds = [
        {"round": rnd, "budget": budget, "count": count}
        for (rnd, budget), count in sorted(
            buckets.items(), key=lambda item: (item[0][0] is not None, item[0][0] or 0, item[0][1] or 0)
        )
    ]
    return {
        "name": name,
        "sources": [str(s) for s in sources],
        "record_count": len(records),
        "rounds": rounds,
        "parameters": dict(parameters),
    }


def manifest_path(dataset_path: str | Path) -> Path:
    """Sidecar manifest location for a dataset file: <dataset>.manifest.json."""
    return Path(dataset_path).with_suffix(".manifest.json")


def write_manifest(manifest: dict, path: str | Path) -> None:
    write_json(manifest, path)


_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False, indent=2, sort_keys=True)
_WRITE_BATCH = 4096  # encoder chunks joined into one write by dump_json


def dump_json(payload, fh) -> None:
    """Write the one rendering of JSON artifacts and summaries to ``fh``: sorted keys, indented, UTF-8, a final newline.

    The encoder's output is written in joined batches, so memory is bounded by
    one batch, never the whole text.
    """
    chunks = _JSON_ENCODER.iterencode(payload)
    while batch := list(itertools.islice(chunks, _WRITE_BATCH)):
        fh.write("".join(batch))
    fh.write("\n")


def read_json(path: str | Path, object_hook=None):
    """Parse a UTF-8 JSON file, or raise :class:`LoadError` (also for a lone surrogate); every whole-file JSON input is read here.

    ``object_hook`` is passed to ``json.loads``: what it returns for each
    parsed object takes that object's place, so a caller can keep its own
    types without a parsed copy beside them.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        value = json.loads(text, object_hook=object_hook)
        if _SURROGATE_ESCAPE.search(text):
            # What a hook returns need not serialize, so the check reads a plain parse.
            _reject_surrogates(path, 0, text, value if object_hook is None else json.loads(text))
    except (OSError, ValueError, RecursionError) as err:
        raise LoadError(path, 0, f"cannot read JSON: {err}") from err
    return value


def write_json(payload, path: str | Path) -> None:
    """Write ``payload`` with :func:`dump_json`; every JSON artifact goes through here.

    A payload that fails to serialize midway raises WriteError and leaves the
    old file as it was.
    """
    _replace_file(path, lambda fh: dump_json(payload, fh))


def _replace_file(path: str | Path, write) -> None:
    """Run ``write(fh)`` on a sibling ``<name>.tmp``, then rename it over ``path``.

    A process killed mid-write leaves the old file intact. There is no fsync:
    this guards against a killed process, not against power loss. A symlink
    is followed: the temp file goes beside its final target and replaces that
    target, so the link stays and a failed write leaves the old target whole.
    A non-regular file (a device, a pipe) is written through in place, since
    replacing it would change what ``path`` names. A failed write removes the
    temp file and raises WriteError, also when ``write`` cannot serialize.
    """
    path = Path(path)
    try:
        real = Path(os.path.realpath(path)) if path.is_symlink() else path
        # ``real`` is still a symlink only in a loop, which open() then rejects.
        in_place = real.is_symlink() or (real.exists() and not real.is_file())
        target = real if in_place else real.with_name(real.name + ".tmp")
        try:
            with target.open("w", encoding="utf-8", newline="\n") as fh:
                write(fh)
            if not in_place:
                os.replace(target, real)
        except BaseException:
            if not in_place:
                target.unlink(missing_ok=True)
            raise
    except (OSError, TypeError, ValueError) as err:
        raise WriteError(f"cannot write {path}: {err}") from err
