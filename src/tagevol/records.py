"""Instruction dataset records, JSONL persistence, merging and manifests.

Dataset files are UTF-8 with one JSON object per line. The only required
field is "instruction"; "id", "response" and "meta" are optional. Evolved
records additionally carry "parent_id", "round", "budget", "selected_tags",
"candidate_tags", "plan", "flags" and "raw_digest". Writes are deterministic:
the same record list always produces byte-identical files. They are also
atomic: a killed process leaves either the old file or the new one.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import LoadError, TagEvolError

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


class WriteError(TagEvolError):
    """A dataset or JSON artifact could not be written."""


@dataclass(frozen=True)
class InstructionRecord:
    """One instruction with an optional response and open metadata."""

    id: str
    instruction: str
    response: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be nonempty")
        if not self.instruction.strip():
            raise ValueError("instruction must be nonempty")


@dataclass(frozen=True, kw_only=True)
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
        super().__post_init__()
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


_EVOLVED_MARKER_KEYS = ("parent_id", "round", "budget")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _shared_str_list(obj: dict, key: str) -> list[str]:
    """``obj[key]`` as a list of interned strings.

    Tags and flags come from closed sets (the pool's tags, the flag codes), so
    every loaded record shares one string per distinct value. ``sys.intern``
    raises TypeError on a non-string, so a value it rejects gets the default
    or the error of :func:`_checked`.
    """
    value = obj.get(key)
    if isinstance(value, list):
        try:
            return list(map(sys.intern, value))
        except TypeError:
            pass
    return _checked(obj, key, _is_str_list, "a list of strings", [])


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


def record_from_json(obj: dict, *, default_id: str | None = None) -> InstructionRecord:
    """Build a record from one parsed JSONL object. Raises ValueError on schema problems.

    Evolved fields are type-checked, never coerced: ``round`` and ``budget``
    are integers (not booleans), ``parent_id`` is a string, the tag and flag
    lists hold only strings, and ``plan`` and ``raw_digest`` are strings. The
    lists, ``plan`` and ``raw_digest`` may be absent or null.

    ``selected_tags``, ``candidate_tags`` and ``flags`` hold interned strings
    (``sys.intern``), so equal tags are one object across records and loads.
    On CPython 3.12 interned strings are immortal: a process keeps each
    distinct tag it ever loaded, a cost bounded by the distinct-tag count.
    """
    instruction = obj.get("instruction")
    if not isinstance(instruction, str) or not instruction.strip():
        raise ValueError("missing or empty 'instruction' field")
    if "id" in obj:
        record_id = obj["id"]
        if not isinstance(record_id, str) or not record_id:
            raise ValueError("'id' must be a nonempty string")
    else:
        if default_id is None:
            raise ValueError("missing 'id' field")
        record_id = default_id
    response = obj.get("response")
    if response is not None and not isinstance(response, str):
        raise ValueError("'response' must be a string or null")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("'meta' must be an object")

    if any(key in obj for key in _EVOLVED_MARKER_KEYS):
        missing = [key for key in _EVOLVED_MARKER_KEYS if key not in obj]
        if missing:
            raise ValueError(f"evolved record missing fields: {', '.join(missing)}")
        return EvolvedRecord(
            id=record_id,
            instruction=instruction,
            response=response,
            meta=meta,
            parent_id=_checked(obj, "parent_id", _is_str, "a string"),
            round=_checked(obj, "round", _is_int, "an integer"),
            budget=_checked(obj, "budget", _is_int, "an integer"),
            selected_tags=_shared_str_list(obj, "selected_tags"),
            candidate_tags=_shared_str_list(obj, "candidate_tags"),
            plan=_checked(obj, "plan", _is_str, "a string", ""),
            flags=_shared_str_list(obj, "flags"),
            raw_digest=_checked(obj, "raw_digest", _is_str, "a string", ""),
        )
    return InstructionRecord(id=record_id, instruction=instruction, response=response, meta=meta)


def record_to_json(record: InstructionRecord) -> dict:
    """Serialize a record to a JSON-ready dict with fixed field order."""
    payload: dict = {"id": record.id, "instruction": record.instruction, "response": record.response}
    if record.meta:
        payload["meta"] = record.meta
    if isinstance(record, EvolvedRecord):
        payload["parent_id"] = record.parent_id
        payload["round"] = record.round
        payload["budget"] = record.budget
        payload["selected_tags"] = record.selected_tags
        payload["candidate_tags"] = record.candidate_tags
        payload["plan"] = record.plan
        payload["flags"] = record.flags
        payload["raw_digest"] = record.raw_digest
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
                except json.JSONDecodeError as err:
                    raise LoadError(path, lineno, f"invalid JSON: {err.msg}") from err
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


def write_dataset(records: Sequence[InstructionRecord], path: str | Path) -> None:
    """Write records as JSONL; reruns with equal input are byte-identical."""

    def write(fh) -> None:
        for record in records:
            fh.write(json.dumps(record_to_json(record), ensure_ascii=False))
            fh.write("\n")

    _replace_file(path, write)


def dedup_key(instruction: str) -> str:
    """Whitespace-normalized instruction text used for exact duplicate removal."""
    return " ".join(instruction.split())


def merge_rounds(
    rounds: Sequence[Sequence[InstructionRecord]],
    include_seed: bool = False,
    seed: Sequence[InstructionRecord] | None = None,
) -> list[InstructionRecord]:
    """Concatenate round datasets in order, then drop exact instruction duplicates.

    Duplicates are detected on whitespace-normalized instruction text; the
    earliest occurrence wins. Seed records are prepended only when
    ``include_seed`` is set.
    """
    ordered: list[InstructionRecord] = []
    if include_seed and seed:
        ordered.extend(seed)
    for round_records in rounds:
        ordered.extend(round_records)
    seen: set[str] = set()
    merged: list[InstructionRecord] = []
    for record in ordered:
        key = dedup_key(record.instruction)
        if key in seen:
            continue
        seen.add(key)
        merged.append(record)
    return merged


@dataclass(frozen=True)
class DatasetManifest:
    """Provenance sidecar for a written dataset file."""

    name: str
    sources: list[str]
    record_count: int
    rounds: list[dict]
    parameters: dict

    def to_json(self) -> dict:
        return asdict(self)


def build_manifest(
    name: str,
    sources: Sequence[str],
    records: Sequence[InstructionRecord],
    parameters: dict,
) -> DatasetManifest:
    """Summarize a record list into a manifest with a per-round breakdown."""
    buckets: dict[tuple, int] = {}
    for record in records:
        if isinstance(record, EvolvedRecord):
            key = (record.round, record.budget)
        else:
            key = (None, None)
        buckets[key] = buckets.get(key, 0) + 1
    rounds = [
        {"round": rnd, "budget": budget, "count": count}
        for (rnd, budget), count in sorted(
            buckets.items(), key=lambda item: (item[0][0] is not None, item[0][0] or 0, item[0][1] or 0)
        )
    ]
    return DatasetManifest(
        name=name,
        sources=[str(s) for s in sources],
        record_count=len(records),
        rounds=rounds,
        parameters=dict(parameters),
    )


def manifest_path(dataset_path: str | Path) -> Path:
    """Sidecar manifest location for a dataset file: <dataset>.manifest.json."""
    return Path(dataset_path).with_suffix(".manifest.json")


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    write_json(manifest.to_json(), path)


def json_text(payload) -> str:
    """The one rendering of JSON artifacts and summaries: sorted keys, indented, UTF-8."""
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file, or raise :class:`LoadError`; every whole-file JSON input is read here."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise LoadError(path, 0, f"cannot read JSON: {err}") from err


def write_json(payload, path: str | Path) -> None:
    """Write ``payload`` as :func:`json_text`; every JSON artifact goes through here."""
    _replace_file(path, lambda fh: fh.write(json_text(payload)))


def _replace_file(path: str | Path, write) -> None:
    """Run ``write(fh)`` on a sibling ``<name>.tmp``, then rename it over ``path``.

    A process killed mid-write leaves the old file intact. There is no fsync:
    this guards against a killed process, not against power loss. A symlink or
    a non-regular file (a device, a pipe) is written through in place, since
    replacing it would change what ``path`` names. A failed write removes the
    temp file and raises WriteError, also when ``write`` cannot serialize.
    """
    path = Path(path)
    try:
        in_place = path.is_symlink() or (path.exists() and not path.is_file())
        target = path if in_place else path.with_name(path.name + ".tmp")
        try:
            with target.open("w", encoding="utf-8", newline="\n") as fh:
                write(fh)
            if not in_place:
                os.replace(target, path)
        except BaseException:
            if not in_place:
                target.unlink(missing_ok=True)
            raise
    except (OSError, TypeError, ValueError) as err:
        raise WriteError(f"cannot write {path}: {err}") from err
