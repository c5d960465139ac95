"""Golden table of what the checked loaders make of each line or pool entry.

Every case is one dataset line (loaded after a plain first line, so errors
name line 2) or one pool entry. ``load_outcomes.json`` holds, per case, the
exact ``LoadError`` text without its path, or the loaded value. A change to
how ``load_dataset`` or ``load_pool`` parses or checks must leave this table
as it is; run this file as a script to rewrite it after an intended change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tagevol.errors import LoadError
from tagevol.records import _EVOLVED_FIELDS, load_dataset, record_to_json
from tagevol.tagging import _ENTRY_FIELDS, POOL_FORMAT_VERSION, load_pool

GOLDEN = Path(__file__).with_name("load_outcomes.json")
ABSENT = object()
VARIANTS = {
    "absent": ABSENT,
    "null": None,
    "str": "a",
    "int": 2,
    "bool": True,
    "float": 1.5,
    "str_list": ["a"],
    "empty_list": [],
    "unsorted_list": ["b", "a"],
    "repeated_list": ["a", "a"],
    "nonstr_last": ["a", "b", 2],
    "nonstr_middle": ["a", 2, "b"],
    "nonstr_first": [2, "a"],
    "null_last": ["a", None],
    "list_last": ["a", ["b"]],
    "object": {"a": "b"},
}
FIRST_LINE = json.dumps({"id": "seed", "instruction": "seed text"})
PLAIN = {"instruction": "plain text"}
EVOLVED = {
    "id": "e",
    "instruction": "rewritten",
    "response": None,
    "parent_id": "p",
    "round": 1,
    "budget": 1,
    "selected_tags": ["a"],
    "candidate_tags": ["a", "b"],
    "plan": "add a",
    "flags": [],
    "raw_digest": "d",
}
DEEP = "[" * 100_000 + "]" * 100_000  # deeper than json.loads can follow
POOL_ENTRY = {"tag": "loops", "aspect": "skill", "surface_forms": ["Loops", "loops"], "sources": ["r1"], "count": 2}


def _with(base: dict, key: str, value) -> dict:
    obj = {k: v for k, v in base.items() if k != key}
    if value is not ABSENT:
        obj[key] = value
    return obj


def dataset_cases() -> dict[str, str]:
    cases = {}
    for name, value in VARIANTS.items():
        for key in _EVOLVED_FIELDS:
            cases[f"evolved.{key}={name}"] = json.dumps(_with(EVOLVED, key, value))
        for key in ("id", "instruction", "response", "meta"):
            cases[f"evolved.{key}={name}"] = json.dumps(_with(EVOLVED, key, value))
            cases[f"plain.{key}={name}"] = json.dumps(_with(PLAIN, key, value))
    flagged = {**EVOLVED, "flags": ["SubsetSizeMismatch", "SubsetNotInCandidates"]}
    cases.update(
        {
            "evolved": json.dumps(EVOLVED),
            "evolved.flagged_incoherent": json.dumps({**flagged, "budget": 3, "selected_tags": ["z"]}),
            "evolved.only_round": json.dumps({**PLAIN, "round": 1}),
            "evolved.round=0": json.dumps({**EVOLVED, "round": 0}),
            "evolved.foreign_selected_tag": json.dumps({**EVOLVED, "selected_tags": ["z"]}),
            "evolved.extra_key": json.dumps({**EVOLVED, "note": 1}),
            "plain": json.dumps(PLAIN),
            "plain.blank_instruction": json.dumps({"instruction": " \t "}),
            "plain.empty_id": json.dumps({**PLAIN, "id": ""}),
            "plain.duplicate_id": json.dumps({**PLAIN, "id": "seed"}),
            "plain.infinity": '{"instruction": "x", "meta": {"v": Infinity}}',
            "plain.surrounding_whitespace": ' \t{"instruction": "x"}\u00a0 ',
            "plain.escaped_pair": r'{"instruction": "\ud83d\ude00 in C:\\users"}',
            "lone_surrogate": r'{"instruction": "x\ud800y"}',
            "lone_surrogate_in_key": r'{"instruction": "x", "meta": {"\udfff": 1}}',
            "leading_bom": "\ufeff" + json.dumps(PLAIN),
            "bom_only": "\ufeff",
            "trailing_object": json.dumps(PLAIN) + " {}",
            "trailing_text": json.dumps(PLAIN) + "x",
            "trailing_comma": json.dumps(PLAIN) + ",",
            "not_json": "{not json",
            "unterminated_string": '{"instruction": "x',
            "bare_array": "[1, 2]",
            "bare_string": '"text"',
            "bare_number": "5",
            "bare_null": "null",
            "too_deep": DEEP,
            "too_deep_in_object": '{"instruction": "x", "meta": {"v": ' + DEEP + "}}",
        }
    )
    return cases


def pool_cases() -> dict[str, str]:
    entries = {}
    for name, value in VARIANTS.items():
        for key in _ENTRY_FIELDS:
            entries[f"entry.{key}={name}"] = [_with(POOL_ENTRY, key, value)]
    entries.update(
        {
            "entry": [POOL_ENTRY],
            "entry.extra_key": [{**POOL_ENTRY, "note": 1}],
            "entry.not_an_object": [5],
            "entry.a_list": [[POOL_ENTRY]],
            "entry.repeated": [POOL_ENTRY, {**POOL_ENTRY, "count": 3}],
            "entry.sorted_forms_nonstr_last": [{**POOL_ENTRY, "surface_forms": ["Loops", "loops", 5]}],
            "entry.sorted_sources_nonstr_last": [{**POOL_ENTRY, "sources": ["r1", "r2", None]}],
            "entry.sorted_sources_list_last": [{**POOL_ENTRY, "sources": ["r1", ["r2"]]}],
            "entry.lone_surrogate": [{**POOL_ENTRY, "tag": "x\ud800y"}],
        }
    )
    return {
        name: json.dumps({"version": POOL_FORMAT_VERSION, "model": "m", "built_from": None, "entries": items})
        for name, items in entries.items()
    }


def _error(err: LoadError, path: Path) -> dict:
    return {"error": str(err).removeprefix(f"{path}:")}


def dataset_outcome(line: str, path: Path) -> dict:
    path.write_text(f"{FIRST_LINE}\n{line}\n", encoding="utf-8")
    try:
        record = load_dataset(path)[-1]
    except LoadError as err:
        return _error(err, path)
    return {"type": type(record).__name__, "record": record_to_json(record)}


def pool_outcome(text: str, path: Path) -> dict:
    path.write_text(text, encoding="utf-8")
    try:
        pool = load_pool(path)
    except LoadError as err:
        return _error(err, path)
    entries = [[e.aspect, e.tag, list(e.surface_forms), list(e.sources), e.count] for e in pool.entries.values()]
    return {"model": pool.model, "built_from": pool.built_from, "entries": entries}


DATASET_CASES = dataset_cases()
POOL_CASES = pool_cases()


def outcomes(directory: Path) -> dict:
    dataset, pool = directory / "golden.jsonl", directory / "pool.json"
    return {
        "dataset": {name: dataset_outcome(line, dataset) for name, line in DATASET_CASES.items()},
        "pool": {name: pool_outcome(text, pool) for name, text in POOL_CASES.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", DATASET_CASES)
def test_a_dataset_line_loads_to_its_golden_outcome(name, golden, tmp_path):
    assert dataset_outcome(DATASET_CASES[name], tmp_path / "golden.jsonl") == golden["dataset"][name]


@pytest.mark.parametrize("name", POOL_CASES)
def test_a_pool_entry_loads_to_its_golden_outcome(name, golden, tmp_path):
    assert pool_outcome(POOL_CASES[name], tmp_path / "pool.json") == golden["pool"][name]


def test_the_golden_table_has_exactly_the_cases(golden):
    assert golden.keys() == {"dataset", "pool"}
    assert golden["dataset"].keys() == DATASET_CASES.keys()
    assert golden["pool"].keys() == POOL_CASES.keys()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = outcomes(Path(scratch))
    # One case per line, so a change to one outcome is a one-line diff.
    sections = [
        f" {json.dumps(section)}: {{\n"
        + ",\n".join(f"  {json.dumps(name)}: {json.dumps(outcome, ensure_ascii=False)}" for name, outcome in cases.items())
        + "\n }"
        for section, cases in table.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
