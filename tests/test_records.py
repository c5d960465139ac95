from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagevol.records import (
    FLAG_TAG_ALREADY_PRESENT,
    EvolvedRecord,
    InstructionRecord,
    LoadError,
    WriteError,
    build_manifest,
    load_dataset,
    merge_rounds,
    record_to_json,
    write_dataset,
    write_json,
)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_returns_records_in_file_order(tmp_path):
    path = tmp_path / "seed.jsonl"
    _write_lines(
        path,
        [
            json.dumps({"id": "a", "instruction": "first task"}),
            json.dumps({"id": "b", "instruction": "second task"}),
        ],
    )
    records = load_dataset(path)
    assert [r.id for r in records] == ["a", "b"]
    assert records[0].instruction == "first task"


def test_load_error_carries_line_number(tmp_path):
    path = tmp_path / "seed.jsonl"
    _write_lines(
        path,
        [
            json.dumps({"instruction": "ok"}),
            json.dumps({"instruction": "ok too"}),
            "{not json",
        ],
    )
    with pytest.raises(LoadError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 3


@pytest.mark.parametrize(
    "key,value",
    [
        ("round", None),
        ("budget", [2]),
        ("selected_tags", 5),
        ("candidate_tags", 3.5),
        ("flags", True),
        ("round", "2"),
        ("round", True),
        ("round", 2.0),
        ("budget", True),
        ("budget", "1"),
        ("parent_id", 5),
        ("parent_id", None),
        ("selected_tags", "a"),
        ("candidate_tags", "abc"),
        ("candidate_tags", ["a", 2]),
        ("flags", "SubsetSizeMismatch"),
        ("plan", 5),
        ("plan", ["integrate"]),
        ("raw_digest", 0),
        ("candidate_tags", ["a", None]),
        ("candidate_tags", [["a"]]),
        ("flags", ["a", None]),
        ("flags", [["a"]]),
    ],
)
def test_evolved_field_of_the_wrong_json_type_is_a_load_error(key, value, tmp_path):
    evolved = {
        "id": "e",
        "instruction": "rewritten",
        "parent_id": "p",
        "round": 1,
        "budget": 1,
        "selected_tags": ["a"],
        "candidate_tags": ["a", "b"],
    }
    path = tmp_path / "round.jsonl"
    _write_lines(path, [json.dumps({"instruction": "seed"}), json.dumps({**evolved, key: value})])
    with pytest.raises(LoadError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    assert repr(key) in str(excinfo.value)


def test_evolved_optional_fields_may_be_absent_or_null(tmp_path):
    path = tmp_path / "round.jsonl"
    base = {"instruction": "rewritten", "parent_id": "p", "round": 2, "budget": 1, "selected_tags": ["a"]}
    _write_lines(
        path,
        [
            json.dumps({**base, "id": "absent", "candidate_tags": ["a"]}),
            json.dumps({**base, "id": "null", "candidate_tags": ["a"], "plan": None, "flags": None, "raw_digest": None}),
        ],
    )
    for record in load_dataset(path):
        assert (record.round, record.budget, record.plan, record.flags, record.raw_digest) == (2, 1, "", [], "")


def _evolved_line(index: int, candidates: list[str], flags: list[str]) -> str:
    return json.dumps(
        {
            "id": f"e{index}",
            "instruction": f"rewritten task {index}",
            "parent_id": f"p{index}",
            "round": 1,
            "budget": 2,
            "selected_tags": candidates[:2],
            "candidate_tags": candidates,
            "flags": flags,
        }
    )


def _vocabulary_file(path, records: int, candidates: int, vocabulary: int, offset: int = 0):
    tags = [f"shared tag {i:03d}" for i in range(vocabulary)]
    _write_lines(
        path,
        [
            _evolved_line(i, [tags[(offset + i + j) % vocabulary] for j in range(candidates)], [FLAG_TAG_ALREADY_PRESENT])
            for i in range(records)
        ],
    )


def test_loaded_tags_and_flags_share_one_string_per_value(tmp_path):
    _vocabulary_file(tmp_path / "one.jsonl", records=20, candidates=6, vocabulary=8)
    _vocabulary_file(tmp_path / "two.jsonl", records=20, candidates=6, vocabulary=8, offset=3)
    records = load_dataset(tmp_path / "one.jsonl") + load_dataset(tmp_path / "two.jsonl")
    first: dict[str, str] = {}
    for record in records:
        for value in record.candidate_tags + record.selected_tags + record.flags:
            assert first.setdefault(value, value) is value
    assert len(first) == 9


def _retained_bytes(path) -> int:
    tracemalloc.start()
    try:
        records = load_dataset(path)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == 1000
    return retained


def test_a_loaded_candidate_slot_costs_a_pointer_not_a_string(tmp_path):
    short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    _vocabulary_file(short, records=1000, candidates=30, vocabulary=100)
    _vocabulary_file(long, records=1000, candidates=60, vocabulary=100)
    for path in (short, long):
        load_dataset(path)  # intern the vocabulary before tracing
    extra_slots = 1000 * (60 - 30)
    # A slot is an 8-byte pointer plus list over-allocation; a private
    # "shared tag 042" string per slot would cost about 60 bytes more.
    assert _retained_bytes(long) - _retained_bytes(short) <= 16 * extra_slots


def test_missing_id_defaults_to_filename_and_line(tmp_path):
    path = tmp_path / "seed.jsonl"
    _write_lines(path, [json.dumps({"instruction": "no id here"})])
    records = load_dataset(path)
    assert records[0].id == "seed.jsonl:1"


def test_duplicate_explicit_id_rejected(tmp_path):
    path = tmp_path / "seed.jsonl"
    _write_lines(
        path,
        [
            json.dumps({"id": "dup", "instruction": "one"}),
            json.dumps({"id": "dup", "instruction": "two"}),
        ],
    )
    with pytest.raises(LoadError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value) == f"{path}:2: duplicate record id 'dup'"
    assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)


def test_empty_instruction_is_a_load_error(tmp_path):
    path = tmp_path / "seed.jsonl"
    _write_lines(path, [json.dumps({"id": "x", "instruction": "   "})])
    with pytest.raises(LoadError):
        load_dataset(path)


def test_missing_file_is_a_load_error(tmp_path):
    with pytest.raises(LoadError):
        load_dataset(tmp_path / "absent.jsonl")


def test_blank_lines_are_skipped_but_still_counted(tmp_path):
    path = tmp_path / "seed.jsonl"
    path.write_text(
        json.dumps({"instruction": "first"}) + "\n\n" + json.dumps({"instruction": "second"}) + "\n",
        encoding="utf-8",
    )
    records = load_dataset(path)
    assert [r.id for r in records] == ["seed.jsonl:1", "seed.jsonl:3"]


def _sample_records():
    plain = InstructionRecord(id="s:1", instruction="count the words", response=None, meta={"lang": "en"})
    evolved = EvolvedRecord(
        id="s:1:round1",
        instruction="count the words and also the characters after removing punctuation first",
        response="forty two",
        parent_id="s:1",
        round=1,
        budget=2,
        selected_tags=["character counting", "punctuation removal"],
        candidate_tags=["character counting", "punctuation removal", "loops"],
        plan="add a second counting requirement",
        flags=[],
        raw_digest="0" * 64,
    )
    return [plain, evolved]


def test_write_then_load_round_trips(tmp_path):
    path = tmp_path / "out.jsonl"
    records = _sample_records()
    write_dataset(records, path)
    loaded = load_dataset(path)
    assert loaded == records
    assert isinstance(loaded[1], EvolvedRecord)


def test_writes_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    records = _sample_records()
    write_dataset(records, a)
    write_dataset(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_null_response_is_explicit(tmp_path):
    path = tmp_path / "out.jsonl"
    write_dataset([InstructionRecord(id="x", instruction="hello there")], path)
    line = path.read_text(encoding="utf-8").strip()
    assert '"response": null' in line


def test_field_order_is_fixed():
    payload = record_to_json(_sample_records()[1])
    assert list(payload)[:3] == ["id", "instruction", "response"]
    assert list(payload)[3:] == [
        "parent_id",
        "round",
        "budget",
        "selected_tags",
        "candidate_tags",
        "plan",
        "flags",
        "raw_digest",
    ]


def _mk(i, text):
    return InstructionRecord(id=f"r:{i}", instruction=text)


def test_merge_drops_exact_duplicates_keeping_earliest():
    r1 = [_mk(1, "alpha task"), _mk(2, "beta task")]
    r2 = [_mk(3, "beta task"), _mk(4, "gamma task")]
    merged = merge_rounds([r1, r2])
    assert [r.instruction for r in merged] == ["alpha task", "beta task", "gamma task"]
    assert merged[1].id == "r:2"


def test_merge_normalizes_whitespace_for_dedup():
    merged = merge_rounds([[_mk(1, "alpha   task")], [_mk(2, " alpha task ")]])
    assert len(merged) == 1


def test_merge_of_three_distinct_rounds_keeps_everything():
    rounds = [[_mk(f"{k}{i}", f"round {k} item {i}") for i in range(5)] for k in range(3)]
    assert len(merge_rounds(rounds)) == 15


def test_merge_empty_rounds_yields_empty():
    assert merge_rounds([]) == []


def test_merge_prepends_seed_only_when_asked():
    seed = [_mk("s", "seed task")]
    rounds = [[_mk(1, "evolved task")]]
    assert len(merge_rounds(rounds, seed=seed)) == 1
    merged = merge_rounds(rounds, include_seed=True, seed=seed)
    assert [r.id for r in merged] == ["r:s", "r:1"]


def test_merge_is_idempotent():
    rounds = [[_mk(1, "one"), _mk(2, "two")], [_mk(3, "one"), _mk(4, "three")]]
    merged = merge_rounds(rounds)
    assert merge_rounds([merged, merged]) == merged


@given(st.lists(st.text(min_size=1).filter(lambda s: s.strip()), min_size=0, max_size=20))
def test_merge_output_has_no_duplicate_keys(texts):
    records = [InstructionRecord(id=f"h:{i}", instruction=t) for i, t in enumerate(texts)]
    merged = merge_rounds([records])
    keys = [" ".join(r.instruction.split()) for r in merged]
    assert len(keys) == len(set(keys))


def test_manifest_breakdown_covers_all_records():
    seed = _mk("s", "seed task")
    evolved = EvolvedRecord(
        id="e",
        instruction="evolved task text",
        parent_id="r:s",
        round=2,
        budget=3,
        selected_tags=["a", "b", "c"],
        candidate_tags=["a", "b", "c", "d"],
    )
    manifest = build_manifest("demo", ["seed.jsonl"], [seed, evolved, evolved], {"rng_seed": 7})
    assert manifest.record_count == 3
    assert sum(r["count"] for r in manifest.rounds) == 3
    by_round = {r["round"]: r for r in manifest.rounds}
    assert by_round[None]["count"] == 1
    assert by_round[2] == {"round": 2, "budget": 3, "count": 2}


def test_evolved_record_coherence_enforced_unless_flagged():
    with pytest.raises(ValueError):
        EvolvedRecord(
            id="e",
            instruction="text here",
            parent_id="p",
            round=1,
            budget=2,
            selected_tags=["only one"],
            candidate_tags=["only one", "other"],
        )
    flagged = EvolvedRecord(
        id="e",
        instruction="text here",
        parent_id="p",
        round=1,
        budget=2,
        selected_tags=["only one"],
        candidate_tags=["only one", "other"],
        flags=["SubsetSizeMismatch"],
    )
    assert flagged.flags == ["SubsetSizeMismatch"]


def test_write_json_renders_sorted_indented_utf8(tmp_path):
    path = tmp_path / "report.json"
    write_json({"b": "é", "a": [1]}, path)
    assert path.read_bytes() == '{\n  "a": [\n    1\n  ],\n  "b": "é"\n}\n'.encode("utf-8")


def test_write_json_wraps_os_errors(tmp_path):
    with pytest.raises(WriteError):
        write_json({"a": 1}, tmp_path)


def _serializes_until_second_record(monkeypatch):
    calls = []

    def record_to_json_failing(record):
        calls.append(record)
        if len(calls) == 2:
            return {"id": record.id, "unserializable": {"a set"}}
        return record_to_json(record)

    monkeypatch.setattr("tagevol.records.record_to_json", record_to_json_failing)


def test_failed_dataset_write_keeps_old_bytes_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "data.jsonl"
    write_dataset(_sample_records()[:1], path)
    old = path.read_bytes()
    _serializes_until_second_record(monkeypatch)
    with pytest.raises(WriteError):
        write_dataset(_sample_records() * 3, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


def test_failed_json_write_keeps_old_bytes_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "report.json"
    write_json({"a": 1}, path)
    old = path.read_bytes()
    with pytest.raises(WriteError):
        write_json({"a": 2, "b": {"a set"}}, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_replaces_the_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("old contents that are longer than the new ones\n" * 50, encoding="utf-8")
    held = path.open(encoding="utf-8")
    write_dataset(_sample_records(), path)
    assert load_dataset(path) == _sample_records()
    assert held.read().startswith("old contents")  # a reader keeps the old file
    held.close()
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]


def test_write_through_a_symlink_keeps_the_link(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("{}\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_json({"a": 1}, link)
    assert link.is_symlink()
    assert json.loads(real.read_text(encoding="utf-8")) == {"a": 1}
