from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import stat
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tagevol import records
from tagevol.records import (
    FLAG_SUBSET_NOT_IN_CANDIDATES,
    FLAG_TAG_ALREADY_PRESENT,
    EvolvedRecord,
    InstructionRecord,
    LoadError,
    WriteError,
    build_manifest,
    load_dataset,
    merge_rounds,
    read_json,
    record_to_json,
    write_dataset,
    write_json,
)


def _json_oracle(payload) -> str:
    """The JSON artifact rendering, spelled independently of the library."""
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


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
    "obj",
    [{"instruction": "x\ud800y"}, {"instruction": "ok", "meta": {"\udfff": 1}}, {"instruction": "ok", "id": "\udcff"}],
    ids=["instruction", "meta_key", "id"],
)
def test_a_lone_surrogate_is_a_load_error_naming_its_line(obj, tmp_path):
    # An escaped pair is one character, and an escaped backslash before "u" is no escape.
    good = r'{"instruction": "fine \u00e9 and \ud83d\ude00 in C:\\users"}'
    path = tmp_path / "seed.jsonl"
    _write_lines(path, [good, json.dumps(obj)])
    with pytest.raises(LoadError, match="lone UTF-16 surrogate") as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    _write_lines(path, [good])
    assert load_dataset(path)[0].instruction == "fine \u00e9 and \U0001f600 in C:\\users"
    path.write_text(json.dumps([obj]), encoding="utf-8")
    with pytest.raises(LoadError, match="lone UTF-16 surrogate"):
        read_json(path)


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than json.loads can follow


def test_a_line_nested_deeper_than_the_parser_follows_is_a_load_error_naming_its_line(tmp_path):
    path = tmp_path / "seed.jsonl"
    _write_lines(path, [json.dumps({"instruction": "ok"}), DEEP_JSON])
    with pytest.raises(LoadError, match="nested too deeply") as excinfo:
        load_dataset(path)
    assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)


def test_a_json_file_nested_deeper_than_the_parser_follows_is_a_load_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    with pytest.raises(LoadError) as excinfo:
        read_json(path)
    assert excinfo.value.path == str(path)


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
        ("id", 5),
        ("meta", [1]),
        ("id", None),
        ("meta", None),
        ("response", 5),
        ("instruction", 5),
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


def test_a_line_that_is_not_a_json_object_is_a_load_error_naming_its_line(tmp_path):
    path = tmp_path / "seed.jsonl"
    _write_lines(path, [json.dumps({"instruction": "ok"}), json.dumps([1, 2])])
    with pytest.raises(LoadError, match="expected a JSON object") as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2


def test_the_evolved_schema_lists_the_provenance_fields_in_record_order():
    names = [f.name for f in dataclasses.fields(EvolvedRecord)]
    assert names[:4] == [f.name for f in dataclasses.fields(InstructionRecord)]
    assert list(records._EVOLVED_FIELDS) == names[4:]


@pytest.mark.parametrize("missing", ["parent_id", "round", "budget"])
def test_an_evolved_record_missing_a_marker_field_is_a_load_error(missing, tmp_path):
    evolved = {"instruction": "rewritten", "parent_id": "p", "round": 1, "budget": 1, "selected_tags": ["a"], "candidate_tags": ["a"]}
    del evolved[missing]
    path = tmp_path / "round.jsonl"
    _write_lines(path, [json.dumps(evolved)])
    with pytest.raises(LoadError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 1
    assert str(excinfo.value).endswith(f": evolved record missing fields: {missing}")


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


def test_absent_lists_load_as_a_fresh_list_per_record(tmp_path):
    path = tmp_path / "round.jsonl"
    base = {"instruction": "rewritten", "parent_id": "p", "round": 1, "budget": 1, "selected_tags": ["a"]}
    _write_lines(path, [json.dumps({**base, "id": name, "candidate_tags": ["a"]}) for name in ("one", "two")])
    one, two = load_dataset(path)
    assert one.flags == two.flags == []
    assert one.flags is not two.flags


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


def test_loaded_records_keep_their_fields_in_slots(tmp_path):
    path = tmp_path / "out.jsonl"
    write_dataset(_sample_records(), path)
    loaded = load_dataset(path)
    for record in loaded:
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.instruction = "changed"
        # The frozen __setattr__ of a slotted class rejects an undeclared name
        # with TypeError (CPython 3.10-3.13); there is no table to hold it.
        with pytest.raises(TypeError):
            record.note = "extra"
        assert dataclasses.replace(record) == record
        assert dataclasses.replace(record, response="other").response == "other"
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    # EvolvedRecord runs the base checks through an explicit call, not super().
    with pytest.raises(ValueError, match="record id must be nonempty"):
        dataclasses.replace(loaded[1], id="")


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
    assert [r.id for r in merge_rounds(rounds)] == ["r:1"]
    assert [r.id for r in merge_rounds(rounds, seed=seed)] == ["r:s", "r:1"]
    assert [r.id for r in merge_rounds(rounds, seed=[_mk("s", " evolved  task ")])] == ["r:s"]  # the seed copy wins


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
    assert manifest["record_count"] == 3
    assert sum(r["count"] for r in manifest["rounds"]) == 3
    by_round = {r["round"]: r for r in manifest["rounds"]}
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


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"parent_id": ""}, "parent_id must be nonempty"),
        ({"round": 0}, "round must be >= 1"),
        ({"budget": 0, "selected_tags": []}, "budget must be >= 1"),
        ({"selected_tags": ["foreign"]}, "selected tags must come from the candidate batch unless flagged"),
    ],
    ids=["empty_parent_id", "round_zero", "budget_zero", "foreign_selected_tag"],
)
def test_evolved_record_rejects_incoherent_provenance(changes, message):
    fields = {"id": "e", "instruction": "text here", "parent_id": "p", "round": 1, "budget": 1}
    fields.update(selected_tags=["a"], candidate_tags=["a", "b"])
    with pytest.raises(ValueError, match=f"^{message}$"):
        EvolvedRecord(**{**fields, **changes})


def test_a_flagged_foreign_selected_tag_is_kept():
    record = EvolvedRecord(
        id="e", instruction="text here", parent_id="p", round=1, budget=1,
        selected_tags=["foreign"], candidate_tags=["a", "b"], flags=[FLAG_SUBSET_NOT_IN_CANDIDATES],
    )
    assert record.selected_tags == ["foreign"]


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


class _CountingFile:
    """A text file that records the length of each write it passes on."""

    def __init__(self, fh):
        self.fh, self.sizes = fh, []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return self.fh.write(text)


def _count_writes(monkeypatch) -> list[_CountingFile]:
    opened = []
    replace_file = records._replace_file

    def counting(path, write):
        def write_counted(fh):
            opened.append(_CountingFile(fh))
            write(opened[-1])

        replace_file(path, write_counted)

    monkeypatch.setattr(records, "_replace_file", counting)
    return opened


def _circular_after(count: int) -> list:
    loop: list = list(range(count))
    loop.append(loop)
    return loop


@pytest.mark.parametrize(
    "payload",
    [[*range(3 * records._WRITE_BATCH), object()], _circular_after(3 * records._WRITE_BATCH)],
    ids=["unserializable", "circular"],
)
def test_a_streamed_write_failing_after_its_first_batch_keeps_the_old_file(payload, tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_json({"a": 1}, path)
    old = path.read_bytes()
    opened = _count_writes(monkeypatch)
    with pytest.raises(WriteError):
        write_json(payload, path)
    assert len(opened) == 1 and len(opened[0].sizes) >= 3  # whole batches reached the temp file first
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_json_writes_in_batches_never_the_whole_text(tmp_path, monkeypatch):
    payload = list(range(3 * records._WRITE_BATCH))
    opened = _count_writes(monkeypatch)
    write_json(payload, tmp_path / "report.json")
    text = _json_oracle(payload)
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == text
    assert 4 <= len(opened[0].sizes) <= 6
    assert max(opened[0].sizes) < len(text) / 2


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_documents = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5), max_leaves=30
)
small_documents = st.recursive(json_scalars, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=2)
longer_than_one_batch = small_documents.map(lambda value: [value] * (records._WRITE_BATCH + 1))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    payload=st.one_of(json_documents, json_documents, st.text(st.characters(min_codepoint=0x80, codec="utf-8")), longer_than_one_batch),
    batch=st.sampled_from([1, 2, 7, records._WRITE_BATCH]),
)
def test_write_json_writes_exactly_json_text(payload, batch):
    text = _json_oracle(payload)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(records, "_WRITE_BATCH", batch):
        path = Path(tmp) / "out.json"
        write_json(payload, path)
        assert path.read_bytes() == text.encode("utf-8")


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
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "real.json"
    real.write_text("{}\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_json({"a": 1}, link)
    assert link.is_symlink()
    assert json.loads(real.read_text(encoding="utf-8")) == {"a": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.json"]
    assert [p.name for p in (tmp_path / "data").iterdir()] == ["real.json"]


def test_a_failed_write_through_a_symlink_keeps_the_old_target(tmp_path):
    real = tmp_path / "real.json"
    write_json({"a": 1}, real)
    old = real.read_bytes()
    link = tmp_path / "link.json"
    link.symlink_to(real)
    with pytest.raises(WriteError):
        write_json([*range(10_000), object()], link)
    assert link.is_symlink() and link.resolve() == real
    assert real.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("through_link", [False, True], ids=["pipe", "symlink-to-pipe"])
def test_a_pipe_is_written_in_place(through_link, tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    path = pipe
    if through_link:
        path = tmp_path / "link.json"
        path.symlink_to(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # lets the write open the pipe without waiting
    try:
        write_json({"a": 1}, path)
        assert os.read(reader, 1 << 16) == _json_oracle({"a": 1}).encode("utf-8")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
    assert path.is_symlink() == through_link
