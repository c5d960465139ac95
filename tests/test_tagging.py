from __future__ import annotations

import json
import random
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import ReplySequenceBackend, SynthesizingBackend, make_pool, make_records, tagging_reply
from tagevol.evolution import evolve_rounds, sample_candidates
from tagevol.errors import LoadError, ParseError, StageFailed
from tagevol.gateway import (
    ChatRequest,
    ChatResponse,
    Gateway,
    MockBackend,
    ResponseCache,
    prompt_digest,
    request_cache_key,
    user_message,
)
from tagevol.records import InstructionRecord, read_json
from tagevol.tagging import (
    POOL_FORMAT_VERSION,
    RejectedTag,
    TagEntry,
    TagPool,
    build_tag_pool,
    build_tagging_prompt,
    extract_balanced,
    load_pool,
    normalize_tag,
    normalized_tags,
    parse_tagging_response,
    save_pool,
    tag_record,
)


def test_prompt_contains_template_and_instruction_verbatim():
    prompt = build_tagging_prompt(InstructionRecord("r:1", "Reverse the string given in the input"))
    assert "You are a tagging system" in prompt
    assert "#Task Reverse the string given in the input" in prompt
    assert "#Aspect2Tags#" in prompt
    assert '\n{"xxx":[tag1, tag2, ...], "xxx":[tag1, tag2, ...], ...}\nwhere xxx means aspect' in prompt


def test_prompt_preserves_braces_in_instruction():
    prompt = build_tagging_prompt(InstructionRecord("r:1", 'print("{}") twice'))
    assert 'print("{}") twice' in prompt


def test_empty_instruction_rejected():
    with pytest.raises(ValueError, match="instruction must be nonempty"):
        InstructionRecord("r:1", "   ")


def test_parse_reads_object_after_final_marker():
    text = (
        "Step 1 #Aspect List and Explanation#: skills and topics\n"
        "Step 2 #Aspect2Tags#:\n\n"
        '#Aspect2Tags#\n{"Required skill": ["string manipulation", "loops"]}'
    )
    assert parse_tagging_response(text) == {"Required skill": ["string manipulation", "loops"]}


def test_parse_requires_marker():
    with pytest.raises(ParseError) as excinfo:
        parse_tagging_response('{"Skill": ["loops"]}')
    assert excinfo.value.reason == "MissingMarker"


def test_parse_drops_empty_aspects_and_rejects_empty_result():
    with pytest.raises(ParseError) as excinfo:
        parse_tagging_response('#Aspect2Tags#\n{"Skill": []}')
    assert excinfo.value.reason == "Empty"


def test_parse_tolerates_markdown_and_case():
    text = "blah\n**#aspect2tags#:**\n```json\n{\"Topic\": [\"geometry\"]}\n```"
    assert parse_tagging_response(text) == {"Topic": ["geometry"]}


def test_parse_accepts_single_quoted_object():
    text = "#Aspect2Tags#\n{'Skill': ['recursion']}"
    assert parse_tagging_response(text) == {"Skill": ["recursion"]}


def test_parse_bad_object():
    with pytest.raises(ParseError) as excinfo:
        parse_tagging_response("#Aspect2Tags#\n{Skill: [tag1, tag2]}")
    assert excinfo.value.reason == "BadObject"


@pytest.mark.parametrize(
    "payload",
    [
        "{'Skill': ['x'], ['key']: 1}",
        '{"Skill": [' + "1" * 5000 + "]}",
        '{"Skill": ' + "[" * 20000 + "]" * 20000 + "}",
        "{'Skill': [" + "-" * 50000 + "1]}",
    ],
    ids=["unhashable_key", "overlong_integer", "deep_json_nesting", "deep_literal_nesting"],
)
def test_literal_that_python_cannot_build_is_bad_object(payload):
    # Neither may escape the parser: a non-ParseError would end the whole stage.
    with pytest.raises(ParseError) as excinfo:
        parse_tagging_response("#Aspect2Tags#\n" + payload)
    assert excinfo.value.reason == "BadObject"


def test_a_final_marker_with_no_object_after_it_is_bad_object_even_after_an_earlier_object():
    text = '#Aspect2Tags#\n{"Skill": ["recursion"]}\n#Aspect2Tags#\nSkill: recursion'
    with pytest.raises(ParseError, match="^BadObject: no tag object after the final marker$") as excinfo:
        parse_tagging_response(text)
    assert excinfo.value.reason == "BadObject"


def test_a_tag_payload_that_is_not_an_object_is_bad_object():
    # Not JSON, but a Python set literal: it parses, and is not a mapping.
    with pytest.raises(ParseError, match="^BadObject: tag payload is not an object$"):
        parse_tagging_response('#Aspect2Tags#\n{"skill", "topic"}')


def test_parse_takes_a_text_value_as_one_tag_and_skips_a_value_that_is_not_a_list():
    text = '#Aspect2Tags#\n{"Skill": "recursion", "Level": 3, "Topic": {"x": 1}, "Domain": ["trees"]}'
    assert parse_tagging_response(text) == {"Skill": ["recursion"], "Domain": ["trees"]}


@pytest.mark.parametrize(
    "text,expected",
    [
        ('x {"a": "b\\"}", "c": 1} y', '{"a": "b\\"}", "c": 1}'),
        ("x {'a': 'it\\'s }', 'c': 1} y", "{'a': 'it\\'s }', 'c': 1}"),
        ("x {'a': {'b': 1}", None),
        ("no bracket here", None),
    ],
    ids=["escaped_double_quote", "escaped_single_quote", "never_closes", "never_opens"],
)
def test_extract_balanced_skips_escaped_quotes_and_needs_a_closing_bracket(text, expected):
    assert extract_balanced(text, "{", "}") == expected


def test_parse_uses_last_marker():
    text = (
        "#Aspect2Tags#\n" + '{"Draft": ["wrong"]}' + "\n#Aspect2Tags#\n" + '{"Skill": ["right"]}'
    )
    assert parse_tagging_response(text) == {"Skill": ["right"]}


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  Basic  Math Calculations. ", "basic math calculations"),
        ("LOOPS", "loops"),
        ("string-manipulation", "string-manipulation"),
        ("'quoted tag'", "quoted tag"),
    ],
)
def test_normalize_tag_rules(raw, expected):
    assert normalize_tag(raw) == expected


@pytest.mark.parametrize("raw", ["…", "...", "  ", "?!"])
def test_normalize_rejects_empty_results(raw):
    with pytest.raises(RejectedTag):
        normalize_tag(raw)


@given(st.text(max_size=60))
def test_normalize_tag_is_idempotent(text):
    try:
        once = normalize_tag(text)
    except RejectedTag:
        return
    assert normalize_tag(once) == once


def _scripted_gateway(records, replies):
    backend = MockBackend()
    for record, reply in zip(records, replies):
        prompt = build_tagging_prompt(record)
        backend.register(prompt_digest([user_message(prompt)]), reply)
    return Gateway(backend, sleep=lambda _: None)


def test_too_deeply_nested_reply_fails_only_its_record():
    records = make_records(3)
    replies = [
        tagging_reply({"Skill": ["loops"]}),
        "#Aspect2Tags#\n{\"Skill\": " + "[" * 20000 + "]" * 20000 + "}",
        tagging_reply({"Skill": ["recursion"]}),
    ]
    gateway = _scripted_gateway(records, replies)
    pool, report = build_tag_pool(records, gateway, retries_per_record=1, model="mock")
    assert pool.distinct_tags() == ("loops", "recursion")
    assert [f["record_id"] for f in report.failures] == [records[1].id]
    assert report.failures[0]["error"].startswith("BadObject:")


def test_pool_merges_observations_across_records():
    records = make_records(3)
    reply = tagging_reply({"Skill": ["loops"]})
    gateway = _scripted_gateway(records, [reply] * 3)
    pool, report = build_tag_pool(records, gateway, model="mock")
    assert pool.entry_count == 1
    entry = pool.entries[("skill", "loops")]
    assert entry.count == 3
    assert entry.sources == tuple(r.id for r in records)
    assert report.tagged_records == 3
    assert report.failures == []


def test_unparseable_record_is_reported_not_fatal():
    records = make_records(3)
    replies = [
        tagging_reply({"Skill": ["loops"]}),
        "no marker here at all",
        tagging_reply({"Skill": ["recursion"]}),
    ]
    gateway = _scripted_gateway(records, replies)
    pool, report = build_tag_pool(records, gateway, retries_per_record=1, model="mock")
    assert pool.distinct_tag_count == 2
    assert [f["record_id"] for f in report.failures] == [records[1].id]


def test_all_records_failing_is_build_failed():
    records = make_records(2)
    gateway = _scripted_gateway(records, ["garbage", "garbage"])
    with pytest.raises(StageFailed):
        build_tag_pool(records, gateway, retries_per_record=0, model="mock")


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
def test_parse_retries_reuse_identical_prompt(cached, tmp_path):
    records = make_records(1)
    backend = ReplySequenceBackend(["not parseable", tagging_reply({"Skill": ["loops"]})])
    cache = ResponseCache(tmp_path / "cache") if cached else None
    gateway = Gateway(backend, max_in_flight=1, cache=cache, sleep=lambda _: None)
    pool, report = build_tag_pool(records, gateway, retries_per_record=2, model="mock")
    assert backend.sends == 2
    assert pool.distinct_tag_count == 1
    assert report.failures == []


def test_a_truncated_reply_is_retried_and_never_cached(tmp_path):
    record = make_records(1)[0]
    request = ChatRequest(model="mock", messages=(user_message(build_tagging_prompt(record)),), max_tokens=64)
    cut = ChatResponse(content=tagging_reply({"Skill": ["loops"]}), finish_reason="length")
    # A cache written before truncated replies were rejected may hold one; it is a miss.
    ResponseCache(tmp_path / "cache").put(request_cache_key(request), cut)
    backend = ReplySequenceBackend([cut, tagging_reply({"Skill": ["recursion"]})])
    gateway = Gateway(backend, max_in_flight=1, cache=ResponseCache(tmp_path / "cache"), sleep=lambda _: None)
    tags, _ = tag_record(record, gateway, 1, model="mock", temperature=request.temperature, max_tokens=64)
    assert tags == {"Skill": ["recursion"]}
    assert backend.requests == [request, request]
    lines = (tmp_path / "cache" / "responses.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["finish_reason"] for line in lines] == ["length", "stop"]

    gateway = Gateway(ReplySequenceBackend([cut]), max_in_flight=1, sleep=lambda _: None)
    with pytest.raises(ParseError, match="^Truncated: ") as caught:
        tag_record(record, gateway, 0, model="mock", temperature=request.temperature, max_tokens=64)
    assert caught.value.reason == "Truncated"


def test_pool_build_is_order_independent():
    records = make_records(6)
    replies = [tagging_reply({"Skill": [f"tag {i % 3}", "shared"]}) for i in range(6)]
    backend = MockBackend()
    for record, reply in zip(records, replies):
        prompt = build_tagging_prompt(record)
        backend.register(prompt_digest([user_message(prompt)]), reply)
    gateway = Gateway(backend, sleep=lambda _: None)

    def snapshot(pool):
        return {key: (entry.count, tuple(sorted(entry.sources))) for key, entry in pool.entries.items()}

    base, _ = build_tag_pool(records, gateway, model="mock")
    shuffled = list(records)
    random.Random(3).shuffle(shuffled)
    permuted, _ = build_tag_pool(shuffled, gateway, model="mock")
    assert snapshot(base) == snapshot(permuted)


_RAW_ASPECTS = ["Skill", "skill:", "Topic", "TOPIC", "output format"]
_RAW_TAGS = ["Loops", "loops", "LOOPS.", "recursion", " Recursion", "sorting", "graph search", "Graph  Search"]
_replies = st.lists(
    st.dictionaries(
        st.sampled_from(_RAW_ASPECTS), st.lists(st.sampled_from(_RAW_TAGS), min_size=1, max_size=4), min_size=1, max_size=3
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replies=_replies)
@example(replies=[{"Skill": ["loops"]}] * 40 + [{"Topic": ["loops", "Loops"]}])
def test_one_pass_merge_equals_one_add_per_observation_and_round_trips(replies):
    records = make_records(len(replies))
    built, _ = build_tag_pool(records, _scripted_gateway(records, [tagging_reply(r) for r in replies]), model="mock")
    added = TagPool(model="mock")
    for record, reply in zip(records, replies):
        parsed = parse_tagging_response(tagging_reply(reply))
        for aspect_raw, aspect in normalized_tags(parsed):
            for tag_raw, tag in normalized_tags(parsed[aspect_raw]):
                added.add(aspect, tag, surface=tag_raw, source=record.id)
    assert built.entries == added.entries
    assert built.distinct_tags() == added.distinct_tags()
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        save_pool(built, first)
        loaded = load_pool(first)
        assert loaded.entries == built.entries
        save_pool(loaded, second)
        assert second.read_bytes() == first.read_bytes()


def test_step_one_text_is_kept_for_audit():
    records = make_records(1)
    gateway = _scripted_gateway(records, [tagging_reply({"Skill": ["loops"]})])
    _, report = build_tag_pool(records, gateway, model="mock")
    assert "aspects chosen to cover the task" in report.preambles[records[0].id]


def test_multi_aspect_replies_grow_the_pool_beyond_coarse_replies():
    records = make_records(5)
    coarse = [tagging_reply({"Task type": [f"category {i % 2}"]}) for i in range(5)]
    fine = [
        tagging_reply(
            {
                "Task type": [f"category {i % 2}", f"subcategory {i}"],
                "Required skill": [f"skill {i} a", f"skill {i} b"],
                "Constraint": [f"constraint {i}"],
            }
        )
        for i in range(5)
    ]
    coarse_pool, _ = build_tag_pool(records, _scripted_gateway(records, coarse), model="mock")
    fine_pool, _ = build_tag_pool(records, _scripted_gateway(records, fine), model="mock")
    assert fine_pool.distinct_tag_count > coarse_pool.distinct_tag_count


def test_save_load_round_trip(tmp_path):
    pool = TagPool(model="mock", built_from={"path": "seed.jsonl", "records": 2})
    pool.add("skill", "loops", surface="Loops", source="a")
    pool.add("skill", "loops", surface="LOOPS", source="b")
    pool.add("topic", "geometry", surface="geometry", source="a")
    path = tmp_path / "pool.json"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert loaded.model == pool.model
    assert loaded.built_from == pool.built_from
    assert loaded.entries.keys() == pool.entries.keys()
    entry = loaded.entries[("skill", "loops")]
    assert entry.count == 2
    assert entry.surface_forms == ("LOOPS", "Loops")


GOOD_POOL_ENTRY = {"tag": "loops", "aspect": "skill", "surface_forms": ["Loops"], "sources": ["r1"], "count": 2}


def _pool_text(*entries) -> str:
    return json.dumps({"version": POOL_FORMAT_VERSION, "model": "m", "entries": list(entries)})


def test_a_loaded_pool_keeps_one_object_per_equal_form_list_source_list_and_source_id(tmp_path):
    shared = {"surface_forms": ["Loops", "loops"], "sources": ["r1", "r2"], "count": 2}
    path = tmp_path / "pool.json"
    path.write_text(
        _pool_text(
            {"tag": "loops", "aspect": "skill", **shared},
            {"tag": "loops", "aspect": "topic", **shared},
            # Unsorted lists and an extra key take the field-by-field path, which builds through the same hook.
            {"tag": "loops", "aspect": "format", **shared, "sources": ["r2", "r1"], "note": 1},
            {"tag": "sorting", "aspect": "skill", "surface_forms": ["sorting"], "sources": ["r2", "r3"], "count": 2},
        ),
        encoding="utf-8",
    )
    entries = load_pool(path).entries
    skill, topic, fmt = entries[("skill", "loops")], entries[("topic", "loops")], entries[("format", "loops")]
    assert skill.surface_forms == ("Loops", "loops") and skill.sources == ("r1", "r2")
    assert skill.surface_forms is topic.surface_forms is fmt.surface_forms
    assert skill.sources is topic.sources is fmt.sources
    assert skill.surface_forms[1] is skill.tag
    assert entries[("skill", "sorting")].sources[0] is skill.sources[1]
    again = load_pool(path).entries[("skill", "loops")]
    assert again == skill
    assert again.sources is not skill.sources and again.sources[1] is not skill.sources[1]


def test_load_rejects_corrupted_pool(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(_pool_text(GOOD_POOL_ENTRY), encoding="utf-8")
    assert load_pool(path).entries[("skill", "loops")] == TagEntry("loops", "skill", ("Loops",), ("r1",), 2)
    # Entry fields are checked, never coerced.
    bad_entries = [
        5,
        ["loops", "skill"],
        {key: value for key, value in GOOD_POOL_ENTRY.items() if key != "tag"},
        {**GOOD_POOL_ENTRY, "tag": 5},
        {**GOOD_POOL_ENTRY, "aspect": None},
        {**GOOD_POOL_ENTRY, "surface_forms": "abc"},
        {**GOOD_POOL_ENTRY, "sources": [1]},
        {**GOOD_POOL_ENTRY, "count": True},
        {**GOOD_POOL_ENTRY, "count": 2.0},
        {**GOOD_POOL_ENTRY, "count": "2"},
    ]
    for content in ["{not json", *(_pool_text(GOOD_POOL_ENTRY, entry) for entry in bad_entries)]:
        path.write_text(content, encoding="utf-8")
        with pytest.raises(LoadError):
            load_pool(path)


def test_an_entry_shaped_object_in_built_from_loads_as_that_object(tmp_path):
    path = tmp_path / "pool.json"
    unsorted = {**GOOD_POOL_ENTRY, "sources": ["r2", "r1", "r2"]}
    built_from = {"entry": GOOD_POOL_ENTRY, "nested": [[{"again": GOOD_POOL_ENTRY}], unsorted]}
    path.write_text(
        json.dumps({"version": POOL_FORMAT_VERSION, "model": "m", "built_from": built_from, "entries": [GOOD_POOL_ENTRY]}),
        encoding="utf-8",
    )
    loaded = load_pool(path)
    assert loaded.built_from == built_from
    assert loaded.entries == {("skill", "loops"): TagEntry("loops", "skill", ("Loops",), ("r1",), 2)}


def test_an_entry_shaped_object_in_the_wrong_place_keeps_todays_error(tmp_path):
    path = tmp_path / "pool.json"
    cases = [
        (GOOD_POOL_ENTRY, "unsupported pool version None"),
        ({"version": POOL_FORMAT_VERSION, "entries": GOOD_POOL_ENTRY}, "'entries' must be a list, got dict"),
        ({"version": POOL_FORMAT_VERSION, "model": GOOD_POOL_ENTRY, "entries": []}, "'model' must be a string, got {"),
        (json.loads(_pool_text({**GOOD_POOL_ENTRY, "tag": GOOD_POOL_ENTRY})), "'tag' must be a string, got {"),
    ]
    for payload, message in cases:
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(LoadError, match=re.escape(message)):
            load_pool(path)


def test_a_non_object_entry_is_named_as_parsed(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(_pool_text([GOOD_POOL_ENTRY]), encoding="utf-8")
    with pytest.raises(LoadError, match=re.escape(f"entry is not an object: {json.dumps([GOOD_POOL_ENTRY])}")):
        load_pool(path)


@pytest.mark.parametrize("innermost", [GOOD_POOL_ENTRY, 1])
def test_built_from_loads_as_deep_as_the_parser_reads_and_one_level_deeper_is_a_load_error(innermost, tmp_path):
    path = tmp_path / "pool.json"
    # Written as text: json.dumps itself stops near the interpreter's recursion limit.
    head, tail = '{"version": %d, "model": "m", "entries": [], "built_from": {"x": ' % POOL_FORMAT_VERSION, "}}"
    loaded = 0
    for depth in range(sys.getrecursionlimit() // 2, 2 * sys.getrecursionlimit()):
        path.write_text(head + "[" * depth + json.dumps(innermost) + "]" * depth + tail, encoding="utf-8")
        try:
            value = load_pool(path).built_from["x"]
        except LoadError as err:
            # The first depth that fails is one the parser refuses, never one it read.
            assert "cannot read JSON: maximum recursion depth exceeded" in str(err)
            break
        for _ in range(depth):
            assert isinstance(value, list) and len(value) == 1
            value = value[0]
        assert value == innermost
        loaded = depth
    assert loaded == depth - 1 > sys.getrecursionlimit() // 2


def test_an_entry_with_an_extra_key_or_unsorted_lists_still_loads(tmp_path):
    path = tmp_path / "pool.json"
    extra = {**GOOD_POOL_ENTRY, "note": {**GOOD_POOL_ENTRY, "tag": "nested"}}
    unsorted = {**GOOD_POOL_ENTRY, "tag": "trees", "surface_forms": ["trees", "Trees", "trees"], "sources": ["r2", "r1"]}
    path.write_text(_pool_text(extra, unsorted), encoding="utf-8")
    entries = load_pool(path).entries
    assert entries == {
        ("skill", "loops"): TagEntry("loops", "skill", ("Loops",), ("r1",), 2),
        ("skill", "trees"): TagEntry("trees", "skill", ("Trees", "trees"), ("r1", "r2"), 2),
    }
    trees = entries[("skill", "trees")]
    assert trees.surface_forms[1] is trees.tag


def test_a_loaded_entry_shares_its_tag_string(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(_pool_text({**GOOD_POOL_ENTRY, "surface_forms": ["Loops", "loops"]}), encoding="utf-8")
    entry = load_pool(path).entries[("skill", "loops")]
    assert entry.surface_forms == ("Loops", "loops")
    assert entry.surface_forms[1] is entry.tag


@pytest.mark.parametrize("key", ["tag", "surface_forms", "sources"])
def test_a_lone_surrogate_in_an_entry_is_a_load_error(key, tmp_path):
    path = tmp_path / "pool.json"
    value = "x\ud800y" if key == "tag" else ["x\ud800y"]
    text = _pool_text({**GOOD_POOL_ENTRY, key: value})
    assert "\\ud800" in text
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LoadError, match="lone UTF-16 surrogate"):
        load_pool(path)


def test_load_rejects_what_save_pool_never_writes(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(_pool_text(GOOD_POOL_ENTRY, {**GOOD_POOL_ENTRY, "count": 5}), encoding="utf-8")
    with pytest.raises(LoadError, match="repeated entry"):
        load_pool(path)
    good = {"version": POOL_FORMAT_VERSION, "model": "m", "entries": [GOOD_POOL_ENTRY]}
    for built_from in (None, {"dataset": "seed.jsonl"}):
        path.write_text(json.dumps({**good, "built_from": built_from}), encoding="utf-8")
        assert load_pool(path).built_from == built_from
    for key, value in [("model", 5), ("model", ["m"]), ("built_from", "x"), ("built_from", [1])]:
        path.write_text(json.dumps({**good, key: value}), encoding="utf-8")
        with pytest.raises(LoadError, match=repr(key)):
            load_pool(path)


def test_load_rejects_version_mismatch(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text('{"version": 99, "model": "m", "entries": []}', encoding="utf-8")
    with pytest.raises(LoadError):
        load_pool(path)


def test_a_pool_file_whose_top_level_is_a_list_is_a_load_error(tmp_path):
    path = tmp_path / "pool.json"
    path.write_text(json.dumps([GOOD_POOL_ENTRY]), encoding="utf-8")
    with pytest.raises(LoadError, match="expected a JSON object"):
        load_pool(path)


def test_empty_pool_file_loads_with_zero_entries(tmp_path):
    path = tmp_path / "pool.json"
    save_pool(TagPool(model="m"), path)
    assert load_pool(path).entry_count == 0


def _large_pool(tag_count: int = 6000) -> TagPool:
    """``tag_count`` distinct two-word tags, each under one or two of four aspects."""
    rng = random.Random(11)
    syllables = [c + v for c in "cjqvwxz" for v in "aeiou"]
    words = [a + b for a in syllables for b in syllables]
    aspects = ["required skill", "topic", "constraint", "output format"]
    pool = TagPool(model="synthetic")
    for i, k in enumerate(rng.sample(range(len(words) ** 2), tag_count)):
        tag = f"{words[k // len(words)]} {words[k % len(words)]}"
        for aspect in rng.sample(aspects, rng.randint(1, 2)):
            pool.add(aspect, tag, surface=tag, source=f"seed:{i}")
    return pool


@pytest.fixture(scope="module")
def large_pool():
    return _large_pool()


def test_a_large_saved_pool_is_exactly_json_text_of_its_payload(large_pool, tmp_path):
    path = tmp_path / "pool.json"
    save_pool(large_pool, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(read_json(path), ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert len(read_json(path)["entries"]) == large_pool.entry_count > 6000


def test_saving_a_large_pool_peaks_below_three_times_its_file(large_pool, tmp_path):
    path = tmp_path / "pool.json"
    tracemalloc.start()
    try:
        save_pool(large_pool, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


def test_loading_a_large_pool_peaks_near_the_size_of_the_pool(large_pool, tmp_path):
    path = tmp_path / "pool.json"
    save_pool(large_pool, path)
    tracemalloc.start()
    try:
        loaded = load_pool(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.entries == large_pool.entries
    # The parser must hold the file text while it builds the entries, so both
    # bounds are in file sizes.
    size = path.stat().st_size
    assert kept < 1.5 * size
    assert peak < 3 * size


class CountingEntries(dict):
    """A pool's entries dict that counts full scans of its keys."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_evolve_rounds_scans_the_pool_once():
    entries = CountingEntries()
    for i in range(12):
        entries[("skill", f"notion {i}")] = TagEntry(tag=f"notion {i}", aspect="skill", count=1)
    pool = TagPool(entries=entries, model="fixture")
    gateway = Gateway(SynthesizingBackend(), sleep=lambda _: None)
    result = evolve_rounds(make_records(20), [1, 2, 3], pool, gateway, master_seed=5, cand_size=6, model="mock")
    assert [len(r) for r in result.rounds] == [20, 20, 20]
    assert entries.scans == 1


def test_sampling_space_is_one_cached_tuple():
    pool = make_pool(["beta", "alpha", "gamma"])
    space = pool.distinct_tags()
    assert isinstance(space, tuple)
    assert space == ("alpha", "beta", "gamma")
    assert pool.distinct_tags() is space


def test_add_of_a_new_tag_refreshes_the_sampling_space():
    pool = make_pool(["alpha", "beta"])
    sample_candidates(pool, 2, random.Random(0))
    pool.add("topic", "delta", surface="Delta", source="s")
    assert pool.distinct_tags() == ("alpha", "beta", "delta")
    assert pool.distinct_tag_count == 3
    assert sorted(sample_candidates(pool, 3, random.Random(0))) == ["alpha", "beta", "delta"]


def test_add_of_an_existing_entry_keeps_the_sampling_space():
    pool = make_pool(["alpha", "beta"])
    space = pool.distinct_tags()
    pool.add("required skill", "alpha", surface="ALPHA", source="t")
    assert pool.distinct_tags() is space
    assert pool.entries[("required skill", "alpha")].count == 2


def test_a_loaded_pool_samples_what_the_saved_pool_samples(tmp_path):
    pool = TagPool(model="mock")
    for i in range(40):
        pool.add(["skill", "topic"][i % 2], f"tag {i:02d}", surface=f"Tag {i}", source=f"s{i}")
    pool.add("skill", "tag 03", surface="tag 3", source="s99")
    path = tmp_path / "pool.json"
    save_pool(pool, path)
    loaded = load_pool(path)
    assert loaded.distinct_tags() == pool.distinct_tags() == tuple(f"tag {i:02d}" for i in range(40))
    for seed in range(5):
        assert sample_candidates(loaded, 7, random.Random(seed)) == sample_candidates(pool, 7, random.Random(seed))
