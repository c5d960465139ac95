from __future__ import annotations

import json
import logging
import random
import re
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import (
    ALL_CASE_FIXTURES,
    STRING_REVERSAL_CASES,
    STRING_REVERSAL_ORIGINAL,
    POLYNOMIAL_CASES,
    render_case_reply,
)
from helpers import (
    ReplySequenceBackend,
    SynthesizingBackend,
    evolution_reply,
    make_pool,
    make_records,
    valid_final,
)
from tagevol.errors import ParseError, PreconditionError
from tagevol.evolution import (
    PRESETS,
    ParsedEvolution,
    build_evolution_prompt,
    evolve_record,
    evolve_rounds,
    parse_evolution_response,
    record_seed,
    sample_candidates,
    validate_result,
    word_count,
)
from tagevol.gateway import (
    AuthError,
    ChatRequest,
    ChatResponse,
    ExhaustedRetries,
    Gateway,
    MockBackend,
    ResponseCache,
    TransientBackendError,
    prompt_digest,
    request_cache_key,
    user_message,
)
from tagevol.records import (
    FLAG_FINAL_EQUALS_ORIGINAL,
    FLAG_SUBSET_NOT_IN_CANDIDATES,
    FLAG_SUBSET_SIZE_MISMATCH,
    FLAG_TAG_ALREADY_PRESENT,
    FLAG_WORD_DELTA_OUT_OF_RANGE,
    InstructionRecord,
)
from tagevol.tagging import build_tagging_prompt


def test_prompt_contains_budget_and_exclusion_clause():
    cand = [f"tag {i}" for i in range(20)]
    prompt = build_evolution_prompt(InstructionRecord("r:1", "solve the puzzle"), 3, cand)
    assert "must exclude any tags already present" in prompt
    assert "The subset should contain 3 tags" in prompt
    assert '["tag 0", "tag 1"' in prompt


@pytest.mark.parametrize("budget,limit", [(1, 20), (3, 60), (7, 140)])
def test_word_limit_clause_renders_the_product(budget, limit):
    prompt = build_evolution_prompt(InstructionRecord("r:1", "solve it"), budget, [f"t{i}" for i in range(10)])
    assert f"between 10 and {limit} words" in prompt


@pytest.mark.parametrize("case,original,style", ALL_CASE_FIXTURES)
def test_case_fixture_replies_parse(case, original, style):
    parsed = parse_evolution_response(render_case_reply(case, style))
    assert parsed.subset == case["subset"]
    assert parsed.final == case["final"]
    assert parsed.plan
    assert parsed.rewritten


def test_string_reversal_round_one_flags_word_delta_only():
    case = STRING_REVERSAL_CASES[0]
    parsed = parse_evolution_response(render_case_reply(case, "python_list_finally"))
    cand = case["subset"] + ["loops", "edge cases"]
    flags = validate_result(parsed, case["budget"], cand, STRING_REVERSAL_ORIGINAL)
    assert flags == [FLAG_WORD_DELTA_OUT_OF_RANGE]
    delta = word_count(parsed.final) - word_count(STRING_REVERSAL_ORIGINAL)
    assert delta == 6


def test_polynomial_budget_three_subset():
    case = POLYNOMIAL_CASES[1]
    parsed = parse_evolution_response(render_case_reply(case, "json_list_markdown"))
    assert parsed.subset == [
        "conditions on variables",
        "sequential operations",
        "polygon perimeter",
    ]


@pytest.mark.parametrize("instruction", ["Explain {instruction} and {tag_list}", "Use {budget} words", "Keep {{x}} and {x}"])
def test_slot_like_text_in_an_instruction_stays_verbatim_in_both_prompts(instruction):
    record = InstructionRecord("r:1", instruction)
    evolution = build_evolution_prompt(record, 2, ["alpha", "beta"])
    assert f"Here is the #Instruction#: {instruction}\n" in evolution
    assert 'Here is the #Tag List#:\n["alpha", "beta"]\n' in evolution
    assert "The subset should contain 2 tags" in evolution and "between 10 and 40 words" in evolution
    assert f"#Task {instruction}\n" in build_tagging_prompt(record)


def test_a_repeated_marker_takes_the_text_after_its_last_occurrence():
    reply = (
        "#Tag subset#: [\"early\"]\n"
        "#Plan#: first plan\n"
        "#Tag Subset# [\"alpha\", \"beta\"]\n"
        "#Rewritten Instruction#: first rewrite\n"
        "#PLAN#: second plan\n"
        "#Final Rewritten Instruction#: first final\n"
        "# rewritten instruction # second rewrite\n"
        "#Finally Rewritten Instruction#: second final\n"
    )
    parsed = parse_evolution_response(reply)
    assert parsed.subset == ["alpha", "beta"]
    assert (parsed.plan, parsed.rewritten, parsed.final) == ("second plan", "second rewrite", "second final")


@pytest.mark.parametrize(
    "residue,expected",
    [
        (": \u00a0** `\u3000final text **", "final text **"),
        ("\u3000:`final: *text*`\u00a0", "final: *text*`"),
        ("final\u3000:*` text", "final\u3000:*` text"),
    ],
)
def test_section_residue_with_unicode_spaces_is_stripped_from_the_front_only(residue, expected):
    assert parse_evolution_response(evolution_reply(["a"], residue)).final == expected


def test_a_step_four_of_residue_and_unicode_spaces_only_is_empty():
    with pytest.raises(ParseError, match="^MissingStep4: step 4 section is empty$"):
        parse_evolution_response(evolution_reply(["a"], "\u00a0*\u3000:\u00a0`\u00a0"))


def test_missing_step_four_is_reported():
    reply = (
        "Step 1 #Tag subset#: ['a']\n"
        "Step 2 #Plan#: plan text\n"
        "Step 3 #Rewritten Instruction#: longer text\n"
    )
    with pytest.raises(ParseError) as excinfo:
        parse_evolution_response(reply)
    assert excinfo.value.reason == "MissingStep4"


def test_an_empty_step_four_is_reported():
    reply = evolution_reply(["a"], "**", rewritten="longer text")
    with pytest.raises(ParseError, match="^MissingStep4: step 4 section is empty$") as excinfo:
        parse_evolution_response(reply)
    assert excinfo.value.reason == "MissingStep4"


def test_unparseable_subset_is_bad_subset():
    reply = evolution_reply(["x"], "final text here").replace("[\"x\"]", "!!!")
    with pytest.raises(ParseError) as excinfo:
        parse_evolution_response(reply)
    assert excinfo.value.reason == "BadSubset"


def test_subset_with_an_unhashable_literal_falls_back_to_the_comma_line():
    reply = evolution_reply(["x"], "final text here").replace('["x"]', '["alpha", {["beta"]: 1}]')
    assert parse_evolution_response(reply).subset[0] == "alpha"


DEEP_SUBSETS = ["[" * 20000 + "]" * 20000, "[" * 20000 + "'x'" + "]" * 20000, "[" + "-" * 50000 + "1]"]


@pytest.mark.parametrize("subset", DEEP_SUBSETS, ids=["json", "quoted", "unary"])
def test_subset_nested_too_deeply_is_bad_subset(subset):
    reply = evolution_reply(["x"], "final text here").replace('["x"]', subset)
    with pytest.raises(ParseError) as excinfo:
        parse_evolution_response(reply)
    assert excinfo.value.reason == "BadSubset"


def test_too_deeply_nested_subset_fails_only_its_record():
    records = make_records(3)
    pool = make_pool([f"notion {i}" for i in range(8)])
    backend = MockBackend()
    for index, record in enumerate(records):
        batch = sample_candidates(pool, 6, random.Random(record_seed(7, 1, index)))
        subset = DEEP_SUBSETS[0] if index == 1 else batch[:2]
        reply = evolution_reply(["x"], valid_final(record.instruction, batch[:2])).replace('["x"]', str(subset))
        backend.register(prompt_digest([user_message(build_evolution_prompt(record, 2, batch))]), reply)
    gateway = Gateway(backend, sleep=lambda _: None)
    result = evolve_rounds(records, [2], pool, gateway, 7, cand_size=6, retries=0, model="mock")
    assert [r.parent_id for r in result.rounds[0]] == [records[0].id, records[2].id]
    assert [f["record_id"] for f in result.failures] == [records[1].id]
    assert result.failures[0]["error"].startswith("BadSubset: cannot parse step 1 subset:")


def test_a_reply_in_the_prompt_layout_keeps_no_step_label_in_its_sections():
    parsed = parse_evolution_response(evolution_reply(["a"], "final words"))
    assert parsed.plan == "integrate the selected tags"
    assert parsed.rewritten == "final words"


def test_a_section_that_ends_in_step_n_within_its_line_keeps_it():
    reply = '#Tag subset#: ["a"]\n#Plan#: then verify step 2\n#Rewritten Instruction#: use 3\n#Final Rewritten Instruction#: done'
    parsed = parse_evolution_response(reply)
    assert (parsed.plan, parsed.rewritten) == ("then verify step 2", "use 3")


def test_subset_accepts_comma_separated_line():
    reply = (
        "Step 1 #Tag subset#:\nalpha beta, gamma delta\n"
        "Step 2 #Plan#: p\n"
        "Step 3 #Rewritten Instruction#: r\n"
        "Step 4 #Finally Rewritten Instruction#: final text\n"
    )
    assert parse_evolution_response(reply).subset == ["alpha beta", "gamma delta"]


# Reply sections for the parser properties. A body starts on a letter, holds no "#" and has no
# last line that reads "Step N", so no text of it reads as a marker, as residue after one or as a
# label before one; tags are already in normalized form.
_MARKER_WORDS = {
    "subset": (["tag", "subset"], ["", " ", "  "]),
    "plan": (["plan"], [""]),
    "rewritten": (["rewritten", "instruction"], [" ", "\t", "  "]),
    "final": (["final", "rewritten", "instruction"], [" ", "\t", "  "]),
}
_AFTER_MARKER = ["", ":", ": ", " ", ":\n", "**:** ", " `"]  # what may follow a marker: spaces and residue
_WORD = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z"), blacklist_characters="#"), min_size=1, max_size=8)
_TAG = st.lists(st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6), min_size=1, max_size=3).map(" ".join)


@st.composite
def _body(draw, min_words=0):
    words = draw(st.lists(_WORD, min_size=min_words, max_size=8))
    if not words:
        return ""
    seps = draw(st.lists(st.sampled_from([" ", "\n", "  "]), min_size=len(words), max_size=len(words)))
    body = draw(st.sampled_from("aZé")) + "".join(sep + word for sep, word in zip(seps, words)).lstrip()
    assume(not re.fullmatch(r"step[ \t]*\d+", body.rstrip(" \n*:").rpartition("\n")[2].lstrip(" *"), re.IGNORECASE))
    return body


@st.composite
def _step_label(draw):
    """Nothing, or a "Step N" label as a reply may put it before a marker: any case and spacing, or in bold."""
    word = "".join(c.upper() if draw(st.booleans()) else c for c in "step")
    label = word + draw(st.sampled_from(["", " ", "  ", "\t"])) + str(draw(st.integers(1, 12)))
    return draw(st.sampled_from(["", f"{label} ", f"{label}: ", f"**{label}** ", label]))


@st.composite
def _marker(draw, kind):
    words, seps = _MARKER_WORDS[kind]
    if kind == "final":
        words = [draw(st.sampled_from(["final", "finally"])), *words[1:]]
    text = words[0] + "".join(draw(st.sampled_from(seps)) + word for word in words[1:])
    upper = draw(st.integers(0, 2 ** len(text) - 1))  # bit i set: character i in upper case
    text = "".join(c.upper() if upper >> i & 1 else c for i, c in enumerate(text))
    pad = st.sampled_from(["", " "])
    return f"#{draw(pad)}{text}{draw(pad)}#{draw(st.sampled_from(_AFTER_MARKER))}"


@st.composite
def _reply(draw):
    """A reply and the four sections it was rendered from: any marker case, Final or Finally, a
    "Step N" label or none before each marker, decoy sections under a repeated marker before each
    real one, and text before the first marker."""
    tags = draw(st.lists(_TAG, min_size=1, max_size=5, unique=True))
    subset = draw(st.sampled_from([json.dumps(tags), repr(tags), ", ".join(tags)]))
    sections = {"subset": subset, "plan": draw(_body()), "rewritten": draw(_body()), "final": draw(_body(min_words=1))}
    decoys = draw(st.lists(st.sampled_from(sorted(sections)), max_size=4))
    order = draw(st.permutations([*sections, *decoys]))
    last = {kind: i for i, kind in enumerate(order)}
    parts = [draw(_body())]
    for i, kind in enumerate(order):
        body = sections[kind] if last[kind] == i else draw(_body())
        parts.append(f"\n{draw(_step_label())}{draw(_marker(kind))}{body}\n")
    parsed = ParsedEvolution(subset=tags, plan=sections["plan"], rewritten=sections["rewritten"], final=sections["final"])
    return "".join(parts), parsed


@settings(max_examples=150, deadline=None)
@given(_reply())
def test_a_reply_rendered_from_four_sections_parses_back_to_them(case):
    reply, sections = case
    assert parse_evolution_response(reply) == sections


_MARKER_TEXTS = ["#Tag subset#", "#plan#", "#Rewritten Instruction#", "#Final Rewritten Instruction#", "#FINALLY rewritten instruction#"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=30), st.sampled_from([*_MARKER_TEXTS, "[", "]", "'", '"', ",", ":", "**"])), max_size=20))
def test_arbitrary_text_either_parses_or_raises_a_parse_error(pieces):
    try:
        parse_evolution_response("".join(pieces))
    except ParseError:
        pass


def _clean_parsed(original, cand, budget):
    subset = cand[:budget]
    final = valid_final(original, subset)
    return parse_evolution_response(evolution_reply(subset, final))


def test_validate_clean_result_has_no_flags():
    original = "write a short story about rain"
    cand = [f"notion {i}" for i in range(6)]
    parsed = _clean_parsed(original, cand, 3)
    assert validate_result(parsed, 3, cand, original) == []


def test_validate_flags_each_violation_independently():
    original = "write a short story about rain"
    cand = [f"notion {i}" for i in range(6)]
    clean = _clean_parsed(original, cand, 3)

    wrong_size = parse_evolution_response(evolution_reply(cand[:2], clean.final))
    assert validate_result(wrong_size, 3, cand, original) == [FLAG_SUBSET_SIZE_MISMATCH]

    foreign = parse_evolution_response(evolution_reply(cand[:2] + ["alien tag"], clean.final))
    assert validate_result(foreign, 3, cand, original) == [FLAG_SUBSET_NOT_IN_CANDIDATES]

    with_present = cand[:2] + ["short story"]
    present = parse_evolution_response(
        evolution_reply(with_present, valid_final(original, with_present))
    )
    assert validate_result(present, 3, cand + ["short story"], original) == [FLAG_TAG_ALREADY_PRESENT]

    short = parse_evolution_response(evolution_reply(cand[:3], original + " twist."))
    assert validate_result(short, 3, cand, original) == [FLAG_WORD_DELTA_OUT_OF_RANGE]

    same = parse_evolution_response(evolution_reply(cand[:3], original))
    assert validate_result(same, 3, cand, original) == [
        FLAG_WORD_DELTA_OUT_OF_RANGE,
        FLAG_FINAL_EQUALS_ORIGINAL,
    ]


@pytest.mark.parametrize(
    ("tag", "original", "present"),
    [
        ("ion", "Compute the addition of two numbers.", False),
        ("rate", "Generate a list of primes.", False),
        ("numbers", "Compute the addition of two numbers.", True),
        ("two numbers", "Compute the addition of two numbers.", True),
        ("two numbers", "Add TWO  numbers!", True),
        ("on of two", "Compute the addition of two numbers.", False),
        ("c++ templates", "Explain C++ templates.", True),
    ],
)
def test_a_tag_is_already_present_only_as_whole_consecutive_words(tag, original, present):
    parsed = ParsedEvolution(subset=[tag], plan="", rewritten="", final=f"{original} with {tag}")
    assert (FLAG_TAG_ALREADY_PRESENT in validate_result(parsed, 1, [tag], original)) is present


def test_sample_of_full_pool_is_a_permutation():
    pool = make_pool(["a", "b", "c"])
    batch = sample_candidates(pool, 3, random.Random(1))
    assert sorted(batch) == ["a", "b", "c"]


def test_evolve_rounds_clamps_an_oversized_candidate_size_with_one_warning(caplog):
    records = make_records(4)
    tags = ["a notion", "b notion", "c notion", "d notion", "e notion"]
    pool = make_pool(tags)

    def run(cand_size):
        gateway = Gateway(SynthesizingBackend(), sleep=lambda _: None)
        return evolve_rounds(records, [1, 2], pool, gateway, master_seed=3, cand_size=cand_size, model="mock")

    with caplog.at_level(logging.WARNING):
        clamped = run(30)
    assert [m for m in caplog.messages if "clamped" in m] == ["candidate batch clamped: requested 30, pool holds 5"]
    assert all(sorted(r.candidate_tags) == tags for round_records in clamped.rounds for r in round_records)
    assert sum(map(len, clamped.rounds)) == 8
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        exact = run(5)
    assert not caplog.messages
    assert clamped == exact


def test_sampling_is_deterministic_per_seed():
    pool = make_pool([f"tag {i}" for i in range(40)])
    a = sample_candidates(pool, 10, random.Random(99))
    b = sample_candidates(pool, 10, random.Random(99))
    assert a == b


def test_single_draws_are_uniform_over_the_pool():
    # 10,000 size-1 draws from a 10-tag pool: every tag within 3 sigma of the
    # uniform expectation (1000 +- 90), and chi-square below the df=9
    # critical value at p=0.001.
    pool = make_pool([f"tag {i:02d}" for i in range(10)])
    rng = random.Random("uniform-check")
    counts: dict[str, int] = {}
    for _ in range(10_000):
        tag = sample_candidates(pool, 1, rng)[0]
        counts[tag] = counts.get(tag, 0) + 1
    expected = 1000
    three_sigma = 3 * (10_000 * 0.1 * 0.9) ** 0.5
    assert all(abs(count - expected) <= three_sigma for count in counts.values())
    chi_square = sum((count - expected) ** 2 / expected for count in counts.values())
    assert chi_square < 27.88


def test_evolve_record_assembles_full_provenance():
    record = make_records(1)[0]
    pool = make_pool([f"notion {i}" for i in range(8)])
    rng = random.Random(5)
    batch = sample_candidates(pool, 6, random.Random(5))
    subset = batch[:2]
    final = valid_final(record.instruction, subset)
    backend = MockBackend()
    prompt = build_evolution_prompt(record, 2, batch)
    backend.register(prompt_digest([user_message(prompt)]), evolution_reply(subset, final))
    gateway = Gateway(backend, sleep=lambda _: None)
    evolved = evolve_record(record, 2, pool, gateway, rng, cand_size=6, model="mock", round_index=3)
    assert evolved.parent_id == record.id
    assert evolved.id == f"{record.id}:round3"
    assert evolved.round == 3
    assert evolved.budget == 2
    assert evolved.selected_tags == subset
    assert evolved.candidate_tags == batch
    assert evolved.flags == []
    assert len(evolved.raw_digest) == 64
    assert evolved.instruction == final


def test_direct_caller_with_too_few_candidates_gets_a_flag():
    # evolve_rounds would refuse this budget; evolve_record itself only flags the reply.
    record = make_records(1)[0]
    pool = make_pool(["alpha notion", "beta notion"])
    gateway = Gateway(SynthesizingBackend(), sleep=lambda _: None)
    evolved = evolve_record(record, 3, pool, gateway, random.Random(0), model="mock")
    assert sorted(evolved.candidate_tags) == sorted(evolved.selected_tags) == ["alpha notion", "beta notion"]
    assert FLAG_SUBSET_SIZE_MISMATCH in evolved.flags


def test_retry_arithmetic_on_persistent_garbage():
    record = make_records(1)[0]
    pool = make_pool([f"notion {i}" for i in range(8)])
    backend = ReplySequenceBackend(then="nothing useful")
    gateway = Gateway(backend, max_in_flight=1, sleep=lambda _: None)
    with pytest.raises(ParseError, match="^MissingStep1: "):
        evolve_record(record, 2, pool, gateway, random.Random(0), retries=2, model="mock")
    assert backend.sends == 3


def test_dead_endpoint_gets_the_gateway_retries_only():
    record = make_records(1)[0]
    pool = make_pool([f"notion {i}" for i in range(8)])
    backend = ReplySequenceBackend(then=TransientBackendError("HTTP 503"))
    gateway = Gateway(backend, retries=3, max_in_flight=1, sleep=lambda _: None)
    with pytest.raises(ExhaustedRetries, match="^gave up after 4 attempts: HTTP 503$"):
        evolve_record(record, 2, pool, gateway, random.Random(0), retries=3, model="mock")
    assert backend.sends == 4


def test_retry_resamples_a_fresh_candidate_batch():
    record = make_records(1)[0]
    pool = make_pool([f"notion {i}" for i in range(12)])

    class BatchRecorder:
        def __init__(self):
            self.batches = []

        def send(self, request):
            import json as _json
            import re as _re

            tags = _json.loads(_re.search(r"Here is the #Tag List#:\n(.+)", request.messages[-1].content).group(1))
            self.batches.append(tags)
            if len(self.batches) == 1:
                return ChatResponse(content="garbage")
            subset = tags[:2]
            return ChatResponse(content=evolution_reply(subset, valid_final(record.instruction, subset)))

    backend = BatchRecorder()
    gateway = Gateway(backend, max_in_flight=1, sleep=lambda _: None)
    evolved = evolve_record(record, 2, pool, gateway, random.Random(4), cand_size=5, retries=2, model="mock")
    assert len(backend.batches) == 2
    assert backend.batches[0] != backend.batches[1]
    assert evolved.candidate_tags == backend.batches[1]


def _batch_of(request) -> list[str]:
    return json.loads(re.search(r"Here is the #Tag List#:\n(.+)", request.messages[-1].content).group(1))


def test_a_truncated_reply_is_retried_with_a_fresh_batch_and_never_cached(tmp_path):
    record = make_records(1)[0]
    pool = make_pool([f"notion {i}" for i in range(12)])
    first = sample_candidates(pool, 5, random.Random(4))
    request = ChatRequest(model="mock", messages=(user_message(build_evolution_prompt(record, 2, first)),))
    subset = first[:2]
    cut = ChatResponse(content=evolution_reply(subset, valid_final(record.instruction, subset)), finish_reason="length")
    # A cache written before truncated replies were rejected may hold one; it is a miss.
    ResponseCache(tmp_path / "cache").put(request_cache_key(request), cut)

    class CutThenWhole:
        def __init__(self):
            self.requests = []

        def send(self, request):
            self.requests.append(request)
            if len(self.requests) == 1:
                return cut
            subset = _batch_of(request)[:2]
            return ChatResponse(content=evolution_reply(subset, valid_final(record.instruction, subset)))

    backend = CutThenWhole()
    gateway = Gateway(backend, max_in_flight=1, cache=ResponseCache(tmp_path / "cache"), sleep=lambda _: None)
    evolved = evolve_record(record, 2, pool, gateway, random.Random(4), cand_size=5, retries=1, model="mock")
    assert len(backend.requests) == 2
    assert backend.requests[0] == request
    assert evolved.candidate_tags == _batch_of(backend.requests[1]) != first
    lines = (tmp_path / "cache" / "responses.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["finish_reason"] for line in lines] == ["length", "stop"]

    gateway = Gateway(ReplySequenceBackend([cut]), max_in_flight=1, sleep=lambda _: None)
    with pytest.raises(ParseError, match="^Truncated: "):
        evolve_record(record, 2, pool, gateway, random.Random(4), cand_size=5, retries=0, model="mock")


def test_presets_match_domain_schedules():
    assert PRESETS["math"] == [1, 3, 5]
    assert PRESETS["code"] == [3, 5, 7]


def test_evolve_rounds_always_starts_from_the_seed():
    records = make_records(4)
    pool = make_pool([f"notion {i}" for i in range(10)])
    gateway = Gateway(SynthesizingBackend(), sleep=lambda _: None)
    result = evolve_rounds(records, [1, 3], pool, gateway, master_seed=7, cand_size=6, model="mock")
    assert [len(r) for r in result.rounds] == [4, 4]
    assert result.failures == []
    for round_index, round_records in enumerate(result.rounds, start=1):
        for record in round_records:
            assert record.round == round_index
            assert record.parent_id in {r.id for r in records}


def test_evolve_rounds_is_reproducible_bit_for_bit():
    records = make_records(5)
    pool = make_pool([f"notion {i}" for i in range(15)])

    def run():
        gateway = Gateway(SynthesizingBackend(), sleep=lambda _: None)
        return evolve_rounds(records, [2, 3], pool, gateway, master_seed=42, cand_size=8, model="mock")

    a, b = run(), run()
    assert a.rounds == b.rounds
    assert a.failures == b.failures


def test_failed_records_are_skipped_and_reported():
    records = make_records(3)
    pool = make_pool([f"notion {i}" for i in range(8)])

    class FailSecond:
        def send(self, request):
            prompt = request.messages[-1].content
            if records[1].instruction in prompt:
                return ChatResponse(content="garbage")
            return SynthesizingBackend().send(request)

    gateway = Gateway(FailSecond(), sleep=lambda _: None)
    result = evolve_rounds(records, [1], pool, gateway, master_seed=1, cand_size=4, retries=1, model="mock")
    assert len(result.rounds[0]) == 2
    assert [f["record_id"] for f in result.failures] == [records[1].id]
    assert result.failures[0]["round"] == 1


class HoldRoundOneTail:
    """Holds round 1's prompt for one record until a round-2 prompt arrives (5 s at most)."""

    def __init__(self, held_instruction: str):
        self.inner = SynthesizingBackend()
        self.held_instruction = held_instruction
        self.round_two_started = threading.Event()
        self.round_two_arrived_while_held = None

    def send(self, request):
        prompt = request.messages[-1].content
        if "should contain 2 tags" in prompt:
            self.round_two_started.set()
        elif self.held_instruction in prompt:
            self.round_two_arrived_while_held = self.round_two_started.wait(timeout=5)
        return self.inner.send(request)


def test_round_two_starts_while_round_one_still_runs():
    records = make_records(3)
    backend = HoldRoundOneTail(records[-1].instruction)
    gateway = Gateway(backend, max_in_flight=2, sleep=lambda _: None)
    pool = make_pool([f"notion {i}" for i in range(8)])
    result = evolve_rounds(records, [1, 2], pool, gateway, master_seed=3, cand_size=4, model="mock")
    assert backend.round_two_arrived_while_held is True
    assert [len(r) for r in result.rounds] == [3, 3]


def test_rounds_and_failures_keep_seed_order_under_two_slots():
    records = make_records(6)
    failing = {(1, 1), (1, 4), (2, 0), (2, 3)}

    class FailSomeWithJitter:
        def __init__(self):
            self.inner = SynthesizingBackend()
            self.rng = random.Random(5)
            self.lock = threading.Lock()

        def send(self, request):
            prompt = request.messages[-1].content
            with self.lock:
                delay = self.rng.random() * 0.01
            time.sleep(delay)
            round_index = 1 if "should contain 1 tags" in prompt else 2
            if any(round_index == r and records[i].instruction in prompt for r, i in failing):
                raise AuthError("rejected")
            return self.inner.send(request)

    gateway = Gateway(FailSomeWithJitter(), max_in_flight=2, sleep=lambda _: None)
    pool = make_pool([f"notion {i}" for i in range(8)])
    result = evolve_rounds(records, [1, 2], pool, gateway, master_seed=9, cand_size=4, model="mock")
    for round_index, round_records in enumerate(result.rounds, start=1):
        kept = [r.id for i, r in enumerate(records) if (round_index, i) not in failing]
        assert [r.parent_id for r in round_records] == kept
    assert [(f["round"], f["record_id"]) for f in result.failures] == [
        (r, records[i].id) for r, i in sorted(failing)
    ]
    assert all(f["error"] == "rejected" for f in result.failures)


def test_evolve_rounds_rejects_a_candidate_size_below_the_largest_budget():
    backend = SynthesizingBackend()
    gateway = Gateway(backend, sleep=lambda _: None)
    pool = make_pool([f"notion {i}" for i in range(8)])
    with pytest.raises(PreconditionError, match="candidate_size"):
        evolve_rounds(make_records(2), [1, 3], pool, gateway, 0, cand_size=2, model="mock")
    assert backend.calls == 0


def test_evolve_rounds_rejects_a_pool_smaller_than_the_largest_budget():
    backend = SynthesizingBackend()
    gateway = Gateway(backend, sleep=lambda _: None)
    pool = make_pool(["notion a", "notion b", "notion c"])
    with pytest.raises(PreconditionError, match="distinct tags"):
        evolve_rounds(make_records(2), [1, 5], pool, gateway, 0, model="mock")
    assert backend.calls == 0
