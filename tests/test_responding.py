from __future__ import annotations

import json
from dataclasses import replace

import pytest

from helpers import ReplySequenceBackend, make_records
from tagevol.gateway import (
    RESPONSE_TEMPERATURE,
    AuthError,
    ChatRequest,
    ChatResponse,
    Gateway,
    MockBackend,
    ResponseCache,
    TransientBackendError,
    prompt_digest,
    request_cache_key,
    user_message,
)
from tagevol.records import EvolvedRecord
from tagevol.responding import generate_responses


def _scripted(records, answers):
    backend = MockBackend()
    for record, answer in zip(records, answers):
        backend.register(prompt_digest([user_message(record.instruction)]), answer)
    return Gateway(backend, sleep=lambda _: None)


def test_fills_responses_from_instruction_prompt():
    records = make_records(2)
    gateway = _scripted(records, ["answer one", "answer two"])
    filled, report = generate_responses(records, gateway, model="mock")
    assert [r.response for r in filled] == ["answer one", "answer two"]
    assert report.filled == 2
    assert report.failures == []


def test_existing_responses_are_skipped_without_overwrite():
    records = make_records(2)
    records[0] = replace(records[0], response="already answered")
    gateway = _scripted(records[1:], ["fresh answer"])
    filled, report = generate_responses(records, gateway, model="mock")
    assert filled[0].response == "already answered"
    assert filled[1].response == "fresh answer"
    assert report.skipped == 1


def test_overwrite_regenerates_existing_responses():
    records = [replace(make_records(1)[0], response="stale")]
    gateway = _scripted(records, ["regenerated"])
    filled, _ = generate_responses(records, gateway, model="mock", overwrite=True)
    assert filled[0].response == "regenerated"


def test_failures_leave_response_null_and_are_reported():
    records = make_records(3)
    gateway = _scripted([records[0], records[2]], ["a", "c"])
    filled, report = generate_responses(records, gateway, retries=0, model="mock")
    assert [r.response for r in filled] == ["a", None, "c"]
    assert [f["record_id"] for f in report.failures] == [records[1].id]


@pytest.mark.parametrize(
    "error,sends",
    [(TransientBackendError("HTTP 503"), 4), (AuthError("HTTP 401"), 1)],
    ids=["503", "401"],
)
def test_backend_failures_get_the_gateway_retries_only(error, sends):
    records = make_records(1)
    backend = ReplySequenceBackend(then=error)
    gateway = Gateway(backend, retries=3, max_in_flight=1, sleep=lambda _: None)
    filled, report = generate_responses(records, gateway, retries=3, model="mock")
    assert backend.sends == sends
    assert filled[0].response is None
    assert [f["record_id"] for f in report.failures] == [records[0].id]


def test_a_truncated_reply_fails_its_record_after_one_send_and_is_never_cached(tmp_path):
    records = make_records(3)
    cut = ChatResponse(content="an answer cut o", finish_reason="length")
    # A cache written before truncated replies were rejected may hold one; it is a miss.
    old = ChatRequest(
        model="mock", messages=(user_message(records[2].instruction),), temperature=RESPONSE_TEMPERATURE, max_tokens=64
    )
    ResponseCache(tmp_path / "cache").put(request_cache_key(old), cut)
    backend = ReplySequenceBackend([cut, "whole answer", "another whole answer"])
    gateway = Gateway(backend, max_in_flight=1, cache=ResponseCache(tmp_path / "cache"), sleep=lambda _: None)
    filled, report = generate_responses(records, gateway, retries=3, model="mock", max_tokens=64)
    assert [r.response for r in filled] == [None, "whole answer", "another whole answer"]
    assert backend.sends == 3
    assert backend.requests[2] == old
    assert report.failures == [{"record_id": records[0].id, "error": "Truncated: the reply stopped at max_tokens (64)"}]
    lines = (tmp_path / "cache" / "responses.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["finish_reason"] for line in lines] == ["length", "stop", "stop"]


def test_provenance_fields_are_untouched():
    evolved = EvolvedRecord(
        id="e:1",
        instruction="explain the algorithm in exactly three numbered steps",
        parent_id="s:1",
        round=2,
        budget=1,
        selected_tags=["numbered steps"],
        candidate_tags=["numbered steps", "recursion"],
        plan="add a formatting constraint",
        flags=[],
        raw_digest="a" * 64,
    )
    gateway = _scripted([evolved], ["1. 2. 3."])
    filled, _ = generate_responses([evolved], gateway, model="mock")
    out = filled[0]
    assert isinstance(out, EvolvedRecord)
    assert out.instruction == evolved.instruction
    assert out.selected_tags == evolved.selected_tags
    assert out.raw_digest == evolved.raw_digest
    assert out.response == "1. 2. 3."


def test_idempotent_without_overwrite():
    records = make_records(2)
    gateway = _scripted(records, ["one", "two"])
    first, _ = generate_responses(records, gateway, model="mock")
    second, report = generate_responses(first, gateway, model="mock")
    assert second == first
    assert report.filled == 0
    assert report.skipped == 2
