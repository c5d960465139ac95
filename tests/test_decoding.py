"""Each model stage takes ``model=`` and hands every other decoding keyword to
``ChatRequest`` unchanged: a given value reaches every send, parse retries
and evolve's fresh-candidate requests included; an omitted one takes
``ChatRequest``'s default (greedy temperature for responses); an unknown one
is a ``TypeError`` before any send."""

from __future__ import annotations

import random
import re
import threading
from dataclasses import fields

import pytest

from helpers import SynthesizingBackend, make_pool, make_records
from tagevol.evolution import evolve_record, evolve_rounds
from tagevol.gateway import ChatRequest, ChatResponse, Gateway
from tagevol.metrics import evaluate_dataset
from tagevol.responding import generate_responses
from tagevol.tagging import build_tag_pool, tag_record

RECORDS = make_records(3)
POOL = make_pool([f"tag {letter}" for letter in "abcdef"])
DEFAULTS = {f.name: f.default for f in fields(ChatRequest) if f.name in ("temperature", "max_tokens")}

# Each stage with its send count: tagging and evolution get one unparseable reply per record first.
STAGES = {
    "tag_record": (lambda g, **d: tag_record(RECORDS[0], g, 1, model="m", **d), 2),
    "build_tag_pool": (lambda g, **d: build_tag_pool(RECORDS, g, 1, model="m", **d), 6),
    "evolve_record": (lambda g, **d: evolve_record(RECORDS[0], 2, POOL, g, random.Random(0), 4, 1, model="m", **d), 2),
    "evolve_rounds": (lambda g, **d: evolve_rounds(RECORDS, [1, 2], POOL, g, 0, 4, 1, model="m", **d), 12),
    "evaluate_dataset": (lambda g, **d: evaluate_dataset(RECORDS, g, 2, random.Random(0), 1, model="m", **d), 4),
    "generate_responses": (lambda g, **d: generate_responses(RECORDS, g, model="m", **d), 3),
}


class FirstReplyUnparseable:
    """Records every request. The first tagging or evolution prompt for each
    instruction gets a reply without markers, and later sends are answered as
    :class:`SynthesizingBackend` answers them; the candidate list is left out
    of the key, so evolve's retry with fresh candidates counts as a later send."""

    def __init__(self):
        self.requests = []
        self._answered = set()
        self._lock = threading.Lock()
        self._inner = SynthesizingBackend()

    def send(self, request):
        prompt = request.messages[-1].content
        key = re.sub(r"Here is the #Tag List#:\n.+", "", prompt)
        with self._lock:
            self.requests.append(request)
            first = key not in self._answered
            self._answered.add(key)
        if first and ("You are a tagging system" in prompt or "You are an Instruction Rewriter" in prompt):
            return ChatResponse(content="no markers")
        return self._inner.send(request)


def _run(stage: str, slots: int, **decoding):
    backend = FirstReplyUnparseable()
    call, sends = STAGES[stage]
    call(Gateway(backend, max_in_flight=slots), **decoding)
    assert len(backend.requests) == sends
    return backend.requests


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("stage", STAGES)
def test_given_decoding_reaches_every_send(stage, slots):
    requests = _run(stage, slots, temperature=0.3, max_tokens=77)
    assert {(r.temperature, r.max_tokens) for r in requests} == {(0.3, 77)}


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("stage", STAGES)
def test_omitted_decoding_takes_the_chat_request_defaults(stage, slots):
    temperature = 0.0 if stage == "generate_responses" else DEFAULTS["temperature"]
    requests = _run(stage, slots)
    assert {(r.temperature, r.max_tokens) for r in requests} == {(temperature, DEFAULTS["max_tokens"])}


@pytest.mark.parametrize("slots", [1, 2])
@pytest.mark.parametrize("stage", STAGES)
def test_an_unknown_decoding_keyword_is_a_type_error_before_any_send(stage, slots):
    backend = FirstReplyUnparseable()
    call, _ = STAGES[stage]
    with pytest.raises(TypeError, match="top_p"):
        call(Gateway(backend, max_in_flight=slots), top_p=0.9)
    assert backend.requests == []
