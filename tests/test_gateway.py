from __future__ import annotations

import errno
import gc
import hashlib
import json
import logging
import os
import random
import signal
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from helpers import ReplySequenceBackend, SynthesizingBackend, make_pool, make_records
from tagevol import gateway as gateway_module
from tagevol.errors import LoadError, ParseError, PreconditionError, RecordError, WriteError
from tagevol.evolution import evolve_rounds
from tagevol.gateway import (
    AuthError,
    ChatRequest,
    ChatResponse,
    ExhaustedRetries,
    Gateway,
    MockBackend,
    ResponseCache,
    TransientBackendError,
    UnscriptedPrompt,
    prompt_digest,
    request_cache_key,
    user_message,
)
from tagevol.metrics import evaluate_dataset
from tagevol.tagging import build_tag_pool


def _request(text, **kwargs):
    return ChatRequest(model="m", messages=(user_message(text),), **kwargs)


def test_cache_key_and_prompt_digest_are_pinned():
    # Existing caches and mock scripts stay valid only while these values hold.
    request = _request("hello wörld", temperature=0.7, max_tokens=2048)
    assert request_cache_key(request) == "4d471e35a55532dfc8d786f76a6425539abfa757662a32fca5f97c9834b23a07"
    assert prompt_digest(request.messages) == "ae2a612ebbe0fddd2cd6cdf2b84c6894bd62e9dddbc3424616bf94258be5aab6"


def test_mock_replays_scripted_response():
    backend = MockBackend()
    request = _request("ping")
    backend.register(prompt_digest(request.messages), "OK")
    assert backend.send(request).content == "OK"


def test_mock_unscripted_prompt_errors():
    with pytest.raises(UnscriptedPrompt):
        MockBackend().send(_request("never scripted"))


def test_mock_last_registration_wins(caplog):
    backend = MockBackend()
    request = _request("ping")
    key = prompt_digest(request.messages)
    backend.register(key, "first")
    with caplog.at_level(logging.WARNING):
        backend.register(key, "second")
    assert backend.send(request).content == "second"
    assert any("last registration wins" in message for message in caplog.messages)


def test_mock_loads_script_file(tmp_path):
    request = _request("scripted")
    script = [{"prompt_sha256": prompt_digest(request.messages), "response": "from file"}]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    backend = MockBackend.from_script_file(path)
    assert backend.send(request).content == "from file"


def test_transient_errors_are_retried_and_counted():
    backend = ReplySequenceBackend([TransientBackendError("429"), TransientBackendError("429")], then="eventually fine")
    gateway = Gateway(backend, retries=3, sleep=lambda _: None)
    response = gateway.complete(_request("retry me"))
    assert response.content == "eventually fine"
    assert backend.sends == 3


def test_auth_error_is_never_retried():
    backend = ReplySequenceBackend([AuthError("401"), AuthError("401")], then="eventually fine")
    gateway = Gateway(backend, retries=3, sleep=lambda _: None)
    with pytest.raises(AuthError):
        gateway.complete(_request("denied"))
    assert backend.sends == 1


def test_exhausted_retries_reports_attempts_and_backoff_is_nondecreasing():
    delays = []
    backend = ReplySequenceBackend([TransientBackendError(str(i)) for i in range(10)])
    gateway = Gateway(backend, retries=3, backoff_base=0.25, sleep=delays.append)
    with pytest.raises(ExhaustedRetries, match="^gave up after 4 attempts: 3$") as excinfo:
        gateway.complete(_request("always down"))
    assert isinstance(excinfo.value.__cause__, TransientBackendError)
    assert backend.sends == 4
    assert delays == sorted(delays)
    assert len(delays) == 3


class LatencyBackend:
    """Wraps a mock with random per-call latency to shuffle completion order."""

    def __init__(self, inner, rng):
        self.inner = inner
        self.rng = rng
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            delay = self.rng.random() * 0.02
        time.sleep(delay)
        return self.inner.send(request)


def test_batch_results_match_input_order_under_random_latency():
    inner = MockBackend()
    requests = []
    for i in range(12):
        request = _request(f"prompt number {i}")
        inner.register(prompt_digest(request.messages), f"reply {i}")
        requests.append(request)
    gateway = Gateway(LatencyBackend(inner, random.Random(7)), max_in_flight=5, sleep=lambda _: None)
    results, failures = gateway.map_in_order(gateway.complete, requests)
    assert [r.content for r in results] == [f"reply {i}" for i in range(12)]
    assert failures == []


def test_batch_serializes_with_bound_one():
    inner = MockBackend()
    requests = []
    for i in range(6):
        request = _request(f"serial {i}")
        inner.register(prompt_digest(request.messages), f"s{i}")
        requests.append(request)
    gateway = Gateway(inner, max_in_flight=1, sleep=lambda _: None)
    results, failures = gateway.map_in_order(gateway.complete, requests)
    assert [r.content for r in results] == [f"s{i}" for i in range(6)]
    assert failures == []


class ConcurrencyProbe:
    def __init__(self):
        self.current = 0
        self.peak = 0
        self.threads = set()
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.current += 1
            self.peak = max(self.peak, self.current)
            self.threads.add(threading.get_ident())
        time.sleep(0.01)
        with self._lock:
            self.current -= 1
        return ChatResponse(content="ok")


def test_in_flight_bound_is_enforced():
    # 3 items run on 3 workers; 12 items on 6 workers, which outnumber the 3 slots.
    for n_items in (3, 12):
        probe = ConcurrencyProbe()
        gateway = Gateway(probe, max_in_flight=3, sleep=lambda _: None)

        def fn(request):
            time.sleep(0.005)  # owned work outside the slot, so idle slots invite more sends
            return gateway.complete(request)

        results, failures = gateway.map_in_order(fn, [_request(f"c{i}") for i in range(n_items)])
        assert probe.peak <= 3
        assert len(probe.threads) <= min(6, n_items)
        assert [r.content for r in results] == ["ok"] * n_items
        assert failures == []


class OverlapProbe:
    """Fails the first send of ``first``; records when two other sends overlap."""

    def __init__(self, first):
        self.first = first
        self.failed_first = False
        self.current = 0
        self.peak = 0
        self.overlapped = threading.Event()
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            if request == self.first and not self.failed_first:
                self.failed_first = True
                raise TransientBackendError("503")
            self.current += 1
            self.peak = max(self.peak, self.current)
            if self.current >= 2 and request != self.first:
                self.overlapped.set()
        self.overlapped.wait(timeout=1)
        with self._lock:
            self.current -= 1
        return ChatResponse(content="ok")


def test_a_worker_in_backoff_leaves_its_slot_to_another_worker():
    requests = [_request(f"o{i}") for i in range(6)]
    probe = OverlapProbe(requests[0])
    waited = []

    def sleep(_):
        # Backoff ends once two other items are in flight, or after the timeout.
        waited.append(probe.overlapped.wait(timeout=5))

    gateway = Gateway(probe, max_in_flight=2, sleep=sleep)
    results, failures = gateway.map_in_order(gateway.complete, requests)
    assert waited == [True]
    assert probe.overlapped.is_set()
    assert probe.peak <= 2
    assert [r.content for r in results] == ["ok"] * 6
    assert failures == []


class Item:
    def __init__(self, n):
        self.n = n
        self.id = f"item:{n}"


@pytest.mark.parametrize("max_in_flight", [1, 2])
def test_map_in_order_reports_record_errors_as_failures_in_input_order(max_in_flight):
    ran = []

    def fn(item):
        ran.append(item.n)
        if item.n % 3 == 1:
            raise ParseError("Empty", f"item {item.n}")
        if item.n % 3 == 2:
            raise AuthError(f"item {item.n}")
        return item.n * 10

    gateway = Gateway(MockBackend(), max_in_flight=max_in_flight)
    results, failures = gateway.map_in_order(fn, [Item(n) for n in range(7)])
    assert sorted(ran) == list(range(7))
    assert results == [0, None, None, 30, None, None, 60]
    assert failures == [
        {"record_id": "item:1", "error": "Empty: item 1"},
        {"record_id": "item:2", "error": "item 2"},
        {"record_id": "item:4", "error": "Empty: item 4"},
        {"record_id": "item:5", "error": "item 5"},
    ]


def test_map_in_order_failure_dict_comes_from_the_label():
    def fn(item):
        raise RecordError(f"bad {item.n}")

    gateway = Gateway(MockBackend(), max_in_flight=2)
    items = [Item(3), Item(4)]
    assert gateway.map_in_order(fn, items) == (
        [None, None],
        [{"record_id": "item:3", "error": "bad 3"}, {"record_id": "item:4", "error": "bad 4"}],
    )
    results, failures = gateway.map_in_order(fn, items, label=lambda item: {"round": item.n, "record_id": item.id})
    assert results == [None, None]
    assert failures == [
        {"round": 3, "record_id": "item:3", "error": "bad 3"},
        {"round": 4, "record_id": "item:4", "error": "bad 4"},
    ]
    assert list(failures[0]) == ["round", "record_id", "error"]


@pytest.mark.parametrize("max_in_flight", [1, 2])
def test_map_in_order_propagates_errors_that_are_not_record_errors(max_in_flight):
    def fn(item):
        if item == 2:
            raise PreconditionError("not a record failure")
        return item

    gateway = Gateway(MockBackend(), max_in_flight=max_in_flight)
    with pytest.raises(PreconditionError, match="not a record failure"):
        gateway.map_in_order(fn, range(5))


class StartProbe:
    """Records which items started and which returned (by value or by raising)."""

    def __init__(self):
        self.started: set[int] = set()
        self.returned: set[int] = set()

    def wrap(self, fn):
        def probed(item):
            self.started.add(item)
            try:
                return fn(item)
            finally:
                self.returned.add(item)

        return probed


def test_map_in_order_on_one_slot_starts_nothing_after_an_error_that_is_not_a_record_error():
    def fn(item):
        if item in (3, 5):
            raise PreconditionError(f"item {item}")
        return item

    probe = StartProbe()
    with pytest.raises(PreconditionError, match="item 3"):
        Gateway(MockBackend(), max_in_flight=1).map_in_order(probe.wrap(fn), range(20))
    assert probe.started == probe.returned == {0, 1, 2, 3}


def test_map_in_order_stops_pulling_after_an_error_and_raises_the_lowest_index_one():
    # Two slots run four workers. Items 0-3 start together, one per worker.
    # Item 2 fails first; items 0, 1 and 3 go on only once its worker has
    # stopped, and then item 1 fails too. Every other worker must see the stop
    # and pull no further item, and the error raised is item 1's.
    together = threading.Barrier(4, timeout=10)
    first_failure: list[threading.Thread] = []

    def fn(item):
        if item < 4:
            if item == 2:
                first_failure.append(threading.current_thread())
            together.wait()
            if item == 2:
                raise PreconditionError("item 2")
            first_failure[0].join(timeout=10)
            assert not first_failure[0].is_alive()
            time.sleep(0.01)
            if item == 1:
                raise PreconditionError("item 1")
        return item

    probe = StartProbe()
    threads_before = threading.active_count()
    with pytest.raises(PreconditionError, match="item 1"):
        Gateway(MockBackend(), max_in_flight=2).map_in_order(probe.wrap(fn), range(40))
    assert probe.started == probe.returned == {0, 1, 2, 3}
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("max_in_flight", [1, 2])
def test_a_keyboard_interrupt_from_fn_propagates_once_every_started_item_returned(max_in_flight):
    def fn(item):
        if item == 5:
            raise KeyboardInterrupt
        time.sleep(0.001)
        return item

    probe = StartProbe()
    threads_before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        Gateway(MockBackend(), max_in_flight=max_in_flight).map_in_order(probe.wrap(fn), range(1000))
    assert 5 in probe.started
    assert probe.started == probe.returned
    assert len(probe.started) < 1000
    assert threading.active_count() == threads_before


def test_an_interrupt_while_joining_stops_the_workers_and_propagates():
    main = threading.main_thread()

    def fn(item):
        if item == 3:
            signal.pthread_kill(main.ident, signal.SIGINT)
        time.sleep(0.001)
        return item

    probe = StartProbe()
    threads_before = threading.active_count()
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            Gateway(MockBackend(), max_in_flight=2).map_in_order(probe.wrap(fn), range(2000))
    finally:
        signal.signal(signal.SIGINT, previous)
    assert 3 in probe.started
    assert probe.started == probe.returned
    assert len(probe.started) < 2000
    assert threading.active_count() == threads_before


def test_map_in_order_memory_is_a_few_bytes_per_item():
    # The runner keeps one outcome slot per item and no per-item future.
    items = list(range(20_000))
    gateway = Gateway(MockBackend(), max_in_flight=2)
    tracemalloc.start()
    try:
        results, failures = gateway.map_in_order(lambda item: item, items)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results == items and failures == []
    assert peak < 200 * len(items)


class SurrogateBackend:
    """Answers the prompt "item 3" with a lone surrogate and every other prompt with its echo."""

    def __init__(self):
        self.sends = 0
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.sends += 1
        prompt = request.messages[0].content
        return ChatResponse(content="x\ud800y" if prompt == "item 3" else f"echo {prompt}")


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
def test_a_reply_with_a_lone_surrogate_fails_only_its_record(cached, tmp_path):
    backend = SurrogateBackend()
    cache = ResponseCache(tmp_path / "cache") if cached else None
    gateway = Gateway(backend, max_in_flight=2, cache=cache, sleep=lambda _: None)

    def digest(item):
        reply = gateway.complete(_request(f"item {item.n}"))
        return hashlib.sha256(reply.content.encode("utf-8")).hexdigest()  # as evolve names its reply

    results, failures = gateway.map_in_order(digest, [Item(n) for n in range(6)])
    assert [result is None for result in results] == [n == 3 for n in range(6)]
    assert [failure["record_id"] for failure in failures] == ["item:3"]
    assert "lone surrogate" in failures[0]["error"]
    assert backend.sends == 6  # a malformed reply is not retried
    if cached:
        reloaded = ResponseCache(tmp_path / "cache")
        assert [reloaded.get(request_cache_key(_request(f"item {n}"))) is None for n in range(6)] == [n == 3 for n in range(6)]


@pytest.mark.parametrize("setting", [{"retries": -1}, {"max_in_flight": 0}], ids=["retries", "max_in_flight"])
def test_gateway_rejects_bad_settings_with_a_precondition_error(setting):
    with pytest.raises(PreconditionError) as excinfo:
        Gateway(ReplySequenceBackend(), **setting)
    assert isinstance(excinfo.value, ValueError)


_NEGATIVE_RETRY_STAGES = {
    "tag": lambda records, gateway: build_tag_pool(records, gateway, retries_per_record=-1, model="m"),
    "evolve": lambda records, gateway: evolve_rounds(
        records, [1], make_pool(["alpha", "beta", "gamma"]), gateway, 0, 2, retries=-5, model="m"
    ),
    "stats": lambda records, gateway: evaluate_dataset(records, gateway, sample_size=2, retries=-1, model="m"),
}


@pytest.mark.parametrize("max_in_flight", [1, 2])
@pytest.mark.parametrize("stage", sorted(_NEGATIVE_RETRY_STAGES))
def test_a_negative_parse_retry_count_is_a_precondition_error_before_any_send(stage, max_in_flight):
    backend = SynthesizingBackend()
    gateway = Gateway(backend, max_in_flight=max_in_flight, sleep=lambda _: None)
    with pytest.raises(PreconditionError, match="retries must be >= 0"):
        _NEGATIVE_RETRY_STAGES[stage](make_records(3), gateway)
    assert backend.calls == 0


def test_cache_serves_repeats_and_persists(tmp_path):
    backend = ReplySequenceBackend(["call 1", "call 2"])
    cache = ResponseCache(tmp_path / "cache")
    gateway = Gateway(backend, cache=cache, sleep=lambda _: None)
    first = gateway.complete(_request("cached prompt"))
    second = gateway.complete(_request("cached prompt"))
    assert backend.sends == 1
    assert first.content == second.content == "call 1"

    reloaded = ResponseCache(tmp_path / "cache")
    gateway2 = Gateway(ReplySequenceBackend(), cache=reloaded, sleep=lambda _: None)
    assert gateway2.complete(_request("cached prompt")).content == "call 1"


def test_cache_distinguishes_decoding_params(tmp_path):
    backend = ReplySequenceBackend(["call 1", "call 2"])
    gateway = Gateway(backend, cache=ResponseCache(tmp_path / "cache"), sleep=lambda _: None)
    gateway.complete(_request("same text", temperature=0.7))
    gateway.complete(_request("same text", temperature=0.0))
    assert backend.sends == 2


def _rejecting(bad_content):
    def parse(response):
        if response.content == bad_content:
            raise ParseError("BadObject", bad_content)
        return response.content

    return parse


def test_unparseable_reply_is_never_cached(tmp_path):
    backend = ReplySequenceBackend(["call 1"])
    cache = ResponseCache(tmp_path / "cache")
    gateway = Gateway(backend, cache=cache, sleep=lambda _: None)
    with pytest.raises(ParseError):
        gateway.complete(_request("bad reply"), _rejecting("call 1"))
    assert backend.sends == 1
    key = request_cache_key(_request("bad reply"))
    assert cache.get(key) is None
    assert ResponseCache(tmp_path / "cache").get(key) is None


def test_cached_bad_reply_is_resent_and_replaced(tmp_path):
    request = _request("poisoned prompt")
    key = request_cache_key(request)
    ResponseCache(tmp_path / "cache").put(key, ChatResponse(content="garbage"))
    backend = ReplySequenceBackend(["call 1"])
    cache = ResponseCache(tmp_path / "cache")
    gateway = Gateway(backend, cache=cache, sleep=lambda _: None)
    assert gateway.complete(request, _rejecting("garbage")) == "call 1"
    assert backend.sends == 1
    assert cache.get(key).content == "call 1"
    assert ResponseCache(tmp_path / "cache").get(key).content == "call 1"


def test_complete_rejects_a_truncated_reply_after_one_send_and_caches_nothing(tmp_path):
    request = _request("long answer", max_tokens=64)
    backend = ReplySequenceBackend(then=ChatResponse(content="cut off", finish_reason="length"))
    cache = ResponseCache(tmp_path / "cache")
    gateway = Gateway(backend, cache=cache, sleep=lambda _: None)
    with pytest.raises(ParseError, match=r"^Truncated: the reply stopped at max_tokens \(64\)$") as caught:
        gateway.complete(request)
    assert caught.value.reason == "Truncated"
    assert backend.sends == 1
    assert cache.get(request_cache_key(request)) is None
    assert ResponseCache(tmp_path / "cache").get(request_cache_key(request)) is None


def test_a_cached_truncated_reply_is_a_miss(tmp_path):
    request = _request("long answer")
    ResponseCache(tmp_path / "cache").put(request_cache_key(request), ChatResponse(content="cut off", finish_reason="length"))
    backend = ReplySequenceBackend(["call 1"])
    gateway = Gateway(backend, cache=ResponseCache(tmp_path / "cache"), sleep=lambda _: None)
    assert gateway.complete(request).content == "call 1"
    assert backend.sends == 1


@pytest.mark.parametrize(
    "bad_line, bad_key",
    [
        ('{"content": "x"}', None),
        ("[1, 2]", None),
        ('{"key": "k", "content": 5}', "k"),
        ('{"key": "k", "content": "x", "finish_reason": 7}', "k"),
        ('{"key": 5, "content": "x"}', 5),
        ('{"key": "k", "content": "x\\ud800y"}', "k"),
        ('{"key": "k", "content": "x", "finish_reason": "\\udfff"}', "k"),
    ],
    ids=[
        "no_key",
        "not_an_object",
        "content_not_text",
        "finish_reason_not_text",
        "key_not_text",
        "content_lone_surrogate",
        "finish_reason_lone_surrogate",
    ],
)
def test_cache_load_skips_valid_json_lines_that_are_not_entries(bad_line, bad_key, tmp_path):
    key = request_cache_key(_request("kept prompt"))
    good_line = json.dumps({"key": key, "content": "kept", "finish_reason": "stop"})
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "responses.jsonl").write_text(f"{bad_line}\n{good_line}\n", encoding="utf-8")
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get(bad_key) is None
    assert cache.get(key).content == "kept"


def test_cache_load_skips_a_line_nested_deeper_than_the_parser_follows(tmp_path):
    key = request_cache_key(_request("kept prompt"))
    good_line = json.dumps({"key": key, "content": "kept", "finish_reason": "stop"})
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "responses.jsonl").write_text(f"{'[' * 100_000}\n{good_line}\n", encoding="utf-8")
    assert ResponseCache(tmp_path / "cache").get(key).content == "kept"


def test_cache_load_skips_a_last_line_torn_inside_a_utf8_character(tmp_path):
    key = request_cache_key(_request("kept prompt"))
    good_line = json.dumps({"key": key, "content": "kept ✓", "finish_reason": "stop"}, ensure_ascii=False)
    torn_line = json.dumps({"key": "other", "content": "torn ✓"}, ensure_ascii=False).encode("utf-8")[:-4]
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "responses.jsonl").write_bytes(good_line.encode("utf-8") + b"\n" + torn_line)
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get("other") is None
    assert cache.get(key).content == "kept ✓"


def test_cache_load_peaks_below_twice_the_file_size(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    keys = [hashlib.sha256(str(i).encode("ascii")).hexdigest() for i in range(2000)]
    for i, key in enumerate(keys):
        cache.put(key, ChatResponse(content=f"reply {i}: " + "lorem ipsum dolor " * 60))
    del cache
    size = (tmp_path / "cache" / "responses.jsonl").stat().st_size
    tracemalloc.start()
    try:
        loaded = ResponseCache(tmp_path / "cache")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(loaded.get(key) is not None for key in keys)
    assert peak < 2 * size


@pytest.mark.parametrize("reply_size", [200, 1024, 4096], ids=["200B", "1KB", "4KB"])
def test_a_loaded_cache_retains_at_most_120_bytes_per_entry_whatever_the_reply_size(reply_size, tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    keys = [hashlib.sha256(str(i).encode("ascii")).hexdigest() for i in range(2000)]
    for i, key in enumerate(keys):
        cache.put(key, ChatResponse(content=f"{i:>6} " + "x" * (reply_size - 7)))
    del cache
    tracemalloc.start()
    try:
        loaded = ResponseCache(tmp_path / "cache")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(len(loaded.get(key).content) == reply_size for key in keys)
    # An int key (the key's hash) and an int span per entry: about 105 bytes on CPython 3.11.
    assert retained <= 120 * len(keys)


def test_keys_whose_digests_collide_never_get_each_others_reply(tmp_path, monkeypatch):
    monkeypatch.setattr(gateway_module, "_digest", lambda key: 0)
    first, second = _request("first prompt"), _request("second prompt")
    cache = ResponseCache(tmp_path / "cache")
    cache.put(request_cache_key(first), ChatResponse(content="first reply"))
    cache.put(request_cache_key(second), ChatResponse(content="second reply"))
    # The later put wins; the earlier key misses and is never given the other reply.
    assert cache.get(request_cache_key(second)).content == "second reply"
    assert cache.get(request_cache_key(first)) is None
    backend = ReplySequenceBackend(["first again"])
    gateway = Gateway(backend, cache=cache, sleep=lambda _: None)
    assert gateway.complete(first).content == "first again"
    assert backend.sends == 1
    assert gateway.complete(first).content == "first again"
    assert backend.sends == 1
    # On load, too, the last line under a digest wins.
    reloaded = ResponseCache(tmp_path / "cache")
    assert reloaded.get(request_cache_key(first)).content == "first again"
    assert reloaded.get(request_cache_key(second)) is None


def test_concurrent_puts_all_persist(tmp_path):
    cache = ResponseCache(tmp_path / "cache")

    def put_fifty(thread):
        for i in range(50):
            cache.put(f"key-{thread}-{i}", ChatResponse(content=f"reply ✓ {thread} {i}"))

    threads = [threading.Thread(target=put_fifty, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    reloaded = ResponseCache(tmp_path / "cache")
    assert all(reloaded.get(f"key-{t}-{i}").content == f"reply ✓ {t} {i}" for t in range(8) for i in range(50))
    assert len((tmp_path / "cache" / "responses.jsonl").read_bytes().splitlines()) == 400


def test_concurrent_gets_see_no_entry_or_a_whole_one(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    entries = {f"key-{i}": ChatResponse(content=f"reply ✓ {i} " + "x" * (i % 97)) for i in range(2000)}
    keys = list(entries)
    seen_wrong = []

    def interleave(thread):
        # Each thread puts every fourth key and reads all the others, in its own order.
        for key in random.Random(thread).sample(keys, len(keys)):
            if int(key.split("-")[1]) % 4 == thread:
                cache.put(key, entries[key])
            else:
                got = cache.get(key)
                if got is not None and got != entries[key]:
                    seen_wrong.append((key, got))

    threads = [threading.Thread(target=interleave, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen_wrong == []
    lines = (tmp_path / "cache" / "responses.jsonl").read_bytes().splitlines()
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(keys)
    reloaded = ResponseCache(tmp_path / "cache")
    assert all(reloaded.get(key) == entry for key, entry in entries.items())


def test_cache_opens_its_file_once_however_many_puts(tmp_path, monkeypatch):
    opened = []
    real_open = os.open

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    for name in ("a", "b"):
        cache = ResponseCache(tmp_path / name)
        for i in range(20):
            cache.put(f"key-{i}", ChatResponse(content=f"reply {i}"))
    assert [Path(path) for path in opened] == [tmp_path / name / "responses.jsonl" for name in ("a", "b")]
    # Reloaded, the cache opens the file once to load and read it, and once more for every append.
    opened.clear()
    cache = ResponseCache(tmp_path / "a")
    for i in range(20):
        assert cache.get(f"key-{i}").content == f"reply {i}"
        cache.put(f"key-{i + 20}", ChatResponse(content=f"reply {i + 20}"))
        assert cache.get(f"key-{i + 20}").content == f"reply {i + 20}"
    assert [Path(path) for path in opened] == [tmp_path / "a" / "responses.jsonl"] * 2


def test_put_after_a_torn_last_line_starts_a_new_line(tmp_path):
    key = request_cache_key(_request("kept prompt"))
    good_line = json.dumps({"key": key, "content": "kept", "finish_reason": "stop"})
    torn_line = json.dumps({"key": "torn", "content": "torn"})[:-5]
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "responses.jsonl").write_text(f"{good_line}\n{torn_line}", encoding="utf-8")
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get("torn") is None
    cache.put("new", ChatResponse(content="appended"))
    cache.put("newer", ChatResponse(content="appended again"))
    reloaded = ResponseCache(tmp_path / "cache")
    assert reloaded.get(key).content == "kept"
    assert reloaded.get("new").content == "appended"
    assert reloaded.get("newer").content == "appended again"
    assert reloaded.get("torn") is None


def test_an_append_after_a_failed_one_starts_a_new_line(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache")
    cache.put("first", ChatResponse(content="one"))
    real_write = os.write
    failed = []

    def half_then_no_space(fd, data):
        if failed:
            return real_write(fd, data)
        failed.append(real_write(fd, bytes(data[: len(data) // 2])))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", half_then_no_space)
    with pytest.raises(WriteError):
        cache.put("second", ChatResponse(content="two"))
    assert failed and failed[0] > 0
    assert cache.get("second") is None
    cache.put("third", ChatResponse(content="three"))
    assert cache.get("third").content == "three"
    reloaded = ResponseCache(tmp_path / "cache")
    assert reloaded.get("first").content == "one"
    assert reloaded.get("second") is None
    assert reloaded.get("third").content == "three"


def test_a_cache_line_that_cannot_be_read_is_a_miss_sent_once_and_its_new_line_serves_the_next_hit(tmp_path, monkeypatch):
    request = _request("unreadable")
    key = request_cache_key(request)
    ResponseCache(tmp_path / "cache").put(key, ChatResponse(content="stored"))
    cache = ResponseCache(tmp_path / "cache")
    real_pread = os.pread

    def input_output_error(fd, length, offset):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(os, "pread", input_output_error)
    assert cache.get(key) is None
    backend = ReplySequenceBackend(["fresh"])
    gateway = Gateway(backend, cache=cache, sleep=lambda _: None)
    assert gateway.complete(request).content == "fresh"
    assert backend.sends == 1
    monkeypatch.setattr(os, "pread", real_pread)
    assert gateway.complete(request).content == "fresh"
    assert backend.sends == 1
    assert ResponseCache(tmp_path / "cache").get(key).content == "fresh"


def test_a_cached_rerun_whose_cache_file_cannot_be_written_serves_every_hit(tmp_path, monkeypatch):
    requests = [_request(f"item {n}") for n in range(5)]
    first = Gateway(ReplySequenceBackend([f"reply {n}" for n in range(5)]), cache=ResponseCache(tmp_path / "cache"))
    assert [first.complete(request).content for request in requests] == [f"reply {n}" for n in range(5)]
    real_open = os.open

    def refuse_writes(path, flags, *args, **kwargs):
        # The refusal a read-only file gives, also to a test run as root.
        if flags & (os.O_WRONLY | os.O_RDWR):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse_writes)
    backend = ReplySequenceBackend()
    rerun = Gateway(backend, cache=ResponseCache(tmp_path / "cache"))
    assert [rerun.complete(request).content for request in requests] == [f"reply {n}" for n in range(5)]
    assert backend.sends == 0


@pytest.mark.parametrize("reader", ["append", "loaded"], ids=["read_through_the_append_descriptor", "read_as_loaded"])
@pytest.mark.parametrize("change", ["truncated", "rotated", "shifted"])
def test_get_after_the_file_changes_under_a_live_cache_is_a_miss_never_another_key(change, reader, tmp_path):
    requests = [_request(f"prompt {i}") for i in range(10)]
    keys = [request_cache_key(request) for request in requests]
    cache = ResponseCache(tmp_path / "cache")
    for i, key in enumerate(keys):
        cache.put(key, ChatResponse(content=f"reply {i}"))  # lines of one length
    if reader == "loaded":
        cache = ResponseCache(tmp_path / "cache")
    assert [cache.get(key).content for key in keys] == [f"reply {i}" for i in range(10)]
    path = tmp_path / "cache" / "responses.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    # In place, as a second writer would: the cache's descriptors see the new bytes.
    changed = {"truncated": [], "rotated": lines[1:] + lines[:1], "shifted": [b'{"key": "other", "content": "x"}\n'] + lines}[change]
    path.write_bytes(b"".join(changed))
    assert [cache.get(key) for key in keys] == [None] * 10
    # Each miss is sent once more, and the new line serves every later hit.
    backend = ReplySequenceBackend([f"repaired {i}" for i in range(10)])
    gateway = Gateway(backend, cache=cache)
    for _ in range(2):
        assert [gateway.complete(request).content for request in requests] == [f"repaired {i}" for i in range(10)]
    assert backend.sends == 10
    reloaded = ResponseCache(tmp_path / "cache")
    assert [reloaded.get(key).content for key in keys] == [f"repaired {i}" for i in range(10)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd, which Linux has")
@pytest.mark.parametrize("existing", [False, True], ids=["new_file", "existing_file"])
def test_every_descriptor_a_cache_opens_is_closed_once_it_is_collected(existing, tmp_path):
    if existing:
        ResponseCache(tmp_path / "cache").put("old", ChatResponse(content="old reply"))
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    cache = ResponseCache(tmp_path / "cache")
    cache.put("new", ChatResponse(content="new reply"))
    assert cache.get("new").content == "new reply"
    assert existing is (cache.get("old") is not None)
    assert len(os.listdir("/proc/self/fd")) == before + (2 if existing else 1)
    del cache
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize(
    "content",
    ["not json", json.dumps({"prompt_sha256": "k", "response": "r"}), json.dumps([{"response": "r"}]),
     json.dumps([{"prompt_sha256": "k", "response": 5}])],
    ids=["not_json", "not_a_list", "no_key", "response_not_text"],
)
def test_malformed_mock_script_is_a_load_error(tmp_path, content):
    path = tmp_path / "script.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(LoadError) as excinfo:
        MockBackend.from_script_file(path)
    assert excinfo.value.path == str(path)
