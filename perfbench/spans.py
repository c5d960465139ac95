"""In-memory span tracing around the library's public calls.

The tracer is installed from outside the library: it replaces the public
functions and methods of each ``tagevol`` module with wrappers that record a
span (name, start and end, thread CPU at both, parent, thread, record id) and
restores the originals afterwards. ``Gateway.map_in_order`` is wrapped so that spans opened in its
worker threads keep the caller's span as parent and the item's record id.
Per-layer metrics are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "start", "end", "cpu_start", "cpu_end", "parent", "thread", "record", "stage", "note")

    def __init__(self, span_id, name, parent, record):
        self.id = span_id
        self.name = name
        self.parent = parent.id if parent else None
        self.thread = threading.get_ident()
        self.record = record if record is not None else (parent.record if parent else None)
        self.stage = parent.stage if parent else name
        self.note = None
        self.end = self.cpu_end = 0.0
        self.cpu_start = time.thread_time()
        self.start = time.perf_counter()

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def _record_id(item):
    """Record id of a ``map_in_order`` item: a record or a tuple holding one."""
    if hasattr(item, "id"):
        return item.id
    if isinstance(item, tuple):
        for part in item:
            if hasattr(part, "id"):
                return part.id
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, record=None, parent=None) -> Span:
        stack = self._stack()
        parent = parent if parent is not None else (stack[-1] if stack else None)
        span = Span(next(self._ids), name, parent, record)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        self._stack().pop()
        self.spans.append(span)

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, fn, name, record_of=None, around=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, record_of(args) if record_of else None)
            try:
                if around is not None:
                    return around(span, fn, args, kwargs)
                return fn(*args, **kwargs)
            except Exception as err:
                span.note = getattr(err, "reason", type(err).__name__)
                raise
            finally:
                tracer.close(span)

        return traced

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr, name, **kw) -> None:
        """Wrap ``module.attr`` in every ``tagevol`` module that binds it."""
        original = getattr(module, attr)
        traced = self._wrap(original, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tagevol" or mod_name.startswith("tagevol."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)

    def wrap_method(self, cls, attr, name, **kw) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            self._set(cls, attr, property(self._wrap(original.fget, name, **kw)))
        else:
            self._set(cls, attr, self._wrap(original, name, **kw))

    def wrap_instance(self, obj, attr, name) -> None:
        self._set(obj, attr, self._wrap(getattr(obj, attr), name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def install(self, tv) -> None:
        """Wrap the public calls of every layer of the ``tv`` package."""
        ev, gw, lk, mt, rc, rs, tg = (
            tv.evolution, tv.gateway, tv.leakage, tv.metrics, tv.records, tv.responding, tv.tagging
        )
        first_id = lambda args: args[0].id
        for module, attr, name, kw in [
            (tg, "build_tag_pool", "tagging.build_tag_pool", {}),
            (tg, "build_tagging_prompt", "tagging.build_tagging_prompt", {}),
            (tg, "parse_tagging_response", "tagging.parse_tagging_response", {}),
            (tg, "save_pool", "tagging.save_pool", {}),
            (tg, "load_pool", "tagging.load_pool", {}),
            (ev, "evolve_rounds", "evolution.evolve_rounds", {}),
            (ev, "evolve_record", "evolution.evolve_record", {"record_of": first_id}),
            (ev, "sample_candidates", "evolution.sample_candidates", {}),
            (ev, "build_evolution_prompt", "evolution.build_evolution_prompt", {}),
            (ev, "parse_evolution_response", "evolution.parse_evolution_response", {}),
            (ev, "validate_result", "evolution.validate_result", {}),
            (rs, "generate_responses", "responding.generate_responses", {}),
            (mt, "evaluate_dataset", "metrics.evaluate_dataset", {}),
            (rc, "load_dataset", "records.load_dataset", {}),
            (rc, "write_dataset", "records.write_dataset", {}),
            (rc, "merge_rounds", "records.merge_rounds", {}),
            (rc, "build_manifest", "records.build_manifest", {}),
            (rc, "write_manifest", "records.write_manifest", {}),
            (lk, "count_matches", "leakage.count_matches", {"around": _with_tracemalloc}),
            (lk, "extract_ngrams", "leakage.extract_ngrams", {}),
        ]:
            self.wrap_function(module, attr, name, **kw)
        self.wrap_method(tg.TagPool, "distinct_tags", "tagging.distinct_tags")
        self.wrap_method(tg.TagPool, "distinct_tag_count", "tagging.distinct_tag_count")
        self.wrap_method(gw.Gateway, "complete", "gateway.complete")
        self.wrap_method(gw.Gateway, "map_in_order", "gateway.map_in_order", around=self._map_in_order)
        self.wrap_method(gw.ResponseCache, "__init__", "gateway.cache_load")
        self.wrap_method(gw.ResponseCache, "get", "gateway.cache_get", around=_note_hit)
        self.wrap_method(gw.ResponseCache, "put", "gateway.cache_put")

    def install_gateway(self, gateway) -> None:
        """Per-instance hooks: the backend's send and the slot semaphore."""
        self.wrap_instance(gateway.backend, "send", "gateway.backend_send")
        slots = getattr(gateway, "_slots", None)
        if slots is not None:
            self._set(gateway, "_slots", _TracedSlots(slots, self))

    def _map_in_order(self, span, fn, args, kwargs):
        gateway, item_fn, items = args[0], args[1], args[2]
        tracer = self

        def run(item):
            item_span = tracer.open("gateway.map_item", _record_id(item), parent=span)
            try:
                return item_fn(item)
            finally:
                tracer.close(item_span)

        return fn(gateway, run, items, **kwargs)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_json()) + "\n")


def _with_tracemalloc(span, fn, args, kwargs):
    tracemalloc.start()
    try:
        return fn(*args, **kwargs)
    finally:
        span.note = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def _note_hit(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.note = result is not None
    return result


class _TracedSlots:
    """Stands in for the gateway's slot semaphore and records the wait to acquire."""

    def __init__(self, semaphore, tracer: Tracer):
        self._semaphore = semaphore
        self._tracer = tracer

    def __enter__(self):
        span = self._tracer.open("gateway.slot_wait")
        try:
            self._semaphore.acquire()
        finally:
            self._tracer.close(span)
        return self

    def __exit__(self, *exc):
        self._semaphore.release()
        return False


class BackoffSleep:
    """The gateway's ``sleep=`` argument: sleeps, sums the requested seconds
    and, when a tracer is attached, records a span."""

    def __init__(self):
        self.total_s = 0.0
        self.tracer: Tracer | None = None
        self._lock = threading.Lock()

    def __call__(self, seconds: float) -> None:
        with self._lock:
            self.total_s += seconds
        if self.tracer is None:
            time.sleep(seconds)
            return
        span = self.tracer.open("gateway.backoff_sleep")
        try:
            time.sleep(seconds)
        finally:
            self.tracer.close(span)


# -- deriving per-layer metrics ------------------------------------------------


def _union_length(intervals, lo, hi) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return children


def _self_time(s: Span, kids) -> float:
    """Wall self time: the span's duration minus the union of its children's intervals."""
    return (s.end - s.start) - _union_length([(c.start, c.end) for c in kids], s.start, s.end)


def _percentile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def derive(spans: list[Span], facts: dict) -> dict[str, float]:
    """Per-layer metrics from one traced iteration's spans plus the
    iteration's deterministic facts (outcome counts computed by the workload)."""
    by_name: dict[str, list[Span]] = {}
    children = _children(spans)
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(s):
        return s.end - s.start

    def self_time(s):
        return _self_time(s, children.get(s.id, ()))

    def total(name, stage=None):
        return sum(dur(s) for s in by_name.get(name, ()) if stage is None or s.stage == stage)

    def count(name, stage=None):
        return sum(1 for s in by_name.get(name, ()) if stage is None or s.stage == stage)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    completes = by_name.get("gateway.complete", [])
    sends = by_name.get("gateway.backend_send", [])
    m["gateway.backend_calls"] = len(sends)
    m["gateway.cache_hits"] = sum(1 for s in by_name.get("gateway.cache_get", ()) if s.note)
    m["gateway.transient_retries"] = count("gateway.backoff_sleep")
    m["gateway.self_ms_per_call"] = 1e3 * ratio(sum(self_time(s) for s in completes), len(completes))
    m["gateway.cache_put_ms_total"] = 1e3 * total("gateway.cache_put")
    m["gateway.cache_get_ms_total"] = 1e3 * total("gateway.cache_get")
    pre_send = []
    for s in completes:
        first = min((c.start for c in children.get(s.id, ()) if c.name == "gateway.backend_send"), default=None)
        if first is not None:
            pre_send.append(1e3 * (first - s.start))
    m["gateway.pre_send_ms_p50"] = _percentile(pre_send, 50)
    m["gateway.pre_send_ms_p99"] = _percentile(pre_send, 99)
    m["gateway.backoff_sleep_s"] = facts["backoff_sleep_s"]
    m["gateway.backend_busy_s"] = sum(dur(s) for s in sends)
    m["gateway.cache_load_s"] = total("gateway.cache_load")

    m["evolution.sample_ms_total"] = 1e3 * total("evolution.sample_candidates")
    m["evolution.distinct_tags_ms_total"] = 1e3 * (total("tagging.distinct_tags") + total("tagging.distinct_tag_count"))
    m["evolution.render_ms_total"] = 1e3 * total("evolution.build_evolution_prompt")
    m["evolution.parse_ms_total"] = 1e3 * total("evolution.parse_evolution_response")
    m["evolution.validate_ms_total"] = 1e3 * total("evolution.validate_result")
    records = by_name.get("evolution.evolve_record", [])
    m["evolution.record_self_ms_p50"] = 1e3 * statistics.median([self_time(s) for s in records]) if records else 0.0
    attempts = sum(1 for s in completes if s.parent in by_id and by_id[s.parent].name == "evolution.evolve_record")
    m["evolution.attempts_per_record"] = ratio(attempts, len(records))
    for reason in ("MissingStep1", "MissingStep2", "MissingStep3", "MissingStep4", "BadSubset"):
        m[f"evolution.parse_failures.{reason}"] = sum(
            1 for s in by_name.get("evolution.parse_evolution_response", ()) if s.note == reason
        )
    for flag, n in facts["flagged"].items():
        m[f"evolution.flagged.{flag}"] = n
    idle = 0.0
    for rounds in by_name.get("evolution.evolve_rounds", ()):
        for round_span in children.get(rounds.id, ()):
            if round_span.name != "gateway.map_in_order":
                continue
            last_end: dict[int, float] = {}
            for item in children.get(round_span.id, ()):
                last_end[item.thread] = max(last_end.get(item.thread, 0.0), item.end)
            idle += sum(round_span.end - end for end in last_end.values())
    m["evolution.round_tail_idle_slot_s"] = idle

    m["tagging.render_ms_total"] = 1e3 * total("tagging.build_tagging_prompt", "tagging.build_tag_pool")
    m["tagging.parse_ms_total"] = 1e3 * total("tagging.parse_tagging_response", "tagging.build_tag_pool")
    merge = 0.0
    for s in by_name.get("tagging.build_tag_pool", ()):
        merge += dur(s) - sum(dur(c) for c in children.get(s.id, ()) if c.name == "gateway.map_in_order")
    m["tagging.pool_merge_s"] = merge
    m["tagging.failed_records"] = facts["tagging_failed"]
    m["tagging.load_pool_s"] = total("tagging.load_pool")

    respond_sends = [s for s in sends if s.stage == "responding.generate_responses"]
    m["responding.backend_calls_per_record"] = ratio(len(respond_sends), facts["respond_records"])
    failed = set(facts["respond_failed_ids"])
    m["responding.failed_records"] = len(failed)
    m["responding.sends_per_failed_record"] = ratio(sum(1 for s in respond_sends if s.record in failed), len(failed))

    m["metrics.evaluate_s"] = total("metrics.evaluate_dataset")
    m["metrics.backend_calls"] = count("gateway.backend_send", "metrics.evaluate_dataset")

    m["records.load_s"] = total("records.load_dataset")
    m["records.write_s"] = total("records.write_dataset")
    m["records.merge_s"] = total("records.merge_rounds")
    m["records.manifest_s"] = total("records.build_manifest") + total("records.write_manifest")

    m["leakage.count_matches_calls"] = count("leakage.count_matches")
    m["leakage.count_matches_s"] = total("leakage.count_matches")
    m["leakage.extract_ngrams_calls"] = count("leakage.extract_ngrams")
    m["leakage.extract_ngrams_ms_total"] = 1e3 * total("leakage.extract_ngrams")
    peaks = [s.note for s in by_name.get("leakage.count_matches", ()) if isinstance(s.note, int)]
    m["leakage.peak_traced_mb"] = max(peaks, default=0) / 2**20
    return m


def owned_self_times(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Summed (wall, CPU) self time per span name, in ms, leaving out the
    backend and the waits. Wall self time includes waiting for the
    interpreter lock; CPU self time (this thread's CPU) does not."""
    children = _children(spans)
    out: dict[str, tuple[float, float]] = {}
    for s in spans:
        if s.name in ("gateway.backend_send", "gateway.backoff_sleep", "gateway.slot_wait", "gateway.map_item"):
            continue
        kids = children.get(s.id, ())
        wall = _self_time(s, kids)
        cpu = (s.cpu_end - s.cpu_start) - sum(c.cpu_end - c.cpu_start for c in kids if c.thread == s.thread)
        total_wall, total_cpu = out.get(s.name, (0.0, 0.0))
        out[s.name] = (total_wall + 1e3 * wall, total_cpu + 1e3 * cpu)
    return out
