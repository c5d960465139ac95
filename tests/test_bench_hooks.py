"""The benchmark's tracer wraps library functions and methods by name; a rename
must fail here rather than only in traced benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import tagevol.cli  # loads every submodule the tracer wraps, as perfbench/run.py does
from tagevol.errors import RecordError
from tagevol.gateway import Gateway, MockBackend

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_library():
    spans = _load_spans()
    originals = (
        tagevol.tagging.TagPool.__dict__["distinct_tags"],
        tagevol.tagging.TagPool.__dict__["distinct_tag_count"],
        tagevol.evolution.sample_candidates,
        tagevol.gateway.Gateway.__dict__["map_in_order"],
    )
    tracer = spans.Tracer()
    gateway = Gateway(MockBackend(), sleep=lambda _: None)
    tracer.install(tagevol)
    try:
        tracer.install_gateway(gateway)
        assert tagevol.evolution.sample_candidates is not originals[2]
    finally:
        tracer.uninstall()
    assert (
        tagevol.tagging.TagPool.__dict__["distinct_tags"],
        tagevol.tagging.TagPool.__dict__["distinct_tag_count"],
        tagevol.evolution.sample_candidates,
        tagevol.gateway.Gateway.__dict__["map_in_order"],
    ) == originals


def test_traced_map_in_order_returns_what_the_untraced_call_returns():
    spans = _load_spans()

    def fn(item):
        if item.n % 2:
            raise RecordError(f"odd {item.n}")
        return item.n

    class Item:
        def __init__(self, n):
            self.n = n
            self.id = f"item:{n}"

    items = [Item(n) for n in range(5)]
    label = lambda item: {"round": 1, "record_id": item.id}
    gateway = Gateway(MockBackend(), max_in_flight=2, sleep=lambda _: None)
    untraced = gateway.map_in_order(fn, items, label=label)
    tracer = spans.Tracer()
    tracer.install(tagevol)
    try:
        traced = gateway.map_in_order(fn, items, label=label)
    finally:
        tracer.uninstall()
    assert traced == untraced == (
        [0, None, 2, None, 4],
        [{"round": 1, "record_id": "item:1", "error": "odd 1"}, {"round": 1, "record_id": "item:3", "error": "odd 3"}],
    )
    assert sorted(s.record for s in tracer.spans if s.name == "gateway.map_item") == [f"item:{n}" for n in range(5)]
