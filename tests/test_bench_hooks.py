"""The benchmark's tracer wraps library functions and methods by name; a rename
must fail here rather than only in traced benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import tagevol
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
