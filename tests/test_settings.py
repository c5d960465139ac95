"""One owner per setting: stages default to the gateway's retry count, and
README lists exactly the CLI's common flags and config keys."""

from __future__ import annotations

import argparse
import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

from helpers import ReplySequenceBackend, make_pool, make_records
from tagevol.cli import RunConfig, build_parser
from tagevol.errors import TagEvolError
from tagevol.evolution import evolve_record
from tagevol.gateway import DEFAULT_RETRIES, Gateway
from tagevol.metrics import evaluate_dataset
from tagevol.tagging import build_tag_pool

README = Path(__file__).resolve().parents[1] / "README.md"


STAGES = {
    "build_tag_pool": lambda records, gateway: build_tag_pool(records, gateway, model="m"),
    "evaluate_dataset": lambda records, gateway: evaluate_dataset(records, gateway, sample_size=1, model="m"),
    "evolve_record": lambda records, gateway: evolve_record(
        records[0], 1, make_pool(["notion a", "notion b"]), gateway, random.Random(0), model="m"
    ),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stages_default_to_the_gateway_retry_count(stage):
    backend = ReplySequenceBackend(then="no markers anywhere")
    gateway = Gateway(backend, max_in_flight=1, sleep=lambda _: None)
    with pytest.raises(TagEvolError):
        STAGES[stage](make_records(1), gateway)
    assert backend.sends == DEFAULT_RETRIES + 1


def _readme_span(start: str, end: str) -> str:
    text = " ".join(README.read_text(encoding="utf-8").split())
    begin = text.index(start)
    return text[begin : text.index(end, begin)]


def _common_flags() -> set[str]:
    """Options that every subcommand accepts."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [{o for a in sub._actions for o in a.option_strings} for sub in subparsers.choices.values()]
    return set.intersection(*options) - {"-h", "--help"}


def test_readme_lists_exactly_the_common_flags():
    listed = re.findall(r"`(--[a-z-]+)`", _readme_span("Common flags on every subcommand:", "All randomness"))
    assert len(listed) == len(set(listed))
    assert set(listed) == _common_flags()


def test_readme_lists_exactly_the_config_keys():
    listed = re.findall(r"`([a-z_]+)`", _readme_span("Recognized keys", "The effective configuration"))
    assert len(listed) == len(set(listed))
    assert set(listed) == {f.name for f in fields(RunConfig)}


def test_every_common_flag_names_a_config_key():
    keys = {f.name for f in fields(RunConfig)}
    flag_keys = {flag[2:].replace("-", "_") for flag in _common_flags()} - {"config"}
    assert flag_keys == keys - {"models", "budgets"}
