"""Golden table of every subcommand's parser actions, and how each flag type parses.

``parser_actions.json`` pins, per subcommand and in order, each argparse
action's option strings, ``dest``, kind, ``type``, ``nargs``, choices,
``required``, default and raw help text: what a ``--help`` page and a parsed
command line are made of. The rendered ``--help`` is not pinned, since its
layout differs between Python versions. Run this file as a script to rewrite
the table after an intended change.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from tagevol.cli import RunConfig, build_config, build_parser

GOLDEN = Path(__file__).with_name("parser_actions.json")


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _action(action: argparse.Action) -> dict:
    return {
        "options": action.option_strings,
        "dest": action.dest,
        "kind": type(action).__name__,
        "type": getattr(action.type, "__name__", action.type),
        "nargs": action.nargs,
        "choices": action.choices,
        "required": action.required,
        "default": action.default,
        "help": action.help,
    }


def actions() -> dict[str, list[dict]]:
    return {name: [_action(a) for a in sub._actions] for name, sub in _subparsers(build_parser()).items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", list(_subparsers(build_parser())))
def test_a_subcommand_has_its_golden_parser_actions(command, golden):
    assert actions()[command] == golden[command]


def test_the_golden_table_has_exactly_the_subcommands(golden):
    assert golden.keys() == actions().keys()


@pytest.mark.parametrize(
    "flags, key, parsed",
    [
        (["--seed", "3"], "seed", 3),
        (["--temperature", "1"], "temperature", 1.0),
        (["--no-cache"], "no_cache", True),
        (["--cache-dir", "c"], "cache_dir", "c"),
    ],
)
def test_a_common_flag_parses_to_its_config_type(flags, key, parsed):
    args = build_parser().parse_args(["merge", "r.jsonl", "--out", "m.jsonl", *flags])
    value = getattr(build_config(args), key)
    assert value == parsed and type(value) is type(parsed)


@pytest.mark.parametrize("key", ["seed", "temperature", "no_cache", "cache_dir", "endpoint"])
def test_an_absent_common_flag_is_none_and_the_config_default_after_build_config(key):
    args = build_parser().parse_args(["merge", "r.jsonl", "--out", "m.jsonl"])
    assert getattr(args, key) is None
    assert getattr(build_config(args), key) == getattr(RunConfig(), key)


if __name__ == "__main__":
    # One action per line, so a change to one action is a one-line diff.
    sections = [
        f" {json.dumps(command)}: [\n" + ",\n".join(f"  {json.dumps(action)}" for action in rows) + "\n ]"
        for command, rows in actions().items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
