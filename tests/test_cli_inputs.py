"""Property test: no input file and no reply drives the CLI to a traceback.

Hypothesis writes the dataset, pool, config, mock-script and cache files,
with arbitrary JSON values, non-object lines, lone-surrogate escapes and
nesting deeper than ``json.loads`` can follow. The mock backend's ``send`` is
replaced by one that answers each prompt from generated replies with any
``finish_reason``, as an HTTP backend may. Every command must end in a
documented exit code, a failure in exactly one JSON line on stderr and a
success in at most one, which holds only the run's warnings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import evolution_reply, tagging_reply
from tagevol.cli import EXIT_BACKEND, EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, RunConfig, main
from tagevol.gateway import ChatResponse, MockBackend, UnscriptedPrompt
from tagevol.tagging import POOL_FORMAT_VERSION

DEEP = "[" * 100_000  # deeper than json.loads can follow
ODD_TEXT = st.sampled_from([DEEP, "not json", "{", '"x\\ud800y"', '{"instruction": "a\\udfffb"}', ""])

# Small integers only: a config value such as "retries" must not ask for huge work.
scalars = st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False) | st.text(max_size=8)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6
)
words = st.text(st.characters(categories=["L", "Nd", "Zs", "P"]), min_size=1, max_size=12)

odd_values = json_values.map(json.dumps) | ODD_TEXT | st.just(DEEP)  # deep nesting once more, so that it is drawn often


def _lines(lines):
    return "".join(f"{line}\n" for line in lines)


good_records = st.fixed_dictionaries({"instruction": words}, optional={"response": st.none() | words})
odd_records = st.fixed_dictionaries(
    {"instruction": words | json_values},
    optional={
        "id": words | json_values,
        "response": json_values,
        "meta": json_values,
        "parent_id": words | json_values,
        "round": json_values,
        "budget": json_values,
        "selected_tags": st.lists(words, max_size=2) | json_values,
    },
)
pool_entries = st.lists(words, min_size=3, max_size=6, unique=True).map(
    lambda tags: [{"tag": t, "aspect": "skill", "surface_forms": [t], "sources": ["s"], "count": 1} for t in tags]
)
cache_entries = st.fixed_dictionaries({"key": words, "content": words, "finish_reason": words | json_values})

# Each file has a usable form and an odd one; at most one file is odd per example,
# so most runs get past loading to the backend and the writers.
FILES = {
    "data": (
        st.lists(good_records.map(json.dumps), min_size=1, max_size=4).map(_lines),
        st.lists(good_records.map(json.dumps) | odd_records.map(json.dumps) | odd_values, min_size=1, max_size=4).map(_lines),
    ),
    "pool": (
        pool_entries.map(lambda entries: json.dumps({"version": POOL_FORMAT_VERSION, "model": "m", "entries": entries})),
        odd_values,
    ),
    "config": (
        st.none(),
        st.dictionaries(st.sampled_from(sorted(RunConfig.__dataclass_fields__)), json_values, max_size=3).map(json.dumps)
        | odd_values,
    ),
    "script": (st.just("[]"), st.lists(st.fixed_dictionaries({"prompt_sha256": words, "response": words})).map(json.dumps) | odd_values),
    "cache": (st.none() | st.just(""), st.lists(cache_entries.map(json.dumps) | odd_values, min_size=1, max_size=3).map(_lines)),
}

tag_replies = st.builds(tagging_reply, st.dictionaries(words, st.lists(words, max_size=3), max_size=2))
evolve_replies = st.builds(evolution_reply, st.lists(words, max_size=3), words)
odd_replies = words | st.sampled_from(["#Aspect2Tags#\n" + DEEP, "Step 1 #Tag subset#: " + DEEP, "x\ud800y"])
# Weighted towards replies that parse, so that records also reach validation and the writers.
reply = st.builds(
    ChatResponse,
    st.one_of(tag_replies, tag_replies, evolve_replies, evolve_replies, odd_replies),
    st.one_of(st.just("stop"), st.just("stop"), st.just("length"), words),
)
replies = st.lists(st.one_of(reply, reply, reply, st.just(UnscriptedPrompt)), min_size=1, max_size=4)

ARGV = {
    "tag": ["tag", "{data}", "--out", "{dir}/pool.json"],
    "evolve": ["evolve", "{data}", "{dir}/pool.json", "{dir}/rounds", "--budgets", "1", "2"],
    "respond": ["respond", "{data}", "--out", "{dir}/out.jsonl"],
    "merge": ["merge", "{data}", "--out", "{dir}/out.jsonl"],
    "leakage": ["leakage", "{data}", "{data}", "--ngrams", "2"],
    "stats": ["stats", "{data}", "--sample-size", "1"],
}


def _replying(answers):
    """A ``send`` that answers the nth send of each prompt with a reply chosen by prompt and n, whatever the thread order."""
    counts: dict[str, int] = {}
    lock = threading.Lock()

    def send(self, request):
        prompt = request.messages[0].content
        with lock:
            n = counts[prompt] = counts.get(prompt, -1) + 1
        answer = answers[(int(hashlib.sha256(prompt.encode("utf-8", "replace")).hexdigest(), 16) + n) % len(answers)]
        if answer is UnscriptedPrompt:
            raise UnscriptedPrompt("no scripted response")
        return answer

    return send


@pytest.mark.parametrize("command", sorted(ARGV))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(odd=st.none() | st.sampled_from(sorted(FILES)), answers=replies, draw=st.data())
def test_no_input_ends_in_a_traceback(command, odd, answers, draw):
    text = {name: draw.draw(forms[name == odd], label=name) for name, forms in FILES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = [arg.format(data=root / "data.jsonl", dir=root) for arg in ARGV[command]]
        argv += ["--mock-script", str(root / "script.json")]
        for name in ("data.jsonl", "pool.json", "script.json"):
            (root / name).write_text(text[name.split(".")[0]], encoding="utf-8")
        if text["config"] is not None:
            (root / "config.json").write_text(text["config"], encoding="utf-8")
            argv += ["--config", str(root / "config.json")]
        if text["cache"] is None:
            argv.append("--no-cache")
        else:
            (root / "cache").mkdir()
            (root / "cache" / "responses.jsonl").write_text(text["cache"], encoding="utf-8")
            argv += ["--cache-dir", str(root / "cache")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with mock.patch.object(MockBackend, "send", _replying(answers)):
                code = main(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_BACKEND, EXIT_PRECONDITION)
    lines = err.getvalue().splitlines()
    if code != EXIT_OK:
        assert len(lines) == 1
        assert set(json.loads(lines[0])) - {"warnings"} == {"error", "message"}
    else:
        assert len(lines) <= 1
        assert all(set(json.loads(line)) == {"warnings"} for line in lines)
    assert "Traceback" not in out.getvalue() + err.getvalue()
