"""A state machine for ``ResponseCache``: puts, gets and reloads interleaved
with failed appends and with changes that another writer makes to the file.

The model is what was put, key by key. Every reply is unique and names its
key, so a reply served for the wrong key, or one never put for this key, is
caught at once. The rules the cache must keep:

- ``get`` serves only a reply that was put for that key, or None; never
  another key's reply. This holds in every state, also when keys collide in
  the index.
- With the real index digest and no change to the file from outside, a live
  cache serves exactly the last reply put for each key, and a reload serves
  every key whose put succeeded.
- A failed append has no defined outcome: the bytes it wrote before failing
  may become a whole line once the next append starts a new line, so a
  reload may serve that reply instead of the one before it.
- A change from outside (a torn tail, a truncation, a rewrite) may turn any
  key into a miss or, after a reload, into an earlier reply put for the same
  key: a truncated log ends with older lines. The next reload is the new
  starting point.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule, run_state_machine_as_test

from tagevol import gateway as gateway_module
from tagevol.errors import WriteError
from tagevol.gateway import ChatResponse, ResponseCache

KEYS = ("alpha", "beta", "gamma", "delta")
keys = st.sampled_from(KEYS)


def _line(key: str, content: str) -> bytes:
    return (json.dumps({"key": key, "content": content, "finish_reason": "stop"}) + "\n").encode("utf-8")


class CacheMachine(RuleBasedStateMachine):
    collisions = False  # True: run with a two-bucket index digest, so that keys share index slots

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="cache-machine-"))
        self.path = self.root / "responses.jsonl"
        self.cache = ResponseCache(self.root)
        self.replies = 0
        self.model: dict[str, str] = {}  # the last reply put for each key, as the cache last served or stored it
        self.undecided: dict[str, set[str]] = {}  # replies of failed puts since the key's last stored reply
        self.ever: dict[str, set[str]] = {key: set() for key in KEYS}  # every reply that reached the file for each key
        self.changed = False  # the file changed from outside since the last reload

    def teardown(self):
        del self.cache  # closes its descriptors
        shutil.rmtree(self.root)

    def _reply(self, key: str) -> str:
        self.replies += 1
        content = f"{key}#{self.replies}"
        self.ever[key].add(content)
        return content

    def _check(self, key: str, served: ChatResponse | None) -> None:
        if served is not None:
            assert served.content in self.ever[key], f"{key!r} got {served.content!r}"

    @rule(key=keys)
    def put(self, key):
        content = self._reply(key)
        self.cache.put(key, ChatResponse(content=content))
        self.model[key] = content
        self.undecided.pop(key, None)

    @rule(key=keys, written=st.integers(min_value=0, max_value=80))
    def failed_put(self, key, written):
        content = self._reply(key)
        real_write = os.write

        def write_a_prefix_then_fail(fd, data):
            real_write(fd, bytes(data[: min(written, len(data) - 1)]))
            raise OSError(errno.ENOSPC, "No space left on device")

        with mock.patch.object(os, "write", write_a_prefix_then_fail), pytest.raises(WriteError):
            self.cache.put(key, ChatResponse(content=content))
        self.undecided.setdefault(key, set()).add(content)

    @rule(key=keys)
    def get(self, key):
        served = self.cache.get(key)
        self._check(key, served)
        if not self.collisions and not self.changed:
            assert (None if served is None else served.content) == self.model.get(key)

    @rule()
    def reload(self):
        self.cache = ResponseCache(self.root)
        served = {key: self.cache.get(key) for key in KEYS}
        for key, reply in served.items():
            self._check(key, reply)
            if not self.collisions and not self.changed:
                assert reply is not None or key not in self.model, f"{key!r}: a stored reply is not served after a reload"
                if reply is not None:
                    assert reply.content == self.model.get(key) or reply.content in self.undecided.get(key, ())
        # What this load serves is the model from here on.
        self.model = {key: reply.content for key, reply in served.items() if reply is not None}
        self.undecided.clear()
        self.changed = False

    @rule(key=keys, cut=st.integers(min_value=0, max_value=60))
    def torn_tail(self, key, cut):
        line = _line(key, self._reply(key))
        with self.path.open("ab") as fh:
            fh.write(line[: min(cut, len(line) - 1)])
        self.changed = True

    @precondition(lambda self: self.path.exists())
    @rule(share=st.floats(min_value=0, max_value=1))
    def truncate(self, share):
        os.truncate(self.path, int(self.path.stat().st_size * share))
        self.changed = True

    @rule(kept=st.lists(keys, unique=True), garbage=st.booleans(), replace=st.booleans())
    def rewrite(self, kept, garbage, replace):
        text = b"".join(_line(key, self.model[key]) for key in kept if key in self.model)
        if garbage:
            text = b'{"key": "alpha", "content": ' + text
        if replace:  # a new file in its place; the live cache keeps the old one open
            Path(self.root, "next").write_bytes(text)
            os.replace(self.root / "next", self.path)
        else:  # in place, as a second writer would
            self.path.write_bytes(text)
        self.changed = True


class CollidingCacheMachine(CacheMachine):
    collisions = True


MACHINE_SETTINGS = settings(
    max_examples=120, stateful_step_count=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def test_the_cache_serves_what_was_put_under_failures_and_outside_changes():
    run_state_machine_as_test(CacheMachine, settings=MACHINE_SETTINGS)


def test_keys_that_share_index_slots_never_get_each_others_reply(monkeypatch):
    monkeypatch.setattr(gateway_module, "_digest", lambda key: hash(key) & 1)
    run_state_machine_as_test(CollidingCacheMachine, settings=MACHINE_SETTINGS)
