"""Kill-and-resume: a ``tag``, ``evolve`` or ``respond`` run killed mid-stage
and rerun gives the outputs of an uninterrupted run, and resends only what the
kill left unsettled. A killed ``tag`` writes no pool, and a killed ``respond``
without ``--out`` leaves the input it rewrites in place whole.

The backend is a local HTTP server whose reply is a pure function of the
prompt, so every run sees the same replies. A seeded share of the first
attempts' prompts get a reply that does not parse; every other prompt gets a
valid rewrite. The server kills the child on its k-th POST, before answering it.

The killed run posts to its own path, so a POST it left in flight is logged as
the killed run's even when the server reads it after the next run has begun.
The resumed and reference runs share one endpoint: it is part of the config
each round manifest records.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from helpers import SynthesizingBackend, make_pool, make_records
from tagevol.evolution import build_evolution_prompt, record_seed, sample_candidates
from tagevol.gateway import ChatRequest, user_message
from tagevol.records import write_dataset
from tagevol.tagging import build_tagging_prompt, save_pool

pytestmark = pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = 10
BUDGETS = (1, 2)
MASTER_SEED = 7
KILL_AT = 9  # the POST the server answers by killing the child
TIMEOUT = 60  # seconds a run may take; the kill waits for the cache within the same bound
KILLED_PREFIX = "/killed"  # the path prefix of the killed run's endpoint
MALFORMED = "completely unstructured reply with no markers at all"


def _digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _first_prompts(seeds, pool) -> list[str]:
    """Each (round, record) job's first prompt, as ``evolve_rounds`` draws it."""
    prompts = []
    for round_index, budget in enumerate(BUDGETS, start=1):
        for index, record in enumerate(seeds):
            rng = random.Random(record_seed(MASTER_SEED, round_index, index))
            prompts.append(build_evolution_prompt(record, budget, sample_candidates(pool, 30, rng)))
    return prompts


class _Backend:
    """Replies, per-run send logs, and the kill on the k-th POST of the killed run."""

    def __init__(self, malformed: set[str]):
        self.malformed = malformed
        self.synth = SynthesizingBackend()
        self.lock = threading.Lock()
        self.killed = threading.Event()
        self.run = ""
        self.late: str | None = None  # why the kill could not wait for the cache, if it could not
        self.log: dict[str, list[tuple[str, str]]] = {}  # run -> [(prompt digest, outcome)]
        self.child: subprocess.Popen | None = None
        self.cache_file: Path | None = None

    def start(self, run: str, child_cache_file: Path | None = None) -> None:
        self.run, self.cache_file = run, child_cache_file
        self.log[run] = []
        self.deadline = time.monotonic() + TIMEOUT

    def reply(self, path: str, prompt: str) -> str | None:
        """The reply to send to a POST on ``path``, or None to leave it unanswered."""
        digest = _digest(prompt)
        run = "killed" if path.startswith(KILLED_PREFIX + "/") else self.run
        with self.lock:
            log = self.log[run]
            number = len(log) + 1
            killing = run == "killed" and number >= KILL_AT
            if killing:
                outcome = "unanswered"
            elif digest in self.malformed:
                outcome = "malformed"
            else:
                outcome = "valid"
            log.append((digest, outcome))
            valid_answered = sum(1 for _, o in log if o == "valid")
        if not killing:
            if outcome == "malformed":
                return MALFORMED
            return self.synth.send(ChatRequest(model="m", messages=(user_message(prompt),))).content
        if number == KILL_AT:
            # Let every valid reply already answered reach the cache, so the
            # kill lands between calls, never between a reply and its append.
            while self._cached_lines() < valid_answered:
                if time.monotonic() > self.deadline:
                    cached = self._cached_lines()
                    self.late = f"{TIMEOUT} s into the killed run, {cached} of {valid_answered} valid replies were cached"
                    break
                time.sleep(0.01)
            os.kill(self.child.pid, signal.SIGKILL)
            self.killed.set()
        self.killed.wait(10)
        return None

    def _cached_lines(self) -> int:
        try:
            return self.cache_file.read_bytes().count(b"\n")
        except FileNotFoundError:
            return 0

    def sent(self, run: str, outcome: str | None = None) -> list[str]:
        return [digest for digest, o in self.log[run] if outcome is None or o == outcome]


def _handler(backend: _Backend):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            content = backend.reply(self.path, body["messages"][-1]["content"])
            if content is None:
                return
            data = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}, "finish_reason": "stop"}]}
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    return Handler


@pytest.fixture
def served():
    seeds = make_records(SEEDS, prefix="seed")
    pool = make_pool([f"skill {i:02d}" for i in range(40)])
    first = _first_prompts(seeds, pool)
    malformed = {_digest(p) for p in random.Random(MASTER_SEED).sample(first, len(first) * 2 // 5)}
    backend = _Backend(malformed)
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _handler(backend))
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield seeds, pool, backend, f"http://127.0.0.1:{httpd.server_address[1]}/v1/chat/completions"
    finally:
        backend.killed.set()
        httpd.shutdown()
        httpd.server_close()


STAGE_ARGS = {
    "tag": ["seed.jsonl", "--out", "pool.json"],
    "evolve": ["seed.jsonl", "pool.json", "rounds", "--budgets", *map(str, BUDGETS), "--seed", str(MASTER_SEED)],
    "respond": ["data.jsonl"],  # no --out: the input is rewritten in place
}


def _run(stage: str, run_dir: Path, endpoint: str, backend: _Backend) -> subprocess.Popen:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "NO_PROXY": "127.0.0.1",
        "no_proxy": "127.0.0.1",
    }
    argv = [
        sys.executable, "-m", "tagevol.cli", stage, *STAGE_ARGS[stage], "--model", "m",
        "--endpoint", endpoint, "--max-in-flight", "2", "--cache-dir", "cache",
    ]  # fmt: skip
    child = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    backend.child = child
    return child


def _finish(child: subprocess.Popen) -> tuple[int, str]:
    try:
        _, err = child.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        pytest.fail(f"a run took over {TIMEOUT} s")
    return child.returncode, err


def _tree(root: Path, skip: str | None = None) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.relative_to(root).parts[0] != skip
    }


def test_a_killed_evolve_resumes_to_the_uninterrupted_outputs(served, tmp_path):
    seeds, pool, backend, endpoint = served
    runs = {}
    for name in ("resumed", "reference"):
        runs[name] = tmp_path / name
        runs[name].mkdir()
        write_dataset(seeds, runs[name] / "seed.jsonl")
        save_pool(pool, runs[name] / "pool.json")

    backend.start("killed", child_cache_file=runs["resumed"] / "cache" / "responses.jsonl")
    killed_endpoint = endpoint.replace("/v1/", KILLED_PREFIX + "/v1/", 1)
    returncode = _finish(_run("evolve", runs["resumed"], killed_endpoint, backend))[0]
    assert backend.late is None, backend.late
    assert returncode == -signal.SIGKILL
    backend.start("resumed")
    assert _finish(_run("evolve", runs["resumed"], endpoint, backend)) == (0, "")
    backend.start("reference")
    assert _finish(_run("evolve", runs["reference"], endpoint, backend)) == (0, "")

    reference = _tree(runs["reference"] / "rounds")
    assert len(reference) == 2 * len(BUDGETS) + 1  # round files, their manifests, failures.json
    assert _tree(runs["resumed"] / "rounds") == reference

    killed_valid = set(backend.sent("killed", "valid"))
    unsettled = set(backend.sent("killed", "malformed")) | set(backend.sent("killed", "unanswered"))
    resumed = backend.sent("resumed")
    assert killed_valid and backend.sent("killed", "malformed")
    # No reply the killed run accepted is sent again; what is sent again is
    # a prompt whose reply did not parse or had not come when the kill landed.
    assert killed_valid.isdisjoint(resumed)
    killed_sent = set(backend.sent("killed"))
    assert {digest for digest in resumed if digest in killed_sent} <= unsettled
    assert sorted(resumed + list(killed_valid)) == sorted(backend.sent("reference"))


def test_a_killed_respond_leaves_its_input_whole_and_resumes_to_the_uninterrupted_output(served, tmp_path):
    _, _, backend, endpoint = served
    records = make_records(2 * SEEDS, prefix="item")
    runs = {}
    for name in ("resumed", "reference"):
        runs[name] = tmp_path / name
        runs[name].mkdir()
        write_dataset(records, runs[name] / "data.jsonl")
    original = (runs["resumed"] / "data.jsonl").read_bytes()

    backend.start("killed", child_cache_file=runs["resumed"] / "cache" / "responses.jsonl")
    killed_endpoint = endpoint.replace("/v1/", KILLED_PREFIX + "/v1/", 1)
    returncode = _finish(_run("respond", runs["resumed"], killed_endpoint, backend))[0]
    assert backend.late is None, backend.late
    assert returncode == -signal.SIGKILL
    # The input it rewrites in place is whole, and nothing else is written beside the cache.
    assert _tree(runs["resumed"], skip="cache") == {"data.jsonl": original}
    backend.start("resumed")
    assert _finish(_run("respond", runs["resumed"], endpoint, backend)) == (0, "")
    backend.start("reference")
    assert _finish(_run("respond", runs["reference"], endpoint, backend)) == (0, "")

    reference = _tree(runs["reference"], skip="cache")
    assert sorted(reference) == ["data.failures.json", "data.jsonl"]
    assert _tree(runs["resumed"], skip="cache") == reference

    killed_valid = backend.sent("killed", "valid")
    resumed = backend.sent("resumed")
    assert killed_valid and backend.sent("killed", "unanswered")
    assert backend.sent("killed", "malformed") == []  # any reply is a response
    # The rerun sends each prompt the killed run got no reply to, once, and nothing else.
    every_prompt = {_digest(record.instruction) for record in records}
    assert sorted(resumed) == sorted(every_prompt - set(killed_valid))
    assert sorted(resumed + killed_valid) == sorted(backend.sent("reference"))


def test_a_killed_tag_writes_no_pool_and_resumes_to_the_uninterrupted_pool(served, tmp_path):
    _, _, backend, endpoint = served
    records = make_records(2 * SEEDS, prefix="seed")
    runs = {}
    for name in ("resumed", "reference"):
        runs[name] = tmp_path / name
        runs[name].mkdir()
        write_dataset(records, runs[name] / "seed.jsonl")
    original = (runs["resumed"] / "seed.jsonl").read_bytes()

    backend.start("killed", child_cache_file=runs["resumed"] / "cache" / "responses.jsonl")
    killed_endpoint = endpoint.replace("/v1/", KILLED_PREFIX + "/v1/", 1)
    returncode = _finish(_run("tag", runs["resumed"], killed_endpoint, backend))[0]
    assert backend.late is None, backend.late
    assert returncode == -signal.SIGKILL
    # Nothing is written beside the cache: no pool and no build report.
    assert _tree(runs["resumed"], skip="cache") == {"seed.jsonl": original}
    backend.start("resumed")
    assert _finish(_run("tag", runs["resumed"], endpoint, backend)) == (0, "")
    backend.start("reference")
    assert _finish(_run("tag", runs["reference"], endpoint, backend)) == (0, "")

    reference = _tree(runs["reference"], skip="cache")
    assert sorted(reference) == ["pool.json", "pool.report.json", "seed.jsonl"]
    assert _tree(runs["resumed"], skip="cache") == reference

    killed_valid = backend.sent("killed", "valid")
    resumed = backend.sent("resumed")
    assert killed_valid and backend.sent("killed", "unanswered")
    assert backend.sent("killed", "malformed") == []  # every tagging reply parses
    # The rerun sends each prompt the killed run got no reply to, once, and nothing else.
    every_prompt = {_digest(build_tagging_prompt(record)) for record in records}
    assert sorted(resumed) == sorted(every_prompt - set(killed_valid))
    assert sorted(resumed + killed_valid) == sorted(backend.sent("reference"))
