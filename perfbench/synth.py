"""Benchmark-owned inputs and model: a seeded input generator and a
prompt-aware synthetic chat backend.

Everything here is a pure function of the workload seed. The backend keys
every decision (latency, 503s, malformed replies, validation violations) by
``(prompt digest, nth send of that prompt)``, so a run repeats exactly under
any thread schedule.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
import time
from pathlib import Path
from statistics import NormalDist

# Instruction words and tag words are built from disjoint consonant sets, so
# a tag can never occur inside an instruction by accident.
_TEXT_CONSONANTS = "bdfgklmnprst"
_TAG_CONSONANTS = "cjqvwxz"
_VOWELS = "aeiou"


def _words(consonants: str, syllables: int) -> list[str]:
    units = [c + v for c in consonants for v in _VOWELS]
    words = units
    for _ in range(syllables - 1):
        words = [w + u for w in words for u in units]
    return words


TEXT_WORDS = _words(_TEXT_CONSONANTS, 2)  # 3600 words
TAG_WORDS = _words(_TAG_CONSONANTS, 2)  # 1225 words


def unit_draw(*key) -> float:
    """Uniform [0, 1) value from a sha256 of the key parts."""
    digest = hashlib.sha256("|".join(str(k) for k in key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def distinct_tags(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct two-word tags, already in normalized form."""
    n = len(TAG_WORDS)
    return [f"{TAG_WORDS[k // n]} {TAG_WORDS[k % n]}" for k in rng.sample(range(n * n), count)]


def sentence(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(TEXT_WORDS) for _ in range(rng.randint(lo, hi)))


def write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def write_seeds(path: Path, rng: random.Random, count: int) -> None:
    write_jsonl(
        path,
        ({"id": f"seed:{i}", "instruction": sentence(rng, 12, 30)} for i in range(count)),
    )


def write_pool(tagging, path: Path, rng: random.Random, count: int) -> None:
    """A pool of ``count`` distinct tags spread over a few aspects, saved with the library."""
    pool = tagging.TagPool(model="synthetic")
    aspects = ["required skill", "topic", "constraint", "output format"]
    for i, tag in enumerate(distinct_tags(rng, count)):
        for aspect in rng.sample(aspects, rng.randint(1, 2)):
            pool.add(aspect, tag, surface=tag, source=f"seed:{i}")
    tagging.save_pool(pool, path)


def write_audit_inputs(
    directory: Path, rng: random.Random, records: int, bench_items: int, planted_share: float, dup_share: float
) -> tuple[list[Path], list[Path]]:
    """Three round files of evolved records with full provenance, plus two
    benchmark files in which a share of items carry a copied 16-word span.

    Rounds 2 and 3 repeat a share of earlier instructions (with whitespace
    changes) so that merging has duplicates to remove.
    """
    budgets = (1, 3, 5)
    per_round = records // len(budgets)
    tags = distinct_tags(rng, 3000)
    instructions: list[str] = []
    round_paths = []
    for round_index, budget in enumerate(budgets, start=1):
        rows = []
        for i in range(per_round):
            cand = rng.sample(tags, 30)
            if instructions and rng.random() < dup_share:
                text = "  ".join(rng.choice(instructions).split(" ", 3))
            else:
                text = f"{sentence(rng, 12, 30)} Additionally cover {', '.join(cand[:budget])} {sentence(rng, 10, 10)}"
            instructions.append(text)
            rows.append(
                {
                    "id": f"seed:{i}:round{round_index}",
                    "instruction": text,
                    "response": None,
                    "parent_id": f"seed:{i}",
                    "round": round_index,
                    "budget": budget,
                    "selected_tags": cand[:budget],
                    "candidate_tags": cand,
                    "plan": "integrate the selected tags",
                    "flags": [],
                    "raw_digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                }
            )
        path = directory / f"round{round_index}_budget{budget}.jsonl"
        write_jsonl(path, rows)
        round_paths.append(path)
    bench_paths = []
    for b in range(2):
        rows = []
        for i in range(bench_items):
            text = sentence(rng, 20, 50)
            if rng.random() < planted_share:
                words = rng.choice(instructions).split()
                start = rng.randrange(max(1, len(words) - 16))
                cut = rng.randrange(len(text.split()))
                head, tail = text.split()[:cut], text.split()[cut:]
                text = " ".join(head + words[start : start + 16] + tail)
            rows.append({"id": f"bench{b}:{i}", "instruction": text})
        path = directory / f"bench{b}.jsonl"
        write_jsonl(path, rows)
        bench_paths.append(path)
    return round_paths, bench_paths


_BUDGET_RE = re.compile(r"should contain (\d+) tags")
_TAGLIST_RE = re.compile(r"#Tag List#:\n(.+)")
_INSTR_RE = re.compile(r"#Instruction#: (.+)")
_TASK_RE = re.compile(r"#Task (.+)")
_VIOLATIONS = ("wrong_size", "foreign", "short_final", "same_final")


class SyntheticBackend:
    """Chat backend that fabricates replies from the prompt.

    Faults, all drawn per prompt digest from the workload seed:

    - latency: lognormal with the given median and 99th percentile, per send;
    - ``malformed``: the first send of a tagging or evolution prompt gets an
      unparseable reply, later sends a good one;
    - ``transient``: the first send gets a 503;
    - ``dead``: every send gets a 503;
    - ``violation``: an evolution reply breaks one selection constraint.

    Counters (sends, busy seconds, sends per digest) are kept for the
    benchmark's own accounting; they cost a lock and an addition per send.
    """

    def __init__(
        self,
        gateway_module,
        seed: int,
        tag_vocab: list[str],
        latency_median: float = 0.0,
        latency_p99: float = 0.0,
        malformed: float = 0.0,
        transient: float = 0.0,
        dead: float = 0.0,
        violation: float = 0.0,
    ):
        self._ChatResponse = gateway_module.ChatResponse
        self._Transient = gateway_module.TransientBackendError
        self.seed = seed
        self.tag_vocab = tag_vocab
        self.latency_median = latency_median
        self.sigma = math.log(latency_p99 / latency_median) / NormalDist().inv_cdf(0.99) if latency_median else 0.0
        self.malformed = malformed
        self.transient = transient
        self.dead = dead
        self.violation = violation
        self._lock = threading.Lock()
        self.sends_by_digest: dict[str, int] = {}
        self.sends = 0
        self.busy_s = 0.0

    def send(self, request):
        started = time.perf_counter()
        prompt = request.messages[-1].content
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self._lock:
            nth = self.sends_by_digest.get(digest, 0)
            self.sends_by_digest[digest] = nth + 1
        try:
            if self.latency_median:
                u = unit_draw(self.seed, "latency", digest, nth)
                time.sleep(self.latency_median * math.exp(self.sigma * NormalDist().inv_cdf(max(u, 1e-12))))
            if self.dead and unit_draw(self.seed, "dead", digest) < self.dead:
                raise self._Transient("HTTP 503 from backend (dead prompt)")
            if nth == 0 and self.transient and unit_draw(self.seed, "transient", digest) < self.transient:
                raise self._Transient("HTTP 503 from backend")
            return self._ChatResponse(content=self._reply(prompt, digest, nth))
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.sends += 1
                self.busy_s += elapsed

    def _malformed(self, digest: str, nth: int) -> bool:
        return nth == 0 and self.malformed and unit_draw(self.seed, "malformed", digest) < self.malformed

    def _reply(self, prompt: str, digest: str, nth: int) -> str:
        if "#Aspect2Tags#" in prompt:
            if self._malformed(digest, nth):
                return "Step 1 #Aspect List and Explanation#: skill\nStep 2: tags follow {unbalanced"
            return self._tagging_reply(_TASK_RE.search(prompt).group(1))
        if "#Tag List#" in prompt:
            if self._malformed(digest, nth):
                return "Sure, here is a harder version of the instruction without any step markers."
            return self._evolution_reply(prompt, digest, nth)
        words = prompt.split()
        return f"Answer {digest[:12]}: " + " ".join(words[: 8 + int(digest[12:14], 16) % 24])

    def _tagging_reply(self, instruction: str) -> str:
        h = hashlib.sha256(instruction.encode("utf-8")).digest()
        n = len(self.tag_vocab)
        skills = [self.tag_vocab[int.from_bytes(h[i : i + 4], "big") % n] for i in (0, 4)]
        topic = [self.tag_vocab[int.from_bytes(h[8:12], "big") % n]]
        body = json.dumps({"Required skill": skills, "Topic": topic})
        return f"Step 1 #Aspect List and Explanation#: Required skill, Topic\nStep 2 #Aspect2Tags#:\n#Aspect2Tags#\n{body}"

    def _evolution_reply(self, prompt: str, digest: str, nth: int) -> str:
        budget = int(_BUDGET_RE.search(prompt).group(1))
        cand = json.loads(_TAGLIST_RE.search(prompt).group(1))
        instruction = _INSTR_RE.search(prompt).group(1)
        subset = cand[:budget]
        mode = "valid"
        if self.violation and unit_draw(self.seed, "violation", digest, nth) < self.violation:
            mode = _VIOLATIONS[int(unit_draw(self.seed, "mode", digest, nth) * len(_VIOLATIONS))]
        if mode == "wrong_size":
            subset = cand[: budget + 1]
        elif mode == "foreign":
            subset = subset[:-1] + ["entirely foreign tag"]
        added = 2 + 2 * len(subset)
        target = max(added, 10 + int(unit_draw(self.seed, "words", digest) * 10 * budget))
        final = f"{instruction} Additionally cover {', '.join(subset)} " + " ".join(
            TEXT_WORDS[(int(digest[:6], 16) + k) % len(TEXT_WORDS)] for k in range(target - added)
        )
        if mode == "short_final":
            final = f"{instruction} briefly."
        elif mode == "same_final":
            final = instruction
        return (
            f"Step 1 #Tag subset#: {json.dumps(subset)}\n"
            "Step 2 #Plan#: integrate the selected tags one by one\n"
            f"Step 3 #Rewritten Instruction#: {final}\n"
            f"Step 4 #Finally Rewritten Instruction#: {final}\n"
        )
