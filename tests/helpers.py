"""Shared test utilities: canned replies, prompt-aware fake backends,
mock-script builders and brute-force oracles."""

from __future__ import annotations

import hashlib
import json
import random
import re
import threading

from tagevol.evolution import build_evolution_prompt, record_seed, sample_candidates
from tagevol.gateway import ChatResponse, prompt_digest, user_message
from tagevol.records import InstructionRecord
from tagevol.tagging import TagPool, build_tagging_prompt

VALID_TAIL = "and explain each added requirement with a brief, carefully justified worked example."


def make_records(n: int, prefix: str = "rec") -> list[InstructionRecord]:
    return [
        InstructionRecord(
            id=f"{prefix}:{i}",
            instruction=f"please summarize topic number {i} in plain words",
        )
        for i in range(n)
    ]


def make_pool(tags, aspect: str = "required skill") -> TagPool:
    pool = TagPool(model="fixture")
    for i, tag in enumerate(tags):
        pool.add(aspect, tag, surface=tag, source=f"src:{i}")
    return pool


def tagging_reply(tags_by_aspect: dict) -> str:
    return (
        "Step 1 #Aspect List and Explanation#: aspects chosen to cover the task\n"
        "Step 2 #Aspect2Tags#:\n"
        "#Aspect2Tags#\n" + json.dumps(tags_by_aspect, ensure_ascii=False)
    )


def evolution_reply(subset, final: str, plan: str = "integrate the selected tags", rewritten: str | None = None) -> str:
    return (
        f"Step 1 #Tag subset#: {json.dumps(list(subset), ensure_ascii=False)}\n"
        f"Step 2 #Plan#: {plan}\n"
        f"Step 3 #Rewritten Instruction#: {rewritten if rewritten is not None else final}\n"
        f"Step 4 #Finally Rewritten Instruction#: {final}\n"
    )


def valid_final(instruction: str, subset) -> str:
    return f"{instruction} Additionally cover {', '.join(subset)} {VALID_TAIL}"


_BUDGET_RE = re.compile(r"should contain (\d+) tags")
_TAGLIST_RE = re.compile(r"Here is the #Tag List#:\n(.+)")
_INSTR_RE = re.compile(r"Here is the #Instruction#: (.+)")

VIOLATION_MODES = ("wrong_size", "foreign", "present", "short_final", "same_final")


class SynthesizingBackend:
    """Fabricates well-formed (or deliberately broken) replies from the prompt.

    Tagging prompts get two tags derived from the instruction text, so the
    reply is a pure function of the prompt. Evolution prompts get a four-step
    reply whose tag subset honors the budget unless a violation mode is drawn.
    Anything else is treated as a response request.
    """

    def __init__(self, malform_rate: float = 0.0, violation_rate: float = 0.0, seed: str = "synthesizer"):
        self.malform_rate = malform_rate
        self.violation_rate = violation_rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.calls = 0

    def send(self, request) -> ChatResponse:
        prompt = request.messages[-1].content
        with self._lock:
            self.calls += 1
            malformed = self._rng.random() < self.malform_rate
            violate = (not malformed) and self._rng.random() < self.violation_rate
            mode = self._rng.choice(VIOLATION_MODES) if violate else "valid"
        if "You are a tagging system" in prompt:
            return ChatResponse(content=self._tagging_reply(prompt))
        if "You are an Instruction Rewriter" in prompt:
            if malformed:
                return ChatResponse(content="completely unstructured reply with no markers at all")
            return ChatResponse(content=self._evolution_reply(prompt, mode))
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        return ChatResponse(content=f"completed:{digest[:16]}")

    def _tagging_reply(self, prompt: str) -> str:
        instruction = prompt.split("#Task ", 1)[1].splitlines()[0]
        digest = hashlib.sha256(instruction.encode("utf-8")).hexdigest()
        return tagging_reply({"Required skill": [f"focus {digest[:6]}", f"focus {digest[6:12]}"]})

    def _evolution_reply(self, prompt: str, mode: str) -> str:
        budget = int(_BUDGET_RE.search(prompt).group(1))
        cand = json.loads(_TAGLIST_RE.search(prompt).group(1))
        instruction = _INSTR_RE.search(prompt).group(1)
        norm = " ".join(instruction.lower().split())
        clean = [t for t in cand if t not in norm]
        present = [t for t in cand if t in norm]

        subset = (clean + present)[:budget]
        if mode == "wrong_size":
            if len(clean) > budget:
                subset = clean[: budget + 1]
            elif budget > 1:
                subset = subset[:-1]
        elif mode == "foreign":
            subset = subset[:-1] + ["entirely foreign tag zz"]
        elif mode == "present" and present:
            subset = [present[0]] + [t for t in clean if t != present[0]][: budget - 1]

        final = valid_final(instruction, subset)
        if mode == "short_final":
            final = f"{instruction} briefly."
        elif mode == "same_final":
            final = instruction
        return evolution_reply(subset, final)


def build_pipeline_script(
    seed_records,
    budgets,
    master_seed: int,
    cand_size: int = 30,
    tags_per_record: int = 3,
    final_fn=valid_final,
):
    """Mock-script entries covering a full tag -> evolve -> respond run.

    Prompts are predicted with the library's own prompt builders and rng
    derivation, so a hash-replay mock can drive the whole pipeline.
    ``final_fn(instruction, subset)`` shapes the rewritten text; the default
    keeps the word delta inside the allowed window.
    """
    entries: dict[str, str] = {}
    pool = TagPool(model="mock")
    for idx, record in enumerate(seed_records):
        tags = [f"skill {idx:02d}{letter}" for letter in "abcdefg"[:tags_per_record]]
        prompt = build_tagging_prompt(record)
        entries[prompt_digest([user_message(prompt)])] = tagging_reply({"Required skill": tags})
        for tag in tags:
            pool.add("required skill", tag, surface=tag, source=record.id)

    finals: list[str] = []
    for round_index, budget in enumerate(budgets, start=1):
        for idx, record in enumerate(seed_records):
            rng = random.Random(record_seed(master_seed, round_index, idx))
            batch = sample_candidates(pool, cand_size, rng)
            subset = batch[:budget]
            final = final_fn(record.instruction, subset)
            prompt = build_evolution_prompt(record, budget, batch)
            entries[prompt_digest([user_message(prompt)])] = evolution_reply(subset, final)
            finals.append(final)

    for final in finals:
        digest = hashlib.sha256(final.encode("utf-8")).hexdigest()
        entries[prompt_digest([user_message(final)])] = f"completed:{digest[:16]}"

    return [{"prompt_sha256": key, "response": value} for key, value in sorted(entries.items())]


def write_script(path, entries) -> None:
    path.write_text(json.dumps(entries, ensure_ascii=False, indent=2), encoding="utf-8")


def leakage_oracle(synth_texts, bench_texts, n: int) -> tuple[int, int]:
    """Quadratic all-pairs overlap count: (matched bench items, matched pairs)."""

    def grams(text):
        words = text.lower().split()
        return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}

    synth_grams = [grams(t) for t in synth_texts]
    items = 0
    pairs = 0
    for bench in bench_texts:
        bench_grams = grams(bench)
        partners = sum(1 for sg in synth_grams if sg & bench_grams)
        if partners:
            items += 1
            pairs += partners
    return items, pairs


def leakage_report_oracle(synth, bench, n: int, max_samples: int) -> dict:
    """All-pairs reference for a leakage report's counts and samples.

    Samples walk the benchmark in input order and each item's grams in sorted
    order; ``synth_id`` names the first synthetic record holding the gram.
    """

    def grams(record):
        words = record.instruction.lower().split()
        return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}

    synth_grams = [grams(s) for s in synth]
    items = 0
    pairs = 0
    samples = []
    for b in bench:
        bench_grams = grams(b)
        partners = sum(1 for sg in synth_grams if sg & bench_grams)
        if partners:
            items += 1
            pairs += partners
        for gram in sorted(bench_grams):
            holders = [s.id for s, sg in zip(synth, synth_grams) if gram in sg]
            if holders and len(samples) < max_samples:
                samples.append({"gram": gram, "synth_id": holders[0], "benchmark_id": b.id})
    return {"matched_benchmark_items": items, "matched_pairs": pairs, "samples": samples}


def random_texts(rng: random.Random, count: int, vocab_size: int = 30, min_len: int = 5, max_len: int = 40):
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(min_len, max_len)))
        for _ in range(count)
    ]


def as_records(texts, prefix: str = "t") -> list[InstructionRecord]:
    return [InstructionRecord(id=f"{prefix}:{i}", instruction=text) for i, text in enumerate(texts)]
