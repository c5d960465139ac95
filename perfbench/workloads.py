"""The four benchmark workloads.

Each workload generates its inputs once from the workload seed (``prepare``),
then runs iterations. An iteration has an untimed ``fresh`` step, a timed
``setup`` (loading inputs, opening the response cache, building the gateway),
a timed ``run`` that makes the same library calls as ``tagevol.cli``, and an
untimed ``check`` of the outputs. All writes go under the iteration
directory, with a fresh response cache per iteration.

Sizes and fault rates are fixed here, not tuned per seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import types
from dataclasses import dataclass, field
from pathlib import Path

import synth
from spans import BackoffSleep

MODEL = "synthetic-model"
CANDIDATE_SIZE = 30
MATH_BUDGETS = [1, 3, 5]
RETRIES = 3  # the CLI default, used by the gateway and by every stage


class CheckFailed(Exception):
    """An output check failed; the run is reported as incorrect."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one timed run produced, for metrics and checks."""

    out_dir: Path
    accepted: int  # output records: evolved records, or synthetic records audited
    attempted: int = 0  # records entering any stage, summed over stages
    failed: int = 0  # records that failed in any stage
    backend: synth.SyntheticBackend | None = None
    sleep: BackoffSleep | None = None
    facts: dict = field(default_factory=dict)


def output_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _dump(payload, path: Path) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# Validation flags counted per workload; the per-layer metric names follow them.
FLAGS = ("SubsetSizeMismatch", "SubsetNotInCandidates", "TagAlreadyPresent", "WordDeltaOutOfRange", "FinalEqualsOriginal")


def base_facts(outcome: Outcome) -> dict:
    return {
        "backoff_sleep_s": outcome.sleep.total_s if outcome.sleep else 0.0,
        "flagged": {flag: 0 for flag in FLAGS},
        "tagging_failed": 0,
        "respond_records": 0,
        "respond_failed_ids": [],
    }


class Workload:
    name = ""
    backend_options: dict = {}
    slots = 2  # the gateway's max_in_flight: one per core of the reference 2-core machine

    def __init__(self, tv, work: Path, seed: int):
        self.tv = tv
        self.work = work
        self.seed = seed
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference: str | None = None

    def prepare(self) -> None:
        """Generate inputs; runs once per process, untimed."""

    def fresh(self, it_dir: Path) -> None:
        """Untimed per-iteration preparation."""
        it_dir.mkdir(parents=True)

    def setup(self, it_dir: Path):
        raise NotImplementedError

    def run(self, state) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome, first: bool) -> None:
        """Outputs must repeat byte for byte: across iterations, or against the
        reference run of ``prepare`` where a workload makes one. The first
        iteration also gets the workload's full content checks."""
        digest = output_digest(outcome.out_dir)
        if self.reference is None:
            self.reference = digest
        expect(digest == self.reference, f"{self.name}: outputs differ from the reference run")

    def gateway(self, cache_dir: Path, **backend_options):
        tv = self.tv
        options = {**self.backend_options, **backend_options}
        backend = synth.SyntheticBackend(tv.gateway, self.seed, **options)
        sleep = BackoffSleep()
        cache = tv.gateway.ResponseCache(cache_dir)
        median = options.get("latency_median", 0.0)
        gateway = tv.gateway.Gateway(
            backend,
            retries=RETRIES,
            backoff_base=median,
            max_in_flight=self.slots,
            cache=cache,
            sleep=sleep,
        )
        return types.SimpleNamespace(gateway=gateway, backend=backend, sleep=sleep)

    def evolve_and_write(self, seeds, pool, gateway, out_dir: Path, sources: list[str]):
        """``tagevol evolve --preset math``: evolve every round, write each round and its manifest."""
        tv = self.tv
        result = tv.evolution.evolve_rounds(
            seeds, MATH_BUDGETS, pool, gateway, self.seed, CANDIDATE_SIZE, RETRIES, model=MODEL
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        parameters = {"model": MODEL, "rng_seed": self.seed, "candidate_size": CANDIDATE_SIZE, "budgets": MATH_BUDGETS}
        paths = []
        for round_index, (budget, round_records) in enumerate(zip(MATH_BUDGETS, result.rounds), start=1):
            path = out_dir / f"round{round_index}_budget{budget}.jsonl"
            tv.records.write_dataset(round_records, path)
            manifest = tv.records.build_manifest(
                name=path.stem, sources=sources, records=round_records, parameters=parameters
            )
            tv.records.write_manifest(manifest, tv.records.manifest_path(path))
            paths.append(path)
        _dump(result.failures, out_dir / "failures.json")
        return result, paths

    def check_flags(self, rounds, seeds) -> None:
        """Each evolved record's flags equal ``validate_result`` recomputed from the record."""
        originals = {r.id: r.instruction for r in seeds}
        for round_records in rounds:
            for record in round_records:
                parsed = types.SimpleNamespace(subset=record.selected_tags, final=record.instruction)
                flags = self.tv.evolution.validate_result(
                    parsed, record.budget, record.candidate_tags, originals[record.parent_id]
                )
                expect(flags == record.flags, f"{record.id}: flags {record.flags} != recomputed {flags}")


def _flag_counts(rounds) -> dict:
    counts = {flag: 0 for flag in FLAGS}
    for round_records in rounds:
        for record in round_records:
            for flag in record.flags:
                counts[flag] = counts.get(flag, 0) + 1
    return counts


class EvolveCpu(Workload):
    """Owned local work only: a 6k-tag pool loaded from file, zero latency, no faults."""

    name = "evolve-cpu"
    seeds = 50
    pool_tags = 6000
    backend_options = {"violation": 0.05}
    # With zero latency two slots only contend for the interpreter lock. On a
    # shared 2-core machine that made wall time bimodal from run to run and
    # raised CPU per evolution by a third (see README.md), so this workload
    # runs one slot and measures the owned work itself.
    slots = 1

    def prepare(self) -> None:
        synth.write_seeds(self.inputs / "seeds.jsonl", self.rng, self.seeds)
        synth.write_pool(self.tv.tagging, self.inputs / "pool.json", self.rng, self.pool_tags)

    def setup(self, it_dir: Path):
        tv = self.tv
        seeds = tv.records.load_dataset(self.inputs / "seeds.jsonl")
        pool = tv.tagging.load_pool(self.inputs / "pool.json")
        state = self.gateway(it_dir / "cache", tag_vocab=[])
        state.__dict__.update(it_dir=it_dir, seeds=seeds, pool=pool)
        return state

    def run(self, state) -> Outcome:
        seeds = state.seeds
        sources = ["seeds.jsonl", "pool.json"]
        result, _ = self.evolve_and_write(seeds, state.pool, state.gateway, state.it_dir / "out", sources)
        outcome = Outcome(
            out_dir=state.it_dir / "out",
            accepted=sum(len(r) for r in result.rounds),
            attempted=len(seeds) * len(MATH_BUDGETS),
            failed=len(result.failures),
            backend=state.backend,
            sleep=state.sleep,
        )
        outcome.facts = {**base_facts(outcome), "flagged": _flag_counts(result.rounds)}
        outcome.facts["rounds"] = result.rounds
        outcome.facts["seeds"] = seeds
        return outcome

    def check(self, outcome: Outcome, first: bool) -> None:
        super().check(outcome, first)
        expect(outcome.failed == 0, f"{self.name}: {outcome.failed} records failed without injected faults")
        if first:
            self.check_flags(outcome.facts["rounds"], outcome.facts["seeds"])


class Resume(EvolveCpu):
    """Cache read path: half of the seeds were evolved before, into the cache
    this run starts from; the other half are misses appended beside the hits.

    Misses see the same long-tail latency as ``pipeline-latency`` and two
    slots, so hits save what they save against a real model. The pre-fill and
    the cold reference run at zero latency: replies do not depend on it."""

    name = "resume"
    seeds = 600
    pool_tags = 300
    slots = 2
    backend_options = {"violation": 0.05, "latency_median": 0.005, "latency_p99": 0.050}

    def prepare(self) -> None:
        super().prepare()
        tv = self.tv
        seeds = tv.records.load_dataset(self.inputs / "seeds.jsonl")
        pool = tv.tagging.load_pool(self.inputs / "pool.json")
        self.half = len(seeds) // 2
        # Pre-fill: evolve the first half into a cache that each iteration copies.
        prefill = self.work / "prefill"
        parts = self.gateway(prefill / "cache", tag_vocab=[], latency_median=0.0)
        self.evolve_and_write(seeds[: self.half], pool, parts.gateway, prefill / "out", [])
        self.prefilled = set(parts.backend.sends_by_digest)
        # Cold reference: the same inputs evolved on an empty cache.
        cold = self.work / "cold"
        sources = ["seeds.jsonl", "pool.json"]
        parts = self.gateway(cold / "cache", tag_vocab=[], latency_median=0.0)
        self.evolve_and_write(seeds, pool, parts.gateway, cold / "out", sources)
        self.reference = output_digest(cold / "out")

    def fresh(self, it_dir: Path) -> None:
        super().fresh(it_dir)
        shutil.copytree(self.work / "prefill" / "cache", it_dir / "cache")

    def check(self, outcome: Outcome, first: bool) -> None:
        Workload.check(self, outcome, first)
        expect(outcome.failed == 0, f"{self.name}: {outcome.failed} records failed without injected faults")
        sent = set(outcome.backend.sends_by_digest)
        expect(not sent & self.prefilled, f"{self.name}: pre-filled prompts were sent to the backend again")
        misses = (len(outcome.facts["seeds"]) - self.half) * len(MATH_BUDGETS)
        expect(outcome.backend.sends == misses, f"{self.name}: {outcome.backend.sends} sends, expected {misses}")
        if first:
            self.check_flags(outcome.facts["rounds"], outcome.facts["seeds"])


class PipelineLatency(Workload):
    """The whole CLI pipeline against a long-tail, faulty backend.

    A run holds few iterations, so ``prepare`` makes an untimed reference run
    at zero latency that every iteration is compared with. Replies and faults
    are keyed by prompt digest and send count, not by latency, so the
    outputs must be equal."""

    name = "pipeline-latency"
    seeds = 300
    tag_vocab = 400
    backend_options = {
        "latency_median": 0.005,
        "latency_p99": 0.050,
        "malformed": 0.05,
        "transient": 0.05,
        "dead": 0.01,
        "violation": 0.05,
    }
    stats_sample = 50

    def prepare(self) -> None:
        synth.write_seeds(self.inputs / "seeds.jsonl", self.rng, self.seeds)
        self.vocab = synth.distinct_tags(self.rng, self.tag_vocab)
        reference = self.work / "reference"
        reference.mkdir()
        outcome = self.run(self.setup(reference, latency_median=0.0))
        self.reference = output_digest(outcome.out_dir)

    def setup(self, it_dir: Path, **backend_options):
        seeds = self.tv.records.load_dataset(self.inputs / "seeds.jsonl")
        state = self.gateway(it_dir / "cache", tag_vocab=self.vocab, **backend_options)
        state.__dict__.update(it_dir=it_dir, seeds=seeds)
        return state

    def run(self, state) -> Outcome:
        tv = self.tv
        seeds, gateway = state.seeds, state.gateway
        out = state.it_dir / "out"
        out.mkdir()
        seed_path = "seeds.jsonl"
        # tag
        pool, tag_report = tv.tagging.build_tag_pool(seeds, gateway, retries_per_record=RETRIES, model=MODEL)
        pool.built_from = {"path": seed_path, "records": len(seeds)}
        tv.tagging.save_pool(pool, out / "pool.json")
        _dump(tag_report.to_json(), out / "pool.report.json")
        # evolve
        pool = tv.tagging.load_pool(out / "pool.json")
        result, paths = self.evolve_and_write(seeds, pool, gateway, out / "rounds", [seed_path, "pool.json"])
        # respond, in place
        responded, respond_failed, respond_records = [], [], 0
        for path in paths:
            round_records = tv.records.load_dataset(path)
            filled, report = tv.responding.generate_responses(
                round_records, gateway, RETRIES, model=MODEL, temperature=0.0
            )
            tv.records.write_dataset(filled, path)
            _dump(report.failures, path.with_suffix(".failures.json"))
            responded.append(filled)
            respond_records += len(round_records)
            respond_failed += [f["record_id"] for f in report.failures]
        # merge
        merged = tv.records.merge_rounds(responded)
        tv.records.write_dataset(merged, out / "merged.jsonl")
        manifest = tv.records.build_manifest(
            name="merged", sources=[p.name for p in paths], records=merged, parameters={"include_seed": False}
        )
        tv.records.write_manifest(manifest, tv.records.manifest_path(out / "merged.jsonl"))
        # stats
        stats = tv.metrics.evaluate_dataset(
            merged, gateway, sample_size=self.stats_sample, rng=random.Random(self.seed), retries=RETRIES, model=MODEL
        )
        _dump(stats.to_json(), out / "stats.json")

        evolved = sum(len(r) for r in result.rounds)
        outcome = Outcome(
            out_dir=out,
            accepted=evolved,
            attempted=len(seeds) + len(seeds) * len(MATH_BUDGETS) + respond_records + self.stats_sample,
            failed=len(tag_report.failures) + len(result.failures) + len(respond_failed) + len(stats.dropped),
            backend=state.backend,
            sleep=state.sleep,
        )
        outcome.facts = {
            **base_facts(outcome),
            "flagged": _flag_counts(result.rounds),
            "tagging_failed": len(tag_report.failures),
            "respond_records": respond_records,
            "respond_failed_ids": respond_failed,
            "rounds": result.rounds,
            "seeds": seeds,
            "merged": merged,
        }
        return outcome

    def check(self, outcome: Outcome, first: bool) -> None:
        super().check(outcome, first)
        if not first:
            return
        self.check_flags(outcome.facts["rounds"], outcome.facts["seeds"])
        failed = set(outcome.facts["respond_failed_ids"])
        for record in outcome.facts["merged"]:
            if record.id in failed:
                expect(record.response is None, f"{record.id}: failed respond left a response")
                continue
            digest = hashlib.sha256(record.instruction.encode("utf-8")).hexdigest()
            expect(
                record.response is not None and record.response.startswith(f"Answer {digest[:12]}:"),
                f"{record.id}: response is not the backend's reply to its instruction",
            )


class Audit(Workload):
    """Offline stages only: leakage at n = 8 and 13 against two benchmarks, then merge and write."""

    name = "audit"
    slots = 0  # no gateway
    records = 8000
    bench_items = 500
    ngrams = (8, 13)

    def prepare(self) -> None:
        self.round_paths, self.bench_paths = synth.write_audit_inputs(
            self.inputs, self.rng, self.records, self.bench_items, planted_share=0.1, dup_share=0.05
        )

    def setup(self, it_dir: Path):
        load = self.tv.records.load_dataset
        rounds = [load(p) for p in self.round_paths]
        benches = [(p.name, load(p)) for p in self.bench_paths]
        return types.SimpleNamespace(it_dir=it_dir, rounds=rounds, benches=benches)

    def run(self, state) -> Outcome:
        tv = self.tv
        rounds, benches = state.rounds, state.benches
        out = state.it_dir / "out"
        out.mkdir()
        synth_records = [r for round_records in rounds for r in round_records]
        reports = []
        for name, bench in benches:
            for n in self.ngrams:
                reports.append(tv.leakage.count_matches(synth_records, bench, n, benchmark_name=name).to_json())
        _dump({"dataset": "rounds", "reports": reports}, out / "leakage.json")
        merged = tv.records.merge_rounds(rounds)
        tv.records.write_dataset(merged, out / "merged.jsonl")
        manifest = tv.records.build_manifest(
            name="merged", sources=[p.name for p in self.round_paths], records=merged, parameters={"include_seed": False}
        )
        tv.records.write_manifest(manifest, tv.records.manifest_path(out / "merged.jsonl"))
        outcome = Outcome(out_dir=out, accepted=len(synth_records), attempted=len(synth_records))
        outcome.facts = base_facts(outcome)
        outcome.facts.update(reports=reports, synth=synth_records, benches=benches, merged=merged)
        return outcome

    def check(self, outcome: Outcome, first: bool) -> None:
        super().check(outcome, first)
        if not first:
            return
        synth_texts = [r.instruction for r in outcome.facts["synth"]]
        reports = iter(outcome.facts["reports"])
        for _, bench in outcome.facts["benches"]:
            for n in self.ngrams:
                report = next(reports)
                items, pairs = bench_side_counts(synth_texts, [b.instruction for b in bench], n)
                expect(
                    (report["matched_benchmark_items"], report["matched_pairs"]) == (items, pairs),
                    f"leakage n={n}: library says {report['matched_benchmark_items']}/{report['matched_pairs']},"
                    f" independent count {items}/{pairs}",
                )
                expect(items > 0, f"leakage n={n}: planted spans were not found")
        distinct = len({" ".join(t.split()) for t in synth_texts})
        expect(len(outcome.facts["merged"]) == distinct, "merge kept a duplicate or dropped a distinct record")


def bench_side_counts(synth_texts, bench_texts, n: int) -> tuple[int, int]:
    """(matched benchmark items, matched pairs), indexing the benchmark side
    and streaming the synthetic side: an independent check of ``count_matches``."""

    def grams(text):
        words = text.lower().split()
        return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}

    index: dict[str, set[int]] = {}
    for position, text in enumerate(bench_texts):
        for gram in grams(text):
            index.setdefault(gram, set()).add(position)
    partners = [0] * len(bench_texts)
    for text in synth_texts:
        hit: set[int] = set()
        for gram in grams(text):
            hit |= index.get(gram, set())
        for position in hit:
            partners[position] += 1
    return sum(1 for p in partners if p), sum(partners)


WORKLOADS = {w.name: w for w in (EvolveCpu, PipelineLatency, Resume, Audit)}
