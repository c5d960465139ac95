"""Benchmark contamination detection via word-level n-gram overlap.

Texts are lowercased and split on whitespace; a benchmark item counts as
matched when it shares at least one n-gram with any synthesized instruction.
Both counting modes are reported: matched benchmark items, and matched
(synth, benchmark) pairs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import PreconditionError
from .records import InstructionRecord


def extract_ngrams(text: str, n: int) -> set[str]:
    """Consecutive n-token windows; texts shorter than n yield the empty set."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    words = text.lower().split()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


@dataclass(frozen=True)
class LeakageReport:
    benchmark: str
    n: int
    matched_benchmark_items: int
    matched_pairs: int
    benchmark_size: int
    samples: list[dict]

    def to_json(self) -> dict:
        return asdict(self)


def count_matches(
    synth_records: Sequence[InstructionRecord],
    benchmark_records: Sequence[InstructionRecord],
    n: int,
    benchmark_name: str = "benchmark",
    max_samples: int = 10,
) -> LeakageReport:
    """Count benchmark items and (synth, benchmark) pairs sharing any n-gram.

    Built on an inverted gram index over the synthesized instructions, with
    up to ``max_samples`` example grams retained for inspection.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    index: dict[str, set[int]] = {}
    for position, record in enumerate(synth_records):
        for gram in extract_ngrams(record.instruction, n):
            index.setdefault(gram, set()).add(position)

    matched_items = 0
    matched_pairs = 0
    samples: list[dict] = []
    for bench in benchmark_records:
        partners: set[int] = set()
        for gram in sorted(extract_ngrams(bench.instruction, n)):
            hit = index.get(gram)
            if hit:
                partners |= hit
                if len(samples) < max_samples:
                    samples.append(
                        {
                            "gram": gram,
                            "synth_id": synth_records[min(hit)].id,
                            "benchmark_id": bench.id,
                        }
                    )
        if partners:
            matched_items += 1
            matched_pairs += len(partners)
    return LeakageReport(
        benchmark=benchmark_name,
        n=n,
        matched_benchmark_items=matched_items,
        matched_pairs=matched_pairs,
        benchmark_size=len(benchmark_records),
        samples=samples,
    )
