"""Benchmark contamination detection via word-level n-gram overlap.

Texts are lowercased and split on whitespace; a benchmark item counts as
matched when it shares at least one n-gram with any synthesized instruction.
Both counting modes are reported: matched benchmark items, and matched
(synth, benchmark) pairs.

The benchmark side is indexed and the synthesized side streamed once, so
memory grows with the benchmark only. Each n-word window holds exactly one
anchor, the ``min(n, 2)``-word tuple at a multiple of ``n - min(n, 2) + 1``; only
windows around an anchor found in the benchmark are looked up, each at most once.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from itertools import compress
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

    Indexes the benchmark grams and the ``width``-word tuples of items holding
    one, then streams the synthesized records once, in order, split as in
    ``extract_ngrams``. Every window holds exactly one anchor, a tuple at a
    multiple of ``stride``, and a matching window's anchor is indexed; so only
    windows around an indexed anchor are looked up, at worst every window once.
    Samples, in benchmark and sorted gram order, name each gram's first holder.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    width = min(n, 2)
    stride = n - width + 1
    index: dict[str, list[int]] = {}
    keys: set[tuple[str, str]] = set()
    for position, bench in enumerate(benchmark_records):
        grams = extract_ngrams(bench.instruction, n)
        for gram in grams:
            index.setdefault(gram, []).append(position)
        if grams:
            words = bench.instruction.lower().split()
            keys.update(zip(words, words[width - 1 :]))

    partner_counts = [0] * len(benchmark_records)
    first_holder: dict[str, int] = {}
    for position, record in enumerate(synth_records):
        words = record.instruction.lower().split()
        anchors = list(zip(words[::stride], words[width - 1 :: stride]))
        if keys.isdisjoint(anchors):
            continue
        hit: set[int] = set()
        for anchor in compress(range(0, len(words), stride), map(keys.__contains__, anchors)):
            for start in range(max(anchor - stride + 1, 0), min(anchor, len(words) - n) + 1):
                gram = " ".join(words[start : start + n])
                if gram in index:
                    hit.update(index[gram])
                    first_holder.setdefault(gram, position)
        for bench_position in hit:
            partner_counts[bench_position] += 1

    matched = ((position, gram) for gram in first_holder for position in index[gram])
    return LeakageReport(
        benchmark=benchmark_name,
        n=n,
        matched_benchmark_items=sum(1 for count in partner_counts if count),
        matched_pairs=sum(partner_counts),
        benchmark_size=len(benchmark_records),
        samples=[
            {"gram": gram, "synth_id": synth_records[first_holder[gram]].id, "benchmark_id": benchmark_records[position].id}
            for position, gram in heapq.nsmallest(max(max_samples, 0), matched)
        ],
    )
