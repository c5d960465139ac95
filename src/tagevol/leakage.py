"""Benchmark contamination detection via word-level n-gram overlap.

Texts are lowercased and split on whitespace; a benchmark item counts as
matched when it shares at least one n-gram with any synthesized instruction.
Both counting modes are reported: matched benchmark items, and matched
(synth, benchmark) pairs.

The small benchmark side is indexed and the large synthesized side is read
once, record by record, so memory grows with the benchmark, not with the
synthesized dataset. A synthesized window is joined and looked up only when
its first ``min(n, 2)`` words open a benchmark gram.
"""

from __future__ import annotations

import sys
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

    Indexes the benchmark grams (gram -> benchmark positions) and their first
    ``min(n, 2)`` words, then streams the synthesized records once in order,
    lowercased and split as in ``extract_ngrams``; only windows whose first
    words open a benchmark gram are joined and looked up. A record adds one
    partner to each benchmark item its grams hit, and the first record holding
    a matched gram is remembered. Up to ``max_samples`` example grams are kept,
    in benchmark order and sorted gram order, each naming that first record.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    bench_grams = [sorted(extract_ngrams(bench.instruction, n)) for bench in benchmark_records]
    index: dict[str, list[int]] = {}
    for position, grams in enumerate(bench_grams):
        for gram in grams:
            index.setdefault(gram, []).append(position)
    width = min(n, 2)
    heads = {tuple(map(sys.intern, gram.split(" ", width)[:width])) for gram in index}

    partner_counts = [0] * len(benchmark_records)
    first_holder: dict[str, int] = {}
    for position, record in enumerate(synth_records):
        words = record.instruction.lower().split()
        opens = map(heads.__contains__, zip(*(words[k:] for k in range(width))))
        hit: set[int] = set()
        for start in compress(range(len(words) - n + 1), opens):
            gram = " ".join(words[start : start + n])
            if gram in index:
                hit.update(index[gram])
                first_holder.setdefault(gram, position)
        for bench_position in hit:
            partner_counts[bench_position] += 1

    samples: list[dict] = []
    for bench, grams in zip(benchmark_records, bench_grams):
        for gram in grams:
            if len(samples) < max_samples and gram in first_holder:
                samples.append(
                    {
                        "gram": gram,
                        "synth_id": synth_records[first_holder[gram]].id,
                        "benchmark_id": bench.id,
                    }
                )
    return LeakageReport(
        benchmark=benchmark_name,
        n=n,
        matched_benchmark_items=sum(1 for count in partner_counts if count),
        matched_pairs=sum(partner_counts),
        benchmark_size=len(benchmark_records),
        samples=samples,
    )
