"""Benchmark contamination detection via word-level n-gram overlap.

Texts are lowercased and split on whitespace; a benchmark item counts as
matched when it shares at least one n-gram with any synthesized instruction.
Both counting modes are reported: matched benchmark items, and matched
(synth, benchmark) pairs.

For one n, every benchmark is indexed and the synthesized side streamed once,
so memory grows with the sum of the benchmarks' grams, not with the
synthesized side. The index is keyed by the hash of each n-word tuple and the
anchor set by the hash of each anchor tuple, so neither keeps a string alive;
every index hit is confirmed against the benchmark item's own n-word tuples,
so a hash collision never counts as a match, and only the ``max_samples``
smallest matches are kept for the samples. Each n-word window holds exactly
one anchor, the ``min(n, 3)``-word tuple at a multiple of ``n - min(n, 3) + 1``;
only windows around an anchor found in a benchmark are hashed, each at most once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import compress
from typing import Callable, Sequence

from .errors import PreconditionError
from .records import InstructionRecord

# Keys the index by n-word tuple and the anchor set by anchor tuple. Any
# function of a tuple gives the same reports, since every index hit is confirmed.
_digest = hash


def extract_ngrams(text: str, n: int) -> set[str]:
    """Consecutive n-token windows; texts shorter than n yield the empty set."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    words = text.lower().split()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def _windows(words: list[str], n: int):
    """The n-word tuples of ``words``, in order; none when it holds fewer than n."""
    return zip(*[words[i:] for i in range(n)])


def _anchors(words: list[str], width: int, step: int = 1):
    """The anchors starting at every ``step``-th word that fit in ``words``:
    the words at offsets 0, 1 and 2 of each, offsets capped at ``width - 1``.

    Three words, not two: a word pair such as "of the" recurs in most texts,
    so a pair matches a benchmark anchor far more often than a window does.
    """
    return zip(words[::step], words[min(width - 1, 1) :: step], words[width - 1 :: step])


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


class _Index:
    """One benchmark's hashed gram index, the gram sets of the items it hit, its tallies and samples."""

    __slots__ = ("records", "n", "positions", "item_grams", "partner_counts", "max_samples", "samples", "worst")

    def __init__(
        self, records: Sequence[InstructionRecord], n: int, max_samples: int, digest: Callable[[tuple], int], anchor_keys: set[int]
    ):
        self.records = records
        self.n = n
        # digest -> position of the one item holding it, or a list of positions
        # when items share it (a list, so a gram common to k items costs O(k)).
        self.positions: dict[int, int | list[int]] = {}
        self.item_grams: dict[int, set[tuple[str, ...]]] = {}
        self.partner_counts = [0] * len(records)
        # The smallest (position, gram) matches so far, each with its first
        # synthesized holder, and the largest of them once there are enough.
        self.max_samples = max(max_samples, 0)
        self.samples: dict[tuple[int, str], int] = {}
        self.worst: tuple[int, str] | None = None
        width = min(n, 3)
        for position, record in enumerate(records):
            words = record.instruction.lower().split()
            if len(words) < n:
                continue
            grams = dict.fromkeys(map(digest, _windows(words, n)), position)
            for key in grams.keys() & self.positions.keys():
                held = self.positions[key]
                if isinstance(held, list):
                    held.append(position)
                else:
                    held = [held, position]
                grams[key] = held
            self.positions.update(grams)
            anchor_keys.update(map(digest, _anchors(words, width)))

    def probe(self, grams: list[tuple[str, ...]], keys: list[int], holder: int, hit: set[int]) -> None:
        """Add to ``hit`` the items holding any of ``grams``, whose digests are
        ``keys``; ``holder`` is the position of the synthesized record probed."""
        for gram, key in compress(zip(grams, keys), map(self.positions.__contains__, keys)):
            held = self.positions[key]
            for position in held if isinstance(held, list) else (held,):
                if gram in self._grams_of(position):
                    hit.add(position)
                    self._sample(position, gram, holder)

    def _sample(self, position: int, gram: tuple[str, ...], holder: int) -> None:
        """Keep (position, gram) with its first holder while it is among the
        ``max_samples`` smallest matches. A match left out is larger than every
        kept one from then on, so it never returns with a later holder."""
        full = len(self.samples) == self.max_samples
        if full and (not self.samples or position > self.worst[0]):
            return
        sample = (position, " ".join(gram))
        if sample in self.samples or (full and sample > self.worst):
            return
        if full:
            del self.samples[self.worst]
        self.samples[sample] = holder
        if len(self.samples) == self.max_samples:
            self.worst = max(self.samples)

    def _grams_of(self, position: int) -> set[tuple[str, ...]]:
        grams = self.item_grams.get(position)
        if grams is None:
            words = self.records[position].instruction.lower().split()
            grams = self.item_grams[position] = set(_windows(words, self.n))
        return grams

    def report(self, name: str, synth_records: Sequence[InstructionRecord]) -> LeakageReport:
        return LeakageReport(
            benchmark=name,
            n=self.n,
            matched_benchmark_items=sum(1 for count in self.partner_counts if count),
            matched_pairs=sum(self.partner_counts),
            benchmark_size=len(self.records),
            samples=[
                {"gram": gram, "synth_id": synth_records[holder].id, "benchmark_id": self.records[position].id}
                for (position, gram), holder in sorted(self.samples.items())
            ],
        )


def count_matches_many(
    synth_records: Sequence[InstructionRecord],
    benchmarks: Sequence[tuple[str, Sequence[InstructionRecord]]],
    n: int,
    max_samples: int = 10,
) -> list[LeakageReport]:
    """One report per ``(name, records)`` benchmark, in order, for one n.

    Indexes every benchmark, then streams the synthesized records once, in
    order, each split once as in ``extract_ngrams`` and probed at its anchors
    (see the module docstring). Samples, in benchmark and sorted gram order,
    name the first synthesized record holding each matched gram.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    digest = _digest
    width = min(n, 3)
    stride = n - width + 1
    anchor_keys: set[int] = set()
    indexes = [_Index(records, n, max_samples, digest, anchor_keys) for _, records in benchmarks]

    for position, record in enumerate(synth_records):
        words = record.instruction.lower().split()
        if anchor_keys.isdisjoint(map(digest, _anchors(words, width, stride))):
            continue
        # Only records with a matching anchor get here; they hash their anchors again.
        anchors = map(digest, _anchors(words, width, stride))
        hits: list[set[int]] = [set() for _ in indexes]
        for anchor in compress(range(0, len(words), stride), map(anchor_keys.__contains__, anchors)):
            # The windows holding this anchor, each hashed here and nowhere else.
            starts = range(max(anchor - stride + 1, 0), min(anchor, len(words) - n) + 1)
            grams = [tuple(words[start : start + n]) for start in starts]
            keys = list(map(digest, grams))
            for index, hit in zip(indexes, hits):
                index.probe(grams, keys, position, hit)
        for index, hit in zip(indexes, hits):
            for held in hit:
                index.partner_counts[held] += 1

    return [index.report(name, synth_records) for (name, _), index in zip(benchmarks, indexes)]


def count_matches(
    synth_records: Sequence[InstructionRecord],
    benchmark_records: Sequence[InstructionRecord],
    n: int,
    benchmark_name: str = "benchmark",
    max_samples: int = 10,
) -> LeakageReport:
    """Count benchmark items and (synth, benchmark) pairs sharing any n-gram.

    The one-benchmark case of ``count_matches_many``.
    """
    return count_matches_many(synth_records, [(benchmark_name, benchmark_records)], n, max_samples)[0]
