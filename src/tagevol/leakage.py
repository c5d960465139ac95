"""Benchmark contamination detection via word-level n-gram overlap.

Texts are lowercased and split on whitespace; a benchmark item counts as
matched when it shares at least one n-gram with any synthesized instruction.
Both counting modes are reported: matched benchmark items, and matched
(synth, benchmark) pairs.

For one n, the items of every benchmark share one index and the synthesized
side is streamed once, so memory grows with the sum of the benchmarks' grams,
not with the synthesized side. The index is keyed by the hash of each n-word
tuple and the anchor set by the hash of each anchor tuple, so neither keeps a
string alive; every index hit is confirmed against the benchmark item's own
n-word tuples, so a hash collision never counts as a match, and only the
``max_samples`` smallest matches per benchmark are kept for the samples. Each
n-word window holds exactly one anchor, the ``min(n, 3)``-word tuple at a
multiple of ``n - min(n, 3) + 1``; only windows around an anchor found in a
benchmark are hashed and looked up, each once, whatever the number of benchmarks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import compress
from typing import Sequence

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


def count_matches_many(
    synth_records: Sequence[InstructionRecord],
    benchmarks: Sequence[tuple[str, Sequence[InstructionRecord]]],
    n: int,
    max_samples: int = 10,
) -> list[LeakageReport]:
    """One report per ``(name, records)`` benchmark, in order, for one n.

    Indexes every benchmark's items together, then streams the synthesized
    records once, in order, each split once as in ``extract_ngrams`` and probed
    at its anchors (see the module docstring). Samples, in benchmark and sorted
    gram order, name the first synthesized record holding each matched gram.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    digest = _digest
    width = min(n, 3)
    stride = n - width + 1
    # Items are numbered benchmark by benchmark, so each benchmark's items sort
    # in its own order; owners[item] is the benchmark holding the item.
    items = [record for _, records in benchmarks for record in records]
    owners = [owner for owner, (_, records) in enumerate(benchmarks) for _ in records]
    # digest -> the one item holding it, or a list of items when items share
    # it (a list, so a gram common to k items costs O(k)).
    holders: dict[int, int | list[int]] = {}
    anchor_keys: set[int] = set()
    for item, record in enumerate(items):
        words = record.instruction.lower().split()
        if len(words) < n:
            continue
        grams = dict.fromkeys(map(digest, _windows(words, n)), item)
        for key in grams.keys() & holders.keys():
            held = holders[key]
            if isinstance(held, list):
                held.append(item)
            else:
                held = [held, item]
            grams[key] = held
        holders.update(grams)
        anchor_keys.update(map(digest, _anchors(words, width)))

    item_grams: dict[int, set[tuple[str, ...]]] = {}
    partner_counts = [0] * len(items)
    # Per benchmark, the smallest (item, gram) matches so far, each with its
    # first synthesized holder, and the largest of them once there are enough.
    samples: list[dict[tuple[int, str], int]] = [{} for _ in benchmarks]
    worst: list[tuple[int, str] | None] = [None] * len(benchmarks)

    def sample(item: int, gram: tuple[str, ...], holder: int) -> None:
        """Keep (item, gram) with its first holder while among its benchmark's ``max_samples`` smallest
        matches. A match left out is larger than every kept one from then on, so never returns."""
        owner = owners[item]
        kept, largest = samples[owner], worst[owner]
        full = len(kept) >= max_samples  # always, for max_samples <= 0
        if full and (not kept or item > largest[0]):
            return
        match = (item, " ".join(gram))
        if match in kept or (full and match > largest):
            return
        if full:
            del kept[largest]
        kept[match] = holder
        if len(kept) == max_samples:
            worst[owner] = max(kept)

    for position, record in enumerate(synth_records):
        words = record.instruction.lower().split()
        if anchor_keys.isdisjoint(map(digest, _anchors(words, width, stride))):
            continue
        anchors = map(digest, _anchors(words, width, stride))  # hashed again, by a record that matched
        hit: set[int] = set()
        for anchor in compress(range(0, len(words), stride), map(anchor_keys.__contains__, anchors)):
            # The windows holding this anchor, each hashed and looked up here and nowhere else.
            starts = range(max(anchor - stride + 1, 0), min(anchor, len(words) - n) + 1)
            grams = [tuple(words[start : start + n]) for start in starts]
            for gram, held in zip(grams, map(holders.get, map(digest, grams))):
                if held is None:
                    continue
                for item in held if isinstance(held, list) else (held,):
                    confirm = item_grams.get(item)
                    if confirm is None:
                        confirm = item_grams[item] = set(_windows(items[item].instruction.lower().split(), n))
                    if gram in confirm:
                        hit.add(item)
                        sample(item, gram, position)
        for item in hit:
            partner_counts[item] += 1

    reports, end = [], 0
    for (name, records), kept in zip(benchmarks, samples):
        counts, end = partner_counts[end : end + len(records)], end + len(records)
        found = [
            {"gram": gram, "synth_id": synth_records[holder].id, "benchmark_id": items[item].id}
            for (item, gram), holder in sorted(kept.items())
        ]
        reports.append(LeakageReport(name, n, sum(map(bool, counts)), sum(counts), len(records), found))
    return reports


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
