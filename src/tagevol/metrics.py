"""Difficulty and diversity of a dataset, measured by re-tagging a sample of
its instructions: difficulty is the mean tag count per sample, diversity the
size of the union tag set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError, StageFailed
from .gateway import DEFAULT_RETRIES, Gateway
from .records import InstructionRecord
from .tagging import normalized_tags, tag_record

DEFAULT_SAMPLE_SIZE = 50


def difficulty(tag_sets: Sequence[Iterable]) -> float:
    """Arithmetic mean of tag-set sizes; no sets is a :class:`PreconditionError`."""
    tag_sets = list(tag_sets)
    if not tag_sets:
        raise PreconditionError("no tag sets")
    return sum(len(set(s)) for s in tag_sets) / len(tag_sets)


def diversity(tag_sets: Sequence[Iterable]) -> int:
    """Cardinality of the union tag set after normalization.

    Elements that normalize to nothing are dropped rather than counted; no
    sets is a :class:`PreconditionError`.
    """
    tag_sets = list(tag_sets)
    if not tag_sets:
        raise PreconditionError("no tag sets")
    return len({tag for tags in tag_sets for _, tag in normalized_tags(tags)})


@dataclass(frozen=True)
class MetricsReport:
    """Difficulty/diversity over the successfully tagged sample.

    ``sample_size`` counts surviving samples, so difficulty is the mean tag
    count over them; dropped samples are listed aside.
    """

    difficulty: float
    diversity: int
    sample_size: int
    model: str
    dropped: list[dict]

    def to_json(self) -> dict:
        return {
            "difficulty": self.difficulty,
            "diversity": self.diversity,
            "sample_size": self.sample_size,
            "dropped": len(self.dropped),
            "model": self.model,
        }


def evaluate_dataset(
    records: Sequence[InstructionRecord],
    gateway: Gateway,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    rng: random.Random | None = None,
    retries: int = DEFAULT_RETRIES,
    *,
    model: str,
    **decoding,
) -> MetricsReport:
    """Tag a uniform sample of records and report difficulty and diversity.

    The per-record tag set flattens aspects and collapses duplicates. Samples
    whose tagging keeps failing after ``retries`` extra attempts are dropped
    and recorded; if everything drops, :class:`StageFailed` is raised.
    """
    records = list(records)
    if sample_size < 1:
        raise PreconditionError("sample_size must be >= 1")
    if sample_size > len(records):
        raise PreconditionError(f"sample_size {sample_size} exceeds dataset size {len(records)}")
    rng = rng if rng is not None else random.Random(0)
    sample = rng.sample(records, sample_size)

    outcomes, dropped = gateway.map_in_order(
        lambda record: tag_record(record, gateway, retries, model=model, **decoding),
        sample,
    )
    tag_sets = [
        {tag for tags in outcome[0].values() for _, tag in normalized_tags(tags)}
        for outcome in outcomes
        if outcome is not None
    ]
    if not tag_sets:
        raise StageFailed("all sampled records failed tagging")
    return MetricsReport(
        difficulty=difficulty(tag_sets),
        diversity=diversity(tag_sets),
        sample_size=len(tag_sets),
        model=model,
        dropped=dropped,
    )
