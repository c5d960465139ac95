from __future__ import annotations

import random

import pytest

from helpers import ReplySequenceBackend, make_records, tagging_reply
from tagevol.errors import PreconditionError, StageFailed
from tagevol.gateway import Gateway, MockBackend, ResponseCache, prompt_digest, user_message
from tagevol.metrics import difficulty, diversity, evaluate_dataset
from tagevol.tagging import build_tagging_prompt


def test_difficulty_is_the_mean_set_size():
    assert difficulty([{"a"}, {"a", "b"}, {"a", "b", "c"}]) == 2.0


def test_difficulty_of_empty_sets_is_zero():
    assert difficulty([set()]) == 0.0


def test_difficulty_requires_input():
    with pytest.raises(PreconditionError):
        difficulty([])


def test_diversity_counts_the_union():
    assert diversity([{"a"}, {"a", "b"}, {"a", "b", "c"}]) == 3


def test_diversity_merges_normalization_variants():
    assert diversity([{"Loops"}, {"loops "}]) == 1


def test_diversity_requires_input():
    with pytest.raises(PreconditionError):
        diversity([])


def test_metrics_match_direct_oracles_on_random_sets():
    rng = random.Random(2024)
    vocab = [f"tag {i}" for i in range(40)]
    for _ in range(25):
        sets = [
            {rng.choice(vocab) for _ in range(rng.randint(0, 8))}
            for _ in range(rng.randint(1, 12))
        ]
        assert difficulty(sets) == sum(len(s) for s in sets) / len(sets)
        union = set()
        for s in sets:
            union |= s
        assert diversity(sets) == len(union)


def test_metrics_are_permutation_invariant():
    sets = [{"a"}, {"b", "c"}, {"a", "c", "d"}]
    shuffled = [sets[2], sets[0], sets[1]]
    assert difficulty(sets) == difficulty(shuffled)
    assert diversity(sets) == diversity(shuffled)


def _tagging_gateway(records, tags_per_record):
    backend = MockBackend()
    for record, tags in zip(records, tags_per_record):
        prompt = build_tagging_prompt(record)
        backend.register(prompt_digest([user_message(prompt)]), tagging_reply({"Skill": tags}))
    return Gateway(backend, sleep=lambda _: None)


def test_evaluate_dataset_reports_over_the_sample():
    records = make_records(6)
    gateway = _tagging_gateway(records, [[f"tag {i} a", f"tag {i} b"] for i in range(6)])
    report = evaluate_dataset(records, gateway, sample_size=4, rng=random.Random(3), model="judge")
    assert report.sample_size == 4
    assert report.difficulty == 2.0
    assert report.diversity == 8
    assert report.model == "judge"
    assert report.dropped == []
    assert report.to_json() == {
        "difficulty": 2.0,
        "diversity": 8,
        "sample_size": 4,
        "dropped": 0,
        "model": "judge",
    }


def test_fifty_samples_with_two_distinct_tags_each():
    records = make_records(50)
    gateway = _tagging_gateway(records, [[f"tag {i} x", f"tag {i} y"] for i in range(50)])
    report = evaluate_dataset(records, gateway, sample_size=50, rng=random.Random(1), model="judge")
    assert report.difficulty == 2.0
    assert report.diversity == 100


def test_sample_size_must_fit_the_dataset():
    records = make_records(10)
    gateway = Gateway(MockBackend(), sleep=lambda _: None)
    with pytest.raises(PreconditionError, match="^sample_size 50 exceeds dataset size 10$"):
        evaluate_dataset(records, gateway, sample_size=50, rng=random.Random(0), model="judge")
    with pytest.raises(PreconditionError, match="^sample_size must be >= 1$"):
        evaluate_dataset(records, gateway, sample_size=0, rng=random.Random(0), model="judge")


def test_failed_samples_are_dropped_and_recorded():
    records = make_records(4)
    backend = MockBackend()
    for i, record in enumerate(records):
        prompt = build_tagging_prompt(record)
        reply = tagging_reply({"Skill": [f"tag {i}"]}) if i != 1 else "no markers"
        backend.register(prompt_digest([user_message(prompt)]), reply)
    gateway = Gateway(backend, sleep=lambda _: None)
    report = evaluate_dataset(records, gateway, sample_size=4, rng=random.Random(0), retries=0, model="judge")
    assert report.sample_size == 3
    assert len(report.dropped) == 1
    assert report.difficulty == 1.0


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
def test_parse_retry_gets_a_fresh_reply(cached, tmp_path):
    records = make_records(1)
    replies = ["garbage", tagging_reply({"Skill": ["loops", "recursion"]})]
    backend = ReplySequenceBackend(replies)
    cache = ResponseCache(tmp_path / "cache") if cached else None
    gateway = Gateway(backend, max_in_flight=1, cache=cache, sleep=lambda _: None)
    report = evaluate_dataset(records, gateway, sample_size=1, retries=2, model="judge")
    assert backend.sends == 2
    assert (report.difficulty, report.diversity) == (2.0, 2)
    assert report.dropped == []


def test_all_samples_failing_raises():
    records = make_records(3)
    gateway = _tagging_gateway(records, [[], [], []])
    backend = MockBackend()
    for record in records:
        prompt = build_tagging_prompt(record)
        backend.register(prompt_digest([user_message(prompt)]), "still no markers")
    gateway = Gateway(backend, sleep=lambda _: None)
    with pytest.raises(StageFailed):
        evaluate_dataset(records, gateway, sample_size=3, rng=random.Random(0), retries=0, model="judge")


def test_sampling_is_deterministic_under_a_seed():
    records = make_records(8)
    gateway = _tagging_gateway(records, [[f"tag {i}"] for i in range(8)])
    a = evaluate_dataset(records, gateway, sample_size=5, rng=random.Random(11), model="judge")
    b = evaluate_dataset(records, gateway, sample_size=5, rng=random.Random(11), model="judge")
    assert a == b
