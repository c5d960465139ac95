from __future__ import annotations

import random

import pytest

from helpers import as_records, leakage_oracle, random_texts
from tagevol.errors import PreconditionError
from tagevol.leakage import count_matches, extract_ngrams


def test_bigram_extraction():
    assert extract_ngrams("a b c", 2) == {"a b", "b c"}


def test_short_text_yields_empty_set():
    assert extract_ngrams("a b c", 8) == set()


def test_extraction_lowercases_and_splits_on_whitespace():
    assert extract_ngrams("A  b", 1) == {"a", "b"}


def test_n_must_be_positive():
    with pytest.raises(ValueError):
        extract_ngrams("a b", 0)


def test_count_matches_rejects_n_below_one_as_a_precondition():
    with pytest.raises(PreconditionError):
        count_matches([], [], 0)


def test_eight_gram_overlap_detected_and_thirteen_gram_not():
    synth = as_records(["a b c d e f g h"])
    bench = as_records(["a b c d e f g h i"], prefix="b")
    assert count_matches(synth, bench, 8).matched_benchmark_items == 1
    assert count_matches(synth, bench, 13).matched_benchmark_items == 0


def test_pair_counting_counts_each_synth_partner():
    synth = as_records(["x y z", "x y w", "unrelated text entirely"])
    bench = as_records(["x y q"], prefix="b")
    report = count_matches(synth, bench, 2)
    assert report.matched_benchmark_items == 1
    assert report.matched_pairs == 2


def test_matches_equal_quadratic_oracle_on_random_corpora():
    rng = random.Random(1234)
    for trial in range(8):
        synth_texts = random_texts(rng, 25)
        bench_texts = random_texts(rng, 12)
        for n in (2, 3, 8, 13):
            items, pairs = leakage_oracle(synth_texts, bench_texts, n)
            report = count_matches(as_records(synth_texts), as_records(bench_texts, prefix="b"), n)
            assert report.matched_benchmark_items == items
            assert report.matched_pairs == pairs


def test_matched_counts_are_nonincreasing_in_n():
    rng = random.Random(99)
    synth = as_records(random_texts(rng, 30))
    bench = as_records(random_texts(rng, 15), prefix="b")
    items = [count_matches(synth, bench, n).matched_benchmark_items for n in (1, 2, 3, 5, 8, 13)]
    assert items == sorted(items, reverse=True)


def test_matches_grow_with_the_synth_corpus():
    rng = random.Random(5)
    texts = random_texts(rng, 40)
    bench = as_records(random_texts(rng, 20), prefix="b")
    small = count_matches(as_records(texts[:10]), bench, 2).matched_benchmark_items
    large = count_matches(as_records(texts), bench, 2).matched_benchmark_items
    assert small <= large


def test_report_samples_name_both_sides():
    synth = as_records(["shared gram here plus more"])
    bench = as_records(["shared gram here and other words"], prefix="b")
    report = count_matches(synth, bench, 3)
    assert report.samples
    sample = report.samples[0]
    assert sample["synth_id"] == "t:0"
    assert sample["benchmark_id"] == "b:0"
    assert sample["gram"] in extract_ngrams("shared gram here plus more", 3)


def test_report_json_shape():
    report = count_matches(as_records(["a b"]), as_records(["a b"], prefix="b"), 2, benchmark_name="demo")
    payload = report.to_json()
    assert payload["benchmark"] == "demo"
    assert payload["n"] == 2
    assert set(payload) == {
        "benchmark",
        "n",
        "matched_benchmark_items",
        "matched_pairs",
        "benchmark_size",
        "samples",
    }
