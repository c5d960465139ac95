from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_records, leakage_oracle, leakage_report_oracle, random_texts
from tagevol import leakage
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


# Upper- and lower-case spellings of a few words, so grams repeat across
# benchmark items and case folding is exercised.
_SMALL_VOCAB = ("a", "b", "c", "A", "d", "B")
_small_corpus = st.lists(
    st.lists(st.sampled_from(_SMALL_VOCAB), min_size=1, max_size=10).map(" ".join),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    synth_texts=_small_corpus,
    bench_texts=_small_corpus,
    n=st.integers(min_value=1, max_value=4),
    max_samples=st.sampled_from([0, 1, 3, 50]),
)
def test_report_equals_all_pairs_oracle_samples_included(synth_texts, bench_texts, n, max_samples):
    synth = as_records(synth_texts)
    bench = as_records(bench_texts, prefix="b")
    report = count_matches(synth, bench, n, max_samples=max_samples).to_json()
    expected = leakage_report_oracle(synth, bench, n, max_samples)
    assert report == {"benchmark": "benchmark", "n": n, "benchmark_size": len(bench), **expected}


# Words whose lowercase forms differ from a naive fold (final sigma, dotted
# capital I, sharp s) and separators that str.split() treats as whitespace.
# The probe splits synthetic text itself, so both sides must still agree.
_FOLD_VOCAB = ("Σ", "ΑΣ", "İ", "ß", "SS", "ss", "a", "A", "bC", "Bc")
_SEPARATORS = (" ", "\t", "\n", "\u3000", "\x1c", "  ")
_folding_corpus = st.lists(
    st.lists(st.tuples(st.sampled_from(_FOLD_VOCAB), st.sampled_from(_SEPARATORS)), min_size=1, max_size=10).map(
        lambda pairs: "".join(word + sep for word, sep in pairs)
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    synth_texts=_folding_corpus,
    bench_texts=_folding_corpus,
    n=st.integers(min_value=1, max_value=5),
    max_samples=st.sampled_from([0, 1, 3, 50]),
)
def test_report_equals_oracle_across_separators_and_case_folding(synth_texts, bench_texts, n, max_samples):
    synth = as_records(synth_texts)
    bench = as_records(bench_texts, prefix="b")
    report = count_matches(synth, bench, n, max_samples=max_samples).to_json()
    expected = leakage_report_oracle(synth, bench, n, max_samples)
    assert report == {"benchmark": "benchmark", "n": n, "benchmark_size": len(bench), **expected}


# A few words, so anchor tuples recur and most anchor hits hold no gram.
_LONG_VOCAB = ("p", "q", "r", "P")


@st.composite
def _planted_long_corpus(draw):
    """n in 6..16; synthetic records of n-1..3n words, some holding a copy of
    a benchmark gram at an arbitrary offset, at offset 0 or as the last window."""
    n = draw(st.integers(min_value=6, max_value=16))
    word = st.sampled_from(_LONG_VOCAB)
    bench = draw(st.lists(st.lists(word, min_size=n - 1, max_size=3 * n), min_size=1, max_size=4))
    synth = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        length = draw(st.integers(min_value=n - 1, max_value=3 * n))
        words = draw(st.lists(word, min_size=length, max_size=length))
        source = draw(st.sampled_from(bench))
        if length >= n and len(source) >= n and draw(st.booleans()):
            start = draw(st.integers(min_value=0, max_value=len(source) - n))
            offset = draw(st.sampled_from([0, length - n]) | st.integers(min_value=0, max_value=length - n))
            words[offset : offset + n] = source[start : start + n]
        synth.append(" ".join(words))
    return n, synth, [" ".join(words) for words in bench]


@settings(max_examples=200, deadline=None)
@given(corpus=_planted_long_corpus(), max_samples=st.sampled_from([0, 1, 3, 50]))
def test_report_equals_oracle_for_long_grams_planted_anywhere(corpus, max_samples):
    n, synth_texts, bench_texts = corpus
    synth = as_records(synth_texts)
    bench = as_records(bench_texts, prefix="b")
    report = count_matches(synth, bench, n, max_samples=max_samples).to_json()
    expected = leakage_report_oracle(synth, bench, n, max_samples)
    assert report == {"benchmark": "benchmark", "n": n, "benchmark_size": len(bench), **expected}


def _placements(n: int):
    """(offset, tail) for a gram starting at each offset 0 .. 2 * stride, with
    filler after it or ending the record, where stride = n - min(n, 2) + 1."""
    stride = n - min(n, 2) + 1
    return [(offset, tail) for offset in range(2 * stride + 1) for tail in (0, 3)]


@pytest.mark.parametrize(("n", "offset", "tail"), [(n, *p) for n in (1, 8, 13) for p in _placements(n)])
def test_gram_is_found_at_every_anchor_phase(n, offset, tail):
    gram = [f"g{i}" for i in range(n)]
    # The decoy holds the gram with its last word changed: for n > 1 its
    # anchors hit the benchmark, but it holds no gram.
    decoy = " ".join(gram[:-1] + ["other"])
    planted = " ".join([f"f{i}" for i in range(offset)] + gram + [f"t{i}" for i in range(tail)])
    bench = as_records(["lead " + " ".join(gram) + " end"], prefix="b")
    report = count_matches(as_records([decoy, planted]), bench, n)
    assert (report.matched_benchmark_items, report.matched_pairs) == (1, 1)
    assert report.samples == [{"gram": " ".join(gram), "synth_id": "t:1", "benchmark_id": "b:0"}]


@pytest.mark.parametrize("synth_size", [0, 1, 40])
def test_synthetic_side_does_not_extract_ngrams(monkeypatch, synth_size):
    calls = []

    def counting(text, n):
        calls.append(text)
        return extract_ngrams(text, n)

    monkeypatch.setattr(leakage, "extract_ngrams", counting)
    rng = random.Random(3)
    synth = as_records(random_texts(rng, synth_size))
    bench = as_records(random_texts(rng, 7), prefix="b")
    count_matches(synth, bench, 3)
    assert len(calls) == len(bench)


def test_unigram_probe_matches_single_words():
    synth = as_records(["zz Top yy", "nothing here"])
    bench = as_records(["top"], prefix="b")
    report = count_matches(synth, bench, 1)
    assert (report.matched_benchmark_items, report.matched_pairs) == (1, 1)
    assert report.samples == [{"gram": "top", "synth_id": "t:0", "benchmark_id": "b:0"}]


def test_bigram_probe_head_is_the_whole_gram():
    synth = as_records(["x a b y", "a x b", "b a"])
    bench = as_records(["a b"], prefix="b")
    report = count_matches(synth, bench, 2)
    assert (report.matched_benchmark_items, report.matched_pairs) == (1, 1)
    assert report.samples == [{"gram": "a b", "synth_id": "t:0", "benchmark_id": "b:0"}]


def test_shared_head_without_the_gram_is_no_match():
    synth = as_records(["one two three four five six"])
    bench = as_records(["one two three four five seven"], prefix="b")
    report = count_matches(synth, bench, 6)
    assert (report.matched_benchmark_items, report.matched_pairs, report.samples) == (0, 0, [])


def test_synthetic_record_shorter_than_n_matches_nothing():
    synth = as_records(["one two three"])
    bench = as_records(["one two three four"], prefix="b")
    report = count_matches(synth, bench, 4)
    assert (report.matched_benchmark_items, report.matched_pairs, report.samples) == (0, 0, [])


def test_gram_held_by_two_records_names_the_first():
    synth = as_records(["zero p q r s", "p q r s tail", "lead p q r s"])
    bench = as_records(["p q r s"], prefix="b")
    report = count_matches(synth, bench, 4)
    assert (report.matched_benchmark_items, report.matched_pairs) == (1, 3)
    assert report.samples == [{"gram": "p q r s", "synth_id": "t:0", "benchmark_id": "b:0"}]


def _peak_traced_bytes(synth, bench, n: int) -> int:
    tracemalloc.start()
    try:
        count_matches(synth, bench, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_synthetic_side():
    rng = random.Random(8)
    synth = as_records(random_texts(rng, 4000, vocab_size=200, min_len=20, max_len=40))
    # 20 unrelated benchmark items plus 3 copied from the synthetic side, so
    # both runs below find matches.
    bench_texts = random_texts(rng, 20, vocab_size=200, min_len=20, max_len=40)
    bench = as_records(bench_texts + [r.instruction for r in synth[:3]], prefix="b")
    small = _peak_traced_bytes(synth[:400], bench, 8)
    large = _peak_traced_bytes(synth, bench, 8)
    assert large < 2 * small, (small, large)


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
