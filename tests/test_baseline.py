"""Reference distance, reference query, and the partition baseline."""

from itertools import product

import numpy as np
import pytest

from editdict.baseline import (
    build_partition_index,
    levenshtein,
    oracle_query,
    oracle_query_bounded,
    partition_query,
    partition_stats,
    split_pieces,
)
from editdict.errors import ValidationError
from _fastoracle import FastOracle, batch_distances
from conftest import random_words


def test_levenshtein_basics():
    assert levenshtein(b"abc", b"abc") == 0
    assert levenshtein(b"", b"abc") == 3
    assert levenshtein(b"abc", b"") == 3
    assert levenshtein(b"kitten", b"sitting") == 3
    assert levenshtein(b"", b"") == 0


def test_levenshtein_metric_properties(rng):
    words = random_words(rng, 60, 0 or 1, 10, alphabet_size=4)
    for _ in range(150):
        a, b, c = (words[rng.randrange(len(words))] for _ in range(3))
        ab, ba = levenshtein(a, b), levenshtein(b, a)
        assert ab == ba
        assert ab <= levenshtein(a, c) + levenshtein(c, b)
        assert (ab == 0) == (a == b)


def test_oracle_query_examples():
    assert oracle_query([b"abc"], b"abd", 1) == {b"abc"}
    assert oracle_query([b"abc"], b"abd", 0) == set()
    assert oracle_query([b"abc", b"zzz"], b"abc", 0) == {b"abc"}


def test_oracle_query_monotone(rng):
    words = random_words(rng, 80, 1, 9, alphabet_size=3)
    for _ in range(30):
        x = bytes(rng.randint(97, 99) for _ in range(rng.randint(1, 9)))
        prev = set()
        for k in (0, 1, 2, 3):
            cur = oracle_query(words, x, k)
            assert prev <= cur
            prev = cur


def test_oracle_query_bounded_equals_plain(rng):
    words = random_words(rng, 120, 1, 12, alphabet_size=4)
    for _ in range(60):
        x = bytes(rng.randint(97, 100) for _ in range(rng.randint(1, 12)))
        for k in (0, 1, 2):
            assert oracle_query_bounded(words, x, k) == oracle_query(words, x, k)


def test_fast_oracle_matches_naive(rng):
    # Anchors the vectorized helper used by the heavy acceptance runs.
    words = random_words(rng, 150, 1, 12, alphabet_size=5)
    fast = FastOracle(words)
    for _ in range(80):
        x = bytes(rng.randint(97, 101) for _ in range(rng.randint(1, 12)))
        by_k = fast.query_all_k(x, (0, 1, 2))
        for k in (0, 1, 2):
            assert by_k[k] == oracle_query(words, x, k)
            assert fast.query(x, k) == by_k[k]


def test_batch_distances_direct(rng):
    words = [bytes(rng.randint(97, 99) for _ in range(6)) for _ in range(40)]
    arr = np.frombuffer(b"".join(words), dtype=np.uint8).reshape(len(words), 6)
    for _ in range(10):
        x = bytes(rng.randint(97, 99) for _ in range(rng.randint(1, 9)))
        dist = batch_distances(x, arr)
        for i, w in enumerate(words):
            assert dist[i] == levenshtein(w, x)


def test_split_pieces():
    assert split_pieces(b"ALABAMA") == (b"ALA", b"BAMA")
    assert split_pieces(b"abcd") == (b"ab", b"cd")
    assert split_pieces(b"x") == (b"", b"x")


def test_partition_prefix_route():
    pidx = build_partition_index([b"abcd"])
    assert b"abcd" in partition_query(pidx, b"abxd")


def test_partition_single_char_word_in_one_list():
    pidx = build_partition_index([b"x"])
    assert partition_query(pidx, b"x") == [b"x"]
    assert partition_query(pidx, b"y") == []


def test_partition_binary_worst_case():
    words = [bytes(p) for p in product(b"01", repeat=8)]
    pidx = build_partition_index(words)
    for lists in (pidx.prefixes, pidx.suffixes):
        assert len(lists) == 16
        assert all(len(v) == 16 for v in lists.values())
    avg, worst = partition_stats(pidx, words)
    assert avg == 32.0
    assert worst == 32


def test_partition_single_word_stats():
    pidx = build_partition_index([b"word"])
    assert partition_stats(pidx, [b"word"]) == (2.0, 2)


def test_partition_stats_empty_queries():
    pidx = build_partition_index([b"word"])
    assert partition_stats(pidx, []) == (0.0, 0)


def test_partition_complete_for_hamming_one(rng):
    # Equal length and at most one substituted position: one piece survives.
    words = random_words(rng, 200, 2, 10, alphabet_size=4)
    pidx = build_partition_index(words)
    for _ in range(200):
        w = words[rng.randrange(len(words))]
        x = bytearray(w)
        if rng.random() < 0.8:
            x[rng.randrange(len(x))] = rng.randint(97, 100)
        assert w in partition_query(pidx, bytes(x))


def test_baseline_queries_check_their_pattern():
    words = [b"abc", b"abd"]
    pidx = build_partition_index(words)
    for pattern in (None, 5, "ab€"):
        with pytest.raises(ValidationError, match="pattern"):
            oracle_query(words, pattern, 1)
        with pytest.raises(ValidationError, match="pattern"):
            oracle_query_bounded(words, pattern, 1)
        with pytest.raises(ValidationError, match="pattern"):
            partition_query(pidx, pattern)
    # A str is its latin-1 bytes, as for Index.query.
    assert oracle_query(words, "abz", 1) == {b"abc", b"abd"}
    assert partition_query(pidx, "abz") == [b"abc", b"abd"]


def test_baseline_takes_str_words_as_their_latin1_bytes():
    # Words are taken as Index.query takes them: a str is its latin-1 bytes.
    texts = ["abc", "abd", "café", "cafés", "zz"]
    raw = [t.encode("latin-1") for t in texts]
    for k in (0, 1, 2, 3):
        for pattern in ("abd", "cafe", b"caf\xe9"):
            want = oracle_query(raw, pattern, k)
            assert oracle_query(texts, pattern, k) == want
            assert oracle_query_bounded(texts, pattern, k) == want
    assert oracle_query(["abc"], "abd", 1) == {b"abc"}
    assert oracle_query_bounded(["abc"], b"abd", 1) == {b"abc"}
    from_text, from_raw = build_partition_index(texts), build_partition_index(raw)
    assert from_text.prefixes == from_raw.prefixes
    assert from_text.suffixes == from_raw.suffixes
    assert partition_query(build_partition_index(["abcd"]), b"abxd") == [b"abcd"]


def test_baseline_rejects_a_word_that_is_not_text():
    # An int is not a word: bytes(5) would be five zero bytes.
    for words in ([5], [b"abc", 5], [b"abc", None]):
        for k in (1, 3):
            with pytest.raises(ValidationError, match="word"):
                oracle_query(words, b"abd", k)
            with pytest.raises(ValidationError, match="word"):
                oracle_query_bounded(words, b"abd", k)
        with pytest.raises(ValidationError, match="word"):
            build_partition_index(words)
