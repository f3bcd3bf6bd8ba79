"""Query engine: oracle equivalence, its keys and candidates, contracts."""

import time
from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from editdict import BuildConfig, build_index, oracle_query, query_engine
from editdict.baseline import oracle_query_bounded
from editdict.errors import UnsupportedQueryError, ValidationError
from editdict.hashing import WILDCARD, poly_hash
from editdict.query_engine import query
from conftest import random_pattern, random_words

VARIANTS = [(compact, sig) for compact in (False, True) for sig in (False, True)]


def build_variants(words, errors=2, rng_seed=11):
    return [
        build_index(words, BuildConfig(errors=errors, alpha=Fraction(7, 10),
                                       use_signatures=sig, compact=compact,
                                       rng_seed=rng_seed))
        for compact, sig in VARIANTS
    ]


def test_two_error_walkthrough():
    for ix in build_variants([b"ALABAMA"]):
        result = ix.query(b"AXABAYA", 2)
        assert result.matches == {b"ALABAMA"}


def test_identity_only_at_k0():
    ix = build_index([b"abc", b"abd"], BuildConfig(errors=0, rng_seed=3))
    r = ix.query(b"abc", 0)
    assert r.matches == {b"abc"}
    assert r.stats.exact_probes == 1
    assert r.stats.lists_probed == 0
    assert ix.query(b"abz", 0).matches == set()


def test_random_dictionaries_match_oracle(rng):
    for trial in range(10):
        alphabet = rng.randint(2, 26)
        words = random_words(rng, rng.randint(1, 120), 1, 12, alphabet_size=alphabet)
        indexes = build_variants(words, rng_seed=trial)
        for _ in range(20):
            pat = random_pattern(rng, words, alphabet_size=alphabet, max_len=12)
            for k in (0, 1, 2):
                if k >= len(pat):
                    continue
                want = oracle_query(words, pat, k)
                for ix in indexes:
                    assert ix.query(pat, k).matches == want


def test_dense_neighborhood_exhaustive():
    # Every string of length <= 4 over {a, b} is a word, so every candidate
    # route of every class must fire; any composed-hash slip shows up here.
    words = [bytes(p) for L in range(1, 5) for p in product(b"ab", repeat=L)]
    indexes = build_variants(words, rng_seed=99)
    patterns = [bytes(p) for L in range(2, 6) for p in product(b"abc", repeat=L)]
    for pat in patterns:
        for k in (1, 2):
            if k >= len(pat):
                continue
            want = oracle_query(words, pat, k)
            for ix in indexes:
                assert ix.query(pat, k).matches == want


def test_monotone_in_k(rng):
    words = random_words(rng, 150, 1, 10, alphabet_size=4)
    ix = build_index(words, BuildConfig(errors=2, rng_seed=5))
    for _ in range(40):
        pat = random_pattern(rng, words, alphabet_size=4, max_len=10)
        if len(pat) < 3:
            continue
        r0 = ix.query(pat, 0).matches
        r1 = ix.query(pat, 1).matches
        r2 = ix.query(pat, 2).matches
        assert r0 <= r1 <= r2


def test_member_pattern_always_reported(rng):
    words = random_words(rng, 100, 3, 10)
    ix = build_index(words, BuildConfig(errors=2, rng_seed=6))
    for w in words[:30]:
        for k in (0, 1, 2):
            assert w in ix.query(w, k).matches


def test_duplicate_edit_scripts_reported_once():
    # abc -> abxc is one insertion but also reachable by many two-op scripts.
    ix = build_index([b"abxc"], BuildConfig(errors=2, rng_seed=8))
    r = ix.query(b"abc", 2)
    assert r.matches == {b"abxc"}
    assert isinstance(r.matches, set)


def test_worst_case_collision_dictionary():
    sigma = 64
    words = [bytes([c, 64]) for c in range(1, sigma + 1)]
    for ix in build_variants(words, errors=1, rng_seed=2):
        r = ix.query(bytes([65, 64]), 1)
        assert r.stats.cap_activations > 0
        assert r.matches == set(words) == oracle_query(words, bytes([65, 64]), 1)


def test_k_above_index_level_rejected():
    ix = build_index([b"abc"], BuildConfig(errors=1, rng_seed=1))
    with pytest.raises(UnsupportedQueryError):
        ix.query(b"abc", 2)


def test_k_must_be_below_pattern_length():
    ix = build_index([b"abc"], BuildConfig(errors=2, rng_seed=1))
    with pytest.raises(ValueError):
        ix.query(b"ab", 2)
    with pytest.raises(ValueError):
        ix.query(b"a", 1)


def test_pattern_with_nul_rejected():
    ix = build_index([b"abc"], BuildConfig(errors=1, rng_seed=1))
    with pytest.raises(ValidationError):
        ix.query(b"a\x00c", 1)


def test_bad_k_rejected():
    ix = build_index([b"abc"], BuildConfig(errors=2, rng_seed=1))
    with pytest.raises(ValueError):
        ix.query(b"abcd", 3)


def test_bad_k_is_a_validation_error():
    ix = build_index([b"abc"], BuildConfig(errors=2, rng_seed=1))
    for pattern, k in [(b"abcd", 3), (b"abcd", -1), (b"ab", 2), (b"a", 1)]:
        with pytest.raises(ValidationError):
            ix.query(pattern, k)


@pytest.mark.parametrize("k, same", [(0.0, 0), (1.0, 1), (True, 1), (Fraction(2), 2)])
def test_k_equal_to_an_int_queries_as_that_int(k, same):
    ix = build_index([b"abc", b"abd", b"xbd", b"abde"], BuildConfig(errors=2, rng_seed=1))
    assert ix.query(b"abd", k) == ix.query(b"abd", same)


def test_str_pattern_accepted():
    ix = build_index([b"abc"], BuildConfig(errors=1, rng_seed=1))
    assert ix.query("abd", 1).matches == {b"abc"}


def test_check_candidate():
    ix = build_index([b"abc", b"defgh"], BuildConfig(errors=1, rng_seed=1))
    assert ix.exact.contains(b"abc")
    assert ix.exact.contains(bytearray(b"defgh"))
    assert not ix.exact.contains(b"abd")
    assert not ix.exact.contains(b"abcdef")  # no table for this length


# -- the engine's own keys and candidates, seen through recording fakes -------

SEED = 0x5EED5  # the fake index's bucket seed; any base in [1, MODULUS - 2] works
SYMBOLS = (1, 2, 3)
PATTERNS = [bytes(p) for m in range(3, 6) for p in product(SYMBOLS, repeat=m)]


def _recorded_query(x, k, scan_result):
    """query() on fake stores and a fake exact dictionary that record calls.

    Every scan returns scan_result and every probe hits, so the recorders
    see each store key and each candidate (with its hash) the engine makes.
    """
    scans = {1: [], 2: []}
    probes = []

    def store(level):
        def list_query(h):
            scans[level].append(h)
            return scan_result
        return SimpleNamespace(list_query=list_query)

    def probe(buf, h):
        probes.append((bytes(buf), h))
        return True

    index = SimpleNamespace(errors=2, bucket_seed=SEED, stores=(store(1), store(2)),
                            exact=SimpleNamespace(probe_for_length=lambda length: probe))
    return query(index, x, k), scans, probes


def _ball(x, k, symbols):
    """Every symbol tuple reachable from x with at most k deletions,
    substitutions by a symbol, or insertions of a symbol."""
    ball = {tuple(x)}
    for _ in range(k):
        for s in list(ball):
            for j in range(len(s)):
                ball.add(s[:j] + s[j + 1 :])
                ball.update(s[:j] + (c,) + s[j + 1 :] for c in symbols)
            for g in range(len(s) + 1):
                ball.update(s[:g] + (c,) + s[g:] for c in symbols)
    return ball


@pytest.mark.parametrize("k", [1, 2])
def test_engine_probes_the_whole_neighbourhood(k):
    # Capped scans hand back the whole alphabet for every blank, so the
    # engine must fill its way to every string within distance k, writing
    # each into its buffer and hashing it correctly.
    for x in PATTERNS:
        r, scans, probes = _recorded_query(x, k, (range(1, 4), True))
        for buf, h in probes:
            assert h == poly_hash(buf, SEED), (x, buf)
        probed = {buf for buf, _ in probes}
        assert {tuple(b) for b in probed} == _ball(x, k, SYMBOLS), x
        assert r.matches == probed
        n_scans = len(scans[1]) + len(scans[2])
        assert r.stats.as_tuple() == (n_scans, len(probes) - 1, len(probes), n_scans)
        # A run may hold one character twice; each candidate is still probed once.
        r_dup, _, probes_dup = _recorded_query(x, k, ([3, 1, 3, 2], True))
        assert sorted(probes_dup) == sorted(probes)
        assert r_dup.stats == r.stats


def _has_run(x) -> bool:
    """True if x has two equal adjacent characters."""
    return any(a == b for a, b in zip(x, x[1:]))


RUNLESS = [bytes(p) for m in range(3, 8) for p in product(SYMBOLS, repeat=m) if not _has_run(p)]


@pytest.mark.parametrize("k", [1, 2])
def test_engine_scans_every_pattern_key(k):
    # Empty scans leave only the store keys and the deletion candidates.
    # Each key is scanned once, except at k=2 on a pattern with a run:
    # there two different edit pairs can make one one-wildcard key as long
    # as x (delins at gap 2 of y_2 and sub at 3 of "baa" are both "ba*"),
    # which the engine does not look for.  One-wildcard keys shorter or
    # longer than x, and every two-wildcard key, are scanned once on every
    # pattern: the run rule drops the subins key "*a*" of "aa" made by
    # sub 2 + ins at gap 0, which sub 1 + ins at gap 2 makes too.
    for x in PATTERNS + [x for x in RUNLESS if len(x) > 5]:
        r, scans, probes = _recorded_query(x, k, ((), False))
        keys = {}  # (wildcards, length) -> key hashes
        for p in _ball(x, k, (WILDCARD,)):
            if WILDCARD in p:
                keys.setdefault((p.count(WILDCARD), len(p)), set()).add(poly_hash(p, SEED))
        for level in (1, 2):
            assert set(scans[level]) == set().union(
                *(hashes for (n, _), hashes in keys.items() if n == level)), x
            counts = Counter(scans[level])
            for (n, length), hashes in keys.items():
                if n == level and (k == 1 or not _has_run(x) or n == 2 or length != len(x)):
                    assert all(counts[h] == 1 for h in hashes), (x, n, length)
        probed = [b for b, _ in probes]
        assert {tuple(b) for b in probed} == _ball(x, k, ())  # deletions and x
        if k == 1:
            assert len(probed) == len(set(probed)), x
        assert r.stats.as_tuple() == (len(scans[1]) + len(scans[2]), len(probes) - 1,
                                      len(probes), 0)


def test_fills_do_not_rescan_one_edit_keys():
    # A two-wildcard key whose left blank is filled with x's own character
    # is one of x's sub or ins keys, which the k=1 classes scan; on a
    # pattern without a run no other route makes those keys.
    for x in RUNLESS:
        if len(x) < 7:
            _, scans, _ = _recorded_query(x, 2, (range(1, 4), True))
            counts = Counter(scans[1])
            for p in _ball(x, 1, (WILDCARD,)):
                if WILDCARD in p and len(p) >= len(x):
                    assert counts[poly_hash(p, SEED)] == 1, (x, p)


# Runs of equal characters are where the engine skips structurally
# repeated rows and positions.
RUN_PATTERNS = [b"aaaa", b"aabb", b"abba", b"baaab", b"aabbaa", b"abbbba", b"aaabbb",
                b"aabaab", b"abbabba", b"aaaaaaaa", b"bbbbabbb", b"abbaabba"]


def test_runs_match_oracle():
    # Every string within distance 2 of each pattern is a word, so every
    # route of every class has a match to find.
    words = sorted({bytes(s) for x in RUN_PATTERNS for s in _ball(x, 2, b"ab")})
    indexes = build_variants(words, rng_seed=17)
    for x in RUN_PATTERNS:
        for k in (1, 2):
            want = oracle_query(words, x, k)
            for ix in indexes:
                assert ix.query(x, k).matches == want, (x, k)


def test_stats_counters_consistent(rng):
    words = random_words(rng, 80, 3, 9, alphabet_size=4)
    ix = build_index(words, BuildConfig(errors=2, rng_seed=4))
    pat = words[0]
    r = ix.query(pat, 2)
    st = r.stats
    assert st.exact_probes >= st.candidates_generated
    assert st.exact_probes == st.candidates_generated + 1  # identity probe
    assert st.lists_probed > 0
    assert st.as_tuple() == (st.lists_probed, st.candidates_generated,
                             st.exact_probes, st.cap_activations)


def test_module_level_query_function():
    ix = build_index([b"abc"], BuildConfig(errors=1, rng_seed=1))
    assert query(ix, b"abd", 1).matches == {b"abc"}


def _spy_hash_contexts(monkeypatch) -> list[int]:
    """The lengths of the words query_engine builds a HashContext of, in order."""
    hashed = []
    real = query_engine.HashContext

    def spy(word, seed):
        hashed.append(len(word))
        return real(word, seed)

    monkeypatch.setattr(query_engine, "HashContext", spy)
    return hashed


def test_long_k2_pattern_without_a_near_length_builds_one_hash_context(rng, monkeypatch):
    # No stored word has length m - 2, m - 1 or m, so no deletion row can
    # probe: the query hashes the pattern once instead of each of its m
    # deletions, O(m) each.  One word of length m + 2 keeps the query from
    # answering before it hashes anything.
    m = 200
    words = random_words(rng, 300, 4, 12) + random_words(rng, 1, m + 2, m + 2)
    ix = build_index(words, BuildConfig(errors=2, rng_seed=5))
    hashed = _spy_hash_contexts(monkeypatch)
    pattern = bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz") for _ in range(m))
    result = ix.query(pattern, 2)
    assert hashed == [m]
    assert result.matches == oracle_query_bounded(words, pattern, 2)


def test_k2_pattern_longer_than_the_limit_raises(rng):
    # k=2 work grows with the square of the pattern length once a stored
    # word's length is near it, so k=2 answers up to MAX_K2_PATTERN bytes
    # and refuses longer patterns; k=1 takes them.
    limit = query_engine.MAX_K2_PATTERN
    word = random_words(rng, 1, limit, limit)[0]
    words = random_words(rng, 100, 4, 12) + [word]
    ix = build_index(words, BuildConfig(errors=2, rng_seed=5))
    at_limit = bytearray(word)
    at_limit[limit // 2] ^= 1  # one substitution away
    at_limit = bytes(at_limit)
    assert ix.query(at_limit, 2).matches == oracle_query_bounded(words, at_limit, 2) == {word}
    over = word + b"a"
    with pytest.raises(UnsupportedQueryError, match=f"at most {limit} bytes"):
        ix.query(over, 2)
    assert ix.query(over, 1).matches == {word}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_pattern_with_no_stored_length_within_k_answers_at_once(rng, monkeypatch, k):
    # Such a query probes and scans nothing, yet a 1,000,000-byte pattern
    # took 0.6-1 s at k = 1 and 2 while it hashed the pattern and,
    # at k = 2, marked its runs.
    words = random_words(rng, 2000, 4, 12, alphabet_size=10)
    ix = build_index(words, BuildConfig(errors=2, rng_seed=5))
    hashed = _spy_hash_contexts(monkeypatch)
    pattern = b"abcdefghij" * 100_000
    t0 = time.perf_counter()
    result = ix.query(pattern, k)
    elapsed = time.perf_counter() - t0
    assert result.matches == set()
    assert result.stats.as_tuple() == (0, 0, 0, 0)
    assert hashed == []
    assert elapsed < 0.05
    # The nearest stored length, m - k for a pattern of 12 + k bytes, is
    # still searched.
    near = next(w for w in words if len(w) == 12) + b"a" * k
    assert ix.query(near, k).matches == oracle_query_bounded(words, near, k)
