"""Query engine: oracle equivalence, pattern enumeration, contracts."""

from fractions import Fraction
from itertools import product

import pytest

from editdict import BuildConfig, build_index, oracle_query
from editdict.errors import UnsupportedQueryError, ValidationError
from editdict.hashing import WILDCARD
from editdict.query_engine import (
    enumerate_patterns,
    query,
)
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


def test_str_pattern_accepted():
    ix = build_index([b"abc"], BuildConfig(errors=1, rng_seed=1))
    assert ix.query("abd", 1).matches == {b"abc"}


def test_check_candidate():
    ix = build_index([b"abc", b"defgh"], BuildConfig(errors=1, rng_seed=1))
    assert ix.exact.contains(b"abc")
    assert ix.exact.contains(bytearray(b"defgh"))
    assert not ix.exact.contains(b"abd")
    assert not ix.exact.contains(b"abcdef")  # no table for this length


# -- pattern enumeration -------------------------------------------------------


def test_enumeration_counts_k1():
    x = b"a"
    descs = enumerate_patterns(x, 1)
    assert len(descs) == 4  # 1 del + 1 sub + 2 ins
    x = b"abc"
    descs = enumerate_patterns(x, 1)
    assert len(descs) == 10  # 3 + 3 + 4
    kinds = [d.kind for d in descs]
    assert kinds.count("del") == 3 and kinds.count("sub") == 3 and kinds.count("ins") == 4


def test_enumeration_counts_k2():
    m = 5
    x = bytes(range(97, 97 + m))
    by_kind = {}
    for d in enumerate_patterns(x, 2):
        by_kind[d.kind] = by_kind.get(d.kind, 0) + 1
    assert by_kind["del"] == m
    assert by_kind["sub"] == m
    assert by_kind["ins"] == m + 1
    assert by_kind["deldel"] == m * (m - 1) // 2
    assert by_kind["delsub"] == m * (m - 1)
    assert by_kind["delins"] == m * (m - 1)
    assert by_kind["subsub"] == m * (m - 1) // 2
    assert by_kind["subins"] == m * m
    assert by_kind["insins"] == (m + 2) * (m + 1) // 2


def test_descriptor_shapes():
    x = b"abcd"
    for d in enumerate_patterns(x, 2):
        pat = d.pattern(x)
        assert len(pat) == d.length
        assert sum(1 for c in pat if c == WILDCARD) == d.wildcards


def _brute_force_patterns(x):
    """All symbol tuples reachable with one or two ops (sub/ins blank)."""
    def single(s):
        m = len(s)
        out = []
        for j in range(m):
            out.append(s[:j] + s[j + 1 :])
            out.append(s[:j] + (WILDCARD,) + s[j + 1 :])
        for g in range(m + 1):
            out.append(s[:g] + (WILDCARD,) + s[g:])
        return out

    base = tuple(x)
    once = single(base)
    all_pats = set(once)
    for s in once:
        all_pats.update(single(s))
    return all_pats


def test_enumeration_matches_brute_force(rng):
    for trial in range(12):
        m = rng.randint(1, 5)
        x = bytes(rng.randint(97, 99) for _ in range(m))
        mine = {d.pattern(x) for d in enumerate_patterns(x, 2)}
        brute = _brute_force_patterns(x)
        assert mine | {tuple(x)} == brute


def test_enumeration_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_patterns(b"abc", 0)
    with pytest.raises(ValueError):
        enumerate_patterns(b"abc", 3)


# -- scratch buffer discipline ---------------------------------------------------


def test_insertion_buffer_trick_matches_rebuild():
    # The engine's moving-gap buffer: place the candidate character, probe,
    # then restore one character when the gap advances.  Every intermediate
    # buffer must equal a from-scratch construction.
    x = b"abcdef"
    m = len(x)
    buf = bytearray(m + 1)
    buf[1:] = x
    previous = None
    for g in range(m + 1):
        for c in b"XY":
            buf[g] = c
            assert bytes(buf) == x[:g] + bytes([c]) + x[g:]
            if previous is not None:
                changed = sum(a != b for a, b in zip(previous, bytes(buf)))
                assert changed <= 2
            previous = bytes(buf)
        if g < m:
            buf[g] = x[g]


def test_deletion_buffer_trick_matches_rebuild():
    x = b"abcdef"
    m = len(x)
    buf = bytearray(x[1:])
    for j in range(1, m + 1):
        assert bytes(buf) == x[: j - 1] + x[j:]
        if j < m:
            buf[j - 1] = x[j - 1]


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
