"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy differential
runs use the vectorized reference from _fastoracle (itself anchored against
the naive distance in test_baseline).
"""

import io
import math
import random
import statistics
import time
from fractions import Fraction
from itertools import accumulate, product

from editdict import BuildConfig, build_index, load, save
from editdict.baseline import build_partition_index, partition_stats
from editdict.cli import random_edit_pattern
from editdict.hashing import MODULUS, WILDCARD, poly_hash
from editdict.subst_store import list_histogram
from editdict.succinct import RankBitVector
from conftest import random_pattern, random_words
from _fastoracle import FastOracle
from _hashspec import EditOp, SpecContext, apply_edit, edit_hash

ALPHA = Fraction(7, 10)


def _corpus(rng, count, min_len, max_len, alphabet_size=26, first=97):
    """Unique random words; pass first=1 for a dense [1..alphabet_size] alphabet."""
    words = []
    seen = set()
    while len(words) < count:
        length = rng.randint(min_len, max_len)
        w = bytes(rng.randint(first, first + alphabet_size - 1) for _ in range(length))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def test_acceptance_01_oracle_equivalence():
    """200 random dictionaries x 100 patterns x k in {0,1,2} x 4 variants."""
    started = time.perf_counter()
    rng = random.Random(0xACCE01)
    dictionaries = 200
    queries = 0
    for trial in range(dictionaries):
        alpha_sz = rng.randint(2, 26)
        # Lengths cover 1..20 across the ensemble; long-word dictionaries are
        # drawn less often since their per-query work grows quadratically.
        lo = min(rng.randint(1, 16), rng.randint(1, 16))
        hi = min(20, lo + rng.randint(0, 5))
        count = rng.randint(30, 160)
        if trial % 10 == 0:
            count = rng.randint(200, 400)
            hi = min(hi, max(lo, 8))
        words = random_words(rng, count, lo, hi, alphabet_size=alpha_sz)
        indexes = [
            build_index(words, BuildConfig(errors=2, alpha=ALPHA, use_signatures=sig,
                                           compact=compact, rng_seed=trial))
            for compact in (False, True)
            for sig in (False, True)
        ]
        oracle = FastOracle(words)
        for _ in range(100):
            pattern = random_pattern(rng, words, alphabet_size=alpha_sz, max_len=20)
            want = oracle.query_all_k(pattern, (0, 1, 2))
            for k in (0, 1, 2):
                if k >= len(pattern):
                    continue
                for ix in indexes:
                    queries += 1
                    assert ix.query(pattern, k).matches == want[k], (
                        trial, pattern, k, ix.config)
        del indexes, oracle
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"oracle equivalence took {elapsed:.0f}s, budget is 300s"
    print(f"ACCEPTANCE 1: PASS (oracle equivalence, {dictionaries} dictionaries, "
          f"{queries} queries, {elapsed:.0f}s)")


def test_acceptance_02_incremental_hashing_exhaustive():
    """edit_hash == poly_hash(apply(edit)) for every string up to length 8
    over a 3-letter alphabet and every single edit."""
    seed = 0xBADC0DE % MODULUS
    chars = (1, 2, 3, WILDCARD)
    checked = 0
    for m in range(0, 9):
        for word in product((1, 2, 3), repeat=m):
            ctx = SpecContext(word, seed)
            for j in range(1, m + 1):
                for c in chars:
                    op = EditOp("substitute", j, c)
                    assert edit_hash(ctx, op) == poly_hash(apply_edit(word, op), seed)
                op = EditOp("delete", j)
                assert edit_hash(ctx, op) == poly_hash(apply_edit(word, op), seed)
                checked += len(chars) + 1
            for g in range(m + 1):
                for c in chars:
                    op = EditOp("insert", g, c)
                    assert edit_hash(ctx, op) == poly_hash(apply_edit(word, op), seed)
                    checked += 1
    print(f"ACCEPTANCE 2: PASS (incremental hashing exhaustive, {checked} edits, "
          f"0 mismatches)")


def test_acceptance_03_rank_correctness():
    """rank1 equals a naive prefix counter at every position of 100 random
    vectors of 1e5 bits at delta = 4."""
    rng = random.Random(0xACCE03)
    n = 100_000
    for trial in range(100):
        density = rng.random()
        bits = [1 if rng.random() < density else 0 for _ in range(n)]
        rbv = RankBitVector.from_flags(bytes(bits), delta=4)
        expected = list(accumulate(bits, initial=0))
        got = list(map(rbv.rank1, range(n + 1)))
        assert got == expected, f"vector {trial} diverges"
    print("ACCEPTANCE 3: PASS (rank vs naive counter, 100 x 1e5 bits, 0 mismatches)")


def _compact_file_bytes(words):
    ix = build_index(words, BuildConfig(errors=1, alpha=ALPHA, use_signatures=True,
                                        compact=True, delta=4, rng_seed=404))
    sink = io.BytesIO()
    save(ix, sink)
    return len(sink.getvalue()), ix.total_length


def test_acceptance_04_space_bound():
    """Compacted 1-error index with signatures at alpha=0.7, delta=4 stays
    within (3n + 1 KiB) * 1.10 bytes."""
    rng = random.Random(0xACCE04)
    cases = {
        "small": [b"ALABAMA", b"banana", b"cabana"],
        "mixed": _corpus(rng, 15000, 3, 12),
        "long-words": _corpus(rng, 3000, 16, 24),
    }
    for name, words in cases.items():
        size, n = _compact_file_bytes(words)
        limit = (3 * n + 1024) * 1.10
        assert size <= limit, f"{name}: {size} bytes > {limit:.0f} (n={n})"
        print(f"ACCEPTANCE 4: PASS ({name}: file {size} B <= {limit:.0f} B, n={n})")


def test_acceptance_05_build_linearity():
    """Doubling the corpus (1e5 -> 2e5 words) at most triples build time."""
    rng = random.Random(0xACCE05)
    big = _corpus(rng, 200_000, 4, 12)
    small = big[:100_000]
    cfg = BuildConfig(errors=1, alpha=ALPHA, use_signatures=True, rng_seed=5)

    def build_seconds(words):
        t0 = time.perf_counter()
        build_index(words, cfg)
        return time.perf_counter() - t0

    small_times = [build_seconds(small) for _ in range(3)]
    big_times = [build_seconds(big) for _ in range(3)]
    ratio = statistics.median(big_times) / statistics.median(small_times)
    assert ratio <= 3.0, f"build-time ratio {ratio:.2f} exceeds 3.0"
    print(f"ACCEPTANCE 5: PASS (build linearity, median "
          f"{statistics.median(small_times):.2f}s -> {statistics.median(big_times):.2f}s, "
          f"ratio {ratio:.2f} <= 3.0)")


def test_acceptance_06_worst_case_cap():
    """Adversarial alphabet-64 dictionary: the capped scan fires, the query
    terminates, and the result still equals the reference set."""
    sigma = 64
    words = [bytes([c, sigma]) for c in range(1, sigma + 1)]
    pattern = bytes([sigma + 1, sigma])
    oracle = FastOracle(words)
    want = oracle.query(pattern, 1)
    assert want == set(words)
    for compact in (False, True):
        for sig in (False, True):
            ix = build_index(words, BuildConfig(errors=1, alpha=ALPHA,
                                                use_signatures=sig, compact=compact,
                                                rng_seed=66))
            result = ix.query(pattern, 1)
            assert result.stats.cap_activations > 0
            assert result.matches == want
    print(f"ACCEPTANCE 6: PASS (sigma-cap on 64-way collision dictionary, "
          f"{len(want)} matches, cap active in all 4 variants)")


def test_acceptance_07_heuristic_contrast():
    """All 256 binary strings of length 8: the split-in-half baseline always
    touches 32 candidates, while the engine stays within 4*(m+1) probes."""
    words = [bytes(p) for p in product(b"01", repeat=8)]
    pidx = build_partition_index(words)
    avg, worst = partition_stats(pidx, words)
    assert (avg, worst) == (32.0, 32)
    ix = build_index(words, BuildConfig(errors=1, alpha=ALPHA, use_signatures=True,
                                        rng_seed=7))
    bound = 4 * (8 + 1)
    worst_probes = 0
    for w in words:
        stats = ix.query(w, 1).stats
        worst_probes = max(worst_probes, stats.exact_probes)
        assert stats.exact_probes <= bound
    print(f"ACCEPTANCE 7: PASS (heuristic avg=max=32; engine probes <= "
          f"{worst_probes} <= {bound})")


def test_acceptance_08_incremental_insertion():
    """Build a 2-error index on 70% of a 1e5-word corpus at alpha=0.7,
    insert the next 25%, then verify sampled queries against the reference."""
    rng = random.Random(0xACCE08)
    # Dense alphabet [1..12] at load 0.95: long probe runs are common, but
    # no scan reads more than _SCAN_LIMIT * 12 slots or returns more than
    # 12 candidate characters, which keeps the worst-case work sane.
    corpus = _corpus(rng, 100_000, 5, 11, alphabet_size=12, first=1)
    by_len = {}
    for w in corpus:
        by_len.setdefault(len(w), []).append(w)
    build_part, insert_part = [], []
    for ws in by_len.values():
        cut = math.ceil(0.7 * len(ws))
        build_part += ws[:cut]
        insert_part += ws[cut : cut + math.floor(0.25 * len(ws))]

    ix = build_index(build_part, BuildConfig(errors=2, alpha=ALPHA,
                                             use_signatures=True, rng_seed=88))
    t0 = time.perf_counter()
    for w in insert_part:
        assert ix.insert_word(w) is True
    insert_seconds = time.perf_counter() - t0
    mean_us = 1e6 * insert_seconds / len(insert_part)
    assert math.isfinite(mean_us) and mean_us > 0

    for w in insert_part:
        assert ix.contains(w)

    current = build_part + insert_part
    oracle = FastOracle(current)
    alphabet = sorted({c for w in corpus for c in w})
    checked = 0
    for i in range(1000):
        w = insert_part[rng.randrange(len(insert_part))]
        k = 2 if i % 5 == 0 else 1
        pattern = random_edit_pattern(w, rng.randint(1, k), k, rng, alphabet)
        got = ix.query(pattern, k).matches
        assert w in got
        assert got == oracle.query(pattern, k), (pattern, k)
        checked += 1
    print(f"ACCEPTANCE 8: PASS (inserted {len(insert_part)} words, mean insert "
          f"{mean_us:.1f} us, {checked} sampled queries match the reference)")


def test_acceptance_09_roundtrip_determinism():
    """save -> load -> replay is identical, and builds are reproducible."""
    rng = random.Random(0xACCE09)
    words = _corpus(rng, 3000, 3, 14, alphabet_size=10)
    patterns = [random_pattern(rng, words, alphabet_size=10, max_len=14)
                for _ in range(1000)]
    for cfg in (
        BuildConfig(errors=1, alpha=ALPHA, use_signatures=True, compact=True, rng_seed=9),
        BuildConfig(errors=2, alpha=ALPHA, use_signatures=True, compact=False, rng_seed=9),
    ):
        ix = build_index(words, cfg)
        sink = io.BytesIO()
        save(ix, sink)
        back = load(sink.getvalue())

        def replay(index):
            out = []
            for p in patterns:
                k = min(cfg.errors, len(p) - 1)
                if k < 0:
                    continue
                r = index.query(p, k)
                out.append((tuple(r.sorted_matches()), r.stats.as_tuple()))
            return out

        assert replay(ix) == replay(back)
        again = io.BytesIO()
        save(build_index(words, cfg), again)
        assert again.getvalue() == sink.getvalue()
    print("ACCEPTANCE 9: PASS (replay of 1000 queries identical after reload; "
          "rebuilds byte-identical)")


def test_acceptance_10_stats_contract():
    """Histogram fixtures are exact and percentages always sum to 100."""
    hist = list_histogram([b"ALABAMA"], 1)
    assert hist.total_entries == 7
    assert hist.percentage(1) == 100.0

    hist = list_histogram([b"ab", b"cb"], 1)
    assert hist.percentage(1) == 50.0
    assert hist.percentage(2) == 50.0

    rng = random.Random(0xACCE10)
    for level in (1, 2):
        for alphabet in (2, 5, 26):
            words = _corpus(rng, 800, 2, 12, alphabet_size=alphabet)
            hist = list_histogram(words, level)
            total_pct = sum(pct for _, _, pct in hist.rows())
            assert abs(total_pct - 100.0) <= 0.01
    print("ACCEPTANCE 10: PASS (histogram fixtures exact, percentages sum to 100)")
