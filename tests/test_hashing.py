"""Polynomial hashing: direct values and incremental edits."""

import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from editdict.hashing import (
    MODULUS,
    WILDCARD,
    HashContext,
    inverse_of,
    poly_hash,
    powers_of,
    random_seed,
)
from _hashspec import (
    IDENTITY,
    EditOp,
    SpecContext,
    apply_edit,
    delete,
    edit_hash,
    insert,
    substitute,
)


def test_poly_hash_empty():
    assert poly_hash(b"", 12345) == 0


def test_poly_hash_direct_evaluation():
    # 3*10 + 1*100 + 2*1000
    assert poly_hash((3, 1, 2), 10) == 2130


def test_poly_hash_single_char():
    for c, r in [(1, 2), (200, 17), (255, MODULUS - 2)]:
        assert poly_hash((c,), r) == c * r % MODULUS


def test_poly_hash_always_below_modulus():
    rng = random.Random(7)
    for _ in range(200):
        seed = random_seed(rng)
        word = bytes(rng.randint(1, 255) for _ in range(rng.randint(0, 40)))
        assert 0 <= poly_hash(word, seed) < MODULUS


def horner(word, seed: int) -> int:
    h = 0
    for c in reversed(word):
        h = (h + c) * seed % MODULUS
    return h


@settings(max_examples=150, deadline=None)
@given(word=st.one_of(st.binary(max_size=300),
                      st.lists(st.one_of(st.integers(1, 255), st.just(WILDCARD)),
                               max_size=300).map(tuple)),
       seed=st.integers(1, MODULUS - 2))
@example(word=bytes(range(1, 256)) * 2, seed=10)
def test_poly_hash_equals_horner(word, seed):
    # Words past 80 symbols outgrow the first powers list cached per seed.
    assert poly_hash(word, seed) == horner(word, seed)


def test_make_context_prefixes():
    ctx = HashContext((3, 1, 2), 10)
    assert ctx.prefix == [0, 30, 130, 2130]
    assert ctx.total == 2130


def test_make_context_empty():
    ctx = HashContext(b"", 99)
    assert ctx.prefix == [0]
    assert ctx.total == 0


def test_context_total_matches_poly_hash():
    rng = random.Random(1)
    for _ in range(100):
        seed = random_seed(rng)
        word = bytes(rng.randint(1, 255) for _ in range(rng.randint(0, 30)))
        assert HashContext(word, seed).total == poly_hash(word, seed)


def test_contexts_identical_for_same_inputs():
    a = HashContext(b"reproducible", 0xBEEF)
    b = HashContext(b"reproducible", 0xBEEF)
    assert a.prefix == b.prefix
    assert a.total == b.total
    assert a.inv == b.inv


def test_powers_and_inverse():
    p = powers_of(10, 5)
    assert p[0] == 1 and p[1] == 10 and p[5] == 100000
    assert inverse_of(10) * 10 % MODULUS == 1


def test_edit_hash_substitute():
    ctx = SpecContext((3, 1, 2), 10)
    assert substitute(ctx, 2, 5) == 2530


def test_edit_hash_delete():
    ctx = SpecContext((3, 1, 2), 10)
    assert delete(ctx, 2) == 230


def test_edit_hash_insert():
    ctx = SpecContext((3, 1, 2), 10)
    assert insert(ctx, 1, 7) == 21730


def test_edit_hash_identity():
    ctx = SpecContext(b"xyz", 10)
    assert edit_hash(ctx, IDENTITY) == ctx.total


def test_apply_edit():
    w = (1, 2, 3)
    assert apply_edit(w, EditOp("substitute", 2, 9)) == (1, 9, 3)
    assert apply_edit(w, EditOp("delete", 1)) == (2, 3)
    assert apply_edit(w, EditOp("insert", 0, 9)) == (9, 1, 2, 3)
    assert apply_edit(w, EditOp("insert", 3, 9)) == (1, 2, 3, 9)
    assert apply_edit(w, IDENTITY) == w


def _all_edits(m, chars):
    for j in range(1, m + 1):
        for c in chars:
            yield EditOp("substitute", j, c)
        yield EditOp("delete", j)
    for g in range(m + 1):
        for c in chars:
            yield EditOp("insert", g, c)


def test_edit_hash_exhaustive_small():
    # Lengths up to 5 here; the acceptance suite runs the full length-8 sweep.
    chars = (1, 2, 3, WILDCARD)
    for seed in (10, 0x5EED, MODULUS - 2):
        for m in range(0, 6):
            for word in product((1, 2, 3), repeat=m):
                ctx = SpecContext(word, seed)
                for op in _all_edits(m, chars):
                    assert edit_hash(ctx, op) == poly_hash(apply_edit(word, op), seed)


@settings(max_examples=150, deadline=None)
@given(
    word=st.lists(st.integers(1, 255), min_size=1, max_size=24),
    seed=st.integers(1, MODULUS - 2),
    data=st.data(),
)
def test_edit_hash_random_property(word, seed, data):
    m = len(word)
    kind = data.draw(st.sampled_from(["substitute", "delete", "insert"]))
    if kind == "insert":
        pos = data.draw(st.integers(0, m))
    else:
        pos = data.draw(st.integers(1, m))
    char = data.draw(st.sampled_from([1, 77, 255, WILDCARD]))
    op = EditOp(kind, pos, char)
    ctx = SpecContext(tuple(word), seed)
    assert edit_hash(ctx, op) == poly_hash(apply_edit(word, op), seed)


def test_random_seed_in_range():
    rng = random.Random(3)
    for _ in range(1000):
        s = random_seed(rng)
        assert 1 <= s <= MODULUS - 2


def test_edit_hash_rejects_unknown_kind():
    ctx = SpecContext(b"ab", 10)
    with pytest.raises(ValueError):
        edit_hash(ctx, EditOp("transpose", 1, 2))
