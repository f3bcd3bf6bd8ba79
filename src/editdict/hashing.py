"""Polynomial string hashing with constant-time single-edit updates.

A word w = w_1..w_m over byte values [1, 255] hashes to

    h(w) = sum(w_i * r**i for i in 1..m) mod MODULUS

where MODULUS = 2**32 - 5 is the largest prime below 2**32 and r is a
random seed in [1, MODULUS - 2].  Preprocessing a word once into a
HashContext (prefix hashes, powers of r, the inverse of r) makes the hash
of any string at edit distance one from it an O(1) computation, which is
what query enumeration leans on.

Wildcard slots in store keys contribute the fixed value 257, outside the
byte domain, so a keyed pattern can never collide with a real string by
construction.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import mul

MODULUS = 2**32 - 5
WILDCARD = 257

_POWER_CACHE: dict[int, list[int]] = {}


def random_seed(rng) -> int:
    """Draw a polynomial base uniformly from [1, MODULUS - 2]."""
    return rng.randrange(1, MODULUS - 1)


def powers_of(seed: int, count: int) -> list[int]:
    """Powers seed**j mod MODULUS for j in [0, count], cached per seed.

    The returned list may be longer than requested; it is shared and must
    not be mutated by callers.
    """
    powers = _POWER_CACHE.get(seed)
    if powers is None or len(powers) <= count:
        n = max(count + 1, 80)
        powers = [1] * n
        p = 1
        for j in range(1, n):
            p = p * seed % MODULUS
            powers[j] = p
        _POWER_CACHE[seed] = powers
    return powers


@cache
def inverse_of(seed: int) -> int:
    """Modular inverse of the seed (MODULUS is prime, so it always exists)."""
    return pow(seed, MODULUS - 2, MODULUS)


def poly_hash(word, seed: int) -> int:
    """Hash of a word: one C-level sum of w_i * seed**i, reduced once.

    `word` is any sequence of integer symbols: bytes for the words the
    exact dictionary stores and probes.  Store keys do not come from
    here but from blank_keys and HashContext, which give the hash of a
    word with WILDCARD in its blanked places without building it.
    """
    return sum(map(mul, word, powers_of(seed, len(word))[1 : len(word) + 1])) % MODULUS


def blank_keys(word, seed: int, level: int) -> list[int]:
    """Substitution-store keys of a word: its hashes under seed with each
    position j (level 1), or each pair i < j (level 2, in combinations
    order), replaced by WILDCARD.  The store build and list_histogram
    derive their keys here; the query engine makes the same keys of a
    pattern from its HashContext."""
    m = len(word)
    pw = powers_of(seed, m)[1 : m + 1]
    h = sum(map(mul, word, pw))
    if level == 1:
        return [(h + (WILDCARD - c) * p) % MODULUS for c, p in zip(word, pw)]
    d = [(WILDCARD - c) * p for c, p in zip(word, pw)]  # blanking one position adds d[j]
    return [(h + a + b) % MODULUS for a, b in combinations(d, 2)]


class HashContext:
    """Preprocessed per-word state for O(1) hashes of single-edit variants.

    prefix[j] = sum(w_i * r**i for i <= j) mod MODULUS, so prefix[0] == 0
    and prefix[m] == poly_hash(word).  Positions are 1-based throughout;
    insertion gaps run from 0 (front) to m (back).  With inv = r**-1, all
    mod MODULUS, the query engine inlines these:

      delete j              prefix[j-1] + (total - prefix[j]) * inv
      c at q, s inserted    prefix[q-1] + c * r**q + (total - prefix[q-s]) * r**s

    where s = 0 substitutes c for w_q and s = 1 inserts c at gap q - 1.
    With c = WILDCARD that is a one-wildcard store key; query_engine
    splits the same sum over two blanks for a two-wildcard key.
    """

    __slots__ = ("prefix", "powers", "inv", "total")

    def __init__(self, word, seed: int):
        m = len(word)
        powers = powers_of(seed, m + 2)
        prefix = [0] * (m + 1)
        h = 0
        for j in range(1, m + 1):
            h = (h + word[j - 1] * powers[j]) % MODULUS
            prefix[j] = h
        self.prefix = prefix
        self.powers = powers
        self.inv = inverse_of(seed)
        self.total = h
