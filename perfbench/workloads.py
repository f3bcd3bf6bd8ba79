"""Seeded corpora and query streams for the editdict benchmark.

Everything here is generated by the benchmark's own code from the
workload name and the run seed, so a change to the library or its CLI
cannot change what a workload feeds it.  The library only ever sees the
byte strings produced here.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

AZ = bytes(range(ord("a"), ord("z") + 1))
DENSE12 = bytes(range(1, 13))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: corpus shape, index configuration, stream."""

    name: str
    count: int           # distinct words generated
    min_len: int
    max_len: int
    alphabet: bytes
    errors: int
    compact: bool
    ks: tuple[int, ...]  # query bounds, issued alternately
    builds: int          # fresh-process builds per untraced run: 3, or as many as fit in ~12 s
    build_share: Fraction = Fraction(1)   # of each length, built up front
    insert_share: Fraction = Fraction(0)  # of each length, inserted after


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rand26-e2", 50_000, 4, 12, AZ, errors=2, compact=False, ks=(1, 2),
                 builds=3),
        Workload("rand26-e2-compact", 50_000, 4, 12, AZ, errors=2, compact=True, ks=(1, 2),
                 builds=3),
        Workload("dense12-e2-insert", 60_000, 5, 11, DENSE12, errors=2, compact=False,
                 ks=(1, 2), builds=4, build_share=Fraction(7, 10), insert_share=Fraction(1, 10)),
        Workload("long-e1-compact", 20_000, 16, 40, AZ, errors=1, compact=True, ks=(1,),
                 builds=6),
    )
}


@dataclass
class Inputs:
    """The generated bytes of one run: what is built, inserted and queried."""

    workload: Workload
    seed: int
    build_words: list[bytes]
    insert_words: list[bytes]

    @property
    def all_words(self) -> list[bytes]:
        return self.build_words + self.insert_words

    @property
    def n(self) -> int:
        """Input bytes of the final dictionary, the denominator of every /n metric."""
        return sum(map(len, self.build_words)) + sum(map(len, self.insert_words))

    @property
    def query_sources(self) -> list[bytes]:
        """Words the stream edits: the inserted ones when there are any."""
        return self.insert_words or self.build_words


def _rng(workload: Workload, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload.name}:{seed}:{purpose}")


def distinct_words(rng: random.Random, count: int, min_len: int, max_len: int,
                   alphabet: bytes) -> list[bytes]:
    """`count` distinct random words, in generation order."""
    seen = set()
    out = []
    choices = rng.choices
    while len(out) < count:
        w = bytes(choices(alphabet, k=rng.randint(min_len, max_len)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def make_inputs(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Corpus for one run.  `scale` shrinks the corpus for the benchmark's own test."""
    count = max(50, round(workload.count * scale))
    corpus = distinct_words(_rng(workload, seed, "corpus"), count,
                            workload.min_len, workload.max_len, workload.alphabet)
    if workload.insert_share == 0:
        return Inputs(workload, seed, corpus, [])
    by_len: dict[int, list[bytes]] = {}
    for w in corpus:
        by_len.setdefault(len(w), []).append(w)
    build, insert = [], []
    for length in sorted(by_len):
        ws = by_len[length]
        cut = math.ceil(workload.build_share * len(ws))
        build += ws[:cut]
        insert += ws[cut : cut + math.floor(workload.insert_share * len(ws))]
    return Inputs(workload, seed, build, insert)


def edit_exactly(word: bytes, k: int, rng: random.Random, alphabet: bytes) -> bytes:
    """Apply exactly k random edits; the result stays longer than k.

    Each edit is drawn uniformly from the kinds still allowed: insertion
    always, deletion while the word stays longer than k, substitution by
    a character different from the one replaced.
    """
    s = bytearray(word)
    for _ in range(k):
        kinds = ("ins", "sub", "del") if len(s) - 1 > k else ("ins", "sub")
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "ins":
            s.insert(rng.randrange(len(s) + 1), alphabet[rng.randrange(len(alphabet))])
        elif kind == "del":
            del s[rng.randrange(len(s))]
        else:
            pos = rng.randrange(len(s))
            c = s[pos]
            while c == s[pos]:
                c = alphabet[rng.randrange(len(alphabet))]
            s[pos] = c
    return bytes(s)


def query_stream(inputs: Inputs, purpose: str = "stream"):
    """Endless (k, pattern, source word) stream, k cycling over the workload's bounds.

    Source lengths cycle through every length present, one random word of
    that length per k; query cost grows with length, so a stream prefix
    has the same length mix under every seed.
    """
    wl = inputs.workload
    rng = _rng(wl, inputs.seed, purpose)
    by_len: dict[int, list[bytes]] = {}
    for w in inputs.query_sources:
        by_len.setdefault(len(w), []).append(w)
    while True:
        for length in sorted(by_len):
            words = by_len[length]
            for k in wl.ks:
                src = words[rng.randrange(len(words))]
                yield k, edit_exactly(src, k, rng, wl.alphabet), src


def inputs_digest(inputs: Inputs, stream_prefix: int = 2000) -> str:
    """sha256 over the built words, inserted words and the stream's first items."""
    h = hashlib.sha256()
    for part in (inputs.build_words, inputs.insert_words):
        h.update(len(part).to_bytes(8, "little"))
        h.update(b"\0".join(part))
    stream = query_stream(inputs)
    for _ in range(stream_prefix):
        k, pattern, _src = next(stream)
        h.update(bytes([k]) + pattern + b"\0")
    return h.hexdigest()
