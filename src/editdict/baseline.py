"""Ground-truth edit distance and the piece-partition baseline.

levenshtein/oracle_query are the trust anchor for every correctness test:
a deliberately naive full-table dynamic program and a linear scan.  Keep
them boring.

The partition baseline models the popular split-in-half heuristic for one
substitution error: each word is split into a prefix of half its length
(rounded down) and the remaining suffix, and registered in a prefix list
and a suffix list.  A query looks up the lists for its own two pieces; a
word at Hamming distance <= 1 with equal length leaves one piece intact,
so it appears among the candidates.  The candidate-list statistics show
how badly this degrades on dense dictionaries.
"""

from __future__ import annotations

from .util import as_bytes


def levenshtein(a, b) -> int:
    """Unit-cost edit distance via the full (|a|+1) x (|b|+1) table.

    a and b must be sequences of one kind, such as two bytes or two str:
    a byte never equals a one-character str, so a mixed pair reads as
    all substitutions."""
    la, lb = len(a), len(b)
    table = [list(range(lb + 1))]
    for i in range(1, la + 1):
        prev = table[i - 1]
        row = [i] + [0] * lb
        ai = a[i - 1]
        for j in range(1, lb + 1):
            cost_sub = prev[j - 1] + (ai != b[j - 1])
            cost_del = prev[j] + 1
            cost_ins = row[j - 1] + 1
            row[j] = cost_sub if cost_sub <= cost_del and cost_sub <= cost_ins else (
                cost_del if cost_del <= cost_ins else cost_ins
            )
        table.append(row)
    return table[la][lb]


def oracle_query(words, pattern, k: int) -> set[bytes]:
    """All words at edit distance <= k from the pattern, by linear scan.

    The pattern and each word are taken as Index.query takes them: bytes-like,
    or a str as its latin-1 bytes; anything else raises ValidationError."""
    pattern = as_bytes(pattern, "pattern")
    return {w for w in map(as_bytes, words) if levenshtein(w, pattern) <= k}


def oracle_query_bounded(words, pattern, k: int) -> set[bytes]:
    """Same result as oracle_query, skipping words whose length rules them out.

    A length difference greater than k already forces distance greater
    than k, so the prefilter never changes the answer; it only makes large
    verification runs affordable.
    """
    pattern = as_bytes(pattern, "pattern")
    m = len(pattern)
    out = set()
    for w in words:
        if type(w) is not bytes:
            w = as_bytes(w)
        if abs(len(w) - m) <= k and levenshtein(w, pattern) <= k:
            out.add(w)
    return out


class PartitionIndex:
    """Half-split piece lists: every word is reachable through its prefix
    piece and its suffix piece (only the suffix for one-character words)."""

    __slots__ = ("prefixes", "suffixes")

    def __init__(self):
        self.prefixes: dict[bytes, list[bytes]] = {}
        self.suffixes: dict[bytes, list[bytes]] = {}


def split_pieces(word) -> tuple[bytes, bytes]:
    """(prefix, suffix) with lengths floor(n/2) and ceil(n/2)."""
    half = len(word) // 2
    return bytes(word[:half]), bytes(word[half:])


def build_partition_index(words) -> PartitionIndex:
    index = PartitionIndex()
    for word in words:
        w = as_bytes(word)
        prefix, suffix = split_pieces(w)
        if prefix:
            index.prefixes.setdefault(prefix, []).append(w)
        index.suffixes.setdefault(suffix, []).append(w)
    return index


def partition_query(index: PartitionIndex, pattern) -> list[bytes]:
    """Candidate words for a one-substitution query: both piece lists,
    concatenated.  The caller is responsible for verifying candidates."""
    prefix, suffix = split_pieces(as_bytes(pattern, "pattern"))
    out = []
    if prefix:
        out.extend(index.prefixes.get(prefix, ()))
    out.extend(index.suffixes.get(suffix, ()))
    return out


def partition_stats(index: PartitionIndex, queries) -> tuple[float, int]:
    """(average, maximum) candidate-list size over the given queries."""
    total = 0
    worst = 0
    count = 0
    for q in queries:
        size = len(partition_query(index, q))
        total += size
        if size > worst:
            worst = size
        count += 1
    if count == 0:
        return 0.0, 0
    return total / count, worst
