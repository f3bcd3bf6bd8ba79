"""Candidate enumeration and checking for queries with up to two errors.

A query for pattern x and bound k walks every way of explaining a match
with at most k edits, grouped by the shape of the derived lookup pattern:

  k >= 1   del        delete one position            -> checked directly
           sub        one wildcard, same length      -> level-1 store
           ins        one wildcard, length m + 1     -> level-1 store
  k == 2   deldel     delete two positions           -> checked directly
           delsub     delete + wildcard, length m-1  -> level-1 store
           delins     delete + wildcard, length m    -> level-1 store
           subsub     two wildcards, length m        -> level-2 then level-1
           subins     two wildcards, length m + 1    -> level-2 then level-1
           insins     two wildcards, length m + 2    -> level-2 then level-1

Each class has its own key loop in `query`, which derives every key hash
from the pattern's prefix hashes in O(1).  Filling the blanks of a key
whose scan returned characters is shared by all classes: `_fill` writes
each character into the one blank and checks the filled candidate against
the exact dictionary.  `_fill2` resolves two-wildcard keys leftmost
first: each character the level-2 store hands back for the leftmost blank
turns the key into a one-wildcard key, whose level-1 scan goes to `_fill`.
Every candidate is verified against the exact dictionary, so signature
collisions and capped scans can only cost time, never correctness.

Candidate strings are materialized into reusable scratch buffers; moving
from one candidate to the next touches O(1) characters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedQueryError, ValidationError
from .hashing import MODULUS as _P, WILDCARD as _W, HashContext
from .util import as_bytes


@dataclass
class QueryStats:
    """Work counters for one query."""

    lists_probed: int = 0
    candidates_generated: int = 0
    exact_probes: int = 0
    cap_activations: int = 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.lists_probed, self.candidates_generated,
                self.exact_probes, self.cap_activations)


@dataclass
class QueryResult:
    """Distinct matching words plus the work counters that produced them."""

    matches: set[bytes]
    stats: QueryStats

    def sorted_matches(self) -> list[bytes]:
        return sorted(self.matches)


def _fill(matches, probe, buf, q, pq, kb, chars) -> int:
    """Probe buf with each scanned character at its blank; returns how many.

    The blank is at 1-based position q, whose hash weight is pq, and kb is
    the key's hash, so the candidate holding c hashes to kb - W*pq + c*pq.
    Hits go to matches; buf keeps the last character written.
    """
    if type(chars) is list and len(chars) > 1:
        chars = set(chars)  # a run may hold one character more than once
    base = (kb - _W * pq) % _P
    q -= 1
    for c in chars:
        buf[q] = c
        if probe(buf, (base + c * pq) % _P):
            matches.add(bytes(buf))
    return len(chars)


def _fill2(matches, probe, q1, buf, qa, pqa, qb, pqb, kb, chars):
    """_fill for a two-wildcard key: chars came from its level-2 scan.

    Each character c for the left blank (position qa, weight pqa) makes
    the level-1 key kb - W*pqa + c*pqa, whose scan fills the right blank
    (position qb, weight pqb).  Returns (level-1 scans, capped scans,
    candidates probed).
    """
    if type(chars) is list and len(chars) > 1:
        chars = set(chars)
    caps = candidates = 0
    qa -= 1
    for c in chars:
        kb1 = (kb + (c - _W) * pqa) % _P
        chars1, capped = q1(kb1)
        caps += capped
        if chars1:
            buf[qa] = c
            candidates += _fill(matches, probe, buf, qb, pqb, kb1, chars1)
    return len(chars), caps, candidates


def query(index, pattern, k: int) -> QueryResult:
    """All dictionary words at edit distance <= k from the pattern.

    The pattern is bytes-like or a latin-1 str.  Requires k in {0, 1, 2},
    k not above the index's error level, and k < len(pattern).
    """
    pattern = as_bytes(pattern, "pattern")
    if 0 in pattern:
        raise ValidationError("pattern contains a zero byte")
    if k not in (0, 1, 2):
        raise ValidationError("k must be 0, 1 or 2")
    if k > index.errors:
        raise UnsupportedQueryError(
            f"index was built for {index.errors} error(s), cannot answer k={k}"
        )
    m = len(pattern)
    if k >= m:
        raise ValidationError(f"k={k} must be smaller than the pattern length {m}")

    exact = index.exact
    matches: set[bytes] = set()
    lists = candidates = caps = 0

    bseed = index.bucket_seed
    bctx = HashContext(pattern, bseed)
    hb, pb, prefb, invb = bctx.total, bctx.powers, bctx.prefix, bctx.inv

    # One bound membership probe per candidate length; None marks a length
    # with no stored words, so whole candidate classes can be skipped.
    probe_same = exact.probe_for_length(m)
    identity = 0 if probe_same is None else 1  # probes of the pattern itself

    if identity and probe_same(pattern, hb):
        matches.add(pattern)
    if k == 0:
        return QueryResult(matches, QueryStats(0, 0, identity, 0))

    q1 = index.store1.list_query

    # Per-position wildcard deltas: db[j] turns the pattern hash into the
    # hash of the pattern with position j blanked out.
    db = [0] * (m + 1)
    for j in range(1, m + 1):
        db[j] = (_W - pattern[j - 1]) * pb[j] % _P

    probe_shorter = exact.probe_for_length(m - 1)
    probe_longer = exact.probe_for_length(m + 1)

    # -- one deletion (concrete candidates, no store) -----------------------
    if probe_shorter is not None:
        buf = bytearray(pattern[1:])
        for j in range(1, m + 1):
            candidates += 1
            if probe_shorter(buf, (prefb[j - 1] + (hb - prefb[j]) * invb) % _P):
                matches.add(bytes(buf))
            if j < m:
                buf[j - 1] = pattern[j - 1]

    # -- one substitution ----------------------------------------------------
    if probe_same is not None:
        buf = bytearray(pattern)
        for j in range(1, m + 1):
            kb = (hb + db[j]) % _P
            chars, capped = q1(kb)
            lists += 1
            caps += capped
            if chars:
                candidates += _fill(matches, probe_same, buf, j, pb[j], kb, chars)
                buf[j - 1] = pattern[j - 1]

    # -- one insertion -------------------------------------------------------
    if probe_longer is not None:
        buf = bytearray(m + 1)
        buf[1:] = pattern
        for g in range(m + 1):
            pg = prefb[g]
            kb = (pg + _W * pb[g + 1] + (hb - pg) * bseed) % _P
            chars, capped = q1(kb)
            lists += 1
            caps += capped
            if chars:
                candidates += _fill(matches, probe_longer, buf, g + 1, pb[g + 1], kb, chars)
            if g < m:
                buf[g] = pattern[g]

    if k == 1:
        return QueryResult(matches, QueryStats(lists, candidates, candidates + identity, caps))

    q2 = index.store2.list_query
    invb2 = invb * invb % _P
    bseed2 = bseed * bseed % _P

    probe_short2 = exact.probe_for_length(m - 2)
    probe_long2 = exact.probe_for_length(m + 2)

    # -- two deletions (concrete candidates) ---------------------------------
    if probe_short2 is not None:
        for i in range(1, m):
            y = pattern[: i - 1] + pattern[i:]
            buf = bytearray(y[:i - 1] + y[i:])
            pi = prefb[i - 1]
            for j in range(i + 1, m + 1):
                h = (pi + (prefb[j - 1] - prefb[i]) * invb + (hb - prefb[j]) * invb2) % _P
                candidates += 1
                if probe_short2(buf, h):
                    matches.add(bytes(buf))
                if j < m:
                    buf[j - 2] = y[j - 2]

    # -- deletion + substitution ---------------------------------------------
    if probe_shorter is not None:
        for d in range(1, m + 1):
            y = pattern[: d - 1] + pattern[d:]
            hy = (prefb[d - 1] + (hb - prefb[d]) * invb) % _P
            buf = bytearray(y)
            for p in range(1, m):
                yc = y[p - 1]
                kb = (hy + (_W - yc) * pb[p]) % _P
                chars, capped = q1(kb)
                lists += 1
                caps += capped
                if chars:
                    candidates += _fill(matches, probe_shorter, buf, p, pb[p], kb, chars)
                    buf[p - 1] = yc

    # -- deletion + insertion -------------------------------------------------
    if probe_same is not None:
        for d in range(1, m + 1):
            y = pattern[: d - 1] + pattern[d:]
            pd = prefb[d - 1]
            hy = (pd + (hb - prefb[d]) * invb) % _P
            buf = bytearray(m)
            buf[1:] = y
            for g in range(m):
                if g != d - 1:  # that gap just recreates the one-substitution key
                    # Prefix hash of y through gap g: the pattern's before d,
                    # shifted down one position past it.
                    pg = prefb[g] if g < d else (pd + (prefb[g + 1] - prefb[d]) * invb) % _P
                    pbg = pb[g + 1]
                    kb = (pg + _W * pbg + (hy - pg) * bseed) % _P
                    chars, capped = q1(kb)
                    lists += 1
                    caps += capped
                    if chars:
                        candidates += _fill(matches, probe_same, buf, g + 1, pbg, kb, chars)
                if g < m - 1:
                    buf[g] = y[g]

    # -- two substitutions -----------------------------------------------------
    if probe_same is not None:
        buf = bytearray(pattern)
        for i in range(1, m):
            bi = (hb + db[i]) % _P
            for j in range(i + 1, m + 1):
                kb = (bi + db[j]) % _P
                chars, capped = q2(kb)
                lists += 1
                caps += capped
                if chars:
                    n1, c1, n = _fill2(matches, probe_same, q1, buf, i, pb[i], j, pb[j], kb, chars)
                    lists += n1
                    caps += c1
                    candidates += n
                    buf[i - 1] = pattern[i - 1]
                    buf[j - 1] = pattern[j - 1]

    # -- substitution + insertion ----------------------------------------------
    if probe_longer is not None:
        buf = bytearray(m + 1)
        buf[1:] = pattern
        for g in range(m + 1):
            pg = prefb[g]
            gi = g + 1  # final position of the inserted blank
            kb_ins = (pg + _W * pb[gi] + (hb - pg) * bseed) % _P
            for p in range(1, m + 1):
                if p == gi:  # adjacent blanks; identical pattern to (p, gap p)
                    continue
                fp = p if p <= g else p + 1  # final position of the blanked char
                oc = pattern[p - 1]
                kb = (kb_ins + (_W - oc) * pb[fp]) % _P
                chars, capped = q2(kb)
                lists += 1
                caps += capped
                if chars:
                    qa, qb = (fp, gi) if fp < gi else (gi, fp)
                    n1, c1, n = _fill2(matches, probe_longer, q1, buf, qa, pb[qa], qb, pb[qb],
                                       kb, chars)
                    lists += n1
                    caps += c1
                    candidates += n
                    buf[fp - 1] = oc
            if g < m:
                buf[g] = pattern[g]

    # -- two insertions ----------------------------------------------------------
    if probe_long2 is not None:
        buf = bytearray(m + 2)
        for a in range(1, m + 2):
            buf[: a - 1] = pattern[: a - 1]
            buf[a + 1 :] = pattern[a - 1 :]
            pa = prefb[a - 1]
            wa = _W * pb[a]
            for b in range(a + 1, m + 3):
                pqb = prefb[b - 2]
                kb = (pa + wa + (pqb - pa) * bseed + _W * pb[b] + (hb - pqb) * bseed2) % _P
                chars, capped = q2(kb)
                lists += 1
                caps += capped
                if chars:
                    n1, c1, n = _fill2(matches, probe_long2, q1, buf, a, pb[a], b, pb[b], kb, chars)
                    lists += n1
                    caps += c1
                    candidates += n
                if b < m + 2:
                    buf[b - 1] = pattern[b - 2]

    return QueryResult(matches, QueryStats(lists, candidates, candidates + identity, caps))
