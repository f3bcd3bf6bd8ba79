"""Candidate enumeration and checking for queries with up to two errors.

A query for pattern x = x_1..x_m and bound k walks every way of explaining
a match with at most k edits, grouped by the shape of the lookup pattern:

  k >= 1   del        delete one position            -> checked directly
           sub        one wildcard, same length      -> level-1 store
           ins        one wildcard, length m + 1     -> level-1 store
  k == 2   deldel     delete two positions           -> checked directly
           delsub     delete + wildcard, length m-1  -> level-1 store
           delins     delete + wildcard, length m    -> level-1 store
           subsub     two wildcards, length m        -> level-2 then level-1
           subins     two wildcards, length m + 1    -> level-2 then level-1
           insins     two wildcards, length m + 2    -> level-2 then level-1

`_one_edit` runs del, sub and ins on x, and for k == 2 on each deletion
y_d of x (row d), which makes deldel, delsub and delins.  Sub and subsub
keys come from hashing.blank_keys, like the store build's; the other
keys are O(1) updates of a HashContext.  These scans and probes repeat
one made already, so they are skipped (positions 1-based, gap g between
positions g and g + 1, w the word _one_edit runs on):

  skipped                             made already as
  del at j, w_j == w_{j-1}            del at j - 1: the same string
  row d, x_d == x_{d-1}               row d - 1: y_d == y_{d-1}
  deldel at j < d in row d            row j, position d - 1
  delsub at d - 1 in row d            row d - 1, position d - 1
  delins at gap d - 1 in row d        sub at d
  subsub filling x_i at left blank i  sub at the right blank
  subins filling x_p at left blank p  ins at the inserted blank's gap
  subins blanking p with gap p - 1    subins blanking p with gap p
  sub filling w_j at blank j          w itself: x, or del at d for row d
  subsub filling x_j at right blank j sub at the left blank
  subins filling x_p at right blank p ins at the inserted blank's gap

Positions and characters decide every skip, never a key hash: two
distinct blanked patterns can share a hash.

`_fill` writes each character a scan returned into the key's one blank
and checks the candidate against the exact dictionary.  `_fill2` resolves
a two-wildcard key leftmost first: each character for the left blank
makes a one-wildcard key, whose level-1 scan goes to `_fill`.  As every
candidate is checked, signature collisions and capped scans cost time,
never correctness.  Candidates live in reusable buffers; moving from one
to the next touches O(1) characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import UnsupportedQueryError, ValidationError
from .hashing import MODULUS as _P, WILDCARD as _W, HashContext, blank_keys
from .util import as_bytes


@dataclass
class QueryStats:
    """Work counters for one query: distinct store scans, candidates,
    exact probes and capped scans."""

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


def _fill(matches, probe, buf, q, pq, kb, chars, own) -> int:
    """Probe buf with each scanned character at its blank; returns how many
    candidates it probed.

    The blank is at 1-based position q, whose hash weight is pq, and kb is
    the key's hash, so the candidate holding c hashes to kb - W*pq + c*pq.
    c == own, the word's own character at q (0 for an inserted blank), is
    skipped: that candidate has one edit fewer, so a stored word there was
    found already.
    Hits go to matches; buf keeps the last character written.
    """
    if type(chars) is list and len(chars) > 1:
        chars = set(chars)  # a run may hold one character more than once
    base = (kb - _W * pq) % _P
    q -= 1
    probed = 0
    for c in chars:
        if c != own:
            buf[q] = c
            probed += 1
            if probe(buf, (base + c * pq) % _P):
                matches.add(bytes(buf))
    return probed


def _fill2(matches, probe, q1, buf, qa, pqa, qb, pqb, kb, chars, own, own_b):
    """_fill for a two-wildcard key: chars came from its level-2 scan.

    Each character c for the left blank (position qa, weight pqa) makes
    the level-1 key kb - W*pqa + c*pqa, whose scan fills the right blank
    (position qb, weight pqb, x's own character there own_b).  c == own,
    x's own character at qa (0 for an inserted blank), is skipped: that
    key is x's sub or ins key.  Returns (level-1 scans, capped scans,
    candidates probed).
    """
    if type(chars) is list and len(chars) > 1:
        chars = set(chars)
    scans = caps = candidates = 0
    qa -= 1
    for c in chars:
        if c != own:
            kb1 = (kb + (c - _W) * pqa) % _P
            chars1, capped = q1(kb1)
            scans += 1
            caps += capped
            if chars1:
                buf[qa] = c
                candidates += _fill(matches, probe, buf, qb, pqb, kb1, chars1, own_b)
    return scans, caps, candidates


def _one_edit(matches, q1, word, ctx, seed, probes, first, skip):
    """del, sub and ins on word, whose HashContext under seed is ctx.

    probes holds the exact probes for lengths len(word) - 1, len(word) and
    len(word) + 1, None where no word has that length.  Deletions start at
    position `first` and leave out a position holding the same character
    as the one before it; substitution position `skip` and insertion gap
    `skip` are not scanned.  Returns (scans, capped scans, candidates).
    """
    probe_del, probe_sub, probe_ins = probes
    n = len(word)
    pre, pw, h = ctx.prefix, ctx.powers, ctx.total
    scans = caps = candidates = 0

    if probe_del is not None:
        inv = ctx.inv
        buf = bytearray(word[: first - 1] + word[first:])
        prev = word[first - 2] if first > 1 else 0
        for j in range(first, n + 1):
            c = word[j - 1]
            if c != prev:  # deleting j - 1 gave this same string
                candidates += 1
                if probe_del(buf, (pre[j - 1] + (h - pre[j]) * inv) % _P):
                    matches.add(bytes(buf))
            if j < n:
                buf[j - 1] = c
            prev = c

    if probe_sub is not None:
        buf = bytearray(word)
        for j, kb in enumerate(blank_keys(word, seed, 1), 1):
            if j != skip:
                chars, capped = q1(kb)
                scans += 1
                caps += capped
                if chars:
                    candidates += _fill(matches, probe_sub, buf, j, pw[j], kb, chars,
                                        word[j - 1])
                    buf[j - 1] = word[j - 1]

    if probe_ins is not None:
        buf = bytearray(n + 1)
        buf[1:] = word
        for g in range(n + 1):
            if g != skip:
                pg = pre[g]
                kb = (pg + _W * pw[g + 1] + (h - pg) * seed) % _P
                chars, capped = q1(kb)
                scans += 1
                caps += capped
                if chars:
                    candidates += _fill(matches, probe_ins, buf, g + 1, pw[g + 1], kb, chars, 0)
            if g < n:
                buf[g] = word[g]

    return scans, caps, candidates


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
    k = (0, 1, 2).index(k)  # an int from here on, also for 1.0 or True
    if k > index.errors:
        raise UnsupportedQueryError(
            f"index was built for {index.errors} error(s), cannot answer k={k}"
        )
    m = len(pattern)
    if k >= m:
        raise ValidationError(f"k={k} must be smaller than the pattern length {m}")

    matches: set[bytes] = set()
    seed = index.bucket_seed
    ctx = HashContext(pattern, seed)

    # One bound membership probe per candidate length; None marks a length
    # with no stored words, so whole candidate classes can be skipped.
    probe_for = index.exact.probe_for_length
    probe_same = probe_for(m)
    identity = 0 if probe_same is None else 1  # probes of the pattern itself

    if identity and probe_same(pattern, ctx.total):
        matches.add(pattern)
    if k == 0:
        return QueryResult(matches, QueryStats(0, 0, identity, 0))

    q1 = index.store1.list_query
    probe_shorter = probe_for(m - 1)
    probe_longer = probe_for(m + 1)
    # del, sub and ins of the pattern: every position and gap (skip -1).
    lists, caps, candidates = _one_edit(matches, q1, pattern, ctx, seed,
                                        (probe_shorter, probe_same, probe_longer), 1, -1)
    if k == 1:
        return QueryResult(matches, QueryStats(lists, candidates, candidates + identity, caps))

    # -- deldel, delsub, delins: one more edit on each distinct deletion ---
    row_probes = (probe_for(m - 2), probe_shorter, probe_same)
    for d in range(1, m + 1):
        if d == 1 or pattern[d - 1] != pattern[d - 2]:
            y = pattern[: d - 1] + pattern[d:]
            n1, c1, n = _one_edit(matches, q1, y, HashContext(y, seed), seed,
                                  row_probes, d, d - 1)
            lists += n1
            caps += c1
            candidates += n

    q2 = index.store2.list_query
    hb, pb, prefb = ctx.total, ctx.powers, ctx.prefix
    bseed2 = seed * seed % _P

    # -- two substitutions -----------------------------------------------------
    if probe_same is not None:
        buf = bytearray(pattern)
        for (i, j), kb in zip(combinations(range(1, m + 1), 2), blank_keys(pattern, seed, 2)):
            chars, capped = q2(kb)
            lists += 1
            caps += capped
            if chars:
                n1, c1, n = _fill2(matches, probe_same, q1, buf, i, pb[i], j, pb[j], kb, chars,
                                   pattern[i - 1], pattern[j - 1])
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
            kb_ins = (pg + _W * pb[gi] + (hb - pg) * seed) % _P
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
                    qa, qb, own, own_b = (fp, gi, oc, 0) if fp < gi else (gi, fp, 0, oc)
                    n1, c1, n = _fill2(matches, probe_longer, q1, buf, qa, pb[qa], qb, pb[qb],
                                       kb, chars, own, own_b)
                    lists += n1
                    caps += c1
                    candidates += n
                    buf[fp - 1] = oc
            if g < m:
                buf[g] = pattern[g]

    # -- two insertions ----------------------------------------------------------
    probe_long2 = probe_for(m + 2)
    if probe_long2 is not None:
        buf = bytearray(m + 2)
        for a in range(1, m + 2):
            buf[: a - 1] = pattern[: a - 1]
            buf[a + 1 :] = pattern[a - 1 :]
            pa = prefb[a - 1]
            wa = _W * pb[a]
            for b in range(a + 1, m + 3):
                pqb = prefb[b - 2]
                kb = (pa + wa + (pqb - pa) * seed + _W * pb[b] + (hb - pqb) * bseed2) % _P
                chars, capped = q2(kb)
                lists += 1
                caps += capped
                if chars:
                    n1, c1, n = _fill2(matches, probe_long2, q1, buf, a, pb[a], b, pb[b], kb,
                                       chars, 0, 0)
                    lists += n1
                    caps += c1
                    candidates += n
                if b < m + 2:
                    buf[b - 1] = pattern[b - 2]

    return QueryResult(matches, QueryStats(lists, candidates, candidates + identity, caps))
