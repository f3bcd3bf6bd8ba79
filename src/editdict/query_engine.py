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
y_d of x (row d), which makes deldel, delsub and delins.

Every wildcard key comes from one formula over the HashContext of the
word w = w_1..w_n it blanks: a key of length n + r has r inserted
blanks, and w fills its other places in order.  With P the prefix
hashes, R the powers of the seed, T = P[n] and W the wildcard value, a
blank at q (a substitution if r == 0, an insertion at gap q - 1 if
r == 1) gives

  P[q-1] + W*R[q] + (T - P[q-r]) * R[r]

and blanks at qa < qb, of which ia in {0, 1} inserted at qa and r - ia
at qb, give left[qa] + right[qb] with

  left[qa]  = P[qa-1] + W*R[qa] - P[qa-ia] * R[ia]
  right[qb] = P[qb-ia-1] * R[ia] + W*R[qb] + (T - P[qb-r]) * R[r]

so a two-wildcard key costs one add and one mod once `right` is built.
These scans and probes repeat one made already, so they are skipped
(positions 1-based, gap g between positions g and g + 1):

  skipped                             made already as
  del at j, w_j == w_{j-1}            del at j - 1: the same string
  row d, x_d == x_{d-1}               row d - 1: y_d == y_{d-1}
  deldel at j < d in row d            row j, position d - 1
  delsub at d - 1 in row d            row d - 1, position d - 1
  delins at gap d - 1 in row d        sub at d
  subins inserting the left blank,    subins substituting the left
    x_qa..x_{qb-1} one run              blank: the same key
  a blank filled with the character   the key with one blank fewer
    of w or x it took the place of      (w itself for one blank)

The run rule is the one place where two edit pairs make one two-wildcard
key: with the left blank inserted the key holds x_qa..x_{qb-2} between
its blanks, with it substituted x_{qa+1}..x_{qb-1}, and the two are
equal exactly when x_qa..x_{qb-1} is one run (adjacent blanks are its
one-character case).  So each level-2 key is scanned once.  Level-1 keys
can repeat on a pattern with a run: delins at gap 2 of y_2 and sub at 3
of "baa" both make "ba*", which no skip looks for.  Positions and
characters decide every skip, never a key hash: two distinct blanked
patterns can share a hash.

A key whose scan returns characters gets a fresh candidate buffer, w
with a zero at each blank, from one slice join.  `_fill` writes each
character a scan returned into the key's one blank and checks the
candidate against the exact dictionary.  A two-wildcard key is resolved
leftmost first in the level-2 loop of `query`: each character its scan
returned for the left blank, other than x's own there, makes a
one-wildcard key, whose level-1 scan goes to `_fill`.  As every
candidate is checked, signature collisions and capped scans cost time,
never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedQueryError, ValidationError
from .hashing import MODULUS as _P, WILDCARD as _W, HashContext
from .util import as_bytes

# Longest pattern a k=2 query accepts.  A k=2 query makes Θ(m²) store
# scans on a pattern of length m, and each scan that returns characters
# makes candidates, so with a stored word of length near m its time grows
# with m² however few words match.  On a 2-vCPU host, with one stored
# word of length m among 2,000 a–z words of 4–12 bytes and a pattern one
# substitution away, m = 500 took 0.65 s plain and 0.82 s compacted, and
# m = 600 took 1.0–1.2 s plain.
MAX_K2_PATTERN = 500


@dataclass
class QueryStats:
    """Work counters for one query: store scans, candidates, exact probes
    and capped scans.  A level-2 key is scanned once; on a pattern with a
    run a level-1 key can be scanned twice (see the module docstring)."""

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
    found already.  Hits go to matches.
    """
    if type(chars) is not range and len(chars) > 1:
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


def _one_edit(matches, q1, word, ctx, probes, first, skip):
    """del, sub and ins on word, whose HashContext is ctx.

    probes holds the exact probes for lengths len(word) - 1, len(word) and
    len(word) + 1, None where no word has that length.  Deletions start at
    position `first` and leave out a position holding the same character
    as the one before it; substitution position `skip` and insertion gap
    `skip` are not scanned.  Returns (scans, capped scans, candidates).
    """
    probe_del = probes[0]
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

    # sub (r = 0) and ins (r = 1): one blank at q, r of it inserted.
    for r, probe in enumerate(probes[1:]):
        if probe is None:
            continue
        sr = pw[r]
        for q in range(1, n + r + 1):
            if q - r != skip:
                kb = (pre[q - 1] + _W * pw[q] + (h - pre[q - r]) * sr) % _P
                chars, capped = q1(kb)
                scans += 1
                caps += capped
                if chars:
                    buf = bytearray(b"\0".join((word[: q - 1], word[q - r :])))
                    candidates += _fill(matches, probe, buf, q, pw[q], kb, chars,
                                        0 if r else word[q - 1])

    return scans, caps, candidates


def check_k(index, k) -> int:
    """k as an int; ValidationError unless k is 0, 1 or 2, and
    UnsupportedQueryError if it is above the index's error level."""
    if k not in (0, 1, 2):
        raise ValidationError("k must be 0, 1 or 2")
    k = (0, 1, 2).index(k)  # an int from here on, also for 1.0 or True
    if k > index.errors:
        raise UnsupportedQueryError(
            f"index was built for {index.errors} error(s), cannot answer k={k}"
        )
    return k


def query(index, pattern, k: int) -> QueryResult:
    """All dictionary words at edit distance <= k from the pattern.

    The pattern is bytes-like or a latin-1 str.  Requires k in {0, 1, 2},
    k not above the index's error level (check_k), and k < len(pattern).
    A k=2 pattern longer than MAX_K2_PATTERN (500) bytes raises
    UnsupportedQueryError, unless no stored word's length is within 2 of
    it and the empty answer comes at once: k=2 work grows with the square
    of the pattern length, and at that limit it takes most of a second
    (see MAX_K2_PATTERN).
    """
    pattern = as_bytes(pattern, "pattern")
    if 0 in pattern:
        raise ValidationError("pattern contains a zero byte")
    k = check_k(index, k)
    m = len(pattern)
    if k >= m:
        raise ValidationError(f"k={k} must be smaller than the pattern length {m}")

    # One bound membership probe per candidate length m - k .. m + k; None
    # marks a length with no stored words, so whole candidate classes can
    # be skipped, and a query with no length to probe answers at once.
    probe_for = index.exact.probe_for_length
    probes = [probe_for(n) for n in range(m - k, m + k + 1)]
    if not any(probes):
        return QueryResult(set(), QueryStats())
    if k == 2 and m > MAX_K2_PATTERN:
        raise UnsupportedQueryError(f"a k=2 pattern may be at most {MAX_K2_PATTERN} bytes, "
                                    f"not {m}")
    probe_same = probes[k]
    identity = 0 if probe_same is None else 1  # probes of the pattern itself

    matches: set[bytes] = set()
    seed = index.bucket_seed
    ctx = HashContext(pattern, seed)
    if identity and probe_same(pattern, ctx.total):
        matches.add(pattern)
    if k == 0:
        return QueryResult(matches, QueryStats(0, 0, identity, 0))

    q1 = index.stores[0].list_query
    probe_shorter, probe_longer = probes[k - 1], probes[k + 1]
    # del, sub and ins of the pattern: every position and gap (skip -1).
    lists, caps, candidates = _one_edit(matches, q1, pattern, ctx,
                                        (probe_shorter, probe_same, probe_longer), 1, -1)
    if k == 1:
        return QueryResult(matches, QueryStats(lists, candidates, candidates + identity, caps))

    # -- deldel, delsub, delins: one more edit on each distinct deletion ---
    # Each row builds its deletion's HashContext, O(m), so no row is
    # entered when no length they probe has a table.
    row_probes = probes[:3]  # lengths m - 2, m - 1 and m
    if any(row_probes):
        for d in range(1, m + 1):
            if d == 1 or pattern[d - 1] != pattern[d - 2]:
                y = pattern[: d - 1] + pattern[d:]
                n1, c1, n = _one_edit(matches, q1, y, HashContext(y, seed), row_probes, d, d - 1)
                lists += n1
                caps += c1
                candidates += n

    # -- subsub, subins, insins: blanks qa < qb, r inserted, ia of them at qa --
    q2 = index.stores[1].list_query
    pre, pw, total = ctx.prefix, ctx.powers, ctx.total
    last = list(range(m + 1))  # last[q]: the last position of the run through x_q
    for q in range(m - 1, 0, -1):
        if pattern[q - 1] == pattern[q]:
            last[q] = last[q + 1]
    for r, ia in ((0, 0), (1, 0), (1, 1), (2, 1)):
        probe = probes[2 + r]
        if probe is None:
            continue
        ib = r - ia
        si, sr = pw[ia], pw[r]
        right = [0, 0] + [(pre[qb - ia - 1] * si + _W * pw[qb] + (total - pre[qb - r]) * sr) % _P
                          for qb in range(2, m + r + 1)]
        for qa in range(1, m + r):
            pqa = pw[qa]
            ka = (pre[qa - 1] + _W * pqa - pre[qa - ia] * si) % _P
            own_a = 0 if ia else pattern[qa - 1]
            # An inserted left blank before a substituted right one needs a
            # break in the run from x_qa: the module docstring's run rule.
            for qb in range(last[qa] + 2 if ia > ib else qa + 1, m + r + 1):
                kb = (ka + right[qb]) % _P
                chars, capped = q2(kb)
                lists += 1
                caps += capped
                if not chars:
                    continue
                if type(chars) is not range and len(chars) > 1:
                    chars = set(chars)  # a run may hold one character more than once
                buf = bytearray(b"\0".join((pattern[: qa - 1], pattern[qa - ia : qb - 1 - ia],
                                            pattern[qb - r :])))
                own_b = 0 if ib else pattern[qb - r - 1]
                # Each character for the left blank but x's own (that key is
                # x's sub or ins key) makes a level-1 key for the right one.
                for c in chars:
                    if c != own_a:
                        kb1 = (kb + (c - _W) * pqa) % _P
                        chars1, capped = q1(kb1)
                        lists += 1
                        caps += capped
                        if chars1:
                            buf[qa - 1] = c
                            candidates += _fill(matches, probe, buf, qb, pw[qb], kb1, chars1,
                                                own_b)

    return QueryResult(matches, QueryStats(lists, candidates, candidates + identity, caps))
