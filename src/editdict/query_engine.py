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

Two-wildcard patterns are resolved leftmost first: the level-2 store hands
back candidate characters for the leftmost blank, each of which turns the
pattern into a one-wildcard key for the level-1 store.  Every fully filled
candidate string is verified against the exact dictionary, so signature
collisions and capped scans can only cost time, never correctness.

Candidate strings are materialized into reusable scratch buffers; moving
from one candidate to the next touches O(1) characters, and all key and
candidate hashes derive from the pattern's prefix hashes in O(1) each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedQueryError, ValidationError
from .hashing import MODULUS as _P, WILDCARD as _W, HashContext


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


def query(index, pattern, k: int) -> QueryResult:
    """All dictionary words at edit distance <= k from the pattern.

    Requires k in {0, 1, 2}, k not above the index's error level, and
    k < len(pattern).
    """
    if isinstance(pattern, str):
        pattern = pattern.encode("latin-1")
    if 0 in pattern:
        raise ValidationError("pattern contains a zero byte")
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    if k > index.errors:
        raise UnsupportedQueryError(
            f"index was built for {index.errors} error(s), cannot answer k={k}"
        )
    m = len(pattern)
    if k >= m:
        raise ValueError(f"k={k} must be smaller than the pattern length {m}")

    exact = index.exact
    matches: set[bytes] = set()
    lists = candidates = probes = caps = 0

    bseed = index.bucket_seed
    bctx = HashContext(pattern, bseed)
    hb = bctx.total
    pb = bctx.powers
    prefb = bctx.prefix
    invb = bctx.inv

    # One bound membership probe per candidate length; None marks a length
    # with no stored words, so whole candidate classes can be skipped.
    probe_same = exact.probe_for_length(m)

    if probe_same is not None:
        probes += 1
        if probe_same(pattern, hb):
            matches.add(bytes(pattern))
    if k == 0:
        return QueryResult(matches, QueryStats(0, 0, probes, 0))

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
            h = (prefb[j - 1] + (hb - prefb[j]) * invb) % _P
            candidates += 1
            probes += 1
            if probe_shorter(buf, h):
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
                if type(chars) is list and len(chars) > 1:
                    chars = set(chars)
                pbj = pb[j]
                base = (kb - _W * pbj) % _P
                jj = j - 1
                orig = pattern[jj]
                for c in chars:
                    buf[jj] = c
                    candidates += 1
                    probes += 1
                    if probe_same(buf, (base + c * pbj) % _P):
                        matches.add(bytes(buf))
                buf[jj] = orig

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
                if type(chars) is list and len(chars) > 1:
                    chars = set(chars)
                pbg = pb[g + 1]
                base = (kb - _W * pbg) % _P
                for c in chars:
                    buf[g] = c
                    candidates += 1
                    probes += 1
                    if probe_longer(buf, (base + c * pbg) % _P):
                        matches.add(bytes(buf))
            if g < m:
                buf[g] = pattern[g]

    if k == 1:
        return QueryResult(matches, QueryStats(lists, candidates, probes, caps))

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
                probes += 1
                if probe_short2(buf, h):
                    matches.add(bytes(buf))
                jy = j - 1
                if jy < m - 1:
                    buf[jy - 1] = y[jy - 1]

    # -- deletion + substitution ---------------------------------------------
    if probe_shorter is not None:
        for d in range(1, m + 1):
            y = pattern[: d - 1] + pattern[d:]
            hy = (prefb[d - 1] + (hb - prefb[d]) * invb) % _P
            buf = bytearray(y)
            for p in range(1, m):
                yc = y[p - 1]
                pbp = pb[p]
                kb = (hy + (_W - yc) * pbp) % _P
                chars, capped = q1(kb)
                lists += 1
                caps += capped
                if chars:
                    if type(chars) is list and len(chars) > 1:
                        chars = set(chars)
                    base = (kb - _W * pbp) % _P
                    pp = p - 1
                    for c in chars:
                        buf[pp] = c
                        candidates += 1
                        probes += 1
                        if probe_shorter(buf, (base + c * pbp) % _P):
                            matches.add(bytes(buf))
                    buf[pp] = yc

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
                        if type(chars) is list and len(chars) > 1:
                            chars = set(chars)
                        base = (kb - _W * pbg) % _P
                        for c in chars:
                            buf[g] = c
                            candidates += 1
                            probes += 1
                            if probe_same(buf, (base + c * pbg) % _P):
                                matches.add(bytes(buf))
                if g < m - 1:
                    buf[g] = y[g]

    # -- two substitutions -----------------------------------------------------
    if probe_same is not None:
        buf = bytearray(pattern)
        for i in range(1, m):
            bi = (hb + db[i]) % _P
            pbi = pb[i]
            ii = i - 1
            oi = pattern[ii]
            for j in range(i + 1, m + 1):
                kb = (bi + db[j]) % _P
                chars2, capped = q2(kb)
                lists += 1
                caps += capped
                if not chars2:
                    continue
                if type(chars2) is list and len(chars2) > 1:
                    chars2 = set(chars2)
                pbj = pb[j]
                jj = j - 1
                oj = pattern[jj]
                for c in chars2:
                    kb1 = (kb + (c - _W) * pbi) % _P
                    chars1, capped1 = q1(kb1)
                    lists += 1
                    caps += capped1
                    if not chars1:
                        continue
                    if type(chars1) is list and len(chars1) > 1:
                        chars1 = set(chars1)
                    buf[ii] = c
                    base = (kb1 - _W * pbj) % _P
                    for c2 in chars1:
                        buf[jj] = c2
                        candidates += 1
                        probes += 1
                        if probe_same(buf, (base + c2 * pbj) % _P):
                            matches.add(bytes(buf))
                    buf[jj] = oj
                buf[ii] = oi

    # -- substitution + insertion ----------------------------------------------
    if probe_longer is not None:
        buf = bytearray(m + 1)
        buf[1:] = pattern
        for g in range(m + 1):
            pg = prefb[g]
            kb_ins = (pg + _W * pb[g + 1] + (hb - pg) * bseed) % _P
            gi = g + 1  # final position of the inserted blank
            for p in range(1, m + 1):
                if p == g + 1:  # adjacent blanks; identical pattern to (p, gap p)
                    continue
                fp = p if p <= g else p + 1  # final position of the blanked char
                oc = pattern[p - 1]
                kb = (kb_ins + (_W - oc) * pb[fp]) % _P
                if fp < gi:
                    qa, qb = fp, gi
                else:
                    qa, qb = gi, fp
                chars2, capped = q2(kb)
                lists += 1
                caps += capped
                if chars2:
                    if type(chars2) is list and len(chars2) > 1:
                        chars2 = set(chars2)
                    pba = pb[qa]
                    pbb = pb[qb]
                    for c in chars2:
                        kb1 = (kb + (c - _W) * pba) % _P
                        chars1, capped1 = q1(kb1)
                        lists += 1
                        caps += capped1
                        if not chars1:
                            continue
                        if type(chars1) is list and len(chars1) > 1:
                            chars1 = set(chars1)
                        buf[qa - 1] = c
                        base = (kb1 - _W * pbb) % _P
                        for c2 in chars1:
                            buf[qb - 1] = c2
                            candidates += 1
                            probes += 1
                            if probe_longer(buf, (base + c2 * pbb) % _P):
                                matches.add(bytes(buf))
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
                chars2, capped = q2(kb)
                lists += 1
                caps += capped
                if chars2:
                    if type(chars2) is list and len(chars2) > 1:
                        chars2 = set(chars2)
                    pba = pb[a]
                    pbb = pb[b]
                    for c in chars2:
                        kb1 = (kb + (c - _W) * pba) % _P
                        chars1, capped1 = q1(kb1)
                        lists += 1
                        caps += capped1
                        if not chars1:
                            continue
                        if type(chars1) is list and len(chars1) > 1:
                            chars1 = set(chars1)
                        buf[a - 1] = c
                        base = (kb1 - _W * pbb) % _P
                        for c2 in chars1:
                            buf[b - 1] = c2
                            candidates += 1
                            probes += 1
                            if probe_long2(buf, (base + c2 * pbb) % _P):
                                matches.add(bytes(buf))
                if b < m + 2:
                    buf[b - 1] = pattern[b - 2]

    return QueryResult(matches, QueryStats(lists, candidates, probes, caps))


# -- pattern enumeration (descriptor form, used by tests and diagnostics) -----

_CLASS_INFO = {
    "del": (-1, 0),
    "sub": (0, 1),
    "ins": (1, 1),
    "deldel": (-2, 0),
    "delsub": (-1, 1),
    "delins": (0, 1),
    "subsub": (0, 2),
    "subins": (1, 2),
    "insins": (2, 2),
}


@dataclass(frozen=True)
class PatternDescriptor:
    """One derived lookup pattern: class, op positions, resulting shape.

    Position meaning per kind:
      del (d,)          delete position d
      sub (j,)          blank position j
      ins (g,)          insert a blank after gap g in [0, m]
      deldel (i, j)     delete positions i < j
      delsub (d, p)     delete d, then blank position p of the result
      delins (d, g)     delete d, then insert a blank at gap g of the result
      subsub (i, j)     blank positions i < j
      subins (p, g)     blank position p, then insert a blank at gap g
      insins (q1, q2)   final blank positions q1 < q2 in the length m+2 result
    """

    kind: str
    positions: tuple[int, ...]
    length: int
    wildcards: int

    def pattern(self, x) -> tuple[int, ...]:
        """Materialize the symbolic pattern over x, with WILDCARD blanks."""
        w = tuple(x)
        k = self.kind
        p = self.positions
        if k == "del":
            return w[: p[0] - 1] + w[p[0] :]
        if k == "sub":
            return w[: p[0] - 1] + (_W,) + w[p[0] :]
        if k == "ins":
            return w[: p[0]] + (_W,) + w[p[0] :]
        if k == "deldel":
            i, j = p
            return w[: i - 1] + w[i : j - 1] + w[j:]
        if k == "delsub":
            d, q = p
            y = w[: d - 1] + w[d:]
            return y[: q - 1] + (_W,) + y[q:]
        if k == "delins":
            d, g = p
            y = w[: d - 1] + w[d:]
            return y[:g] + (_W,) + y[g:]
        if k == "subsub":
            i, j = p
            return w[: i - 1] + (_W,) + w[i : j - 1] + (_W,) + w[j:]
        if k == "subins":
            q, g = p
            y = w[: q - 1] + (_W,) + w[q:]
            return y[:g] + (_W,) + y[g:]
        if k == "insins":
            q1, q2 = p
            out = []
            src = 0
            for pos in range(1, self.length + 1):
                if pos == q1 or pos == q2:
                    out.append(_W)
                else:
                    out.append(w[src])
                    src += 1
            return tuple(out)
        raise ValueError(f"unknown pattern kind {k!r}")


def enumerate_patterns(x, k: int) -> list[PatternDescriptor]:
    """Every derived lookup pattern for a query at the given bound.

    Covers all strings at edit distance 1..k from x (distance 0 is the
    pattern itself and is checked separately).  Redundant shapes that
    reproduce an already-enumerated pattern (delete-then-reinsert at the
    same gap, and one of the two adjacent-blank substitution/insertion
    layouts) are skipped.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    m = len(x)
    out = []

    def emit(kind, positions):
        dlen, wc = _CLASS_INFO[kind]
        out.append(PatternDescriptor(kind, positions, m + dlen, wc))

    for d in range(1, m + 1):
        emit("del", (d,))
    for j in range(1, m + 1):
        emit("sub", (j,))
    for g in range(m + 1):
        emit("ins", (g,))
    if k == 1:
        return out
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            emit("deldel", (i, j))
    for d in range(1, m + 1):
        for p in range(1, m):
            emit("delsub", (d, p))
    for d in range(1, m + 1):
        for g in range(m):
            if g != d - 1:
                emit("delins", (d, g))
    for i in range(1, m):
        for j in range(i + 1, m + 1):
            emit("subsub", (i, j))
    for p in range(1, m + 1):
        for g in range(m + 1):
            if p != g + 1:
                emit("subins", (p, g))
    for q1 in range(1, m + 2):
        for q2 in range(q1 + 1, m + 3):
            emit("insins", (q1, q2))
    return out
