"""Span recording for the traced run, by wrapping editdict entry points.

The wrappers are installed at class level from outside the library and
removed again afterwards, so the untraced runs execute the library
unchanged.  Each span holds: id, parent id, operation id, name, start
and end (perf_counter_ns) and one integer of detail (characters returned
by a scan, -1 for a capped scan, 1/0 for a probe hit).  Spans live in an
in-memory array until the run writes them out.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

from editdict.exact_dict import ExactDictionary
from editdict.hashing import HashContext
from editdict.subst_store import SubstStore
from editdict.succinct import RankBitVector

SCAN = "subst_store.list_query"
PROBE = "exact_dict.probe"
RANK = "succinct.rank1"
CONTEXT = "hashing.HashContext"
EXACT_PARSE = "exact_dict.from_bytes"
STORE_PARSE = "subst_store.from_bytes"
EXACT_INSERT = "exact_dict.insert_word"
EXACT_CONTAINS = "exact_dict.contains"

# Which library layer a span's self time belongs to.
LAYER_OF = {
    SCAN: "subst_store",
    PROBE: "exact_dict",
    RANK: "succinct",
    CONTEXT: "hashing",
    EXACT_PARSE: "exact_dict",
    STORE_PARSE: "subst_store",
    EXACT_INSERT: "exact_dict",
    EXACT_CONTAINS: "exact_dict",
}


class Tracer:
    """Span store plus the patching that feeds it."""

    FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "info")

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.records = array("q")  # FIELDS per span, in the order spans end
        self.next_id = 0
        self.current = -1  # id of the innermost open span
        self.op = -1       # id of the operation being traced

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return self.next_id

    def _wrap(self, name: str, fn, info=None):
        """fn as a span named `name`; info(result) gives the detail integer."""
        nid = self.name_id(name)
        record = self.records.extend
        clock = perf_counter_ns
        tracer = self

        def wrapper(*args):
            parent = tracer.current
            sid = tracer.current = tracer.next_id
            tracer.next_id = sid + 1
            t0 = clock()
            ok = False
            try:
                result = fn(*args)
                ok = True
            finally:
                # Recorded also when fn raises, so every span id has a row.
                t1 = clock()
                tracer.current = parent
                record((sid, parent, tracer.op, nid, t0, t1,
                        info(result) if ok and info is not None else 0))
            return result

        return wrapper

    def operation(self, op_id: int, name: str, fn, *args):
        """Run fn(*args) as the root span of one benchmark operation."""
        self.op = op_id
        try:
            return self._wrap(name, fn)(*args)
        finally:
            self.op = -1

    def _patches(self, groups):
        """(owner, attribute, replacement) for every wrapped entry point."""
        out = []
        if "query" in groups:
            out.append((SubstStore, "list_query", self._wrap(SCAN, SubstStore.list_query, _scan_info)))
            out.append((RankBitVector, "rank1", self._wrap(RANK, RankBitVector.rank1)))
            out.append((HashContext, "__init__", self._wrap(CONTEXT, HashContext.__init__)))
            original = ExactDictionary.probe_for_length
            wrap = self._wrap

            def probe_for_length(self_, length):
                probe = original(self_, length)
                return None if probe is None else wrap(PROBE, probe, bool)

            out.append((ExactDictionary, "probe_for_length", probe_for_length))
        if "insert" in groups:
            out.append((ExactDictionary, "insert_word", self._wrap(EXACT_INSERT, ExactDictionary.insert_word, bool)))
            out.append((ExactDictionary, "contains", self._wrap(EXACT_CONTAINS, ExactDictionary.contains, bool)))
        if "load" in groups:
            for owner, name in ((ExactDictionary, EXACT_PARSE), (SubstStore, STORE_PARSE)):
                func = inspect.getattr_static(owner, "from_bytes").__func__
                out.append((owner, "from_bytes", classmethod(self._wrap(name, func))))
        return out

    @contextmanager
    def installed(self, *groups: str):
        """Wrap the entry points of the named groups ("query", "insert", "load")."""
        saved = []
        try:
            for owner, attr, replacement in self._patches(groups):
                saved.append((owner, attr, inspect.getattr_static(owner, attr)))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def columns(self) -> dict[str, array]:
        """FIELDS as columns indexed by span id."""
        width = len(self.FIELDS)
        ids = self.records[0::width]
        cols = {}
        for i, field in enumerate(self.FIELDS):
            col = array("q", bytes(8 * self.next_id))
            for sid, value in zip(ids, self.records[i::width]):
                col[sid] = value
            cols[field] = col
        return cols

    @staticmethod
    def self_times(cols) -> array:
        """Per span: duration minus the durations of its direct children."""
        start, end = cols["start_ns"], cols["end_ns"]
        own = array("q", (e - s for s, e in zip(start, end)))
        for sid, p in enumerate(cols["parent"]):
            if p >= 0:
                own[p] -= end[sid] - start[sid]
        return own

    def write(self, path) -> None:
        """Spans as gzip'd tab-separated lines, one per span, with a header."""
        cols = self.columns()
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("\t".join(self.FIELDS) + "\n")
            for row in zip(*(cols[k] for k in self.FIELDS)):
                f.write("\t".join(names[v] if k == "name" else str(v)
                                   for k, v in zip(self.FIELDS, row)) + "\n")


def _scan_info(result) -> int:
    chars, capped = result
    return -1 if capped else len(chars)
