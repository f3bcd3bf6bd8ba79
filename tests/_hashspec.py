"""Reference single edits and their O(1) hashes from a SpecContext.

The hashing tests check the O(1) formulas here against poly_hash of the
edited string built by apply_edit.  The query engine inlines the delete
formula, and makes every wildcard key of a pattern from one formula over
its HashContext, which the engine tests check against poly_hash of the
blanked pattern.  The stores' keys come from hashing.blank_keys, which the
store tests check the same way.  SpecContext is a HashContext that also
keeps its word and seed, which the formulas read and the library does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from editdict.hashing import MODULUS, HashContext


@dataclass(frozen=True)
class EditOp:
    """One edit: kind is "substitute", "delete", "insert" or "identity".

    For substitute/delete, pos is a 1-based character position; for insert,
    pos is a gap in [0, m].  char is the new symbol (may be WILDCARD).
    """

    kind: str
    pos: int = 0
    char: int = 0


IDENTITY = EditOp("identity")


class SpecContext(HashContext):
    """A HashContext that remembers the word and seed it was built from."""

    __slots__ = ("word", "seed")

    def __init__(self, word, seed: int):
        super().__init__(word, seed)
        self.word = word
        self.seed = seed


def apply_edit(word, op: EditOp) -> tuple[int, ...]:
    """Reference application of an edit, returning a symbol tuple."""
    w = tuple(word)
    if op.kind == "identity":
        return w
    if op.kind == "substitute":
        return w[: op.pos - 1] + (op.char,) + w[op.pos :]
    if op.kind == "delete":
        return w[: op.pos - 1] + w[op.pos :]
    if op.kind == "insert":
        return w[: op.pos] + (op.char,) + w[op.pos :]
    raise ValueError(f"unknown edit kind {op.kind!r}")


def substitute(ctx: SpecContext, pos: int, char: int) -> int:
    """Hash of the word with the character at `pos` replaced by `char`."""
    return (ctx.total + (char - ctx.word[pos - 1]) * ctx.powers[pos]) % MODULUS


def delete(ctx: SpecContext, pos: int) -> int:
    """Hash of the word with the character at `pos` removed."""
    p = ctx.prefix
    return (p[pos - 1] + (ctx.total - p[pos]) * ctx.inv) % MODULUS


def insert(ctx: SpecContext, gap: int, char: int) -> int:
    """Hash of the word with `char` inserted after position `gap`."""
    p = ctx.prefix[gap]
    return (p + char * ctx.powers[gap + 1] + (ctx.total - p) * ctx.seed) % MODULUS


def edit_hash(ctx: SpecContext, op: EditOp) -> int:
    """Hash of apply_edit(ctx.word, op), in O(1) arithmetic operations."""
    if op.kind == "identity":
        return ctx.total
    if op.kind == "substitute":
        return substitute(ctx, op.pos, op.char)
    if op.kind == "delete":
        return delete(ctx, op.pos)
    if op.kind == "insert":
        return insert(ctx, op.pos, op.char)
    raise ValueError(f"unknown edit kind {op.kind!r}")
