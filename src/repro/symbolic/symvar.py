"""Symbolic variables (the paper's "instances").

A symbolic variable is an existential standing for one concrete value: a
heap instance (kind ``REF``) drawn from a points-to region, or a primitive
value (kind ``DATA``, the paper's special ``data`` region). Identity is by
allocation of the Python object; queries relate variables through their own
union-find, so a :class:`SymVar` itself is immutable and freely shared
between forked queries.
"""

from __future__ import annotations

import itertools

from ..obs import isolation

_ids = itertools.count()

REF = "ref"
DATA = "data"


class SymVar:
    """An instance variable; hashable, identity-based."""

    __slots__ = ("vid", "kind", "hint", "_repr")

    def __init__(self, kind: str, hint: str = "") -> None:
        if kind not in (REF, DATA):
            raise ValueError(f"bad symvar kind {kind!r}")
        self.vid = next(
            isolation.private_ids() if isolation.ACTIVE and isolation.here() else _ids
        )
        self.kind = kind
        self.hint = hint
        # Rendered once: the repr is the sort key of every LinExpr.of.
        stem = hint or ("v" if kind == REF else "d")
        self._repr = f"{stem}̂{self.vid}"

    @property
    def is_ref(self) -> bool:
        return self.kind == REF

    def __repr__(self) -> str:
        return self._repr

    def __lt__(self, other: "SymVar") -> bool:
        return self.vid < other.vid


def fresh_ref(hint: str = "") -> SymVar:
    return SymVar(REF, hint)


def fresh_data(hint: str = "") -> SymVar:
    return SymVar(DATA, hint)
