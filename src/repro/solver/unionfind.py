"""A small union-find with path compression, keyed by hashable objects."""

from __future__ import annotations

from typing import Hashable, Iterator


class UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def find(self, item: Hashable) -> Hashable:
        """The class root of ``item``. Iterative, so chains of any length
        resolve; every link on the path is then pointed at the root."""
        parent = self._parent
        root = parent.get(item, item)
        if root == item:
            return item
        path = [item]
        while True:
            up = parent.get(root, root)
            if up == root:
                break
            path.append(root)
            root = up
        for node in path:
            parent[node] = root
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the classes of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb
        return rb

    def same(self, a: Hashable, b: Hashable) -> bool:
        return self.find(a) == self.find(b)

    def items(self) -> Iterator[Hashable]:
        return iter(self._parent)

    def copy(self) -> "UnionFind":
        fresh = UnionFind()
        fresh._parent = dict(self._parent)
        return fresh
