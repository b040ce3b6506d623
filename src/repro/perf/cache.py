"""Cross-search refuted-state cache with entailment subsumption.

When a witness-refutation search completes REFUTED, every query it
recorded at a loop head or procedure boundary is a *proven* dead end: all
path programs continuing from that point under that query were refuted.
Because the continuation at such a point is determined by the point key
plus the query's stack signature (the chain of pending call sites), the
refutation transfers to *any* later search over the same program, points-to
result, and root: a new state ``C`` at the same point whose query entails a
cached refuted query ``R`` (``C ⊨ R``, i.e. ``C`` is stronger) can be
dropped before expansion.

What is deliberately **not** cached:

* states from searches that end WITNESSED or TIMEOUT — their recorded
  queries were never fully explored, so nothing is proven about them;
* states recorded during loop-invariant subwalks
  (:meth:`repro.symbolic.executor.Engine.run_subwalk`) — a subwalk's
  continuation is truncated to the loop body, so "refuted there" does not
  mean "refuted under the full continuation".

The store is **lock-striped**: keys hash onto independently locked
segments so the driver's thread-pool workers rarely contend. Entailment
probes run *under* the stripe lock because structural entailment
(:func:`repro.symbolic.simplification.query_entails`) path-compresses the
stored query's union-find and fills its cached canonical forms — benign
mutations single-threaded, data races otherwise. A cache instance must
never be shared across different programs/points-to results/roots; the
driver scopes one per run.

**Persistence** layers on top: :meth:`bind_store` seeds the cache from
the :mod:`repro.perf.store` verdict store (entries proven by earlier runs
over the same program fingerprint) and write-through-persists every entry
this run proves, so the next cold start begins where this one ended.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from ..obs import metrics

_HITS = metrics.counter("executor.refuted_cache_hits")
_MISSES = metrics.counter("executor.refuted_cache_misses")

# Resolved lazily to keep this module importable from the symbolic layer
# without a package-init cycle.
_query_entails = None


def _entails(strong, weak) -> bool:
    global _query_entails
    if _query_entails is None:
        from ..symbolic.simplification import query_entails

        _query_entails = query_entails
    return _query_entails(strong, weak)


class RefutedStateCache:
    """Striped map ``(point key, stack signature) -> refuted queries``."""

    __slots__ = (
        "max_per_point",
        "_stripes",
        "_locks",
        "_hits",
        "_misses",
        "_point_hits",
        "_tally_lock",
        "_store",
        "_store_scope",
    )

    def __init__(self, stripes: int = 16, max_per_point: int = 64) -> None:
        if stripes <= 0:
            raise ValueError("stripes must be positive")
        self.max_per_point = max_per_point
        self._stripes: list[dict] = [{} for _ in range(stripes)]
        self._locks = [threading.Lock() for _ in range(stripes)]
        self._hits = 0
        self._misses = 0
        #: Per-point hit counts — the LRU signal for the persistent store.
        self._point_hits: dict[tuple, int] = {}
        self._tally_lock = threading.Lock()
        self._store = None
        self._store_scope: Optional[str] = None

    def _segment(self, key) -> tuple[dict, threading.Lock]:
        index = hash(key) % len(self._stripes)
        return self._stripes[index], self._locks[index]

    def subsumes(self, key: tuple, query) -> bool:
        """True if ``query`` entails some cached refuted query at ``key``
        (so the caller may drop it as a proven dead end)."""
        segment, lock = self._segment(key)
        with lock:
            refuted = segment.get(key)
            if refuted:
                for old in refuted:
                    if _entails(query, old):
                        with self._tally_lock:
                            self._hits += 1
                            self._point_hits[key] = (
                                self._point_hits.get(key, 0) + 1
                            )
                        _HITS.inc()
                        return True
        with self._tally_lock:
            self._misses += 1
        _MISSES.inc()
        return False

    def add_many(self, entries: Iterable[tuple[tuple, object]]) -> None:
        """Flush ``(key, refuted query)`` pairs from a completed REFUTED
        search. Queries must be private snapshots (``Query.copy()``) — the
        cache takes ownership and later mutates them (path compression).
        Entries accepted here are also write-through-persisted when a
        store is bound (:meth:`bind_store`)."""
        added = self._insert(entries)
        if added and self._store is not None:
            self._store.put_refuted(self._store_scope, added)

    def seed(self, entries: Iterable[tuple[tuple, object]]) -> int:
        """Pre-load entries recovered from the persistent store — exactly
        :meth:`add_many` minus the write-through (they are already on
        disk). Returns the number inserted."""
        return len(self._insert(entries))

    def _insert(self, entries) -> list[tuple[tuple, object]]:
        added = []
        for key, query in entries:
            segment, lock = self._segment(key)
            with lock:
                stored = segment.setdefault(key, [])
                if len(stored) < self.max_per_point:
                    stored.append(query)
                    added.append((key, query))
        return added

    def bind_store(self, store, scope: str) -> int:
        """Back this cache with the persistent verdict store: seed every
        entry previously proven under ``scope`` and write-through-persist
        entries proven from now on. Returns the number seeded."""
        seeded = self.seed(store.load_refuted(scope))
        self._store = store
        self._store_scope = scope
        return seeded

    def flush_store_tallies(self) -> None:
        """Push accumulated per-point hit counts to the bound store (its
        cross-run LRU signal). Called by the driver at close."""
        if self._store is None:
            return
        with self._tally_lock:
            tallies = dict(self._point_hits)
        self._store.note_refuted_hits(self._store_scope, tallies)

    def clear(self) -> None:
        for segment, lock in zip(self._stripes, self._locks):
            with lock:
                segment.clear()
        with self._tally_lock:
            self._point_hits.clear()

    def stats(self) -> dict:
        points = 0
        states = 0
        for segment, lock in zip(self._stripes, self._locks):
            with lock:
                points += len(segment)
                states += sum(len(v) for v in segment.values())
        with self._tally_lock:
            return {
                "points": points,
                "states": states,
                "hits": self._hits,
                "misses": self._misses,
            }

    def __len__(self) -> int:
        return self.stats()["states"]
