"""Unit tests for the repro.perf memoization & subsumption layer."""

import pickle

import pytest

from repro import perf
from repro.ir.instructions import AllocSite
from repro.obs import metrics
from repro.perf.cache import RefutedStateCache
from repro.perf.memo import SOLVER_MEMO, SOLVER_PARTITION, LRUCache, SolverMemo
from repro.pointsto.graph import AbsLoc
from repro.solver import (
    NULL,
    LinExpr,
    SolverContext,
    SolverStats,
    check_sat,
    eq,
    le,
    ref_eq,
    ref_ne,
    canonical_key,
    split_components,
    syntactic_unsat,
)
from repro.symbolic import Query


def loc(name):
    return AbsLoc(AllocSite(hash(name) % 99_991, "Object", "M.m", hint=name))


A, B = loc("a0"), loc("b0")


def query_with_region(region):
    q = Query("M.m")
    v = q.new_ref(region)
    q.set_local("x", v)
    return q


@pytest.fixture(autouse=True)
def fresh_memo():
    SOLVER_MEMO.clear()
    enabled = SOLVER_MEMO.enabled
    partition = SOLVER_PARTITION.enabled
    SOLVER_MEMO.set_enabled(True)
    yield
    SOLVER_MEMO.clear()
    SOLVER_MEMO.set_enabled(enabled)
    SOLVER_PARTITION.set_enabled(partition)


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "d") == "d"

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite; b becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_len_and_clear(self):
        cache = LRUCache(8)
        for i in range(5):
            cache.put(i, i)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0

    def test_capacity_bound_holds(self):
        cache = LRUCache(3)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestSolverMemo:
    @pytest.fixture(autouse=True)
    def monolithic(self):
        # These tests pin the whole-query memo, which only the monolithic
        # (--no-partition) solver path consults.
        SOLVER_PARTITION.set_enabled(False)
        yield

    def test_check_sat_memoizes_verdict(self):
        d = LinExpr.var("d")
        atoms = [le(d, LinExpr.constant(3)), le(LinExpr.constant(1), d)]
        stats = SolverStats()
        assert check_sat(atoms, stats=stats)
        assert check_sat(list(reversed(atoms)), stats=stats)  # order-insensitive key
        assert stats.checks == 2
        assert stats.memo_misses == 1
        assert stats.memo_hits == 1

    def test_unsat_verdict_memoized_and_counted(self):
        d = LinExpr.var("d")
        atoms = [le(d, LinExpr.constant(0)), le(LinExpr.constant(1), d)]
        stats = SolverStats()
        assert not check_sat(atoms, stats=stats)
        assert not check_sat(atoms, stats=stats)
        # The unsat tally counts *verdicts*, so it is memoization-invariant.
        assert stats.unsat == 2
        assert stats.memo_hits == 1

    def test_disabled_memo_always_misses_table(self):
        SOLVER_MEMO.set_enabled(False)
        d = LinExpr.var("d")
        atoms = [eq(d, LinExpr.constant(1))]
        stats = SolverStats()
        check_sat(atoms, stats=stats)
        check_sat(atoms, stats=stats)
        assert stats.memo_hits == 0 and stats.memo_misses == 0
        assert len(SOLVER_MEMO.check) == 0

    def test_registry_counts_only_real_runs(self):
        checks = metrics.counter("solver.checks")
        before = checks.value
        d = LinExpr.var("d")
        atoms = [eq(d, LinExpr.constant(7))]
        check_sat(atoms)
        check_sat(atoms)
        # One real decision-procedure run; the second call was a memo hit.
        assert checks.value == before + 1

    def test_nonnull_set_is_part_of_the_key(self):
        # Same atoms, different nonnull roots must not share a verdict.
        q1 = Query("M.m")
        v1 = q1.new_ref(frozenset({A}), maybe_null=False)
        q1.set_local("x", v1)
        q2 = Query("M.m")
        v2 = q2.new_ref(frozenset({A}), maybe_null=True)
        q2.set_local("x", v2)
        assert q1.nonnull_roots() != q2.nonnull_roots()
        assert check_sat([], nonnull=q1.nonnull_roots())
        assert check_sat([], nonnull=q2.nonnull_roots())
        assert len(SOLVER_MEMO.check) == 2

    def test_set_enabled_and_clear(self):
        memo = SolverMemo(capacity=4)
        memo.check.put("k", True)
        memo.component.put("k", False)
        memo.clear()
        assert len(memo.check) == 0 and len(memo.component) == 0
        memo.set_enabled(False)
        assert memo.enabled is False


class TestPartitionedSolver:
    @pytest.fixture(autouse=True)
    def partitioned(self):
        SOLVER_PARTITION.set_enabled(True)
        yield

    def _xy_atoms(self):
        # Two variable-disjoint fragments: x-chain and y-chain.
        x, y = LinExpr.var("x"), LinExpr.var("y")
        return [
            le(x, LinExpr.constant(3)),
            le(LinExpr.constant(1), x),
            le(y, LinExpr.constant(9)),
        ]

    def test_syntactic_unsat_screens_ground_contradictions(self):
        assert syntactic_unsat([le(LinExpr.constant(1), LinExpr.constant(0))], frozenset())
        assert syntactic_unsat([eq(LinExpr.constant(2), LinExpr.constant(0))], frozenset())
        assert syntactic_unsat([ref_ne("v", "v")], frozenset())
        assert syntactic_unsat([ref_eq("v", NULL)], frozenset({"v"}))
        assert syntactic_unsat(self._xy_atoms(), frozenset()) is None

    def test_split_components_by_shared_variables(self):
        comps = split_components(self._xy_atoms(), frozenset({"x", "z"}))
        assert len(comps) == 2
        sizes = sorted(len(catoms) for catoms, _ in comps)
        assert sizes == [1, 2]
        for catoms, (atom_key, sliced) in comps:
            # Nominal keys: the component's own atoms, untouched.
            assert atom_key == frozenset(catoms)
            # nonnull slices to the component's own variables only (the
            # irrelevant "z" fact never reaches a key).
            assert len(sliced) <= 1

    def test_canonical_keys_collapse_alpha_equivalent_fragments(self):
        # Structurally identical chains over different fresh variables
        # must share one canonical signature — naming is what the
        # executor varies per path and per search.
        a = [eq(LinExpr.var("a1").sub(LinExpr.var("a2")), LinExpr.constant(2))]
        b = [eq(LinExpr.var("b7").sub(LinExpr.var("b9")), LinExpr.constant(2))]
        key_a = canonical_key(a, frozenset())
        key_b = canonical_key(b, frozenset({"b7"}))
        assert key_a[0] == key_b[0]
        # Signatures are plain data — first-occurrence variable indices,
        # never term objects — and nonnull facts map to the same indices.
        # Constants and coefficients are zigzag-encoded (-2 -> 3, 1 -> 2,
        # -1 -> 1) so CPython's hash(-1) == hash(-2) aliasing cannot
        # collapse distinct signatures onto one hash bucket.
        assert key_a[0] == (("==", 3, (0, 2), (1, 1)),)
        assert key_b[1] == frozenset({0})
        # ...and a different constant is a different key.
        c = [eq(LinExpr.var("c1").sub(LinExpr.var("c2")), LinExpr.constant(3))]
        key_c = canonical_key(c, frozenset())
        assert key_c != key_a
        # Mixed ref/lin components keep NULL distinguishable from any
        # variable slot.
        key_r = canonical_key([ref_eq("v", NULL)], frozenset())
        assert key_r[0] == (("=", 0, -1),)

    def test_component_verdicts_memoized_across_queries(self):
        stats = SolverStats()
        assert check_sat(self._xy_atoms(), stats=stats)
        checks = metrics.counter("solver.checks")
        before = checks.value
        # Same fragments inside a different (larger) query: all component
        # memo hits, zero actual decision-procedure runs.
        z = LinExpr.var("z")
        assert check_sat(self._xy_atoms() + [le(z, LinExpr.constant(5))], stats=stats)
        assert checks.value == before + 1  # only the fresh z component ran
        assert stats.component_hits == 2

    def test_context_answers_before_memo(self):
        ctx = SolverContext()
        stats = SolverStats()
        assert check_sat(self._xy_atoms(), stats=stats, context=ctx)
        assert len(ctx) == 2
        SOLVER_MEMO.clear()  # context alone must answer now
        assert check_sat(self._xy_atoms(), stats=stats, context=ctx)
        assert stats.context_hits == 2

    def test_unsat_component_refutes_whole_query(self):
        x, y = LinExpr.var("x"), LinExpr.var("y")
        atoms = [
            le(y, LinExpr.constant(9)),
            le(x, LinExpr.constant(0)),
            le(LinExpr.constant(1), x),  # x-component infeasible
        ]
        stats = SolverStats()
        assert not check_sat(atoms, stats=stats)
        assert stats.unsat == 1

    def test_parity_with_monolithic_on_mixed_atoms(self):
        x = LinExpr.var("x")
        cases = [
            ([ref_eq("a", "b"), ref_ne("b", "a"), le(x, LinExpr.constant(1))], frozenset()),
            ([ref_eq("a", NULL)], frozenset({"a"})),
            ([ref_eq("a", NULL), ref_eq("a", "b")], frozenset({"b"})),
            ([eq(x, LinExpr.constant(4)), le(x, LinExpr.constant(3))], frozenset()),
            ([ref_eq("a", "b"), le(x, LinExpr.constant(3))], frozenset()),
        ]
        for atoms, nonnull in cases:
            SOLVER_PARTITION.set_enabled(True)
            SOLVER_MEMO.clear()
            part = check_sat(atoms, nonnull=nonnull)
            SOLVER_PARTITION.set_enabled(False)
            SOLVER_MEMO.clear()
            mono = check_sat(atoms, nonnull=nonnull)
            assert part == mono, (atoms, nonnull)

    def test_partitioning_works_with_memo_disabled(self):
        SOLVER_MEMO.set_enabled(False)
        stats = SolverStats()
        assert check_sat(self._xy_atoms(), stats=stats)
        assert check_sat(self._xy_atoms(), stats=stats)
        assert stats.component_hits == 0
        assert len(SOLVER_MEMO.component) == 0

    def test_context_cap_clears_wholesale(self):
        from repro.solver import partition as partition_mod

        ctx = SolverContext()
        for i in range(partition_mod.CONTEXT_CAP):
            ctx.remember(("k", i), True)
        assert len(ctx) == partition_mod.CONTEXT_CAP
        ctx.remember(("k", "overflow"), False)
        assert len(ctx) == 1
        assert ctx.get(("k", "overflow")) is False

    def test_query_shares_context_with_copies(self):
        q = Query("M.m")
        v = q.new_ref(frozenset({A}))
        q.set_local("x", v)
        assert q.check_sat()
        assert q.solver_ctx is not None
        child = q.copy()
        assert child.solver_ctx is q.solver_ctx


class TestRefutedStateCache:
    def test_empty_cache_never_subsumes(self):
        cache = RefutedStateCache()
        q = query_with_region(frozenset({A}))
        assert not cache.subsumes(("loop", 1), q)
        assert cache.stats()["misses"] == 1

    def test_stronger_state_subsumed_by_cached_refutation(self):
        cache = RefutedStateCache()
        weak = query_with_region(frozenset({A, B}))
        cache.add_many([(("loop", 1), weak)])
        strong = query_with_region(frozenset({A}))
        assert cache.subsumes(("loop", 1), strong)
        assert cache.stats()["hits"] == 1

    def test_weaker_state_not_subsumed(self):
        cache = RefutedStateCache()
        strong = query_with_region(frozenset({A}))
        cache.add_many([(("loop", 1), strong)])
        weak = query_with_region(frozenset({A, B}))
        assert not cache.subsumes(("loop", 1), weak)

    def test_points_are_isolated(self):
        cache = RefutedStateCache()
        q = query_with_region(frozenset({A}))
        cache.add_many([(("loop", 1), q)])
        assert not cache.subsumes(("loop", 2), query_with_region(frozenset({A})))

    def test_per_point_cap(self):
        cache = RefutedStateCache(max_per_point=3)
        entries = [
            (("loop", 1), query_with_region(frozenset({loc(f"s{i}")})))
            for i in range(10)
        ]
        cache.add_many(entries)
        assert cache.stats()["states"] == 3

    def test_clear_and_len(self):
        cache = RefutedStateCache()
        cache.add_many([(("loop", i), query_with_region(frozenset({A}))) for i in range(4)])
        assert len(cache) == 4
        assert cache.stats()["points"] == 4
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_stripes(self):
        with pytest.raises(ValueError):
            RefutedStateCache(stripes=0)


class TestRefutedCacheSnapshotMerge:
    def test_snapshot_carries_per_entry_hit_counts(self):
        cache = RefutedStateCache()
        weak = query_with_region(frozenset({A, B}))
        cache.add_many([(("loop", 1), weak)])
        cache.subsumes(("loop", 1), query_with_region(frozenset({A})))
        cache.subsumes(("loop", 1), query_with_region(frozenset({A})))
        cache.subsumes(("loop", 2), query_with_region(frozenset({A})))
        snap = cache.snapshot()
        assert snap["hits"] == 2 and snap["misses"] == 1
        assert snap["point_hits"] == {("loop", 1): 2}

    def test_merge_sums_tallies_never_resets(self):
        """The process-pool invariant: folding a worker snapshot into the
        parent must *add* to the parent's per-entry hit counts — a merge
        that replaced them would silently lose the cross-run LRU signal
        every time ``--backend process`` is used."""
        parent = RefutedStateCache()
        weak = query_with_region(frozenset({A, B}))
        parent.add_many([(("loop", 1), weak)])
        parent.subsumes(("loop", 1), query_with_region(frozenset({A})))
        before = parent.snapshot()
        assert before["point_hits"] == {("loop", 1): 1}

        worker = {"hits": 3, "misses": 2,
                  "point_hits": {("loop", 1): 2, ("entry", "m"): 1}}
        parent.merge_snapshot(worker)
        after = parent.snapshot()
        assert after["hits"] == before["hits"] + 3
        assert after["misses"] == before["misses"] + 2
        assert after["point_hits"] == {("loop", 1): 3, ("entry", "m"): 1}

    def test_merge_accumulates_across_workers(self):
        parent = RefutedStateCache()
        for _ in range(3):
            parent.merge_snapshot(
                {"hits": 1, "misses": 1, "point_hits": {("loop", 7): 4}}
            )
        snap = parent.snapshot()
        assert snap["hits"] == 3 and snap["misses"] == 3
        assert snap["point_hits"] == {("loop", 7): 12}

    def test_clear_resets_point_hits(self):
        cache = RefutedStateCache()
        cache.merge_snapshot({"hits": 1, "misses": 0,
                              "point_hits": {("loop", 1): 1}})
        cache.clear()
        assert cache.snapshot()["point_hits"] == {}


class TestMemoCapacity:
    def test_component_table_is_bounded(self):
        memo = SolverMemo(capacity=4)
        for i in range(10):
            memo.component.put(("sig", i), True)
        assert len(memo.component) == 4
        assert memo.sizes()["component"] == 4
        assert memo.sizes()["capacity"] == 4

    def test_env_override_sets_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_CAPACITY", "7")
        assert SolverMemo().component.capacity == 7

    def test_env_override_ignores_garbage(self, monkeypatch):
        from repro.perf.memo import MEMO_CAPACITY

        monkeypatch.setenv("REPRO_MEMO_CAPACITY", "not-a-number")
        assert SolverMemo().component.capacity == MEMO_CAPACITY

    def test_sizes_published_as_gauges(self):
        SOLVER_MEMO.component.put(("sig", "gauge-probe"), True)
        perf.refresh_intern_gauges()
        assert (
            metrics.gauge("solver.memo_component_size").value
            == SOLVER_MEMO.sizes()["component"]
        )
        assert metrics.gauge("solver.memo_capacity").value > 0


class TestFacade:
    def test_snapshot_contains_all_cache_metrics(self):
        snap = perf.cache_stats_snapshot()
        for name in perf.CACHE_METRIC_NAMES:
            assert name in snap
        assert "solver.intern_hits" in snap
        pickle.dumps(snap)  # must survive the process-pool trip

    def test_cache_report_merges_worker_snapshots(self):
        base = perf.cache_stats_snapshot()
        worker = {"solver.memo_hits": 10, "solver.memo_misses": 10}
        report = perf.cache_report([worker])
        memo = report["solver_memo"]
        assert memo["hits"] == base["solver.memo_hits"] + 10
        assert memo["misses"] == base["solver.memo_misses"] + 10
        assert 0.0 <= memo["hit_rate"] <= 1.0

    def test_hit_rate_zero_when_untouched(self):
        report = perf.cache_report(
            [{"executor.refuted_cache_hits": 0, "executor.refuted_cache_misses": 0}]
        )
        assert isinstance(report["refuted_states"]["hit_rate"], float)

    def test_intern_gauges_refresh(self):
        perf.refresh_intern_gauges()
        assert metrics.gauge("solver.intern_size").value >= 0
