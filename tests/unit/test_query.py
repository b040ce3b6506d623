"""Unit tests for the mixed symbolic-explicit query structure."""

import pickle

from repro.ir.instructions import AllocSite
from repro.pointsto.graph import AbsLoc
from repro.solver import NULL, LinExpr, eq, ref_eq
from repro.symbolic import Query, query_entails


def loc(name, cls="Object"):
    return AbsLoc(AllocSite(hash(name) % 10_000, cls, "M.m", hint=name))


A, B, C = loc("a0"), loc("b0"), loc("c0")


def fresh_query():
    return Query("M.m")


class TestRegions:
    def test_empty_region_fails_immediately(self):
        q = fresh_query()
        q.new_ref(frozenset())
        assert q.failed

    def test_narrow_intersects(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        assert q.narrow(v, frozenset({B, C}))
        assert q.region_of(v) == frozenset({B})

    def test_narrow_to_empty_refutes(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        assert not q.narrow(v, frozenset({B}))
        assert q.failed

    def test_narrow_none_is_noop(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        assert q.narrow(v, None)
        assert q.region_of(v) == frozenset({A})

    def test_unconstrained_var_has_no_region(self):
        q = fresh_query()
        v = q.new_ref(None)
        assert q.region_of(v) is None


class TestUnification:
    def test_unify_intersects_regions(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        u = q.new_ref(frozenset({B, C}))
        assert q.unify(v, u)
        assert q.region_of(v) == frozenset({B})
        assert q.find(v) is q.find(u)

    def test_unify_disjoint_regions_refutes(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        u = q.new_ref(frozenset({B}))
        assert not q.unify(v, u)
        assert q.failed

    def test_unify_merges_field_cells(self):
        q = fresh_query()
        v1 = q.new_ref(frozenset({A}))
        v2 = q.new_ref(frozenset({A}))
        u1 = q.new_ref(frozenset({B, C}))
        u2 = q.new_ref(frozenset({B}))
        q.set_field(v1, "f", u1)
        q.set_field(v2, "f", u2)
        assert q.unify(v1, v2)
        # The two cells collapse into one; values unified.
        assert len(q.field_cells) == 1
        assert q.find(u1) is q.find(u2)
        assert q.region_of(u1) == frozenset({B})

    def test_unify_nonnull_wins(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}), maybe_null=True)
        u = q.new_ref(frozenset({A}), maybe_null=False)
        q.unify(v, u)
        assert not q.is_maybe_null(v)

    def test_array_cells_merge_on_same_base_and_index(self):
        q = fresh_query()
        base = q.new_ref(frozenset({A}))
        idx = q.new_data()
        u1 = q.new_ref(frozenset({B, C}))
        u2 = q.new_ref(frozenset({C}))
        q.add_array_cell(base, idx, u1)
        q.add_array_cell(base, idx, u2)
        assert len(q.array_cells) == 1
        assert q.find(u1) is q.find(u2)


class TestDeepChains:
    def test_find_after_thousands_of_chained_unifications(self):
        q = fresh_query()
        vs = [q.new_ref(None) for _ in range(3_001)]
        for a, b in zip(vs, vs[1:]):
            assert q.unify(a, b)
        root = q.find(vs[0])
        assert all(q.find(v) is root for v in vs)
        assert q.check_sat()


class TestPickling:
    """Refuted-state snapshots are pickled into the verdict store."""

    def _query(self):
        q = fresh_query()
        u, v = q.new_ref(frozenset({A, B})), q.new_ref(frozenset({B, C}))
        w = q.new_ref(None, maybe_null=True)
        q.set_local("x", u)
        q.set_field(u, "f", w)
        b = q.new_ref(None)
        q.set_local("y", b)
        q.set_field(b, "f", q.new_ref(None))
        d1, d2 = q.new_data(), q.new_data()
        q.add_pure(ref_eq(w, NULL))
        q.add_pure(eq(LinExpr.var(d1), LinExpr.var(d2)))
        q.add_pure(eq(LinExpr.var(d1), LinExpr.constant(1)), guard=True)
        q.unify(u, v)
        q.unify(d1, d2)
        assert q.check_sat()
        return q

    def test_derived_forms_are_not_pickled(self):
        q = self._query()
        cold = pickle.dumps(q)
        q.canonical_pure(), q.nonnull_roots(), q.separation_atoms()
        q.entailment_atoms()
        assert pickle.dumps(q) == cold

    def test_unpickled_query_rebuilds_its_forms(self):
        q = self._query()
        expected = (
            [str(a) for a in q.canonical_pure()],
            sorted(str(v) for v in q.nonnull_roots()),
            [str(a) for a in q.separation_atoms()],
        )
        loaded = pickle.loads(pickle.dumps(q))
        assert all(
            getattr(loaded, name) is None for name in Query._DERIVED
        )
        assert (
            [str(a) for a in loaded.canonical_pure()],
            sorted(str(v) for v in loaded.nonnull_roots()),
            [str(a) for a in loaded.separation_atoms()],
        ) == expected
        assert query_entails(loaded, loaded.copy())
        assert loaded.check_sat() == q.check_sat()


class TestSeparation:
    def test_local_rebinding_unifies(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        u = q.new_ref(frozenset({B, C}))
        q.set_local("x", v)
        assert q.set_local("x", u)
        assert q.find(v) is q.find(u)

    def test_distinct_field_cells_imply_base_disequality(self):
        q = fresh_query()
        b1 = q.new_ref(frozenset({A}))
        b2 = q.new_ref(frozenset({A}))
        q.set_field(b1, "f", q.new_ref(frozenset({B})))
        q.set_field(b2, "f", q.new_ref(frozenset({B})))
        q.add_pure(ref_eq(q.find(b1), q.find(b2)))
        assert not q.check_sat()

    def test_null_base_contradiction(self):
        q = fresh_query()
        b = q.new_ref(frozenset({A}))
        q.set_field(b, "f", q.new_ref(frozenset({B})))
        q.add_pure(ref_eq(q.find(b), NULL))
        assert not q.check_sat()

    def test_maybe_null_value_can_be_null(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}), maybe_null=True)
        q.set_local("x", v)
        q.add_pure(ref_eq(q.find(v), NULL))
        assert q.check_sat()


class TestStateStructure:
    def test_memory_empty_after_consuming(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        q.set_local("x", v)
        assert not q.is_memory_empty()
        q.del_local("x")
        assert q.is_memory_empty()

    def test_copy_is_independent(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        q.set_local("x", v)
        q2 = q.copy()
        q2.narrow(v, frozenset({A}))
        assert q.region_of(v) == frozenset({A, B})
        assert q2.region_of(v) == frozenset({A})

    def test_frames_push_pop(self):
        q = fresh_query()
        assert q.current_frame == 0
        fid = q.push_frame("C.m", 42)
        assert q.current_frame == fid != 0
        assert q.current_method == "C.m"
        q.pop_frame()
        assert q.current_frame == 0
        assert q.current_method == "M.m"

    def test_guard_cap_refuses_new_constraints(self):
        # The path-constraint cap keeps the guards nearest the query point
        # (added first during the backwards walk) and refuses later ones.
        q = fresh_query()
        d1, d2, d3 = q.new_data(), q.new_data(), q.new_data()
        q.add_pure(eq(LinExpr.var(d1), LinExpr.constant(1)), guard=True, cap=2)
        q.add_pure(eq(LinExpr.var(d2), LinExpr.constant(2)), guard=True, cap=2)
        q.add_pure(eq(LinExpr.var(d3), LinExpr.constant(3)), guard=True, cap=2)
        guards = [a for a, g in q.pure if g]
        assert len(guards) == 2
        remaining_vars = {v for a in guards for v in a.vars()}
        assert d1 in remaining_vars
        assert d3 not in remaining_vars

    def test_instance_counts(self):
        q = fresh_query()
        v1 = q.new_ref(frozenset({A}))
        v2 = q.new_ref(frozenset({A}))
        q.set_field(v1, "f", v2)
        counts = q.instance_counts()
        assert counts[A] == 2


class TestEntailment:
    def test_identical_queries_entail(self):
        q1, q2 = fresh_query(), fresh_query()
        for q in (q1, q2):
            v = q.new_ref(frozenset({A}))
            q.set_local("x", v)
        assert query_entails(q1, q2)
        assert query_entails(q2, q1)

    def test_extra_constraints_make_stronger(self):
        q1, q2 = fresh_query(), fresh_query()
        for q, extra in ((q1, True), (q2, False)):
            v = q.new_ref(frozenset({A}))
            q.set_local("x", v)
            if extra:
                u = q.new_ref(frozenset({B}))
                q.set_field(v, "f", u)
        assert query_entails(q1, q2)  # strong ⊨ weak
        assert not query_entails(q2, q1)

    def test_smaller_region_is_stronger(self):
        q1, q2 = fresh_query(), fresh_query()
        v1 = q1.new_ref(frozenset({A}))
        q1.set_local("x", v1)
        v2 = q2.new_ref(frozenset({A, B}))
        q2.set_local("x", v2)
        assert query_entails(q1, q2)
        assert not query_entails(q2, q1)

    def test_different_stack_signatures_incomparable(self):
        q1, q2 = fresh_query(), fresh_query()
        q2.push_frame("C.m", 7)
        assert not query_entails(q1, q2)

    def test_failed_query_entails_everything(self):
        q1, q2 = fresh_query(), fresh_query()
        q1.fail("test")
        assert query_entails(q1, q2)
