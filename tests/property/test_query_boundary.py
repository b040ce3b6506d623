"""Oracle test for the incremental query→solver boundary.

:class:`~repro.symbolic.query.Query` carries its canonical pure atoms, its
non-null roots, its separation atoms and its entailment normal form along
the fork lineage and recomputes only what a mutation invalidated. This file
re-derives all four from scratch after every step of a generated operation
sequence — over several forked siblings mutated independently — and
requires the carried forms to match. A real Table 1 search then runs with
every ``check_sat`` and ``query_entails`` call checked the same way.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.instructions import AllocSite
from repro.pointsto.graph import AbsLoc
from repro.solver import NULL, LinAtom, LinExpr, ref_eq, ref_ne
from repro.symbolic import Query
from repro.symbolic.symvar import SymVar

LOCS = [AbsLoc(AllocSite(i, "Object", "M.m", hint=f"o{i}")) for i in range(3)]
REGIONS = [None, frozenset(LOCS), frozenset(LOCS[:1]), frozenset(LOCS[1:])]
NAMES = ["a", "b", "c"]
FIELDS = ["f", "g"]


# -- from-scratch reference ---------------------------------------------------


def ref_canonical_pure(q: Query) -> list:
    mapping = {}
    for atom, _ in q.pure:
        for v in atom.vars():
            if isinstance(v, SymVar):
                mapping[v] = q.uf.find(v)
    return [atom.rename(mapping) for atom, _ in q.pure]


def ref_nonnull_roots(q: Query) -> frozenset:
    find = q.uf.find
    roots = set()
    for value in list(q.locals.values()) + list(q.statics.values()):
        root = find(value)
        if root.is_ref and root not in q.maybe_null:
            roots.add(root)
    for (base, _), value in q.field_cells.items():
        roots.add(find(base))
        root = find(value)
        if root.is_ref and root not in q.maybe_null:
            roots.add(root)
    for cell in q.array_cells:
        roots.add(find(cell.base))
        root = find(cell.value)
        if root.is_ref and root not in q.maybe_null:
            roots.add(root)
    return frozenset(roots)


def ref_separation_atoms(q: Query) -> list:
    find = q.uf.find
    atoms = []
    by_field: dict = {}
    for (base, field_name), _ in q.field_cells.items():
        by_field.setdefault(field_name, []).append(find(base))
    for bases in by_field.values():
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                if bases[i] is not bases[j]:
                    atoms.append(ref_ne(bases[i], bases[j]))
    cells = q.array_cells
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if find(cells[i].base) is find(cells[j].base):
                expr = LinExpr.var(find(cells[i].index)).sub(
                    LinExpr.var(find(cells[j].index))
                )
                atoms.append(LinAtom("!=", expr))
    return atoms


def ref_entailment_atoms(q: Query) -> frozenset:
    return frozenset(a.normalized() for a in ref_canonical_pure(q))


def answers(q: Query) -> tuple:
    return (
        list(q.canonical_pure()),
        q.nonnull_roots(),
        list(q.separation_atoms()),
        q.entailment_atoms(),
    )


def assert_matches_reference(q: Query) -> None:
    assert q.canonical_pure() == ref_canonical_pure(q)
    assert q.nonnull_roots() == ref_nonnull_roots(q)
    assert q.separation_atoms() == ref_separation_atoms(q)
    assert q.entailment_atoms() == ref_entailment_atoms(q)


# -- generated operation sequences --------------------------------------------

_i = st.integers(0, 7)
OPS = st.one_of(
    st.tuples(st.just("new_ref"), st.sampled_from(REGIONS), st.booleans()),
    st.tuples(st.just("new_data")),
    st.tuples(st.just("unify"), _i, _i),
    st.tuples(
        st.just("add_pure"),
        st.sampled_from(["ref_eq", "ref_ne", "null", "lin_eq", "lin_le"]),
        _i,
        _i,
        st.booleans(),
        st.sampled_from([None, 1, 2]),
    ),
    st.tuples(st.just("drop_pure"), _i, st.booleans()),
    st.tuples(st.just("set_local"), st.sampled_from(NAMES), _i, st.integers(0, 1)),
    st.tuples(st.just("del_local"), st.sampled_from(NAMES), st.integers(0, 1)),
    st.tuples(st.just("set_static"), st.sampled_from(NAMES), _i),
    st.tuples(st.just("del_static"), st.sampled_from(NAMES)),
    st.tuples(st.just("set_field"), _i, st.sampled_from(FIELDS), _i),
    st.tuples(st.just("del_field"), _i, st.sampled_from(FIELDS)),
    st.tuples(st.just("add_array_cell"), _i, _i, _i),
    st.tuples(st.just("remove_array_cell"), _i),
    st.tuples(st.just("mark_nonnull"), _i),
    st.tuples(st.just("narrow"), _i, st.sampled_from(REGIONS)),
    st.tuples(st.just("drop_memory"), _i, st.sampled_from(["local", "static", "field", "array"])),
    st.tuples(st.just("push_frame")),
    st.tuples(st.just("copy")),
)


class Lineage:
    """One query plus the variables it knows about."""

    def __init__(self, query: Query, refs: list, datas: list) -> None:
        self.q = query
        self.refs = refs
        self.datas = datas

    def ref(self, i: int) -> SymVar:
        if not self.refs:
            self.refs.append(self.q.new_ref(None, maybe_null=True))
        return self.refs[i % len(self.refs)]

    def data(self, i: int) -> SymVar:
        if not self.datas:
            self.datas.append(self.q.new_data())
        return self.datas[i % len(self.datas)]

    def var(self, i: int) -> SymVar:
        return self.ref(i) if i % 2 == 0 else self.data(i // 2)


def apply(op: tuple, lin: Lineage, pool: list) -> None:
    q, name = lin.q, op[0]
    if name == "new_ref":
        lin.refs.append(q.new_ref(op[1], maybe_null=op[2]))
    elif name == "new_data":
        lin.datas.append(q.new_data())
    elif name == "unify":
        a = lin.var(op[1])
        b = lin.ref(op[2]) if a.is_ref else lin.data(op[2])
        q.unify(a, b)
    elif name == "add_pure":
        kind, i, j, guard, cap = op[1:]
        if kind == "ref_eq":
            atom = ref_eq(lin.ref(i), lin.ref(j))
        elif kind == "ref_ne":
            atom = ref_ne(lin.ref(i), lin.ref(j))
        elif kind == "null":
            atom = ref_eq(lin.ref(i), NULL)
        else:
            expr = LinExpr.var(lin.data(i)).sub(LinExpr.var(lin.data(j)))
            atom = LinAtom("==" if kind == "lin_eq" else "<=", expr.add(LinExpr.constant(i - j)))
        q.add_pure(atom, guard=guard, cap=cap)
    elif name == "drop_pure":
        target = q.find(lin.var(op[1]))
        q.drop_pure_if(
            lambda a: any(isinstance(v, SymVar) and q.find(v) is target for v in a.vars()),
            touch=op[2],
        )
    elif name == "set_local":
        q.set_local(op[1], lin.ref(op[2]), frame=op[3])
    elif name == "del_local":
        q.del_local(op[1], frame=op[2])
    elif name == "set_static":
        q.set_static("C", op[1], lin.ref(op[2]))
    elif name == "del_static":
        q.del_static("C", op[1])
    elif name == "set_field":
        q.set_field(lin.ref(op[1]), op[2], lin.ref(op[3]))
    elif name == "del_field":
        q.del_field(lin.ref(op[1]), op[2])
    elif name == "add_array_cell":
        q.add_array_cell(lin.ref(op[1]), lin.data(op[2]), lin.ref(op[3]))
    elif name == "remove_array_cell":
        if q.array_cells:
            q.remove_array_cell(q.array_cells[op[1] % len(q.array_cells)])
    elif name == "mark_nonnull":
        q.mark_nonnull(lin.ref(op[1]))
    elif name == "narrow":
        q.narrow(lin.ref(op[1]), op[2])
    elif name == "drop_memory":
        root = q.find(lin.ref(op[1]))
        hit = lambda key, value: q.find(value) is root  # noqa: E731
        kind = op[2]
        if kind == "array":
            q.drop_memory(array=lambda c: q.find(c.base) is root)
        else:
            q.drop_memory(**{kind: hit})
    elif name == "push_frame":
        q.push_frame("M.callee", 0)
    elif name == "copy":
        pool.append(Lineage(q.copy(), list(lin.refs), list(lin.datas)))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(st.tuples(st.integers(0, 5), OPS), min_size=1, max_size=40))
def test_carried_forms_match_from_scratch_reference(steps):
    pool = [Lineage(Query("M.m"), [], [])]
    for which, op in steps:
        lin = pool[which % len(pool)]
        others = [(other, answers(other.q)) for other in pool if other is not lin]
        apply(op, lin, pool)
        assert_matches_reference(lin.q)
        for other, before in others:
            # A sibling's mutation never leaks into another query.
            assert answers(other.q) == before
            assert_matches_reference(other.q)


def test_forms_survive_long_union_chains():
    q = Query("M.m")
    vs = [q.new_ref(None) for _ in range(3001)]
    q.add_pure(ref_ne(vs[0], NULL))
    q.set_field(vs[0], "f", vs[1])
    assert_matches_reference(q)
    for a, b in zip(vs, vs[1:]):
        assert q.unify(a, b)
    assert_matches_reference(q)
    assert q.canonical_pure() == [ref_ne(q.find(vs[0]), NULL)]


# -- one real search, every boundary call checked ----------------------------


def test_table1_cell_boundary_matches_reference(monkeypatch):
    import repro.perf.cache as perf_cache
    import repro.symbolic.executor as executor
    import repro.symbolic.loops as loops
    import repro.symbolic.simplification as simplification
    from repro.android.leaks import LeakChecker
    from repro.bench import APPS
    from repro.symbolic import SearchConfig

    calls = {"check_sat": 0, "query_entails": 0}
    check_sat = Query.check_sat
    query_entails = simplification.query_entails

    def checked_sat(self, *args, **kwargs):
        calls["check_sat"] += 1
        if not self.failed:
            assert_matches_reference(self)
        return check_sat(self, *args, **kwargs)

    def checked_entails(strong, weak):
        calls["query_entails"] += 1
        assert_matches_reference(strong)
        assert_matches_reference(weak)
        return query_entails(strong, weak)

    monkeypatch.setattr(Query, "check_sat", checked_sat)
    for module in (simplification, executor, loops):
        monkeypatch.setattr(module, "query_entails", checked_entails)
    monkeypatch.setattr(perf_cache, "_query_entails", checked_entails)

    app = next(a for a in APPS if a.name == "PulsePoint")
    report = LeakChecker(app.source, app.name, config=SearchConfig()).run()
    assert report.alarms
    assert calls["check_sat"] > 1000 and calls["query_entails"] > 1000
