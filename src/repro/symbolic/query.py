"""The mixed symbolic-explicit query: ``Q ::= M ∧ P`` (Section 3.1).

A query is a separating conjunction of exact points-to constraints

* ``x ↦ v``       (a local of some stack frame holds instance ``v``),
* ``C.g ↦ v``     (a static field holds ``v``),
* ``v.f ↦ u``     (field ``f`` of instance ``v`` holds ``u``),
* ``v[i] ↦ u``    (an array cell, with a symbolic data index ``i``),

conjoined with pure constraints (linear integer + reference equalities) and
the paper's *instance constraints* ``v from r̂`` — each REF symbolic
variable carries a points-to region (a set of abstract locations).
``None`` as a region means "unconstrained", which is how the
fully-symbolic ablation representation is realized.

A query owns a union-find over its symbolic variables. Unifying two
variables intersects their regions; an empty intersection refutes the query
(axiom (1) of Section 3.2: ``v from ∅ ⇔ false``). Separation is enforced
when checking satisfiability: distinct field cells over the same field
imply their bases are distinct instances.

The solver boundary is incremental. A query carries the forms it hands the
solver and the entailment check: its pure atoms renamed to union-find roots
(:meth:`Query.canonical_pure`), the non-null roots
(:meth:`Query.nonnull_roots`), the separation-implied atoms
(:meth:`Query.separation_atoms`) and the normalized atom set
(:meth:`Query.entailment_atoms`). They are carried through :meth:`Query.copy`
and recomputed only for what changed: a new pure atom is renamed alone, a
union re-canonicalizes, a memory or null-ness change rebuilds only the
memory-derived forms. This invalidation is separate from ``version``, which
marks *relevance* (guard skipping and the satisfiability cache) and is
bumped exactly where the constraints change meaning. Every change to the
memory, the null-ness or the pure atoms therefore goes through a
:class:`Query` method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..pointsto.graph import AbsLoc
from ..solver import NULL, Atom, SolverContext, check_sat, ref_eq, ref_ne


def ref_eq_null(v: SymVar) -> Atom:
    return ref_eq(v, NULL)
from ..solver.core import SolverStats
from ..solver.terms import LinAtom, LinExpr, RefAtom
from ..solver.unionfind import UnionFind
from .symvar import DATA, REF, SymVar, fresh_data, fresh_ref

Region = Optional[frozenset]  # frozenset[AbsLoc]; None = unconstrained


@dataclass(frozen=True, slots=True)
class Frame:
    """A pending caller on the abstract backwards call stack."""

    frame_id: int
    method: str  # the caller's qualified method name
    invoke_label: int  # the call-site label inside the caller


@dataclass(slots=True)
class ArrayCell:
    base: SymVar
    index: SymVar
    value: SymVar


_Select = Union[bool, Callable[..., bool]]


def _keep(table: dict, select: _Select) -> dict:
    """``table`` without the entries ``select`` picks (``True``: all)."""
    if select is True:
        return {}
    return {k: v for k, v in table.items() if not select(k, v)}


class Query:
    """One conjunction in the refutation state (mutable, copy-on-fork)."""

    __slots__ = (
        "uf",
        "regions",
        "maybe_null",
        "locals",
        "statics",
        "field_cells",
        "array_cells",
        "pure",
        "stack",
        "current_frame",
        "current_method",
        "_next_frame",
        "version",
        "failed",
        "fail_reason",
        "_sat_version",
        "_sat_result",
        "solver_ctx",
        # Derived solver-boundary forms; ``None`` = recompute on demand.
        "_canon",
        "_nonnull",
        "_sep",
        "_entail",
    )

    #: Recomputed on demand, so never pickled: a snapshot's bytes (and the
    #: verdict store's dedup digest) must not depend on which caches
    #: happened to be filled.
    _DERIVED = ("_canon", "_nonnull", "_sep", "_entail")

    def __init__(self, current_method: str) -> None:
        self.uf = UnionFind()
        self.regions: dict[SymVar, Region] = {}
        self.maybe_null: set[SymVar] = set()
        self.locals: dict[tuple[int, str], SymVar] = {}
        self.statics: dict[tuple[str, str], SymVar] = {}
        self.field_cells: dict[tuple[SymVar, str], SymVar] = {}
        self.array_cells: list[ArrayCell] = []
        self.pure: list[tuple[Atom, bool]] = []  # (atom, is_guard_constraint)
        self.stack: list[Frame] = []
        self.current_frame = 0
        self.current_method = current_method
        self._next_frame = 1
        self.version = 0
        self.failed = False
        self.fail_reason = ""
        self._sat_version = -1
        self._sat_result = True
        self.solver_ctx: Optional[SolverContext] = None
        self._canon: Optional[list[Atom]] = None  # parallel to ``pure``
        self._nonnull: Optional[frozenset[SymVar]] = None
        self._sep: Optional[list[Atom]] = None
        self._entail: Optional[frozenset[Atom]] = None

    # -- lifecycle -----------------------------------------------------------------

    def copy(self) -> "Query":
        q = Query.__new__(Query)
        q.uf = self.uf.copy()
        q.regions = dict(self.regions)
        q.maybe_null = set(self.maybe_null)
        q.locals = dict(self.locals)
        q.statics = dict(self.statics)
        q.field_cells = dict(self.field_cells)
        q.array_cells = [ArrayCell(c.base, c.index, c.value) for c in self.array_cells]
        q.pure = list(self.pure)
        q.stack = list(self.stack)
        q.current_frame = self.current_frame
        q.current_method = self.current_method
        q._next_frame = self._next_frame
        q.version = self.version
        q.failed = self.failed
        q.fail_reason = self.fail_reason
        q._sat_version = self._sat_version
        q._sat_result = self._sat_result
        # Shared by reference: the context holds only pure component
        # verdicts (key fully determines verdict), so parent, children,
        # and siblings safely reuse one map (see repro.solver.partition).
        q.solver_ctx = self.solver_ctx
        # The canonical list grows in place, so each copy owns one; the
        # other forms are only ever replaced, never mutated, so share them.
        q._canon = None if self._canon is None else list(self._canon)
        q._nonnull = self._nonnull
        q._sep = self._sep
        q._entail = self._entail
        return q

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in self._DERIVED
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        for name in self._DERIVED:
            setattr(self, name, None)

    def touch(self) -> None:
        self.version += 1

    def fail(self, reason: str) -> None:
        self.failed = True
        self.fail_reason = reason
        self.touch()

    # -- derived-form invalidation -------------------------------------------------
    #
    # Kept apart from ``touch``: ``version`` tracks guard relevance, and some
    # mutations (the disaliasing drops, entry bindings) deliberately leave it.

    def _roots_changed(self) -> None:
        """A union moved roots: every derived form is stale."""
        self._canon = None
        self._entail = None
        self._nonnull = None
        self._sep = None

    def _memory_changed(self, cells: bool) -> None:
        """Memory or null-ness changed; ``cells`` when heap cells did."""
        self._nonnull = None
        if cells:
            self._sep = None

    # -- symbolic variables ------------------------------------------------------------

    def new_ref(
        self, region: Region, maybe_null: bool = False, hint: str = ""
    ) -> SymVar:
        v = fresh_ref(hint)
        if maybe_null:
            # A fresh variable is in no memory constraint yet, so the
            # non-null roots are unaffected.
            self.maybe_null.add(v)
        if region is not None:
            self.regions[v] = frozenset(region)
            if not region:
                self._empty_region(v)
        self.touch()
        return v

    def _empty_region(self, v: SymVar) -> None:
        """v's instance constraint became empty: if v may be null it *is*
        null (axiom (1) applies only to instances); otherwise refute."""
        root = self.find(v)
        if root in self.maybe_null:
            self._append_pure(ref_eq_null(root), False)
            self.touch()
        else:
            self.fail(f"instance constraint: {v} from ∅")

    def new_data(self, hint: str = "") -> SymVar:
        self.touch()
        return fresh_data(hint)

    def find(self, v: SymVar) -> SymVar:
        return self.uf.find(v)  # type: ignore[return-value]

    def region_of(self, v: SymVar) -> Region:
        return self.regions.get(self.find(v))

    def is_maybe_null(self, v: SymVar) -> bool:
        return self.find(v) in self.maybe_null

    def mark_nonnull(self, v: SymVar) -> None:
        root = self.find(v)
        if root in self.maybe_null:
            self.maybe_null.discard(root)
            self._memory_changed(cells=False)
            region = self.regions.get(root)
            if region is not None and not region:
                self.fail(f"instance constraint: {v} from ∅")
            self.touch()

    def narrow(self, v: SymVar, region: Region) -> bool:
        """Intersect v's instance constraint with ``region`` (axiom (2))."""
        if region is None:
            return True
        root = self.find(v)
        current = self.regions.get(root)
        new = frozenset(region) if current is None else current & frozenset(region)
        if new == current:
            return True
        self.regions[root] = new
        self.touch()
        if not new:
            self._empty_region(root)
            return not self.failed
        return True

    def unify(self, a: SymVar, b: SymVar) -> bool:
        """Equate two instances; intersects regions; refutes on emptiness."""
        worklist = [(a, b)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self.find(x), self.find(y)
            if rx is ry:
                continue
            if rx.kind != ry.kind:
                self.fail("kind mismatch in unification")
                return False
            new_root = self.uf.union(rx, ry)
            self._roots_changed()
            old_root = rx if new_root is ry else ry
            region_old = self.regions.pop(old_root, None)
            region_new = self.regions.pop(new_root, None)
            if region_old is None:
                merged = region_new
            elif region_new is None:
                merged = region_old
            else:
                merged = region_old & region_new
            if merged is not None:
                self.regions[new_root] = merged
            # Null-ness: nonnull wins.
            old_mn = old_root in self.maybe_null
            new_mn = new_root in self.maybe_null
            self.maybe_null.discard(old_root)
            self.maybe_null.discard(new_root)
            if old_mn and new_mn:
                self.maybe_null.add(new_root)
            self.touch()
            if merged is not None and not merged and new_root.kind == REF:
                self._empty_region(new_root)
                if self.failed:
                    return False
            worklist.extend(self._rehash_cells())
        return True

    def _rehash_cells(self) -> list[tuple[SymVar, SymVar]]:
        """Re-key field cells to current roots; same-cell collisions yield
        pending value unifications (separation: one cell, one value)."""
        pending: list[tuple[SymVar, SymVar]] = []
        rebuilt: dict[tuple[SymVar, str], SymVar] = {}
        for (base, field_name), value in self.field_cells.items():
            root = self.find(base)
            key = (root, field_name)
            if key in rebuilt:
                pending.append((rebuilt[key], value))
            else:
                rebuilt[key] = value
        self.field_cells = rebuilt
        # Array cells with equal base and equal index are the same cell.
        merged: list[ArrayCell] = []
        for cell in self.array_cells:
            duplicate = False
            for other in merged:
                if self.find(other.base) is self.find(cell.base) and self.find(
                    other.index
                ) is self.find(cell.index):
                    pending.append((other.value, cell.value))
                    duplicate = True
                    break
            if not duplicate:
                merged.append(cell)
        self.array_cells = merged
        return pending

    # -- memory constraints ----------------------------------------------------------

    def get_local(self, var: str, frame: Optional[int] = None) -> Optional[SymVar]:
        frame = self.current_frame if frame is None else frame
        return self.locals.get((frame, var))

    def set_local(
        self,
        var: str,
        value: SymVar,
        frame: Optional[int] = None,
        touch: bool = True,
    ) -> bool:
        """x ↦ value; unifies when x is already constrained (separation:
        one local, one cell). ``touch=False`` binds a fresh local without
        bumping ``version`` (a frame push already did)."""
        frame = self.current_frame if frame is None else frame
        existing = self.locals.get((frame, var))
        if existing is not None:
            return self.unify(existing, value)
        self.locals[(frame, var)] = value
        self._memory_changed(cells=False)
        if touch:
            self.touch()
        return True

    def del_local(
        self, var: str, frame: Optional[int] = None, touch: bool = True
    ) -> None:
        frame = self.current_frame if frame is None else frame
        if (frame, var) in self.locals:
            del self.locals[(frame, var)]
            self._memory_changed(cells=False)
            if touch:
                self.touch()

    def get_static(self, class_name: str, field_name: str) -> Optional[SymVar]:
        return self.statics.get((class_name, field_name))

    def set_static(self, class_name: str, field_name: str, value: SymVar) -> bool:
        existing = self.statics.get((class_name, field_name))
        if existing is not None:
            return self.unify(existing, value)
        self.statics[(class_name, field_name)] = value
        self._memory_changed(cells=False)
        self.touch()
        return True

    def del_static(self, class_name: str, field_name: str) -> None:
        if (class_name, field_name) in self.statics:
            del self.statics[(class_name, field_name)]
            self._memory_changed(cells=False)
            self.touch()

    def get_field(self, base: SymVar, field_name: str) -> Optional[SymVar]:
        return self.field_cells.get((self.find(base), field_name))

    def set_field(self, base: SymVar, field_name: str, value: SymVar) -> bool:
        self.mark_nonnull(base)
        root = self.find(base)
        existing = self.field_cells.get((root, field_name))
        if existing is not None:
            return self.unify(existing, value)
        self.field_cells[(root, field_name)] = value
        self._memory_changed(cells=True)
        self.touch()
        return True

    def del_field(self, base: SymVar, field_name: str) -> None:
        key = (self.find(base), field_name)
        if key in self.field_cells:
            del self.field_cells[key]
            self._memory_changed(cells=True)
            self.touch()

    def add_array_cell(self, base: SymVar, index: SymVar, value: SymVar) -> bool:
        self.mark_nonnull(base)
        for cell in self.array_cells:
            if self.find(cell.base) is self.find(base) and self.find(
                cell.index
            ) is self.find(index):
                return self.unify(cell.value, value)
        self.array_cells.append(ArrayCell(base, index, value))
        self._memory_changed(cells=True)
        self.touch()
        return True

    def remove_array_cell(self, cell: ArrayCell) -> None:
        self.array_cells = [c for c in self.array_cells if c is not cell]
        self._memory_changed(cells=True)
        self.touch()

    def drop_memory(
        self,
        local: _Select = False,
        static: _Select = False,
        field: _Select = False,
        array: _Select = False,
    ) -> None:
        """Remove the memory constraints each selector picks: ``local``,
        ``static`` and ``field`` are called with ``(key, value)``, ``array``
        with a cell; ``True`` picks every constraint of its kind and a
        false selector none.

        Does not bump ``version``: callee skips and loop widening decide
        themselves when the query's meaning has changed."""
        if local:
            self.locals = _keep(self.locals, local)
        if static:
            self.statics = _keep(self.statics, static)
        if field:
            self.field_cells = _keep(self.field_cells, field)
        if array:
            self.array_cells = (
                [] if array is True else [c for c in self.array_cells if not array(c)]
            )
        self._memory_changed(cells=bool(field or array))

    # -- pure constraints -------------------------------------------------------------

    def add_pure(self, atom: Atom, guard: bool = False, cap: Optional[int] = None) -> None:
        if guard and cap is not None:
            # Path-constraint cap (Section 4): once the set is full, further
            # guard constraints are dropped rather than added. The earliest
            # guards — those nearest the query point — are the ones the
            # refutation usually needs, so they are retained.
            if sum(1 for _, g in self.pure if g) >= cap:
                return
        self._append_pure(atom, guard)
        self.touch()

    def _append_pure(self, atom: Atom, guard: bool) -> None:
        self.pure.append((atom, guard))
        if self._canon is not None:
            self._canon.append(self._canonical(atom))
        self._entail = None

    def drop_pure_if(self, predicate, touch: bool = True) -> int:
        """Drop pure atoms satisfying ``predicate(atom)``; returns count.
        ``touch=False`` leaves ``version`` alone (the disaliasing drops)."""
        keep = [not predicate(a) for a, _ in self.pure]
        dropped = keep.count(False)
        if dropped:
            self.pure = [entry for entry, k in zip(self.pure, keep) if k]
            if self._canon is not None:
                self._canon = [atom for atom, k in zip(self._canon, keep) if k]
            self._entail = None
            if touch:
                self.touch()
        return dropped

    def _canonical(self, atom: Atom) -> Atom:
        """``atom`` with its variables renamed to their union-find roots."""
        mapping = None
        for v in atom.vars():
            if isinstance(v, SymVar):
                root = self.find(v)
                if root is not v:
                    if mapping is None:
                        mapping = {}
                    mapping[v] = root
        return atom if mapping is None else atom.rename(mapping)

    def canonical_pure(self) -> list[Atom]:
        """The pure atoms renamed to union-find roots, in ``pure`` order.
        Cached and shared: callers must not mutate the list."""
        if self._canon is None:
            self._canon = [self._canonical(atom) for atom, _ in self.pure]
        return self._canon

    def entailment_atoms(self) -> frozenset[Atom]:
        """The normalized canonical pure atoms: the set a weaker query's
        pure constraints must fall into for this query to entail it."""
        if self._entail is None:
            self._entail = frozenset(a.normalized() for a in self.canonical_pure())
        return self._entail

    # -- satisfiability ---------------------------------------------------------------

    def nonnull_roots(self) -> frozenset[SymVar]:
        if self._nonnull is not None:
            return self._nonnull
        roots: set[SymVar] = set()
        for value in list(self.locals.values()) + list(self.statics.values()):
            root = self.find(value)
            if root.is_ref and root not in self.maybe_null:
                roots.add(root)
        for (base, _), value in self.field_cells.items():
            roots.add(self.find(base))
            root = self.find(value)
            if root.is_ref and root not in self.maybe_null:
                roots.add(root)
        for cell in self.array_cells:
            roots.add(self.find(cell.base))
            root = self.find(cell.value)
            if root.is_ref and root not in self.maybe_null:
                roots.add(root)
        self._nonnull = frozenset(roots)
        return self._nonnull

    def separation_atoms(self) -> list[Atom]:
        """Disequalities implied by the separating conjunction. Cached and
        shared: callers must not mutate the list."""
        if self._sep is not None:
            return self._sep
        atoms: list[Atom] = []
        by_field: dict[str, list[SymVar]] = {}
        for (base, field_name), _ in self.field_cells.items():
            by_field.setdefault(field_name, []).append(self.find(base))
        for bases in by_field.values():
            for i in range(len(bases)):
                for j in range(i + 1, len(bases)):
                    if bases[i] is not bases[j]:
                        atoms.append(ref_ne(bases[i], bases[j]))
        # Distinct array cells on the same instance have distinct indices.
        for i in range(len(self.array_cells)):
            for j in range(i + 1, len(self.array_cells)):
                ci, cj = self.array_cells[i], self.array_cells[j]
                if self.find(ci.base) is self.find(cj.base):
                    expr = LinExpr.var(self.find(ci.index)).sub(
                        LinExpr.var(self.find(cj.index))
                    )
                    atoms.append(LinAtom("!=", expr))
        self._sep = atoms
        return atoms

    def check_sat(self, stats: Optional[SolverStats] = None) -> bool:
        if self.failed:
            return False
        if self._sat_version == self.version:
            return self._sat_result
        atoms = self.canonical_pure() + self.separation_atoms()
        from ..perf.memo import SOLVER_PARTITION

        if SOLVER_PARTITION.enabled and self.solver_ctx is None:
            self.solver_ctx = SolverContext()
        ok = check_sat(
            atoms,
            nonnull=self.nonnull_roots(),
            stats=stats,
            context=self.solver_ctx,
        )
        self._sat_version = self.version
        self._sat_result = ok
        if not ok:
            self.fail("pure constraints unsatisfiable")
        return ok

    # -- structure queries --------------------------------------------------------------

    def is_memory_empty(self) -> bool:
        return not self.locals and not self.statics and not self.field_cells and not self.array_cells

    def memory_size(self) -> int:
        return (
            len(self.locals)
            + len(self.statics)
            + len(self.field_cells)
            + len(self.array_cells)
        )

    def all_memory_vars(self) -> set[SymVar]:
        out: set[SymVar] = set()
        for v in self.locals.values():
            out.add(self.find(v))
        for v in self.statics.values():
            out.add(self.find(v))
        for (base, _), value in self.field_cells.items():
            out.add(self.find(base))
            out.add(self.find(value))
        for cell in self.array_cells:
            out.update((self.find(cell.base), self.find(cell.index), self.find(cell.value)))
        return out

    def mentions_in_memory(self, v: SymVar) -> bool:
        root = self.find(v)
        return root in self.all_memory_vars()

    def instance_counts(self) -> dict[AbsLoc, int]:
        """Number of distinct materialized instances per abstract location
        (used by the loop materialization bound)."""
        counts: dict[AbsLoc, int] = {}
        seen: set[SymVar] = set()
        for v in self.all_memory_vars():
            if v in seen or not v.is_ref:
                continue
            seen.add(v)
            region = self.regions.get(v)
            if region is None:
                continue
            for loc in region:
                counts[loc] = counts.get(loc, 0) + 1
        return counts

    # -- frames -----------------------------------------------------------------------

    def push_frame(self, callee_method: str, invoke_label: int) -> int:
        """Enter a callee backwards: the current method becomes a pending
        caller; returns the fresh frame id for the callee."""
        self.stack.append(Frame(self.current_frame, self.current_method, invoke_label))
        self.current_frame = self._next_frame
        self._next_frame += 1
        self.current_method = callee_method
        self.touch()
        return self.current_frame

    def pop_frame(self) -> Frame:
        frame = self.stack.pop()
        self.current_frame = frame.frame_id
        self.current_method = frame.method
        self.touch()
        return frame

    def rebase_to_caller(self, caller_method: str) -> int:
        """Replace the bottom frame: used when expanding past a method entry
        into one of its callers (empty-stack case). Returns the caller's
        fresh frame id."""
        self.current_frame = self._next_frame
        self._next_frame += 1
        self.current_method = caller_method
        self.touch()
        return self.current_frame

    def current_frame_locals(self) -> list[tuple[str, SymVar]]:
        return [
            (var, value)
            for (frame, var), value in self.locals.items()
            if frame == self.current_frame
        ]

    def stack_signature(self) -> tuple:
        return (
            self.current_method,
            tuple((f.method, f.invoke_label) for f in self.stack),
        )

    # -- rendering -------------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for (frame, var), value in sorted(self.locals.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            parts.append(f"{var}@{frame} ↦ {self.find(value)}")
        for (cls, fld), value in sorted(self.statics.items()):
            parts.append(f"{cls}.{fld} ↦ {self.find(value)}")
        for (base, fld), value in self.field_cells.items():
            parts.append(f"{base}.{fld} ↦ {self.find(value)}")
        for cell in self.array_cells:
            parts.append(
                f"{self.find(cell.base)}[{self.find(cell.index)}] ↦ {self.find(cell.value)}"
            )
        for v, region in self.regions.items():
            if region is not None and self.find(v) is v:
                names = ",".join(sorted(str(l) for l in region))
                parts.append(f"{v} from {{{names}}}")
        for atom, guard in self.pure:
            tag = "ᵍ" if guard else ""
            parts.append(f"{atom}{tag}")
        body = " * ".join(parts) if parts else "any"
        if self.failed:
            body = f"false ({self.fail_reason})"
        return body
