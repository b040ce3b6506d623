"""The parallel refutation driver.

The paper's Section 4 observation makes edge refutation embarrassingly
parallel: each points-to edge on an alarm's heap path is refuted (or
witnessed) *independently* — a refutation is a fact about the whole
program, never about the alarm that asked. This module exploits that:

* :class:`RefutationDriver` schedules refutation jobs across a
  ``concurrent.futures`` thread pool (``--jobs N``);
* a per-edge **wall-clock deadline** (``--deadline S``) is enforced by the
  cooperative cancellation checks inside
  :class:`repro.symbolic.executor.Engine` (deadline exceeded ⇒ the edge is
  TIMEOUT / not-refuted, exactly the paper's treatment of its per-edge
  timeout);
* every job's outcome is recorded for the structured JSON
  :class:`repro.engine.report.RunReport`, and live
  :mod:`repro.engine.events` are emitted as jobs are scheduled and finish.

Edge and fact jobs share one path: each becomes a :class:`Job` (kind,
description, engine call), the rung-ladder loop (:meth:`_run_jobs`)
stages them through the portfolio rungs — one full-budget rung without
``config.portfolio`` — and one dispatch (:meth:`_dispatch`) runs each
rung inline or on the pool. Only record keeping differs by kind: edges
are deduplicated through the engine's edge cache, every fact run gets
its own record.

``jobs=1`` runs every job inline on one :class:`Engine` in submission
order — bit-identical to the sequential seed behavior, which keeps the
Table 1/2 reproduction deterministic. With ``jobs>1`` each worker owns a
private ``Engine`` (the search engine is single-threaded by design);
verdicts stay deterministic because the search itself is deterministic in
``(program, config)``, only completion *order* varies. Results are merged
into a shared cache so no edge is ever refuted twice.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .. import perf
from ..obs import metrics, telemetry, trace
from ..perf import store as perf_store
from ..perf.cache import RefutedStateCache
from ..pointsto import PointsToResult
from ..pointsto.graph import HeapEdge
from ..pointsto.producers import EdgeKey, edge_key
from ..symbolic import Engine, SearchConfig
from ..symbolic.stats import EdgeResult
from .events import (
    EdgeEscalated,
    EdgeFinished,
    EdgeScheduled,
    EventBus,
    RunFinished,
    RunStarted,
    SpanFinished,
)
from .report import EdgeRecord, RunReport
from .schedule import PRIORITY, CostModel, InversionMeter, rung_ladder

_CACHE_HITS = metrics.counter("driver.cache_hits")
_JOBS_DONE = metrics.counter("driver.jobs_completed")
_JOB_SECONDS = metrics.histogram("driver.job_seconds")
_BATCH_SECONDS = metrics.histogram("driver.batch_seconds")

SERIAL = "serial"
THREAD = "thread"

#: A fact-refutation request: (label, bindings, description) — the
#: arguments of :meth:`Engine.refute_fact_at` plus a display name.
FactJob = tuple  # (int, list[tuple[str, Optional[frozenset]]], str)


@dataclass(frozen=True)
class Job:
    """One refutation job of either kind. ``key`` identifies the job
    within its batch (the edge key, or the fact's request index);
    ``target`` is the :class:`HeapEdge` or the fact's ``(label,
    bindings)``."""

    kind: str  # "edge" | "fact"
    key: object
    description: str
    target: object

    @classmethod
    def edge(cls, edge: HeapEdge) -> "Job":
        return cls("edge", edge_key(edge), str(edge), edge)

    def run(
        self,
        engine: Engine,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> EdgeResult:
        if self.kind == "edge":
            return engine.refute_edge(
                self.target, budget=budget, deadline=deadline
            )
        label, bindings = self.target
        return engine.refute_fact_at(
            label,
            bindings,
            budget=budget,
            description=self.description,
            deadline=deadline,
        )

    def cost(self, model: CostModel) -> int:
        if self.kind == "edge":
            return model.edge_cost(self.target)
        return model.fact_cost(*self.target)


def _execute(
    engine: Engine,
    job: Job,
    budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> EdgeResult:
    """Run one job on ``engine`` under its root span (``driver.job``; the
    engine's ``executor.search`` span nests directly under it)."""
    with trace.span("driver.job", kind=job.kind, description=job.description):
        result = job.run(engine, budget, deadline)
    _JOBS_DONE.inc()
    _JOB_SECONDS.observe(result.seconds)
    return result


class RefutationDriver:
    """Schedules independent refutation jobs over a worker pool.

    Parameters
    ----------
    pta:
        The solved points-to analysis the engines search against.
    config:
        The search configuration shared by every worker engine.
    jobs:
        Worker count. ``1`` (the default) is the deterministic serial
        mode; ``N > 1`` fans edge jobs out over ``N`` worker threads.
    deadline:
        Per-edge wall-clock deadline in seconds (overrides
        ``config.deadline_seconds`` when given).
    on_event:
        Optional event sink (see :mod:`repro.engine.events`).
    """

    def __init__(
        self,
        pta: PointsToResult,
        config: Optional[SearchConfig] = None,
        jobs: int = 1,
        deadline: Optional[float] = None,
        on_event: Optional[Callable[[object], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        config = config or SearchConfig()
        if deadline is not None:
            config = config.copy(deadline_seconds=deadline)
        self.pta = pta
        self.config = config
        self.jobs = jobs
        #: ``"serial"`` or ``"thread"``: what the run report and the
        #: ``RunStarted`` event carry.
        self.backend = SERIAL if jobs == 1 else THREAD
        self.events = EventBus([on_event] if on_event is not None else None)
        #: The run-scoped refuted-state cache: every engine shares one
        #: lock-striped store, so a dead end proven by any job prunes
        #: every other job's search.
        self.refuted_states: Optional[RefutedStateCache] = (
            RefutedStateCache() if config.state_subsumption else None
        )
        #: The serial engine: runs every job when ``jobs == 1`` and serves
        #: as the shared result cache that parallel results merge into.
        #: Its construction also (re)binds the process-wide persistent
        #: verdict store to ``config.cache_dir``.
        self.engine = Engine(pta, config, refuted_cache=self.refuted_states)
        #: Persistent-store binding for the refuted-state cache: seed the
        #: dead ends earlier runs proved over this exact program
        #: fingerprint, and write-through everything this run proves.
        if self.refuted_states is not None and perf_store.ACTIVE is not None:
            scope = perf_store.refuted_scope(pta, config)
            if scope is not None:
                self.refuted_states.bind_store(perf_store.ACTIVE, scope)
        self._lock = threading.Lock()
        self._records: dict = {}  # job key -> EdgeRecord, insertion-ordered
        #: Driver-lifetime count of jobs answered from the shared result
        #: cache (seeded or earlier-run verdicts). The serve session diffs
        #: this across a request to report ``verdicts_reused``.
        self.cache_hits = 0
        self._wall_seconds = 0.0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._tls = threading.local()
        self._worker_counter = 0
        #: Summed seconds per span name, fed by the active tracer (if any);
        #: flows into RunReport.phase_seconds and SpanFinished bus events.
        self._phase_seconds: dict[str, float] = {}
        #: Scheduling state (repro.engine.schedule): the lazily-built cost
        #: model for priority ordering, per-rung portfolio stats, and the
        #: priority-inversion count.
        self._cost: Optional[CostModel] = None
        self._rungs: dict[int, dict] = {}
        self._inversions = 0
        self._tracer = trace.get_tracer()
        if self._tracer is not None:
            self._tracer.add_sink(self._on_span)
        metrics.gauge("driver.workers").set(jobs)

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------

    def _get_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs,
                thread_name_prefix="refute",
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and flush the persistent stores
        (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.refuted_states is not None:
            # Hand the accumulated per-point hits to the persistent store
            # as its cross-run LRU signal.
            self.refuted_states.flush_store_tallies()
        if perf_store.ACTIVE is not None:
            perf_store.ACTIVE.flush()
        if self._tracer is not None:
            self._tracer.remove_sink(self._on_span)
            self._tracer = None

    def __enter__(self) -> "RefutationDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _on_span(self, record) -> None:
        """Tracer sink: fold every finished span into the per-phase rollup
        and forward it onto the event bus (progress printer, collectors).
        Instant records (rung escalations) are point events, not phases —
        they already reach the bus as typed lifecycle events."""
        if getattr(record, "kind", "span") == "instant":
            return
        with self._lock:
            self._phase_seconds[record.name] = (
                self._phase_seconds.get(record.name, 0.0) + record.duration
            )
        self.events.emit(
            SpanFinished(
                name=record.name,
                seconds=record.duration,
                thread=record.thread_name,
                attrs=record.attrs,
            )
        )

    def _flight(self, job: Job, result: EdgeResult, worker: str) -> None:
        """Feed one finally-recorded search into the always-on flight
        recorder, capturing its journal when it crossed the slow-query
        threshold (``config.slow_query_ms``)."""
        summary = telemetry.search_summary(
            job.kind,
            job.description,
            result,
            worker=worker,
            estimate=job.cost(self._cost) if self._cost is not None else None,
        )
        telemetry.RECORDER.record(summary)
        threshold = self.config.slow_query_ms
        if threshold is not None and result.seconds * 1000.0 >= threshold:
            telemetry.RECORDER.capture(
                job.description,
                summary,
                replay=lambda: job.run(Engine(self.pta, self.config)),
            )

    @contextmanager
    def _timed_batch(self, total: int, kind: str):
        """One batch of refutation jobs: RunStarted/RunFinished bracketing,
        wall-clock accounting, and the batch's root span.

        Yields the list the caller must append each job's
        :class:`EdgeResult` to; RunFinished aggregates are computed from
        it on exit.
        """
        self.events.emit(
            RunStarted(
                total_jobs=total,
                jobs=self.jobs,
                backend=self.backend,
                deadline=self.config.deadline_seconds,
            )
        )
        outcomes: list[EdgeResult] = []
        start = time.perf_counter()
        with trace.span(
            "driver.batch", kind=kind, total=total, backend=self.backend
        ):
            yield outcomes
        elapsed = time.perf_counter() - start
        with self._lock:
            self._wall_seconds += elapsed
        _BATCH_SECONDS.observe(elapsed)
        self.events.emit(
            RunFinished(
                refuted=sum(1 for r in outcomes if r.refuted),
                witnessed=sum(1 for r in outcomes if r.witnessed),
                timeouts=sum(1 for r in outcomes if r.timed_out),
                seconds=elapsed,
            )
        )

    def _worker_engine(self) -> tuple[Engine, str]:
        """The calling pool thread's private engine."""
        engine = getattr(self._tls, "engine", None)
        if engine is None:
            with self._lock:
                worker_id = self._worker_counter
                self._worker_counter += 1
            engine = Engine(
                self.pta, self.config, refuted_cache=self.refuted_states
            )
            self._tls.engine = engine
            self._tls.name = f"thread-{worker_id}"
        return engine, self._tls.name

    # ------------------------------------------------------------------
    # Scheduling (repro.engine.schedule)
    # ------------------------------------------------------------------

    def _cost_model(self) -> CostModel:
        if self._cost is None:
            self._cost = CostModel(self.pta)
        return self._cost

    def _prioritized(self, batch: list[Job]) -> list[Job]:
        """Cheapest-first dispatch order under ``schedule == "priority"``
        (stable, with the description as tiebreak); input order otherwise."""
        if self.config.schedule != PRIORITY or len(batch) < 2:
            return batch
        model = self._cost_model()
        return sorted(
            batch, key=lambda job: (job.cost(model), job.description)
        )

    def _rung_entry(self, rung_index: int, budget, deadline) -> dict:
        """The (run-cumulative) stats row for one portfolio rung."""
        with self._lock:
            entry = self._rungs.get(rung_index)
            if entry is None:
                entry = {
                    "rung": rung_index,
                    "budget": (
                        budget if budget is not None else self.config.path_budget
                    ),
                    "deadline": (
                        deadline
                        if deadline is not None
                        else self.config.deadline_seconds
                    ),
                    "scheduled": 0,
                    "resolved": 0,
                    "carryover": 0,
                }
                self._rungs[rung_index] = entry
            return entry

    def _schedule_section(self) -> dict:
        """The run report's ``schedule`` section (see RunReport)."""
        with self._lock:
            rungs = [dict(self._rungs[i]) for i in sorted(self._rungs)]
            inversions = self._inversions
        return {
            "policy": self.config.schedule,
            "portfolio": self.config.portfolio,
            "rungs": rungs,
            "resolved_at_rung": {
                str(r["rung"]): r["resolved"] for r in rungs
            },
            "priority_inversions": inversions,
        }

    # ------------------------------------------------------------------
    # The job path: one rung-ladder loop over one dispatch
    # ------------------------------------------------------------------

    def _run_jobs(
        self,
        batch: list[Job],
        total: int,
        results: dict,
        done: int = 0,
        until_refuted: bool = False,
    ) -> dict:
        """Run ``batch`` up the rung ladder, filling ``results`` (job key
        -> final result) and recording and announcing each final verdict.

        Under ``config.portfolio`` every job runs at the first (small)
        budget/deadline rung and only the TIMEOUT survivors re-run at each
        escalating rung. Re-runs are warm — the refuted-state cache and
        solver memos persist across rungs. The final rung is the full
        configured budget/deadline, so every job ends with exactly the
        verdict the fixed schedule would produce; only the final verdict
        is recorded (with the rung that resolved it), never a provisional
        carryover timeout. Without the portfolio the ladder is that one
        full rung and no rung stats are kept.

        ``until_refuted`` stops the climb before the next rung once any
        result (cached ones included) is refuted — the path-level rule.
        Returns the provisional TIMEOUTs of the jobs that stop left
        unresolved, keyed like ``results``.
        """
        portfolio = self.config.portfolio
        ladder = rung_ladder(self.config) if portfolio else [(None, None)]
        provisional: dict = {}
        for rung, (budget, deadline) in enumerate(ladder):
            if not batch or (
                until_refuted and any(r.refuted for r in results.values())
            ):
                break
            final = rung == len(ladder) - 1
            stats = (
                self._rung_entry(rung, budget, deadline) if portfolio else None
            )
            for job, result, worker in self._dispatch(
                batch, total, budget, deadline
            ):
                if stats is not None:
                    # Rung occupancy is mirrored into the metrics registry
                    # so scrapes see it.
                    stats["scheduled"] += 1
                    metrics.counter(f"driver.rung.scheduled.{rung}").inc()
                    if result.timed_out and not final:
                        stats["carryover"] += 1
                        metrics.counter(f"driver.rung.carryover.{rung}").inc()
                        next_budget, next_deadline = ladder[rung + 1]
                        trace.instant(
                            "driver.rung_escalated",
                            description=job.description,
                            rung=rung,
                        )
                        self.events.emit(
                            EdgeEscalated(
                                description=job.description,
                                rung=rung,
                                next_budget=next_budget,
                                next_deadline=next_deadline,
                            )
                        )
                        provisional[job.key] = result
                        continue
                    result.rung = rung
                    stats["resolved"] += 1
                    stats[result.status] = stats.get(result.status, 0) + 1
                    metrics.counter(f"driver.rung.resolved.{rung}").inc()
                provisional.pop(job.key, None)
                results[job.key] = result
                self._record(job, result, worker)
                self._emit_finished(
                    job.description, result, worker, done, total
                )
                done += 1
            batch = [job for job in batch if job.key in provisional]
        return provisional

    def _dispatch(
        self,
        batch: list[Job],
        total: int,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Iterator[tuple[Job, EdgeResult, str]]:
        """Run one rung of ``batch`` and yield ``(job, result, worker)``
        per job: inline on the serial engine, in job order, when
        ``jobs == 1`` or the batch is a lone job; otherwise on the pool,
        in completion order, with priority inversions counted."""
        if self.jobs == 1 or len(batch) <= 1:
            for job in batch:
                yield job, _execute(self.engine, job, budget, deadline), SERIAL
            return
        pool = self._get_pool()
        meter = None
        if self.config.schedule == PRIORITY:
            model = self._cost_model()
            meter = InversionMeter({job.key: job.cost(model) for job in batch})
        futures = {}
        for index, job in enumerate(batch):
            self.events.emit(
                EdgeScheduled(
                    description=job.description, index=index, total=total
                )
            )
            futures[pool.submit(self._thread_run, job, budget, deadline)] = job
        for fut in as_completed(futures):
            job = futures[fut]
            result, worker = fut.result()
            if meter is not None:
                meter.complete(job.key)
            yield job, result, worker
        if meter is not None:
            with self._lock:
                self._inversions += meter.inversions

    def _thread_run(
        self, job: Job, budget: Optional[int], deadline: Optional[float]
    ) -> tuple[EdgeResult, str]:
        engine, worker = self._worker_engine()
        return _execute(engine, job, budget, deadline), worker

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def refute_edge(self, edge: HeapEdge) -> EdgeResult:
        """Refute one edge inline (cache-aware). Under
        ``config.portfolio`` it climbs the same cheap-first rung ladder
        as a batch; the final rung is the full configured budget, so the
        verdict is unchanged."""
        return self.refute_edges([edge])[edge_key(edge)]

    def refute_edges(
        self, edges: Sequence[HeapEdge]
    ) -> dict[EdgeKey, EdgeResult]:
        """Refute a batch of edges, fanning out over the worker pool.

        Duplicate and already-refuted edges are served from the shared
        cache; the rest run on the pool (or inline when ``jobs == 1``).
        Returns every requested edge's result keyed by its edge key.
        """
        _, results, _ = self._edge_batch(edges, "edges")
        return results

    def _edge_batch(
        self, edges: Sequence[HeapEdge], kind: str, until_refuted: bool = False
    ) -> tuple[list[Job], dict, dict]:
        """Deduplicate ``edges``, answer what the shared cache holds, and
        run the rest; returns the distinct jobs in input order, the final
        results and the provisional ones (see :meth:`_run_jobs`)."""
        ordered: list[Job] = []
        seen: set = set()
        for edge in edges:
            job = Job.edge(edge)
            if job.key not in seen:
                seen.add(job.key)
                ordered.append(job)
        results: dict = {}
        todo: list[Job] = []
        for job in ordered:
            cached = self._hit(job.key)
            if cached is None:
                todo.append(job)
            else:
                results[job.key] = cached
        total = len(ordered)
        with self._timed_batch(total, kind) as outcomes:
            for done, job in enumerate(j for j in ordered if j.key in results):
                self._emit_finished(
                    job.description, results[job.key], SERIAL, done, total,
                    cached=True,
                )
            provisional = self._run_jobs(
                self._prioritized(todo), total, results, len(results),
                until_refuted,
            )
            outcomes.extend(results.values())
            outcomes.extend(provisional.values())
        return ordered, results, provisional

    def refute_path(
        self, path: Sequence[HeapEdge]
    ) -> list[tuple[HeapEdge, EdgeResult]]:
        """Refute the edges of one heap path.

        Serial mode walks the path in order and stops at the first refuted
        edge — exactly the sequential Section 2 loop, so ``jobs=1`` runs
        are bit-identical to the seed. Parallel mode refutes every edge of
        the path concurrently (the extra edges are not wasted: their
        verdicts are program-wide facts that later paths and alarms reuse
        from the cache). Returns ``(edge, result)`` pairs for the edges
        actually examined, in path order.

        Under ``config.portfolio`` the path runs the cheap-first rung
        ladder *across* its edges: a path's verdict needs only one
        refuted edge, so every edge tries the small budget rung first
        and escalation stops as soon as any edge refutes — an expensive
        edge is never run at full budget when a cheap path-mate already
        broke the path. Edges left unresolved when the path breaks are
        returned with their provisional TIMEOUT results and are neither
        cached nor recorded (a later path can still resolve them).
        """
        if self.config.portfolio:
            ordered, results, provisional = self._edge_batch(
                path, "path", until_refuted=True
            )
            return [
                (job.target, results.get(job.key) or provisional[job.key])
                for job in ordered
                if job.key in results or job.key in provisional
            ]
        if self.jobs > 1:
            results = self.refute_edges(path)
            return [(edge, results[edge_key(edge)]) for edge in path]
        total = len(path)
        out = []
        with self._timed_batch(total, "path") as outcomes:
            for index, edge in enumerate(path):
                job = Job.edge(edge)
                results = {}
                cached = self._hit(job.key)
                if cached is not None:
                    results[job.key] = cached
                    self._emit_finished(
                        job.description, cached, SERIAL, index, total,
                        cached=True,
                    )
                else:
                    self._run_jobs([job], total, results, index)
                out.append((edge, results[job.key]))
                if results[job.key].refuted:
                    break
            outcomes.extend(r for _, r in out)
        return out

    def refute_facts(self, requests: Sequence[FactJob]) -> list[EdgeResult]:
        """Run a batch of :meth:`Engine.refute_fact_at` queries.

        ``requests`` is a sequence of ``(label, bindings, description)``
        triples; results come back in request order regardless of the
        dispatch order (priority scheduling) or completion order on the
        pool.
        """
        batch = [
            Job("fact", i, description, (label, bindings))
            for i, (label, bindings, description) in enumerate(requests)
        ]
        results: dict = {}
        with self._timed_batch(len(batch), "facts") as outcomes:
            self._run_jobs(self._prioritized(batch), len(batch), results)
            final = [results[job.key] for job in batch]
            outcomes.extend(final)
        return final

    # ------------------------------------------------------------------
    # Results, records, reports
    # ------------------------------------------------------------------

    def _cached(self, key: EdgeKey) -> Optional[EdgeResult]:
        with self._lock:
            return self.engine._edge_cache.get(key)

    def _hit(self, key: EdgeKey) -> Optional[EdgeResult]:
        """:meth:`_cached`, counting a found result as a cache hit."""
        cached = self._cached(key)
        if cached is not None:
            _CACHE_HITS.inc()
            with self._lock:
                self.cache_hits += 1
        return cached

    def _record(self, job: Job, result: EdgeResult, worker: str) -> None:
        """Record one final verdict. An edge is merged into the serial
        engine's cache — so every consumer, including direct Engine users
        like witness rendering, sees one coherent result set — and
        recorded once; every fact run gets its own record. ``worker ==
        "cache"`` marks a reused verdict (the serve session's fact-table
        hit): no search ran, so the flight recorder is skipped."""
        with self._lock:
            if job.kind == "edge":
                self.engine._edge_cache.setdefault(job.key, result)
                key = job.key
                fresh = key not in self._records
            else:
                key = ("fact", job.description, len(self._records))
                fresh = True
            if fresh:
                self._records[key] = EdgeRecord.from_result(
                    result,
                    worker=worker,
                    description=job.description,
                    kind=job.kind,
                )
        if fresh and worker != "cache":
            # Outside the lock: a slow-query capture may replay the search.
            self._flight(job, result, worker)

    def _emit_finished(
        self,
        description: str,
        result: EdgeResult,
        worker: str,
        index: int,
        total: int,
        cached: bool = False,
    ) -> None:
        self.events.emit(
            EdgeFinished(
                description=description,
                status=result.status,
                seconds=result.seconds,
                path_programs=result.path_programs,
                worker=worker,
                index=index,
                total=total,
                cached=cached,
            )
        )

    def edge_results(self) -> dict:
        """All per-edge outcomes so far, keyed by edge key."""
        with self._lock:
            return dict(self.engine._edge_cache)

    def seed_results(self, results: dict) -> None:
        """Pre-populate the shared result cache with verdicts carried over
        from an earlier run (the serve session's surviving verdict table).
        Seeded edges are answered as cache hits without re-searching;
        existing entries are never overwritten."""
        with self._lock:
            for key, result in results.items():
                self.engine._edge_cache.setdefault(key, result)

    def mark(self) -> tuple[int, int]:
        """A per-request bookmark: ``(records so far, cache hits so far)``.
        Pass the first element to :meth:`build_report` as ``since`` to
        report just the jobs run after the mark; diff the second against
        :attr:`cache_hits` for the verdicts served from cache since."""
        with self._lock:
            return len(self._records), self.cache_hits

    def build_report(
        self, app: str = "", command: str = "", since: int = 0
    ) -> RunReport:
        """Snapshot the run so far as a structured :class:`RunReport`.

        The ``cache`` section holds this process's cache counters and the
        shared refuted-state store's size/hit statistics. Records are
        sorted by a stable job token (kind, then description) so reports
        are byte-stable across ``--jobs`` and schedule permutations."""
        cache = perf.cache_report()
        cache["refuted_store"] = (
            self.refuted_states.stats()
            if self.refuted_states is not None
            else None
        )
        cache["memoize_solver"] = self.config.memoize_solver
        cache["state_subsumption"] = self.config.state_subsumption
        cache["partition_solver"] = self.config.partition_solver
        schedule = self._schedule_section()
        with self._lock:
            return RunReport(
                app=app,
                command=command,
                jobs=self.jobs,
                backend=self.backend,
                deadline=self.config.deadline_seconds,
                path_budget=self.config.path_budget,
                wall_seconds=self._wall_seconds,
                records=sorted(
                    list(self._records.values())[since:],
                    key=lambda r: (r.kind, r.description),
                ),
                phase_seconds=dict(self._phase_seconds),
                cache=cache,
                schedule=schedule,
            )
