"""One benchmark child process: a batch pass, a set-up probe, or the
ground-truth oracle.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and a clean environment::

    python3 perfbench/child.py pass  --workload table1 [--trace]
    python3 perfbench/child.py probe --workload table1
    python3 perfbench/child.py truth
    python3 perfbench/child.py expect > perfbench/expected.json

``pass`` and ``probe`` print one ``{"ready": true}`` line as soon as the
imports a pass needs are done (the parent times spawn -> ready as set-up),
and ``pass`` then runs every cell of the workload's table once, in fixed
order, at ``jobs=1``. The last stdout line of every mode is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from layers import LayerTracer

#: Registry counters read before and after a pass.
COUNTERS = (
    "solver.checks",
    "solver.memo_hits",
    "solver.memo_misses",
    "solver.component_memo_hits",
    "solver.component_memo_misses",
    "solver.context_hits",
)


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def site_key(site) -> str:
    return f"{site.method}#{site.site_id}:{site.class_name}"


def cells(workload: str):
    """The workload's cells as (app, annotated, config), in table order."""
    from repro.bench import APPS
    from repro.symbolic import Representation, SearchConfig

    if workload == "table1":
        default = SearchConfig()
        return [(app, ann, default) for ann in (False, True) for app in APPS]
    if workload == "table2_symbolic":
        symbolic = SearchConfig(path_budget=1_000).copy(
            representation=Representation.FULLY_SYMBOLIC
        )
        return [(app, False, symbolic) for app in APPS]
    raise SystemExit(f"unknown batch workload {workload!r}")


def counters() -> dict:
    from repro.obs import metrics

    out = {}
    for name in COUNTERS:
        instrument = metrics.REGISTRY.get(name)
        out[name] = instrument.value if instrument is not None else 0
    return out


def run_cell(app, annotated: bool, config) -> dict:
    from repro.android.leaks import LeakChecker

    started = time.perf_counter()
    report = LeakChecker(
        app.source, app.name, annotated=annotated, config=config
    ).run()
    seconds = time.perf_counter() - started
    records = report.run_report.records
    return {
        "cell": f"{app.name}/{'Y' if annotated else 'N'}",
        "seconds": seconds,
        "alarms": sorted(
            [
                f"{a.root.class_name}.{a.root.field}",
                site_key(a.target.site),
                str(a.target),
                a.status,
            ]
            for a in report.alarms
        ),
        "path_programs": sum(r.path_programs for r in records),
        "edges": len(records),
        "edges_refuted": sum(1 for r in records if r.status == "refuted"),
    }


def do_pass(workload: str, traced: bool) -> None:
    import repro.android.leaks  # noqa: F401 — the pass's imports are set-up
    import repro.obs.telemetry as telemetry

    todo = cells(workload)
    emit({"ready": True})

    # Captures replay a search under the flight recorder. Whether a search
    # is captured depends on its wall time, so keep their solver traffic
    # out of the pass's counters and report the time they took.
    captured = {"seconds": 0.0, "delta": {name: 0 for name in COUNTERS}}
    original_capture = telemetry.FlightRecorder.capture

    def capture(self, *args, **kwargs):
        before = counters()
        started = time.perf_counter()
        try:
            return original_capture(self, *args, **kwargs)
        finally:
            captured["seconds"] += time.perf_counter() - started
            after = counters()
            for name in COUNTERS:
                captured["delta"][name] += after[name] - before[name]

    telemetry.FlightRecorder.capture = capture

    tracer = LayerTracer().install() if traced else None
    before = counters()
    started = time.perf_counter()
    with tracer.root() if tracer is not None else contextlib.nullcontext():
        results = [run_cell(*cell) for cell in todo]
    wall = time.perf_counter() - started
    after = counters()
    delta = {
        name: after[name] - before[name] - captured["delta"][name]
        for name in COUNTERS
    }
    emit(
        {
            "wall_s": wall,
            "cells": results,
            "counters": delta,
            "capture_s": captured["seconds"],
            "layers": tracer.report() if tracer is not None else None,
        }
    )


def do_probe(workload: str) -> None:
    import repro.android.leaks  # noqa: F401

    cells(workload)
    emit({"ready": True})
    emit({"probe": True})


def truth() -> dict:
    """Ground truth from the concrete interpreter: per app, the (static
    field, Activity allocation site) pairs some bounded concrete run
    produces."""
    from repro.bench import APPS
    from repro.bench.workloads import concrete_leak_pairs

    out = {}
    for app in APPS:
        pairs = concrete_leak_pairs(app)
        out[app.name] = sorted(
            [f"{cls}.{field}", site_key(site)] for (cls, field), site in pairs
        )
    return out


def do_expect() -> None:
    """Print ``expected.json``: every cell's alarm verdicts and its
    Alrms/RefA/TruA, TruA counted against the concrete interpreter."""
    oracle = truth()
    expected = {}
    for workload in ("table1", "table2_symbolic"):
        expected[workload] = table = {}
        for app, annotated, config in cells(workload):
            cell = run_cell(app, annotated, config)
            true_pairs = {tuple(pair) for pair in oracle[app.name]}
            alarms = cell["alarms"]
            table[cell["cell"]] = {
                "alrms": len(alarms),
                "refa": sum(1 for a in alarms if a[3] == "refuted"),
                "trua": sum(1 for a in alarms if (a[0], a[1]) in true_pairs),
                "alarms": alarms,
            }
    print(json.dumps(expected, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "probe", "truth", "expect"))
    parser.add_argument("--workload", default="table1")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "pass":
        do_pass(args.workload, args.trace)
    elif args.mode == "probe":
        do_probe(args.workload)
    elif args.mode == "truth":
        emit({"ready": True})
        emit({"truth": truth()})
    else:
        do_expect()
    return 0


if __name__ == "__main__":
    sys.exit(main())
