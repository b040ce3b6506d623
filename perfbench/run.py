"""The repository benchmark: Table 1, Table 2 (fully symbolic) and the
``serve`` edit loop, with per-layer self-times from a separate traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``table1`` -- the seven ``repro.bench.APPS`` under ``LeakChecker`` with the
  default ``SearchConfig``, ``Ann?`` = N then Y: the 14 cells of Table 1.
* ``table2_symbolic`` -- the seven apps, ``Ann?`` = N, fully-symbolic
  representation, ``path_budget=1000``: the symbolic column of Table 2.
  Not listed in ``BENCHMARK.json`` (see README.md): it runs by hand.
* ``serve_edit`` -- a ``thresher serve --stdio --no-library`` daemon on
  ``lifecycle_app(16, leaky=1, branches=6)``; one closed-loop client sends
  one ``analyze`` and then one ``update`` + ``analyze`` round trip per
  screen, screens 0..15 in order, each adding one ``lifecycle_edit``.

Every pass is a fresh child process at ``jobs=1``. ``--seed`` sets
``PYTHONHASHSEED`` in every child; the inputs are otherwise fixed. A run
repeats passes until ``--seconds`` have been measured (at least one) and
reports medians. Set-up (spawn until the child's ready line) is sampled at
least ``SETUP_SAMPLES`` times, with extra set-up-only children if the
passes were fewer.

Correctness is checked outside the timed region: every batch alarm
verdict must equal ``expected.json``, TruA must equal the count of alarms
the concrete interpreter (``concrete_leak_pairs``) produces, and no such
alarm may be refuted; every serve update must be ``incremental`` and the
final verdicts must equal, byte for byte, a cold daemon's on the final
source.

``--trace 1`` runs one untraced and one traced pass with the same seed,
checks that verdicts and counters agree and that the layer self-times sum
to the traced wall time within 5%, and reports the per-layer metrics.

Children get a clean environment: inherited ``REPRO_*`` variables are
dropped, and ``REPRO_FLIGHT_DIR`` and ``TMPDIR`` point into a scratch
directory under ``.perfbench-tmp/`` that is removed at exit. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from child import COUNTERS
from layers import LAYERS, OTHER

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
#: Wall-clock budget for one run; children still alive past it are killed.
RUN_BUDGET_S = 170.0
#: Largest |sum of self-times - traced wall| / traced wall accepted.
TRACE_SUM_TOLERANCE = 0.05

SERVE_SCREENS = 16
SERVE_BRANCHES = 6
SERVE_QUERY = {
    "client": "reachability",
    "root_class": "Registry",
    "root_field": "hold",
    "target_class": "Item",
}

BATCH_WORKLOADS = ("table1", "table2_symbolic")
WORKLOADS = BATCH_WORKLOADS + ("serve_edit",)

#: Every layer self-time reported, the uncovered remainder last.
LAYER_NAMES = tuple(LAYERS) + (OTHER,)


class BenchError(Exception):
    """A child crashed, hung or answered out of protocol."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Run:
    """One benchmark run's environment: the checkout, a scratch directory,
    the seed and the deadline."""

    def __init__(self, root: str, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.hash_seed = str(seed % (1 << 32))
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.tmp = os.path.join(root, ".perfbench-tmp", f"run-{os.getpid()}")
        os.makedirs(self.tmp)
        self._children = 0

    def scratch(self, name: str) -> str:
        self._children += 1
        path = os.path.join(self.tmp, f"{self._children:03d}-{name}")
        os.makedirs(path)
        return path

    def env(self, flight_dir: str) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = self.hash_seed
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["REPRO_FLIGHT_DIR"] = flight_dir
        env["TMPDIR"] = self.tmp
        return env

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass


class Child:
    """A child process speaking JSON lines on stdout. ``setup_s`` is the
    time from spawn to its first (ready) line."""

    def __init__(self, run: Run, name: str, argv: list[str], stdin=False) -> None:
        self.dir = run.scratch(name)
        self.flight_dir = os.path.join(self.dir, "flight")
        self._stderr = open(os.path.join(self.dir, "stderr.txt"), "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            cwd=run.root,
            env=run.env(self.flight_dir),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        remaining = max(1.0, run.deadline - time.monotonic())
        self._watchdog = threading.Timer(remaining, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.peak_rss_mb = 0.0
        try:
            ready = self.read()
            if not ready.get("ready"):
                raise BenchError(f"{name}: no ready line: {ready}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"child exited early: {self.stderr_tail()}")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise BenchError(f"bad child line {line[:200]!r}") from exc

    def send(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stderr_tail(self) -> str:
        with open(self._stderr.name) as fh:
            return fh.read()[-2000:]

    def finish(self) -> dict:
        """Read to EOF, reap the process and return its last JSON line."""
        last = None
        for line in self.proc.stdout:
            if line.strip():
                last = line
        self.close()
        if self.proc.returncode != 0 or last is None:
            raise BenchError(
                f"child exit {self.proc.returncode}: {self.stderr_tail()}"
            )
        return json.loads(last)

    def close(self) -> None:
        """Close its stdin, wait for it to exit and record its peak
        resident set size."""
        if self.proc.returncode is None:
            if self.proc.stdin:
                try:
                    self.proc.stdin.close()
                except OSError:
                    pass
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            except ChildProcessError:
                self.proc.wait()
            else:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._watchdog.cancel()
        self.proc.stdout.close()
        self._stderr.close()

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
        self.close()

    def captures(self) -> int:
        return len(glob.glob(os.path.join(self.flight_dir, "*.meta.json")))


# ---------------------------------------------------------------------------
# Workloads. Each pass returns a dict with ``setup_s``, ``wall_s``,
# ``op_s`` (latency of each cell or edit round trip), ``peak_rss_mb``,
# ``captures``, ``capture_s``, ``signature`` (what every pass of a run must
# reproduce exactly), ``counters`` and, when traced, ``layers``.
# ---------------------------------------------------------------------------


def child_script(mode: str, workload: str) -> list[str]:
    return [os.path.join(HERE, "child.py"), mode, "--workload", workload]


class BatchWorkload:
    """``table1`` or ``table2_symbolic``: one pass is every cell of the
    table in one child; an op is one alarm verdict."""

    def __init__(self, run: Run, name: str) -> None:
        self.run = run
        self.name = name
        with open(os.path.join(HERE, "expected.json")) as fh:
            self.expected = json.load(fh)[name]

    def one_pass(self, traced: bool) -> dict:
        argv = child_script("pass", self.name) + (["--trace"] if traced else [])
        child = Child(self.run, "pass", argv)
        try:
            result = child.finish()
        except BaseException:
            child.kill()
            raise
        cells = result["cells"]
        counters = result["counters"]
        return {
            "setup_s": child.setup_s,
            "wall_s": result["wall_s"],
            "op_s": [cell["seconds"] for cell in cells],
            "peak_rss_mb": child.peak_rss_mb,
            "captures": child.captures(),
            "capture_s": result["capture_s"],
            "cells": cells,
            "signature": {
                "cells": [
                    {k: v for k, v in cell.items() if k != "seconds"}
                    for cell in cells
                ],
                "counters": counters,
            },
            "counters": {
                "path_programs": sum(c["path_programs"] for c in cells),
                "edges": sum(c["edges"] for c in cells),
                "edges_refuted": sum(c["edges_refuted"] for c in cells),
                "verdicts_reused": 0,
                "invalidated_edges": 0,
                **counters,
            },
            "layers": result["layers"],
        }

    def probe(self) -> float:
        child = Child(self.run, "probe", child_script("probe", self.name))
        child.finish()
        return child.setup_s

    def check(self, passes: list[dict], problems: list[str]) -> tuple[int, int]:
        """(attempted, failed) alarm verdicts over ``passes``, against
        ``expected.json`` and the concrete interpreter."""
        child = Child(self.run, "truth", child_script("truth", self.name))
        oracle = child.finish()["truth"]
        attempted = failed = 0
        for result in passes:
            cells = {cell["cell"]: cell for cell in result["cells"]}
            for name, want in self.expected.items():
                a, f = check_cell(
                    name, want, cells.get(name), oracle[name.split("/")[0]],
                    problems,
                )
                attempted += a
                failed += f
        return attempted, failed


def check_cell(name, want, got, oracle, problems) -> tuple[int, int]:
    """One cell's (attempted, failed) alarm verdicts. An alarm fails when
    its verdict differs from the expected one or when it refutes a pair
    the concrete interpreter produces (an unsound refutation)."""
    if got is None:
        problems.append(f"{name}: cell missing")
        return len(want["alarms"]), len(want["alarms"])
    true_pairs = {tuple(pair) for pair in oracle}
    want_status = {tuple(a[:3]): a[3] for a in want["alarms"]}
    got_status = {tuple(a[:3]): a[3] for a in got["alarms"]}
    keys = set(want_status) | set(got_status)
    differ = [k for k in keys if got_status.get(k) != want_status.get(k)]
    unsound = [
        k for k, s in got_status.items() if s == "refuted" and k[:2] in true_pairs
    ]
    if differ:
        problems.append(f"{name}: verdicts differ from expected.json: {differ}")
    if unsound:
        problems.append(f"{name}: unsound refutations: {unsound}")
    failed = len(set(differ) | set(unsound))
    counts = (
        len(got_status),
        sum(1 for s in got_status.values() if s == "refuted"),
        sum(1 for key in got_status if key[:2] in true_pairs),
    )
    want_counts = (want["alrms"], want["refa"], want["trua"])
    if counts != want_counts:
        problems.append(f"{name}: Alrms/RefA/TruA {counts} != {want_counts}")
        failed = max(failed, 1)
    return len(keys), failed


class ServeWorkload:
    """``serve_edit``: one pass is one daemon session -- ``analyze``, then
    an ``update`` + ``analyze`` round trip per screen. An op is one request."""

    def __init__(self, run: Run, name: str) -> None:
        self.run = run
        sys.path.insert(0, os.path.join(run.root, "src"))
        from repro.bench.workloads import lifecycle_app, lifecycle_edit

        self.sources = [lifecycle_app(SERVE_SCREENS, leaky=1, branches=SERVE_BRANCHES)]
        for screen in range(SERVE_SCREENS):
            self.sources.append(lifecycle_edit(self.sources[-1], screen=screen))
        self.app = self._write("app.mj", self.sources[0])

    def _write(self, name: str, source: str) -> str:
        path = os.path.join(self.run.tmp, name)
        with open(path, "w") as fh:
            fh.write(source)
        return path

    def _spawn(self, app: str, layers_out: str = "") -> Child:
        serve = ["serve", "--stdio", "--no-library", app]
        if layers_out:
            argv = [os.path.join(HERE, "daemon.py"), layers_out] + serve
        else:
            argv = ["-m", "repro.cli"] + serve
        return Child(self.run, "daemon", argv, stdin=True)

    @staticmethod
    def _request(daemon: Child, rid: int, op: str, params: dict) -> dict:
        response = daemon.send({"id": rid, "op": op, "params": params})
        if response.get("id") != rid:
            raise BenchError(f"response out of order: {response}")
        return response

    def _stop(self, daemon: Child) -> None:
        self._request(daemon, 0, "shutdown", {})
        daemon.close()
        if daemon.proc.returncode != 0:
            raise BenchError(f"daemon exit {daemon.proc.returncode}")

    def _registry(self, daemon: Child) -> dict:
        response = self._request(daemon, 0, "metrics", {"format": "json"})
        registry = response["result"]["metrics"]
        return {name: registry.get(name, {}).get("value", 0) for name in COUNTERS}

    def one_pass(self, traced: bool) -> dict:
        layers_out = os.path.join(self.run.tmp, "layers.json") if traced else ""
        daemon = self._spawn(self.app, layers_out)
        try:
            before = self._registry(daemon)
            exchanges = []  # (op, response)
            edit_s = []
            started = time.perf_counter()
            exchanges.append(
                ("analyze", self._request(daemon, 1, "analyze", SERVE_QUERY))
            )
            for i, source in enumerate(self.sources[1:]):
                sent = time.perf_counter()
                update = self._request(daemon, 2 + 2 * i, "update", {"source": source})
                analyze = self._request(daemon, 3 + 2 * i, "analyze", SERVE_QUERY)
                edit_s.append(time.perf_counter() - sent)
                exchanges += [("update", update), ("analyze", analyze)]
            wall_s = time.perf_counter() - started
            after = self._registry(daemon)
            self._stop(daemon)
        except BaseException:
            daemon.kill()
            raise
        layers = None
        if traced:
            with open(layers_out) as fh:
                layers = json.load(fh)
        responses = [r for _, r in exchanges]
        analyses = [r for op, r in exchanges if op == "analyze" and r.get("ok")]
        records = [
            record
            for r in analyses
            for record in (r["result"].get("report") or {}).get("records", [])
        ]
        shape = [
            [
                r.get("ok"),
                r.get("result", {}).get("mode"),
                r.get("meta", {}).get("jobs_run"),
                r.get("meta", {}).get("verdicts_reused"),
                r.get("meta", {}).get("invalidated_edges"),
            ]
            for r in responses
        ]
        final = json.dumps(
            analyses[-1]["result"]["verdicts"] if analyses else None,
            sort_keys=True,
        )
        counters = {name: after[name] - before[name] for name in before}
        return {
            "setup_s": daemon.setup_s,
            "wall_s": wall_s,
            "op_s": edit_s,
            "peak_rss_mb": daemon.peak_rss_mb,
            "captures": daemon.captures(),
            # The daemon runs unmodified; serve searches stay far below the
            # capture threshold.
            "capture_s": 0.0,
            "exchanges": exchanges,
            "final": final,
            "signature": {"shape": shape, "final": final, "counters": counters},
            "counters": {
                "path_programs": sum(r["path_programs"] for r in records),
                "edges": len(records),
                "edges_refuted": sum(1 for r in records if r["status"] == "refuted"),
                "verdicts_reused": sum(
                    r.get("meta", {}).get("verdicts_reused") or 0 for r in responses
                ),
                "invalidated_edges": sum(
                    r.get("meta", {}).get("invalidated_edges") or 0
                    for r in responses
                ),
                **counters,
            },
            "layers": layers,
        }

    def probe(self) -> float:
        daemon = self._spawn(self.app)
        try:
            self._stop(daemon)
        except BaseException:
            daemon.kill()
            raise
        return daemon.setup_s

    def check(self, passes: list[dict], problems: list[str]) -> tuple[int, int]:
        """(attempted, failed) requests: each must succeed, each update must
        take the incremental path, and the final verdicts must equal a cold
        daemon's on the final source, byte for byte."""
        daemon = self._spawn(self._write("final.mj", self.sources[-1]))
        try:
            cold = self._request(daemon, 1, "analyze", SERVE_QUERY)
            self._stop(daemon)
        except BaseException:
            daemon.kill()
            raise
        cold_final = json.dumps(
            cold["result"]["verdicts"] if cold.get("ok") else None, sort_keys=True
        )
        attempted = failed = 0
        for result in passes:
            for op, response in result["exchanges"]:
                attempted += 1
                if not response.get("ok"):
                    problems.append(f"{op} failed: {response.get('error')}")
                    failed += 1
                elif op == "update" and response["result"]["mode"] != "incremental":
                    problems.append(f"update not incremental: {response['result']}")
                    failed += 1
            if result["final"] != cold_final:
                problems.append("final verdicts differ from a cold daemon's")
                failed += 1
        return attempted, failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Medians over the run's passes of per-pass figures, so that a host
    slowdown hitting a minority of passes does not move them."""

    def median(figure) -> float:
        return statistics.median(figure(p) for p in passes)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median(lambda p: p["wall_s"]), "s"),
        "op_p50_ms": (1000.0 * median(lambda p: statistics.median(p["op_s"])), "ms"),
        "op_p90_ms": (1000.0 * median(lambda p: p90(p["op_s"])), "ms"),
        "peak_rss_mb": (median(lambda p: p["peak_rss_mb"]), "MB"),
    }


def net_wall(result: dict) -> float:
    """Pass wall time less flight-recorder captures: whether a search is
    captured depends on its wall time, not on tracing."""
    return result["wall_s"] - result["capture_s"]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Self-times are medians over the traced passes; counts come from the
    first one (check_trace has made sure they repeat)."""
    layers = traced[0]["layers"]
    calls = layers["calls"]
    counters = traced[0]["counters"]
    out = {
        f"{name}.self_s": (
            statistics.median(t["layers"]["self_s"][name] for t in traced), "s"
        )
        for name in LAYER_NAMES
    }
    out.update(
        {
            "lang.calls": (calls["lang"], "count"),
            "lang.kb_per_s": (
                statistics.median(t["layers"]["lang_kb_per_s"] for t in traced),
                "KB/s",
            ),
            "symbolic.executor.calls": (calls["symbolic.executor"], "count"),
            "symbolic.query.calls": (calls["symbolic.query"], "count"),
            "solver.calls": (calls["solver"], "count"),
            "symbolic.query.solver_ratio": (
                ratio(calls["solver"], calls["symbolic.query"]), "ratio"
            ),
            "symbolic.simplification.calls": (
                calls["symbolic.simplification"], "count"
            ),
            "symbolic.simplification.entailed_ratio": (
                ratio(layers["entailed"], calls["symbolic.simplification"]),
                "ratio",
            ),
            "symbolic.loops.calls": (calls["symbolic.loops"], "count"),
            "engine.path_programs": (counters["path_programs"], "count"),
            "engine.refuted_ratio": (
                ratio(counters["edges_refuted"], counters["edges"]), "ratio"
            ),
            "solver.decisions": (counters["solver.checks"], "count"),
            "perf.memo_hit_ratio": (
                ratio(
                    counters["solver.memo_hits"],
                    counters["solver.memo_hits"] + counters["solver.memo_misses"],
                ),
                "ratio",
            ),
            "serve.verdicts_reused": (counters["verdicts_reused"], "count"),
            "serve.invalidated_edges": (counters["invalidated_edges"], "count"),
            "obs.flight.captures": (traced[0]["captures"], "count"),
            "trace.overhead_s": (
                statistics.median(net_wall(t) for t in traced)
                - statistics.median(net_wall(p) for p in plain),
                "s",
            ),
        }
    )
    return out


def check_trace(first: dict, plain: dict, traced: dict, problems: list[str]) -> None:
    """Every pass must reproduce the first one's verdicts and counters,
    and the traced pass's layer self-times must add up to its wall time."""
    if plain["signature"] != first["signature"]:
        problems.append("untraced passes differ in verdicts or counters")
    if traced["signature"] != first["signature"]:
        problems.append("traced pass differs from the untraced pass")
    total = sum(traced["layers"]["self_s"].values())
    if abs(total - traced["wall_s"]) > TRACE_SUM_TOLERANCE * traced["wall_s"]:
        problems.append(
            f"layer self-times sum to {total:.3f}s, traced wall is"
            f" {traced['wall_s']:.3f}s"
        )
    negative = [k for k, v in traced["layers"]["self_s"].items() if v < 0]
    if negative:
        problems.append(f"negative self-time in {negative}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def measure(run: Run, workload, trace: bool) -> dict:
    problems: list[str] = []
    if trace:
        # Alternate untraced and traced passes, at least one pair.
        plain, traced = [], []
        started = time.monotonic()
        while not plain or time.monotonic() - started < run.seconds:
            plain.append(workload.one_pass(traced=False))
            traced.append(workload.one_pass(traced=True))
            check_trace(plain[0], plain[-1], traced[-1], problems)
        passes = plain + traced
        metrics = per_layer(plain, traced)
    else:
        passes = []
        started = time.monotonic()
        while not passes or time.monotonic() - started < run.seconds:
            passes.append(workload.one_pass(traced=False))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(workload.probe())
        metrics = end_to_end(passes, setups)
    attempted, failed = workload.check(passes, problems)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    record = {
        "seed": run.seed,
        "PYTHONHASHSEED": run.hash_seed,
        "passes": len(passes),
        "problems": problems,
    }
    print(json.dumps(record, sort_keys=True))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: run from the root of a checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    run = Run(root, args.seed, args.seconds)
    try:
        kind = ServeWorkload if args.workload == "serve_edit" else BatchWorkload
        result = measure(run, kind(run, args.workload), bool(args.trace))
    finally:
        run.close()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
