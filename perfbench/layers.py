"""Layer self-times measured from outside the program.

A :class:`LayerTracer` wraps the public entry point of each module at
every binding a caller can reach it through: the defining module's
attribute, each ``repro.*`` module global bound to the same function, and
the class attribute for methods. Each wrapped call is a span on one stack;
a span's *self* time is its duration minus the time its child spans
cover, so the self-times of all layers, plus the root span the caller
opens around the measured region, add up to that region's wall time.

Nothing inside ``src/`` is edited: ``install()`` patches live objects in
the process that runs the workload, which exits when the workload ends.

A layer marked *absorbing* (the flight recorder's capture) charges every
call made beneath it to itself: the replay a capture runs is the
recorder's cost, not the executor's, and its calls are not counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time

#: Layer name -> entry points, as (module, qualified name). Order matters
#: only for reporting.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "android": [
        ("repro.android.harness", "build_full_source"),
        ("repro.android.leaks", "LeakChecker.__init__"),
        ("repro.android.leaks", "LeakChecker.run"),
    ],
    "lang": [("repro.lang", "frontend")],
    "ir": [("repro.ir.builder", "build_program")],
    "pointsto": [
        ("repro.pointsto", "analyze"),
        ("repro.pointsto", "reanalyze"),
        ("repro.pointsto.incremental", "extend_solution"),
    ],
    "pointsto.heappaths": [
        ("repro.pointsto.heappaths", "find_heap_path"),
        ("repro.pointsto.heappaths", "find_alarms"),
    ],
    "engine": [
        ("repro.engine.driver", "RefutationDriver.__init__"),
        ("repro.engine.driver", "RefutationDriver.refute_edge"),
        ("repro.engine.driver", "RefutationDriver.refute_edges"),
        ("repro.engine.driver", "RefutationDriver.refute_path"),
        ("repro.engine.driver", "RefutationDriver.refute_facts"),
        ("repro.engine.driver", "RefutationDriver.edge_results"),
        ("repro.engine.driver", "RefutationDriver.build_report"),
        ("repro.engine.driver", "RefutationDriver.close"),
    ],
    "symbolic.executor": [
        ("repro.symbolic.executor", "Engine.__init__"),
        ("repro.symbolic.executor", "Engine.refute_edge"),
        ("repro.symbolic.executor", "Engine.refute_fact_at"),
    ],
    "symbolic.loops": [("repro.symbolic.loops", "saturate")],
    "symbolic.query": [("repro.symbolic.query", "Query.check_sat")],
    "solver": [
        ("repro.solver.core", "check_sat"),
        ("repro.solver.core", "entails"),
    ],
    "symbolic.simplification": [
        ("repro.symbolic.simplification", "query_entails"),
    ],
    "serve": [
        ("repro.serve.server", "handle_request"),
        ("repro.serve.session", "ProgramSession.analyze"),
        ("repro.serve.session", "ProgramSession.update"),
    ],
    "serve.invalidation": [
        ("repro.serve.invalidation", "method_fingerprints"),
        ("repro.serve.invalidation", "program_signature"),
        ("repro.serve.invalidation", "is_additive"),
        ("repro.serve.invalidation", "graft_method"),
        ("repro.serve.invalidation", "stable_site_tokens"),
        ("repro.serve.invalidation", "footprint_signatures"),
        ("repro.serve.invalidation", "verdict_is_stale"),
    ],
    "obs.flight": [("repro.obs.telemetry", "FlightRecorder.capture")],
}

ABSORBING = frozenset({"obs.flight"})

#: The layer of the root span: time in the measured region that no
#: wrapped entry point covers.
OTHER = "other"


class LayerTracer:
    """Exclusive per-layer time and call counts on the main thread."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {name: 0.0 for name in LAYERS}
        self.self_s[OTHER] = 0.0
        self.calls: dict[str, int] = {name: 0 for name in LAYERS}
        #: Bytes of source handed to the frontend.
        self.source_bytes = 0
        #: query_entails calls that answered True.
        self.entailed = 0
        self._stack: list[list] = []  # [layer, start, child seconds]
        self._absorbing = 0
        self._thread = threading.get_ident()

    # -- spans ----------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        layer, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def open_root(self) -> None:
        """Open the measured region's root span (left open by a daemon)."""
        self._enter(OTHER)

    @contextlib.contextmanager
    def root(self):
        """The measured region's root span."""
        self.open_root()
        try:
            yield
        finally:
            self._exit()

    def _active(self) -> bool:
        return (
            bool(self._stack)
            and not self._absorbing
            and threading.get_ident() == self._thread
        )

    def _wrap(self, layer: str, fn):
        tracer = self
        absorbing = layer in ABSORBING

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer._active():
                    return (yield from fn(*args, **kwargs))
                tracer.calls[layer] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        tracer._enter(layer)
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            tracer._exit()
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            if layer == "lang" and args and isinstance(args[0], str):
                tracer.source_bytes += len(args[0].encode())
            tracer._enter(layer)
            if absorbing:
                tracer._absorbing += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if absorbing:
                    tracer._absorbing -= 1
                tracer._exit()
            if layer == "symbolic.simplification" and result:
                tracer.entailed += 1
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every entry point at every binding in loaded ``repro``
        modules. Modules named in :data:`LAYERS` are imported first."""
        for entries in LAYERS.values():
            for module, _ in entries:
                importlib.import_module(module)
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and mod is not None
        ]
        for layer, entries in LAYERS.items():
            for module, qualname in entries:
                owner = importlib.import_module(module)
                *path, name = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                wrapped = self._wrap(layer, original)
                if path:  # a method: the class attribute is the one binding
                    setattr(owner, name, wrapped)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        return self

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        """Totals so far. While only the root span is open (between two
        requests of a daemon), its self-time up to now is included."""
        self_s = dict(self.self_s)
        if len(self._stack) == 1:
            _, start, child = self._stack[0]
            self_s[OTHER] += time.perf_counter() - start - child
        lang_s = self_s["lang"]
        return {
            "self_s": self_s,
            "calls": dict(self.calls),
            "lang_kb_per_s": (self.source_bytes / 1024.0) / lang_s
            if lang_s > 0
            else 0.0,
            "entailed": self.entailed,
        }
