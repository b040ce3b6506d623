"""Thread-local isolation for re-running work that was already counted.

A flight-recorder capture (:mod:`repro.obs.telemetry`) replays a search
that already ran, to journal it. Inside :func:`isolated`, the current
thread leaves no trace in process-wide state:

* its metric updates are dropped (:mod:`repro.obs.metrics`);
* it reads the solver memo without refreshing its LRU order and keeps
  its own entries in a private overlay (:mod:`repro.perf.memo`), and it
  reads the persistent store without counting hits and writes nothing
  to it (:mod:`repro.perf.store`);
* its fresh symbolic variables are numbered from a private counter
  (:mod:`repro.symbolic.symvar`), so later searches get the numbers they
  would have got without the replay;
* it has a journal of its own (:mod:`repro.obs.provenance`): it does not
  write into the run's journal, and other threads do not see its one.

Other threads are unaffected, so a replay on a pool thread does
not drop or skew the updates of concurrent jobs. Outside any isolated
block the hot paths pay one read of :data:`ACTIVE`.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

#: Threads currently inside :func:`isolated`.
ACTIVE = 0

_lock = threading.Lock()
_local = threading.local()


@contextmanager
def isolated():
    """Isolate this thread for the duration of the block (nestable)."""
    global ACTIVE
    depth = getattr(_local, "depth", 0)
    if depth == 0:
        _local.ids = itertools.count()
        _local.overlays = {}
    _local.depth = depth + 1
    with _lock:
        ACTIVE += 1
    try:
        yield
    finally:
        with _lock:
            ACTIVE -= 1
        _local.depth = depth
        if depth == 0:
            _local.overlays = {}


def here() -> bool:
    """True when the calling thread is inside :func:`isolated`."""
    return ACTIVE > 0 and getattr(_local, "depth", 0) > 0


def private_ids() -> itertools.count:
    """The symbolic-variable counter of this thread's isolated block."""
    return _local.ids


def overlay(owner) -> dict:
    """This thread's private entries for the shared map ``owner``,
    dropped when the isolated block ends."""
    return _local.overlays.setdefault(id(owner), {})
