"""Tests for the process-wide metrics registry (:mod:`repro.obs.metrics`)."""

import json
import sys
import threading

import pytest

from repro.obs import isolation
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_to_dict(self):
        c = Counter("c")
        c.inc(3)
        assert c.to_dict() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(7)
        g.add(-2)
        assert g.value == 5
        assert g.to_dict() == {"type": "gauge", "value": 5}


class TestHistogram:
    def test_exact_count_sum_min_max(self):
        h = Histogram("h")
        for v in [5, 1, 3, 9, 2]:
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 5
        assert d["sum"] == 20
        assert d["min"] == 1
        assert d["max"] == 9
        assert d["mean"] == 4.0

    def test_percentiles_on_small_sample(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        assert h.percentile(50) in (50, 51)
        assert h.percentile(95) in (95, 96)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 100

    def test_empty_histogram(self):
        h = Histogram("h")
        d = h.to_dict()
        assert d["count"] == 0
        assert d["p50"] is None and d["p95"] is None
        assert d["min"] is None and d["max"] is None

    def test_thinning_keeps_exact_aggregates(self):
        h = Histogram("h", keep=64)
        n = 10_000
        for v in range(n):
            h.observe(v)
        assert h.count == n
        assert h.total == sum(range(n))
        assert h.min == 0 and h.max == n - 1
        # The retained buffer is bounded and quantiles stay sane.
        assert len(h._values) <= 64
        assert n * 0.3 <= h.percentile(50) <= n * 0.7

    def test_thinning_is_deterministic(self):
        def run():
            h = Histogram("h", keep=32)
            for v in range(1000):
                h.observe(v)
            return h.to_dict()

        assert run() == run()


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.names() == []
        assert reg.counter("a").value == 0

    def test_json_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("jobs").inc(3)
        reg.gauge("workers").set(4)
        reg.histogram("secs").observe(0.5)
        path = tmp_path / "metrics.json"
        reg.write(str(path))
        data = json.loads(path.read_text())
        assert data["jobs"] == {"type": "counter", "value": 3}
        assert data["workers"]["value"] == 4
        assert data["secs"]["count"] == 1
        assert data == reg.to_dict()


class TestConcurrentWriters:
    """The driver's worker threads hammer shared instruments; counts must
    stay exact under contention."""

    THREADS = 8
    PER_THREAD = 5_000

    def _hammer(self, work):
        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_is_exact(self):
        c = Counter("c")
        self._hammer(lambda: [c.inc() for _ in range(self.PER_THREAD)])
        assert c.value == self.THREADS * self.PER_THREAD

    def test_histogram_count_and_sum_are_exact(self):
        h = Histogram("h", keep=256)
        self._hammer(lambda: [h.observe(1) for _ in range(self.PER_THREAD)])
        total = self.THREADS * self.PER_THREAD
        assert h.count == total
        assert h.total == total
        assert h.min == 1 and h.max == 1
        assert h.percentile(50) == 1

    def test_registry_get_or_create_race(self):
        reg = MetricsRegistry()
        seen = []
        lock = threading.Lock()

        def work():
            inst = reg.counter("shared")
            with lock:
                seen.append(inst)
            inst.inc()

        self._hammer(work)
        assert len({id(i) for i in seen}) == 1  # one instrument, no dupes
        assert reg.counter("shared").value == self.THREADS


class TestIsolation:
    """A thread inside ``isolation.isolated()`` (a flight-recorder replay)
    leaves the registry untouched while other threads keep counting."""

    def test_isolated_updates_are_dropped(self):
        reg = MetricsRegistry()
        c, g, h = reg.counter("c"), reg.gauge("g"), reg.histogram("h")
        with isolation.isolated():
            c.inc(5)
            g.set(3)
            g.add(1)
            h.observe(7)
            reg.counter("new.inside").inc()
        assert (c.value, g.value, h.count) == (0, 0.0, 0)
        assert reg.names() == ["c", "g", "h"]
        c.inc()
        assert c.value == 1

    def test_nested_blocks(self):
        c = Counter("c")
        with isolation.isolated():
            with isolation.isolated():
                c.inc()
            assert isolation.here()
            c.inc()
        assert not isolation.here()
        assert isolation.ACTIVE == 0
        c.inc()
        assert c.value == 1

    def test_concurrent_threads_keep_their_updates(self):
        c = Counter("c")
        per_thread = 20_000
        start = threading.Barrier(3)

        def isolated_work():
            start.wait()
            with isolation.isolated():
                for _ in range(per_thread):
                    c.inc()

        def counted_work():
            start.wait()
            for _ in range(per_thread):
                c.inc()

        threads = [
            threading.Thread(target=isolated_work),
            threading.Thread(target=counted_work),
            threading.Thread(target=counted_work),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert c.value == 2 * per_thread
        assert isolation.ACTIVE == 0

    def test_isolated_journal_is_this_threads_own(self, monkeypatch):
        from repro.obs import provenance

        run_journal = provenance.RunJournal()
        monkeypatch.setattr(provenance, "_active", run_journal)
        seen = {}

        def other_thread():
            seen["journal"] = provenance.get_journal()
            seen["enabled"] = provenance.enabled()

        with isolation.isolated():
            assert provenance.get_journal() is None  # not the run's journal
            own = provenance.install(provenance.RunJournal())
            assert provenance.get_journal() is own
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=60)
            provenance.disable()
        assert not thread.is_alive()
        assert seen == {"journal": run_journal, "enabled": True}
        assert provenance.get_journal() is run_journal
