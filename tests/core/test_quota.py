"""Per-tenant quota enforcement (``repro.core.quota``).

The contract under test: budgets evaluate from live accounting plus
out-of-process reports, soft breaches throttle (state only), hard
breaches are sticky and fire the kill callback exactly once — off the
charging thread — and a host death folds its last report into retained
usage so restarts never reset a tenant's budget position.
"""

import threading
import time

import pytest

from repro.core import Domain, get_accountant
from repro.core.errors import QuotaExceededException, RemoteException
from repro.core.quota import (
    HARD,
    OK,
    SOFT,
    QuotaCell,
    QuotaManager,
    QuotaSpec,
    RateWindow,
    get_quota_manager,
)


class TestQuotaSpec:
    def test_defaults_disable_every_dimension(self):
        spec = QuotaSpec()
        assert spec.cpu_ticks is None
        assert spec.memory_bytes is None
        assert spec.requests_per_sec is None

    def test_is_immutable(self):
        spec = QuotaSpec(cpu_ticks=100)
        with pytest.raises(AttributeError):
            spec.cpu_ticks = 200

    @pytest.mark.parametrize("kwargs", [
        {"cpu_ticks": 0}, {"cpu_ticks": -1},
        {"memory_bytes": 0}, {"requests_per_sec": -5},
        {"soft_fraction": 0.0}, {"soft_fraction": 1.5},
    ])
    def test_rejects_nonpositive_limits(self, kwargs):
        with pytest.raises(ValueError):
            QuotaSpec(**kwargs)

    def test_repr_names_limits(self):
        assert "cpu_ticks=7" in repr(QuotaSpec(cpu_ticks=7))


class TestRateWindow:
    def test_rate_counts_recent_events(self):
        window = RateWindow(window_s=1.0)
        now = 100.0
        for _ in range(10):
            window.note(now)
        assert window.rate(now) == pytest.approx(10.0)
        assert window.total == 10

    def test_old_events_age_out(self):
        window = RateWindow(window_s=1.0)
        window.note(100.0, n=50)
        assert window.rate(100.0) == pytest.approx(50.0)
        assert window.rate(102.5) == 0.0

    def test_bucket_gc_bounds_memory(self):
        window = RateWindow(window_s=1.0, buckets=10)
        for step in range(500):
            window.note(100.0 + step * 0.1)
        assert len(window._buckets) <= 65


class TestQuotaCell:
    def test_ok_below_soft_threshold(self):
        cell = QuotaCell("t", QuotaSpec(cpu_ticks=100))
        assert cell.charge_cpu(50) == OK
        assert cell.state == OK

    def test_soft_then_hard_on_cpu(self):
        cell = QuotaCell("t", QuotaSpec(cpu_ticks=100, soft_fraction=0.8))
        assert cell.charge_cpu(80) == SOFT
        assert cell.charge_cpu(20) == HARD
        assert cell.breached[0] == "cpu_ticks"

    def test_hard_is_sticky(self):
        cell = QuotaCell("t", QuotaSpec(requests_per_sec=5))
        now = 100.0
        for _ in range(5):
            cell.charge_request(now)
        assert cell.state == HARD
        # The window went quiet — the verdict must not resurrect.
        assert cell.evaluate(now + 10.0) == HARD

    def test_memory_reads_through_account(self):
        domain = Domain("quota-mem")
        account = get_accountant().account(domain)
        cell = QuotaCell("t", QuotaSpec(memory_bytes=1000), account)
        account.charge_allocation(400)
        assert cell.evaluate() == OK
        account.charge_copy(700)  # copies into the domain count too
        assert cell.evaluate() == HARD
        assert cell.memory_used() >= 1100
        get_accountant().release_domain(domain)

    def test_reconcile_replaces_live_external_view(self):
        cell = QuotaCell("t", QuotaSpec(memory_bytes=1000))
        cell.reconcile({"allocated_bytes": 300, "bytes_copied_in": 100})
        assert cell.memory_used() == 400
        # A later report REPLACES the live view (host counters are
        # cumulative), it does not add to it.
        cell.reconcile({"allocated_bytes": 500, "bytes_copied_in": 100})
        assert cell.memory_used() == 600

    def test_fold_external_survives_host_restart(self):
        cell = QuotaCell("t", QuotaSpec(cpu_ticks=1000))
        cell.reconcile({"cpu_ticks": 400})
        cell.fold_external()
        # The respawned host reports from zero; usage must not reset.
        assert cell.cpu_used() == 400
        cell.reconcile({"cpu_ticks": 250})
        assert cell.cpu_used() == 650
        assert cell.usage()["cpu_ticks"] == 650

    def test_exceeded_error_is_typed_remote_exception(self):
        cell = QuotaCell("t", QuotaSpec(cpu_ticks=10))
        cell.charge_cpu(10)
        error = cell.exceeded_error()
        assert isinstance(error, QuotaExceededException)
        assert isinstance(error, RemoteException)
        assert "cpu_ticks" in str(error)

    def test_snapshot_shape(self):
        cell = QuotaCell("t", QuotaSpec(requests_per_sec=100))
        cell.charge_request(50.0)
        snap = cell.snapshot(50.0)
        assert snap["state"] == OK
        assert snap["limits"]["requests_per_sec"] == 100
        assert snap["usage"]["requests"] == 1
        assert "QuotaCell" in repr(cell)


class TestQuotaManager:
    def test_unquoted_tenant_is_always_ok(self):
        manager = QuotaManager()
        assert manager.admit("ghost") == OK
        assert manager.charge_request("ghost") == OK
        assert manager.charge_cpu("ghost", 10**9) == OK
        assert manager.reconcile("ghost", {"cpu_ticks": 10**9}) == OK

    def test_kill_fires_exactly_once_off_the_charging_thread(self):
        manager = QuotaManager()
        kills = []
        done = threading.Event()

        def on_kill(key, cell):
            kills.append((key, threading.current_thread().name))
            done.set()

        manager.set_quota("t", QuotaSpec(cpu_ticks=10), on_kill=on_kill)
        charging = threading.current_thread().name
        for _ in range(3):  # repeated breaches: one kill only
            manager.charge_cpu("t", 10)
        assert done.wait(2.0)
        time.sleep(0.05)
        assert len(kills) == 1
        assert kills[0][0] == "t"
        assert kills[0][1] != charging
        assert manager.kills_fired == 1

    def test_kill_exceptions_do_not_take_the_manager_down(self):
        manager = QuotaManager()
        fired = threading.Event()

        def on_kill(key, cell):
            fired.set()
            raise RuntimeError("teardown failed")

        manager.set_quota("t", QuotaSpec(requests_per_sec=1),
                          on_kill=on_kill)
        now = 10.0
        manager.charge_request("t", now)
        manager.charge_request("t", now)
        assert fired.wait(2.0)
        assert manager.admit("t", now) == HARD  # still functional

    def test_a_failed_kill_is_counted(self):
        manager = QuotaManager()
        error = RuntimeError("teardown failed")

        def on_kill(key, cell):
            raise error

        manager.set_quota("t", QuotaSpec(cpu_ticks=10), on_kill=on_kill)
        manager.charge_cpu("t", 10)
        deadline = time.monotonic() + 2.0
        while not manager.kill_failures and time.monotonic() < deadline:
            time.sleep(0.01)
        assert (manager.kills_fired, manager.kill_failures) == (1, 1)
        assert manager.last_kill_error is error

    def test_throttled_keys_lists_soft_and_hard(self):
        manager = QuotaManager()
        manager.set_quota("soft", QuotaSpec(cpu_ticks=100))
        manager.set_quota("hard", QuotaSpec(cpu_ticks=10))
        manager.set_quota("fine", QuotaSpec(cpu_ticks=1000))
        manager.charge_cpu("soft", 85)
        manager.charge_cpu("hard", 50)
        manager.charge_cpu("fine", 1)
        assert set(manager.throttled_keys()) == {"soft", "hard"}

    def test_reconcile_can_trigger_the_kill(self):
        manager = QuotaManager()
        done = threading.Event()
        manager.set_quota("t", QuotaSpec(memory_bytes=100),
                          on_kill=lambda key, cell: done.set())
        manager.reconcile("t", {"allocated_bytes": 150})
        assert done.wait(2.0)

    def test_remove_and_report(self):
        manager = QuotaManager()
        manager.set_quota("a", QuotaSpec(cpu_ticks=10))
        report = manager.report()
        assert report["a"]["state"] == OK
        assert manager.remove("a") is not None
        assert manager.cell("a") is None
        assert manager.remove("a") is None

    def test_default_manager_singleton(self):
        assert get_quota_manager() is get_quota_manager()
