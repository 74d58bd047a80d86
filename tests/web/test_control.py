"""Fleet control plane units (``repro.web.control``) and the reactor's
parse-boundary admission integration.

Autoscaler ticks run against injected stats (no forks): the unit under
test is the decision logic, not the prefork plumbing (which
``tests/chaos`` exercises end to end).
"""

import threading
import time

import pytest

from repro.core.quota import QuotaManager, QuotaSpec
from repro.web import NativeHttpServer, fetch_once
from repro.web.control import (
    AdmissionController,
    AutoscalePolicy,
    Autoscaler,
    LatencyTracker,
    default_classifier,
    fleet_signals,
)


class TestLatencyTracker:
    def test_percentiles_over_samples(self):
        tracker = LatencyTracker(size=100)
        for us in range(1, 101):
            tracker.note(us * 1000)
        assert tracker.sample_count() == 100
        assert tracker.p50_ms() == pytest.approx(51.0, abs=2.0)
        assert tracker.p99_ms() == pytest.approx(100.0, abs=2.0)

    def test_empty_ring_reads_zero(self):
        assert LatencyTracker().p99_ms() == 0.0

    def test_ring_wraps(self):
        tracker = LatencyTracker(size=4)
        for _ in range(100):
            tracker.note(5)
        assert tracker.sample_count() == 4

    def test_reads_between_refreshes_do_not_sort(self):
        """A full ring is re-sorted once an eighth of it has been
        overwritten, not on every read: a read in between returns the
        snapshot's answer, the one after the eighth sees the new data."""
        tracker = LatencyTracker(size=64)
        for _ in range(64):
            tracker.note(1_000)
        assert tracker.p99_ms() == 1.0
        for _ in range(7):  # short of 64 / 8 writes: still the snapshot
            tracker.note(9_000)
            assert tracker.p99_ms() == 1.0
        tracker.note(9_000)
        assert tracker.p99_ms() == 9.0
        assert tracker.p50_ms() == 1.0

    def test_a_nearly_empty_ring_is_never_stale(self):
        tracker = LatencyTracker()
        assert tracker.p99_ms() == 0.0  # snapshot taken of nothing
        for count, us in enumerate((4_000, 2_000, 8_000), start=1):
            tracker.note(us)
            assert tracker.p99_ms() == max((4, 2, 8)[:count])


class TestClassifier:
    @pytest.mark.parametrize("path,tenant", [
        ("/servlet/shop/cart", "/shop"),
        ("/servlet/shop", "/shop"),
        ("/doc.html", "_static"),
        ("/", "_static"),
        ("no-slash", "_other"),
    ])
    def test_tenant_keys(self, path, tenant):
        assert default_classifier(path) == tenant


def _drain(controller, decisions):
    for decision in decisions:
        if decision.admitted:
            controller.finish(decision.tenant)


class TestAdmissionController:
    def test_everything_admitted_below_pressure(self):
        controller = AdmissionController(max_inflight=100)
        decisions = [controller.decide(f"/servlet/t{i}/x")
                     for i in range(10)]
        assert all(d.admitted for d in decisions)
        assert controller.inflight() == 10
        _drain(controller, decisions)
        assert controller.inflight() == 0

    def test_at_capacity_sheds_everyone(self):
        controller = AdmissionController(max_inflight=4)
        held = [controller.decide("/servlet/a/x") for _ in range(4)]
        assert all(d.admitted for d in held)
        shed = controller.decide("/servlet/b/x")
        assert not shed.admitted
        assert shed.reason == "at-capacity"
        assert shed.retry_after == controller.retry_after_s
        assert "shed" in repr(shed)
        _drain(controller, held)

    @staticmethod
    def _register(controller, *tenants):
        """Fair share is computed over tenants seen so far; touch each
        once so the capacity splits the way production traffic would."""
        for tenant in tenants:
            decision = controller.decide(f"/servlet{tenant}/warm")
            if decision.admitted:
                controller.finish(decision.tenant)

    def test_fair_share_sheds_the_hog_under_pressure(self):
        controller = AdmissionController(max_inflight=10,
                                         shed_threshold=0.5)
        self._register(controller, "/hog", "/meek")
        hog = [controller.decide("/servlet/hog/x") for _ in range(5)]
        assert all(d.admitted for d in hog)  # filling up to its share
        # Past the pressure threshold the hog is over its 1/2 share; a
        # well-behaved neighbour is not.
        over = controller.decide("/servlet/hog/x")
        assert not over.admitted
        assert over.reason == "over-fair-share"
        assert controller.decide("/servlet/meek/x").admitted
        _drain(controller, hog)
        controller.finish("/meek")

    def test_weights_shift_the_fair_share(self):
        controller = AdmissionController(
            max_inflight=9, shed_threshold=0.0,
            weights={"/gold": 8.0, "/lead": 1.0},
        )
        self._register(controller, "/gold", "/lead")
        gold = [controller.decide("/servlet/gold/x") for _ in range(8)]
        assert all(d.admitted for d in gold)
        lead = controller.decide("/servlet/lead/x")
        assert lead.admitted  # share floor of 1 request
        assert not controller.decide("/servlet/lead/x").admitted
        _drain(controller, gold)
        controller.finish("/lead")

    def test_deprioritized_tenant_sheds_first(self):
        controller = AdmissionController(max_inflight=8,
                                         shed_threshold=0.0,
                                         deprioritized_fraction=0.25)
        controller.set_deprioritized("/throttled")
        # Sole tenant: share is the full bound (8), cut to 2 by the
        # deprioritized fraction.
        held = [controller.decide("/servlet/throttled/x")
                for _ in range(2)]
        assert all(d.admitted for d in held)
        third = controller.decide("/servlet/throttled/x")
        assert not third.admitted
        assert third.reason == "deprioritized"
        controller.set_deprioritized("/throttled", False)
        assert controller.decide("/servlet/throttled/x").admitted
        _drain(controller, held)
        controller.finish("/throttled")

    def test_decision_carries_the_weight_that_sized_the_share(self):
        """The admitted tenant's effective weight rides the decision, so
        the worker pool queues by the number admission shed by: the
        configured weight, times ``deprioritized_fraction`` while the
        tenant is throttled."""
        controller = AdmissionController(
            max_inflight=16, shed_threshold=0.0,
            deprioritized_fraction=0.25, weights={"/gold": 3.0})
        self._register(controller, "/gold", "/lead")  # total weight 4
        gold = controller.decide("/servlet/gold/x")
        lead = controller.decide("/servlet/lead/x")
        assert (gold.weight, lead.weight) == (3.0, 1.0)
        controller.set_deprioritized("/gold")
        throttled = controller.decide("/servlet/gold/x")
        assert throttled.weight == 0.75
        # ...and that is the weight its share was cut by: 0.75 of a
        # total 4 over a bound of 16 is three in flight, two of them
        # held already.
        third = controller.decide("/servlet/gold/x")
        assert third.admitted and third.weight == 0.75
        shed = controller.decide("/servlet/gold/x")
        assert not shed.admitted and shed.reason == "deprioritized"
        _drain(controller, [gold, lead, throttled, third])

    def test_quota_hard_sheds_at_the_door(self):
        quota = QuotaManager()
        quota.set_quota("/dead", QuotaSpec(cpu_ticks=1))
        quota.charge_cpu("/dead", 5)
        controller = AdmissionController(quota_manager=quota)
        decision = controller.decide("/servlet/dead/x")
        assert not decision.admitted
        assert decision.reason == "quota-exceeded"

    def test_quota_soft_deprioritizes(self):
        quota = QuotaManager()
        quota.set_quota("/warm", QuotaSpec(cpu_ticks=100,
                                           soft_fraction=0.5))
        quota.charge_cpu("/warm", 60)
        controller = AdmissionController(max_inflight=8, shed_threshold=0.0,
                                         deprioritized_fraction=0.25,
                                         quota_manager=quota)
        held = [controller.decide("/servlet/warm/x") for _ in range(2)]
        assert all(d.admitted for d in held)  # quarter of the sole share
        shed = controller.decide("/servlet/warm/x")
        assert not shed.admitted and shed.reason == "deprioritized"
        _drain(controller, held)

    def test_slow_p99_turns_pressure_on(self):
        controller = AdmissionController(max_inflight=100, slo_ms=10.0,
                                         shed_threshold=0.99)
        self._register(controller, "/a", "/b")  # share: 50 each
        for _ in range(50):
            controller.latency.note(50_000)  # 50 ms, far over the SLO
        held = [controller.decide("/servlet/a/x") for _ in range(60)]
        assert sum(not d.admitted for d in held) == 10
        _drain(controller, held)

    def test_finish_records_latency_and_is_idempotent(self):
        controller = AdmissionController()
        decision = controller.decide("/servlet/a/x")
        controller.finish(decision.tenant, 2_000.0)
        controller.finish(decision.tenant, 2_000.0)  # extra: no underflow
        controller.finish("/never-admitted")
        assert controller.inflight() == 0
        assert controller.latency.sample_count() == 2

    def test_stats_shape(self):
        controller = AdmissionController(max_inflight=2)
        held = [controller.decide("/servlet/a/x") for _ in range(3)]
        stats = controller.stats()
        assert stats["admitted"] == 2
        assert stats["shed"] == 1
        assert 0 < stats["shed_rate"] < 1
        assert stats["tenants"]["/a"]["in_flight"] == 2
        assert controller.shed_rate() == pytest.approx(1 / 3)
        _drain(controller, held)

    def test_set_weight_updates_live_tenant(self):
        controller = AdmissionController()
        controller.decide("/servlet/a/x")
        controller.set_weight("/a", 5.0)
        assert controller.stats()["tenants"]["/a"]["weight"] == 5.0
        controller.finish("/a")

    def test_invented_tenants_do_not_grow_the_table(self):
        """Ten thousand one-shot ``/servlet/<x>`` prefixes leave a table
        (and a total weight) bounded by ``max_inflight``, keep the
        configured and deprioritized tenants, and do not dilute a
        configured tenant's fair share down to one request."""
        controller = AdmissionController(
            max_inflight=64, shed_threshold=0.0625,
            weights={"/steady": 15.0, "/abuser": 1.0})
        controller.set_deprioritized("/marked")
        self._register(controller, "/abuser")
        for index in range(10_000):
            decision = controller.decide(f"/servlet/one-shot-{index}/x")
            assert decision.admitted
            controller.finish(decision.tenant)
        tenants = controller.stats()["tenants"]
        assert len(tenants) <= 64 + 2
        assert {"/abuser", "/marked"} <= set(tenants)
        assert controller._total_weight == pytest.approx(
            sum(tenant["weight"] for tenant in tenants.values()))
        # Pressure is on from four in flight: three one-shots and
        # steady's first, and steady's next ones are inside its share.
        busy = [controller.decide(f"/servlet/busy-{index}/x")
                for index in range(3)]
        steady = [controller.decide("/servlet/steady/x") for _ in range(8)]
        assert all(decision.admitted for decision in busy + steady)
        assert controller.inflight() == 11
        _drain(controller, busy + steady)

    def test_concurrent_decide_finish_keeps_gauge_consistent(self):
        controller = AdmissionController(max_inflight=64)

        def worker():
            for _ in range(200):
                decision = controller.decide("/servlet/x/y")
                if decision.admitted:
                    controller.finish(decision.tenant, 100.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert controller.inflight() == 0


class TestReactorAdmission:
    def test_shed_is_a_parse_boundary_503_with_retry_after(self):
        controller = AdmissionController(max_inflight=1)
        # Pin the one admission unit so the live request must shed.
        assert controller.decide("/servlet/app/x").admitted
        server = NativeHttpServer(workers=1, admission=controller)
        server.documents.put("/doc", b"ok")
        with server:
            response = fetch_once("127.0.0.1", server.port, "/doc")
        assert response.status == 503
        assert response.headers.get("retry-after") == "1"
        assert b"at-capacity" in response.body
        controller.finish("/app")

    def test_admitted_requests_flow_and_release_units(self):
        controller = AdmissionController(max_inflight=16)
        server = NativeHttpServer(workers=1, admission=controller)
        server.documents.put("/doc", b"ok")
        with server:
            for _ in range(5):
                assert fetch_once("127.0.0.1", server.port,
                                  "/doc").status == 200
            stats = server.stats()
        assert stats["admission"]["admitted"] == 5
        assert stats["admission"]["in_flight"] == 0
        assert "p99_latency_ms" in stats
        assert controller.latency.sample_count() == 5


def _stats(shed, admitted, p99, workers):
    return {
        "worker_count": workers,
        "workers": [{
            "server": {
                "p99_latency_ms": p99,
                "admission": {"shed": shed, "admitted": admitted},
            },
        }],
    }


class _FakePrefork:
    def __init__(self):
        self.workers = 1
        self.calls = []

    def scale_to(self, target):
        self.calls.append(target)
        self.workers = target


class TestAutoscaler:
    def test_policy_validates_bounds(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_workers=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_workers=4, max_workers=2)

    def test_fleet_signals_aggregate(self):
        rate, p99, sheds, total = fleet_signals(_stats(5, 95, 30.0, 2))
        assert rate == pytest.approx(0.05)
        assert p99 == 30.0 and sheds == 5 and total == 100
        assert fleet_signals({"workers": []}) == (0.0, 0.0, 0, 0)

    def test_scales_up_after_consecutive_hot_ticks(self):
        prefork = _FakePrefork()
        scaler = Autoscaler(prefork, AutoscalePolicy(
            max_workers=4, up_consecutive=2, cooldown_s=0.0))
        assert scaler.tick(_stats(10, 90, 10.0, 1)) is None  # 1 hot tick
        assert scaler.tick(_stats(30, 170, 10.0, 1)) == "up"
        assert prefork.calls == [2]
        assert scaler.decisions[0][1] == "up"

    def test_shed_rate_is_windowed_not_lifetime(self):
        prefork = _FakePrefork()
        scaler = Autoscaler(prefork, AutoscalePolicy(
            up_consecutive=1, cooldown_s=0.0))
        scaler.tick(_stats(50, 50, 10.0, 1))  # historical burst
        prefork.calls.clear()
        # Counters now FLAT: the old burst must not read as hot.
        assert scaler.tick(_stats(50, 50, 10.0, 2)) is None
        assert scaler.tick(_stats(50, 50, 10.0, 2)) is None
        assert prefork.calls == []

    def test_scales_down_after_calm_ticks_to_min(self):
        prefork = _FakePrefork()
        prefork.workers = 2
        scaler = Autoscaler(prefork, AutoscalePolicy(
            min_workers=1, down_consecutive=3, cooldown_s=0.0))
        for _ in range(2):
            assert scaler.tick(_stats(0, 100, 5.0, 2)) is None
        assert scaler.tick(_stats(0, 100, 5.0, 2)) == "down"
        assert prefork.calls == [1]
        # At min_workers: calm ticks take no further action.
        for _ in range(4):
            assert scaler.tick(_stats(0, 100, 5.0, 1)) is None

    def test_cooldown_suppresses_back_to_back_actions(self):
        prefork = _FakePrefork()
        scaler = Autoscaler(prefork, AutoscalePolicy(
            up_consecutive=1, cooldown_s=60.0))
        assert scaler.tick(_stats(10, 10, 10.0, 1)) == "up"
        assert scaler.tick(_stats(40, 20, 10.0, 2)) is None  # cooling
        assert prefork.calls == [2]

    def test_background_thread_ticks_and_survives_stats_errors(self):
        class Flaky:
            workers = 1
            polls = 0

            def stats(self):
                Flaky.polls += 1
                raise RuntimeError("worker mid-restart")

            def scale_to(self, target):
                pass

        scaler = Autoscaler(Flaky(), AutoscalePolicy(interval_s=0.01))
        scaler.start()
        assert scaler.start() is scaler  # idempotent
        deadline = time.monotonic() + 2.0
        while Flaky.polls < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        scaler.stop()
        assert Flaky.polls >= 3
        assert scaler.tick_failures == Flaky.polls
        assert isinstance(scaler.last_error, RuntimeError)
        assert scaler.decisions == []
