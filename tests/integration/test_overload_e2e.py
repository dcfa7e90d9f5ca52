"""End-to-end overload: 4x saturation through real threads and chaos.

The acceptance property, stated at the system surface: drive the cache
tier at four times the capacity of its bounded connection pool and the
tier must *degrade*, not collapse — the excess is rejected fast with
``OverloadError`` (never a silent drop or a generic failure), completed
goodput holds at >= 70% of an unsaturated run, and the waiter queue
stays bounded by construction. The chaos variant layers a cache kill on
top of a shedding admission gate: failover and admission control
compose without losing a single committed write.

The deterministic (virtual-time) half of this scenario lives in
``tests/simulation/test_overload_des.py``; this module is the
wall-clock half with real worker threads, a real pool and real latches.
"""

from __future__ import annotations

import time

import pytest

from repro.client import ConnectionPool, connect
from repro.faults import FaultInjector
from repro.resilience import AdmissionController
from repro.tpcw import (
    MIXES,
    TPCWApplication,
    TPCWConfig,
    build_backend,
    enable_caching,
)
from repro.tpcw.driver import LoadDriver, ThreadedLoadDriver

pytestmark = pytest.mark.overload

POOL_SIZE = 4
#: 4x the pool's concurrency: three quarters of the offered load has to
#: wait or shed at any instant.
OVERLOAD_WORKERS = 4 * POOL_SIZE
#: Wall seconds per request on the link to the cache.
ROUND_TRIP = 0.001


class RoundTrip:
    """A target reached over a link that takes ``ROUND_TRIP`` wall seconds
    per request. The client holds its pooled connection across the wait
    but not the interpreter, as over a network, so the other workers run
    and queue meanwhile: with 4x the pool's workers the offered load
    exceeds pool plus waiters by construction, however fast the engine."""

    def __init__(self, target):
        self.target = target

    def execute(self, sql, **kwargs):
        time.sleep(ROUND_TRIP)
        return self.target.execute(sql, **kwargs)

    def __getattr__(self, name):
        return getattr(self.target, name)


def build_env(name: str):
    backend, config = build_backend(TPCWConfig(num_items=40, num_ebs=8))
    deployment, caches = enable_caching(backend, [name], config)
    return backend, config, deployment, caches[0]


def run_threaded(deployment, cache, config, *, workers: int, duration: float):
    pool = ConnectionPool(
        lambda: connect(RoundTrip(cache.server)),
        size=POOL_SIZE,
        max_waiters=POOL_SIZE,
        checkout_timeout=10.0,
    )
    driver = ThreadedLoadDriver(
        pool,
        config,
        MIXES["Shopping"],
        workers=workers,
        think_time=0.001,
        deployment=deployment,
        seed=29,
    )
    stats = driver.run(duration)
    pool.close()
    return stats, pool


@pytest.mark.concurrency
def test_threaded_4x_saturation_sheds_fast_and_keeps_goodput():
    backend, config, deployment, cache = build_env("ov1")
    peak, _ = run_threaded(
        deployment, cache, config, workers=POOL_SIZE, duration=1.0
    )
    assert peak.errors == 0, peak.error_samples
    assert peak.shed == 0  # the pool alone never sheds at its own size
    assert peak.interactions > 0

    hot, pool = run_threaded(
        deployment, cache, config, workers=OVERLOAD_WORKERS, duration=1.0
    )
    # Every rejected interaction was *visibly* rejected: the only
    # failure mode is the transient OverloadError the drivers count as
    # shed — nothing errored, nothing vanished.
    assert hot.errors == 0, hot.error_samples
    assert hot.shed > 0
    assert hot.shed == pool.shed  # all sheds came from the bounded queue
    # Goodput holds: completed interactions per wall second stay at or
    # above 70% of the unsaturated run (the pool stays fully utilized;
    # only the excess is turned away).
    assert hot.throughput >= 0.7 * peak.throughput, (
        hot.throughput,
        peak.throughput,
    )
    # Rejections failed fast: had even one shed waited out the 10s
    # checkout timeout instead, the run could not have finished on time.
    assert hot.wall_seconds < 1.0 + 5.0


@pytest.mark.concurrency
def test_threaded_overload_drops_no_committed_write():
    backend, config, deployment, cache = build_env("ov2")
    stats, _ = run_threaded(
        deployment, cache, config, workers=OVERLOAD_WORKERS, duration=1.0
    )
    assert stats.errors == 0, stats.error_samples
    # Every order acknowledged to a worker reached the backend, and the
    # cache reconverged on exactly that set — overload shed requests,
    # never writes in flight.
    backend_orders = backend.execute(
        "SELECT COUNT(*) FROM orders", database="tpcw"
    ).scalar
    cache_orders = cache.execute("SELECT COUNT(*) FROM cv_orders").scalar
    assert cache_orders == backend_orders


@pytest.mark.chaos
def test_overload_plus_cache_kill_composes():
    """Admission control on the cache plus a mid-run crash: the router
    fails traffic over to the (ungated) backend, admission keeps
    shedding while the cache serves, and no interaction outcome is ever
    ambiguous — completed, shed, or deadline-missed, never errored."""
    backend, config, deployment, cache = build_env("ov3")
    injector = FaultInjector(deployment.clock, seed=5)
    deployment.attach_fault_injector(injector)

    # A gate sized below the offered statement rate: with 8 users at
    # 1s think time each interaction issues several statements, so a
    # trickle-rate bucket sheds a real fraction while admitting the rest.
    cache.server.admission = AdmissionController(
        cache.server.clock,
        rate=30.0,
        burst=10.0,
        queue_delay_target=0.05,
        name="ov3",
        registry=cache.server.metrics,
    )

    start = deployment.clock.now()
    injector.at(start + 12.0, "crash_cache", cache)
    injector.at(start + 22.0, "restart_cache", cache)

    router = deployment.failover_connection(cache, probe_interval=0.5)
    application = TPCWApplication(connect(router), config)
    driver = LoadDriver(
        application, MIXES["Ordering"], users=8, deployment=deployment, seed=31
    )
    stats = driver.run(duration=35.0)
    cache.server.admission = None

    assert stats.errors == 0
    assert stats.interactions > 0
    assert stats.shed > 0
    assert stats.failovers >= 1
    assert stats.failbacks >= 1
    assert injector.pending == 0

    # The overloaded, crashed, restarted cache still converged to the
    # backend's committed state: zero writes lost to either failure mode.
    backend_orders = backend.execute(
        "SELECT COUNT(*) FROM orders", database="tpcw"
    ).scalar
    cache_orders = cache.execute("SELECT COUNT(*) FROM cv_orders").scalar
    assert cache_orders == backend_orders
    registry = cache.server.metrics
    assert registry.counter("overload.shed", labels={"gate": "ov3"}).value > 0
    assert registry.counter("resilience.failovers").value >= 1
