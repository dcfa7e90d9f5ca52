"""End-to-end availability under chaos: the paper's transparency promise.

Kill the cache mid-TPC-W-run and the application must not notice: the
failover router reroutes to the backend, no interaction fails, and after
the restart replication reconverges. The final test is the determinism
contract: an attached injector with an *empty* schedule must leave a run
byte-identical to one with no injector at all.
"""

import pytest

from repro.client import connect
from repro.faults import FaultInjector
from repro.obs import replication_metrics
from repro.tpcw import (
    MIXES,
    TPCWApplication,
    TPCWConfig,
    build_backend,
    enable_caching,
)
from repro.tpcw.driver import LoadDriver


def build_env():
    backend, config = build_backend(TPCWConfig(num_items=40, num_ebs=8))
    deployment, caches = enable_caching(backend, ["av1"], config)
    return backend, config, deployment, caches[0]


@pytest.mark.chaos
def test_cache_crash_loses_no_interactions():
    backend, config, deployment, cache = build_env()
    injector = FaultInjector(deployment.clock, seed=1)
    deployment.attach_fault_injector(injector)

    start = deployment.clock.now()
    injector.at(start + 10.0, "crash_cache", cache)
    injector.at(start + 20.0, "restart_cache", cache)

    router = deployment.failover_connection(cache, probe_interval=0.5)
    application = TPCWApplication(connect(router), config)
    driver = LoadDriver(
        application, MIXES["Ordering"], users=5, deployment=deployment, seed=13
    )
    stats = driver.run(duration=35.0)

    # Zero failed interactions: every one either ran on the cache or was
    # transparently rerouted to the backend.
    assert stats.errors == 0
    assert stats.interactions > 50
    assert stats.failovers >= 1
    assert stats.failbacks >= 1
    assert injector.pending == 0  # both scheduled faults fired

    # After the restart and the driver's final sync, the cache
    # reconverged: no committed order was lost anywhere.
    backend_orders = backend.execute(
        "SELECT COUNT(*) FROM orders", database="tpcw"
    ).scalar
    cache_orders = cache.execute("SELECT COUNT(*) FROM cv_orders").scalar
    assert cache_orders == backend_orders
    for values in replication_metrics.sample(deployment).values():
        assert values["lag_transactions"] == 0

    # The outage was observable while it lasted.
    registry = cache.server.metrics
    assert registry.counter("resilience.failovers").value >= 1
    assert registry.counter("faults.server_crashes").value == 1
    assert registry.counter("faults.server_restarts").value == 1


@pytest.mark.chaos
def test_chaos_run_is_deterministic():
    def run_once():
        backend, config, deployment, cache = build_env()
        injector = FaultInjector(deployment.clock, seed=1)
        deployment.attach_fault_injector(injector)
        start = deployment.clock.now()
        injector.at(start + 8.0, "crash_cache", cache)
        injector.at(start + 16.0, "restart_cache", cache)
        router = deployment.failover_connection(cache, probe_interval=0.5)
        application = TPCWApplication(connect(router), config)
        driver = LoadDriver(
            application, MIXES["Ordering"], users=4, deployment=deployment, seed=21
        )
        stats = driver.run(duration=25.0)
        orders = backend.execute(
            "SELECT COUNT(*) FROM orders", database="tpcw"
        ).scalar
        return stats, orders, injector.log

    first, second = run_once(), run_once()
    assert first == second


@pytest.mark.chaos
def test_empty_schedule_injector_is_byte_identical_to_none():
    def run_once(with_injector):
        backend, config, deployment, cache = build_env()
        if with_injector:
            deployment.attach_fault_injector(
                FaultInjector(deployment.clock, seed=99)
            )
        application = TPCWApplication(
            connect(cache.server, database="tpcw"), config
        )
        driver = LoadDriver(
            application, MIXES["Shopping"], users=5, deployment=deployment, seed=7
        )
        stats = driver.run(duration=15.0)
        orders = backend.execute(
            "SELECT o_id, o_c_id FROM orders ORDER BY o_id", database="tpcw"
        ).rows
        cached = cache.execute(
            "SELECT o_id, o_c_id FROM cv_orders ORDER BY o_id"
        ).rows
        return stats, orders, cached

    bare = run_once(with_injector=False)
    armed_but_idle = run_once(with_injector=True)
    assert bare == armed_but_idle
