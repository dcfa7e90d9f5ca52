"""Load driver tests."""

import pytest

from repro.client import connect
from repro.tpcw import (
    MIXES,
    TPCWApplication,
    TPCWConfig,
    build_backend,
    enable_caching,
)
from repro.tpcw.driver import LoadDriver


@pytest.fixture(scope="module")
def cached_env():
    backend, config = build_backend(TPCWConfig(num_items=40, num_ebs=8))
    deployment, caches = enable_caching(backend, ["drv"], config)
    return backend, config, deployment, caches[0]


def test_driver_runs_traffic(cached_env):
    backend, config, deployment, cache = cached_env
    application = TPCWApplication(connect(cache.server, database="tpcw"), config)
    driver = LoadDriver(
        application, MIXES["Shopping"], users=5, deployment=deployment, seed=3
    )
    stats = driver.run(duration=20.0)
    assert stats.errors == 0
    assert stats.interactions > 50
    assert stats.db_calls >= stats.interactions
    # Think-time bound: each user completes ~1 interaction per second.
    assert stats.wips == pytest.approx(5.0, rel=0.25)


def test_driver_mix_matches_weights(cached_env):
    backend, config, deployment, cache = cached_env
    application = TPCWApplication(connect(cache.server, database="tpcw"), config)
    driver = LoadDriver(
        application, MIXES["Browsing"], users=20, deployment=deployment, seed=4
    )
    stats = driver.run(duration=30.0)
    browse_share = sum(
        count
        for name, count in stats.by_interaction.items()
        if name in (
            "home", "new_products", "best_sellers",
            "product_detail", "search_request", "search_results",
        )
    ) / stats.interactions
    assert browse_share == pytest.approx(0.95, abs=0.05)


def test_driver_advances_replication(cached_env):
    backend, config, deployment, cache = cached_env
    application = TPCWApplication(connect(cache.server, database="tpcw"), config)
    driver = LoadDriver(
        application, MIXES["Ordering"], users=5, deployment=deployment, seed=5
    )
    driver.run(duration=15.0)
    backend_orders = backend.execute("SELECT COUNT(*) FROM orders", database="tpcw").scalar
    cache_orders = cache.execute("SELECT COUNT(*) FROM cv_orders").scalar
    assert cache_orders == backend_orders


def test_driver_deterministic(cached_env):
    backend, config, deployment, cache = cached_env
    def run_once(seed):
        application = TPCWApplication(
            connect(cache.server, database="tpcw"), config
        )
        driver = LoadDriver(
            application, MIXES["Browsing"], users=3, deployment=deployment, seed=seed
        )
        return driver.run(duration=10.0).by_interaction

    assert run_once(9) == run_once(9)
