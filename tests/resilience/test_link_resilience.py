"""ServerLink resilience: retries, circuit breaking, handle recovery.

Uses the shared shop fixtures: ``cache`` is a CacheServer whose shadow
database reaches the backend through the ``backend`` link — the link
every wounded-path test targets.
"""

import pytest

from repro.errors import CircuitOpenError, LinkUnavailableError
from repro.faults import FaultInjector


@pytest.fixture
def injector(deployment):
    inj = FaultInjector(deployment.clock, seed=7)
    deployment.attach_fault_injector(inj)
    return inj


@pytest.fixture
def link(cache):
    return cache.server.linked_servers.get("backend")


class TestRetry:
    def test_transient_fault_is_retried_transparently(self, injector, link):
        injector.wound_link(link, kind="query", count=1)
        rows = link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        assert rows == [(200,)]
        assert link.retries == 1
        assert injector.injected == 1

    def test_backoff_advances_the_virtual_clock(self, injector, link, deployment):
        before = deployment.clock.now()
        injector.wound_link(link, kind="query", count=2)
        link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        assert link.retries == 2
        assert deployment.clock.now() > before

    def test_persistent_wound_exhausts_retries(self, injector, link):
        injector.wound_link(link, kind="query", count=None)
        with pytest.raises(LinkUnavailableError):
            link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        # One initial attempt + (max_attempts - 1) retries, all injected.
        assert link.retries == link.retry_policy.max_attempts - 1
        assert injector.injected == link.retry_policy.max_attempts

    def test_injected_latency_delays_without_failing(self, injector, link, deployment):
        injector.wound_link(link, kind="query", action="latency", latency=0.5, count=1)
        before = deployment.clock.now()
        rows = link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        assert rows == [(200,)]
        assert deployment.clock.now() == pytest.approx(before + 0.5)
        assert link.retries == 0

    def test_deterministic_errors_are_not_retried(self, injector, link):
        # A parse error from the remote side must propagate on the first
        # attempt: retrying can never fix it.
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            link.execute_remote_sql("SELEKT banana")
        assert link.retries == 0


class TestBreaker:
    def test_breaker_trips_then_fails_fast_then_recovers(
        self, injector, link, deployment
    ):
        injector.wound_link(link, kind="*", count=None)

        # First call burns through all retry attempts (4 failures).
        with pytest.raises(LinkUnavailableError):
            link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        assert link.breaker.state == link.breaker.CLOSED

        # Second call's first failure is the fifth: the breaker trips and
        # the retry loop is rejected by it.
        with pytest.raises(CircuitOpenError):
            link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        assert link.breaker.state == link.breaker.OPEN

        # While open, calls fail fast: the injector never even fires.
        fired_before = injector.injected
        with pytest.raises(CircuitOpenError):
            link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        assert injector.injected == fired_before

        # Heal and wait out the reset timeout: the half-open probe
        # succeeds and the breaker closes.
        injector.heal_link(link)
        deployment.clock.advance(link.breaker.reset_timeout)
        rows = link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        assert rows == [(200,)]
        assert link.breaker.state == link.breaker.CLOSED

    def test_breaker_covers_all_three_call_paths(self, injector, link):
        # A forwarded statement runs by shared handle, but under its own
        # ``statement`` fault site: a ``prepared`` wound leaves it alone...
        update = "UPDATE customer SET cname = @n WHERE cid = @cid"
        injector.wound_link(link, kind="prepared", count=None)
        assert link.execute_statement_text(update, {"n": "x", "cid": 1}).rowcount == 1
        assert link.peek_handle(update).prepares == 1 and injector.injected == 0
        injector.heal_link(link)
        # ... and a ``statement`` wound opens the link's one breaker.
        injector.wound_link(link, kind="statement", count=None)
        for _ in range(2):
            with pytest.raises((LinkUnavailableError, CircuitOpenError)):
                link.execute_statement_text(update, {"n": "y", "cid": 1})
        assert link.breaker.state == link.breaker.OPEN
        # The open breaker also rejects the other paths — it is per-link.
        with pytest.raises(CircuitOpenError):
            link.execute_remote_sql("SELECT COUNT(*) FROM customer")
        with pytest.raises(CircuitOpenError):
            link.prepare("SELECT COUNT(*) FROM customer").execute()


class TestPreparedHandles:
    SQL = "SELECT COUNT(*) FROM customer"

    def test_dropped_remote_handle_reprepares_transparently(self, injector, link):
        handle = link.prepare(self.SQL)
        assert handle.execute().scalar == 200
        assert handle.prepares == 1
        assert injector.drop_prepared_handle(link, self.SQL)
        # Same client handle, new server-side half, same answer.
        assert handle.execute().scalar == 200
        assert handle.prepares == 2

    def test_drop_without_live_handle_is_a_noop(self, injector, link):
        assert not injector.drop_prepared_handle(link, "SELECT 1 FROM customer")

    def test_registry_replace_closes_old_links_handles(self, backend, cache):
        registry = cache.server.linked_servers
        old_link = registry.get("backend")
        handle = old_link.prepare(self.SQL)
        handle.execute()
        held = backend.statement_cache_stats()["prepared_statements"]
        assert held >= 1
        registry.register("backend", backend, "shop")
        # The replaced link released its server-side handles.
        assert backend.statement_cache_stats()["prepared_statements"] == held - 1
        assert handle.handle_id is None
        assert registry.get("backend") is not old_link


class TestServerCrash:
    def test_crash_rolls_back_active_transactions(self, backend):
        database = backend.database("shop")
        txn = database.transactions.begin()
        backend.crash()
        assert not txn.active
        assert backend.available is False
        backend.restart()
        assert backend.execute(
            "SELECT COUNT(*) FROM customer", database="shop"
        ).scalar == 200

    def test_crashed_server_refuses_work(self, backend):
        from repro.errors import ServerUnavailableError

        backend.crash()
        with pytest.raises(ServerUnavailableError):
            backend.execute("SELECT COUNT(*) FROM customer", database="shop")

    def test_crash_discards_volatile_prepared_statements(self, injector, link, backend):
        handle = link.prepare("SELECT COUNT(*) FROM orders")
        handle.execute()
        injector.crash_server(backend)
        assert backend.statement_cache_stats()["prepared_statements"] == 0
        injector.restart_server(backend)
        # The link re-prepares from its text copy: invisible to callers.
        assert handle.execute().scalar == 400
        assert handle.prepares == 2
