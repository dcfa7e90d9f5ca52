"""End-to-end acceptance: one TPC-W buying interaction, fully observed.

A buy_confirm against a cache server must yield a single exported trace
covering mid-tier and backend work with correct parent/child linkage, a
per-operator profile for a locally executed plan, and a deployment
metrics snapshot that reports replication lag for the cached views.
"""

import pytest

from repro.mtcache.odbc import OdbcSourceRegistry
from repro.obs.export import deployment_snapshot
from repro.obs.tracing import global_collector
from repro.tpcw import TPCWApplication, TPCWConfig, build_backend, enable_caching


@pytest.fixture(scope="module")
def stack():
    backend, config = build_backend(TPCWConfig(num_items=50, num_ebs=10))
    deployment, caches = enable_caching(backend, ["cache1"], config)
    registry = OdbcSourceRegistry()
    registry.register("tpcw", caches[0].server, "tpcw")
    application = TPCWApplication(registry.connect("tpcw"), config)
    return backend, config, deployment, caches[0], application


class TestBuyConfirmTrace:
    @pytest.fixture(autouse=True)
    def _observed_interaction(self, stack):
        backend, config, deployment, cache, application = stack
        cache.server.profile_statements = True
        session = application.new_session()
        # Put something in the cart so buy_confirm has order lines to enter.
        application.shopping_cart(session)
        # Let replication move at least one transaction before the buy.
        deployment.clock.advance(1.0)
        deployment.sync()

        global_collector().clear()
        with cache.server.tracer.span("tpcw.buy_confirm") as root:
            application.buy_confirm(session)
        self.root = root
        self.spans = global_collector().trace(root.trace_id)

        deployment.clock.advance(1.0)
        deployment.sync()
        self.snapshot = deployment_snapshot(deployment)
        cache.server.profile_statements = False
        yield

    def test_single_trace_covers_both_tiers(self):
        services = {span.service for span in self.spans}
        assert {"cache1", "backend"} <= services
        # Every span belongs to the one trace rooted at the interaction.
        assert all(span.trace_id == self.root.trace_id for span in self.spans)
        roots = [span for span in self.spans if span.parent_id is None]
        assert roots == [self.root]

    def test_parent_child_linkage_is_closed(self):
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id
        # Backend work is nested inside mid-tier spans: walking up from
        # any backend span reaches a cache1 ancestor.
        backend_spans = [span for span in self.spans if span.service == "backend"]
        assert backend_spans
        for span in backend_spans:
            node = span
            while node.parent_id is not None and node.service != "cache1":
                node = by_id[node.parent_id]
            assert node.service == "cache1"

    def test_local_plan_carries_operator_profile(self):
        profiled = [
            span for span in self.spans if "profile" in span.attributes
        ]
        assert profiled, "no span carries a statistics profile"
        text = profiled[0].attributes["profile"]
        assert "actual rows=" in text
        assert "est rows=" in text

    def test_shipped_statements_are_visible(self):
        # enterOrder/addOrderLine are update-dominated procedures: their
        # statements ship to the backend over the linked server, and the
        # client side of each round trip is a span of its own.
        names = {span.name for span in self.spans}
        assert "remote.statement" in names
        # At least one local dynamic plan fetched remote rows too
        # (getCAddr/getCart read tables the cache does not hold).
        assert "remote.query" in names or "remote.prepared" in names

    def test_snapshot_reports_replication_lag(self):
        replication = self.snapshot["replication"]
        subscribers = replication["subscribers"]
        assert subscribers
        for values in subscribers.values():
            assert {"lag_transactions", "lag_seconds", "queue_depth"} <= set(values)
        # The buy wrote orders/order_line on the backend; after sync the
        # distributor has moved at least one transaction.
        assert replication["transactions_distributed"] >= 1

    def test_snapshot_metrics_are_non_empty(self):
        cache_snap = self.snapshot["caches"][0]
        assert cache_snap["server"] == "cache1"
        counters = cache_snap["metrics"]["counters"]
        assert counters.get("optimizer.plans", 0) > 0
        assert cache_snap["statements_executed"] > 0
        assert self.snapshot["backend"]["metrics"]["counters"]
