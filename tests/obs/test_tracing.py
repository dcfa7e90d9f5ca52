"""Trace spans: linkage, propagation across linked servers, export."""

import pytest

from repro.obs.tracing import (
    NULL_SPAN,
    SpanCollector,
    Tracer,
    active_span,
    format_trace,
    global_collector,
)


@pytest.fixture(autouse=True)
def clean_collector():
    global_collector().clear()
    yield
    global_collector().clear()


class TestSpanBasics:
    def test_root_span_starts_its_own_trace(self):
        collector = SpanCollector()
        tracer = Tracer("svc", collector=collector)
        with tracer.span("root") as span:
            assert span.trace_id == span.span_id
            assert span.parent_id is None
            assert active_span() is span
        assert active_span() is None
        assert collector.spans() == [span]

    def test_nested_spans_link_parent_child(self):
        collector = SpanCollector()
        tracer = Tracer("svc", collector=collector)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id

    def test_error_status_and_restored_context(self):
        collector = SpanCollector()
        tracer = Tracer("svc", collector=collector)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = collector.spans()
        assert span.status == "error"
        assert "nope" in span.attributes["error"]
        assert active_span() is None

    def test_disabled_tracer_hands_out_null_span(self):
        tracer = Tracer("svc", enabled=False)
        assert tracer.span("anything") is NULL_SPAN
        with tracer.span("anything"):
            assert active_span() is None

    def test_attributes_trimmed_on_export_only(self):
        collector = SpanCollector()
        tracer = Tracer("svc", collector=collector)
        long_sql = "SELECT   *\nFROM t WHERE " + "x = 1 AND " * 40 + "y = 2"
        with tracer.span("batch", sql=long_sql):
            pass
        (span,) = collector.spans()
        assert span.attributes["sql"] == long_sql  # raw on the hot path
        exported = span.to_dict()["attributes"]["sql"]
        assert len(exported) <= 120
        assert "\n" not in exported

    def test_collector_ring_buffer_bounds(self):
        collector = SpanCollector(capacity=4)
        tracer = Tracer("svc", collector=collector)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert len(collector) == 4
        assert [span.name for span in collector.spans()] == ["s6", "s7", "s8", "s9"]

    def test_format_trace_renders_tree(self):
        collector = SpanCollector()
        tracer = Tracer("svc", collector=collector)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = format_trace(collector.spans())
        lines = text.splitlines()
        assert lines[0].startswith("svc/outer")
        assert lines[1].startswith("  svc/inner")


class TestCrossServerPropagation:
    """Satellite: span propagation across a linked-server round trip."""

    def _remote_query(self, cache, cid):
        # The engine opens spans only inside a trace someone asked for:
        # the caller's root span (on the mid tier's tracer) asks.
        with cache.server.tracer.span("request"):
            return cache.execute(
                "SELECT cname FROM customer WHERE cid = @cid", params={"cid": cid}
            )

    def test_backend_spans_are_children_of_midtier_span(self, cache):
        # cid=150 is outside the cached view's cid<=100 range: the
        # dynamic plan takes the remote branch through the ServerLink.
        result = self._remote_query(cache, 150)
        assert result.rows == [("cust150",)]

        collector = global_collector()
        trace_id = collector.latest_trace_id()
        spans = collector.trace(trace_id)
        by_id = {span.span_id: span for span in spans}
        services = {span.service for span in spans}
        assert services == {"cache1", "backend"}

        # Every non-root span's parent is in the same trace.
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id

        # Walking up from any backend span reaches a cache1 span: the
        # backend's work is nested inside the mid-tier statement.
        backend_spans = [span for span in spans if span.service == "backend"]
        assert backend_spans
        for span in backend_spans:
            node = span
            while node.parent_id is not None and node.service != "cache1":
                node = by_id[node.parent_id]
            assert node.service == "cache1"

        # The client side of the remote call is visible too.
        names = {span.name for span in spans}
        assert "remote.query" in names

    def test_prepared_handle_fast_path_keeps_linkage(self, cache):
        # First execution prepares the remote statement; the second goes
        # by handle (PR 1 fast path). Both must produce linked traces.
        self._remote_query(cache, 150)
        global_collector().clear()
        self._remote_query(cache, 151)

        spans = global_collector().trace(global_collector().latest_trace_id())
        names = {span.name for span in spans}
        assert "remote.prepared" in names  # by-handle execution span
        by_id = {span.span_id: span for span in spans}
        backend_spans = [span for span in spans if span.service == "backend"]
        assert backend_spans
        for span in backend_spans:
            node = span
            while node.parent_id is not None and node.service != "cache1":
                node = by_id[node.parent_id]
            assert node.service == "cache1"


class TestTraceContract:
    """The engine opens spans only inside a trace a caller asked for."""

    SQL = "SELECT cname FROM customer WHERE cid = @cid"

    def test_bare_server_execute_records_no_span(self, backend):
        assert backend.execute(self.SQL, {"cid": 5}).rows == [("cust5",)]
        assert len(global_collector()) == 0

    def test_bare_cache_execute_records_no_span(self, cache):
        for cid in (5, 150):  # local, then remote through the link
            cache.execute(self.SQL, {"cid": cid})
        assert len(global_collector()) == 0

    def test_a_callers_root_gets_the_whole_tree(self, cache):
        cache.execute(self.SQL, {"cid": 150})  # prepares the remote handle
        with cache.server.tracer.span("request") as root:
            assert cache.execute(self.SQL, {"cid": 150}).rows == [("cust150",)]
        spans = global_collector().spans()
        assert {span.trace_id for span in spans} == {root.trace_id}
        assert [(span.service, span.name) for span in sorted(spans, key=lambda s: s.span_id)] == [
            ("cache1", "request"),
            ("cache1", "batch"),
            ("cache1", "statement"),
            ("cache1", "remote.query"),
            ("cache1", "remote.prepared"),
            ("backend", "prepared"),
            ("backend", "statement"),
        ]
        chain = sorted(spans, key=lambda s: s.span_id)
        for parent, child in zip(chain, chain[1:]):
            assert child.parent_id == parent.span_id


class TestPropagatedTrace:
    """Wire-protocol trace adoption: spans parent under a remote context."""

    def test_spans_join_the_propagated_trace(self):
        from repro.obs.tracing import propagated_trace

        collector = SpanCollector()
        tracer = Tracer("server", collector=collector)
        with propagated_trace(trace_id=777, span_id=42, service="wire"):
            with tracer.span("statement"):
                pass
        [span] = collector.trace(777)
        assert span.trace_id == 777
        assert span.parent_id == 42
        assert span.service == "server"

    def test_synthetic_parent_is_never_recorded(self):
        from repro.obs.tracing import propagated_trace

        collector = SpanCollector()
        tracer = Tracer("server", collector=collector)
        with propagated_trace(trace_id=778, span_id=43):
            with tracer.span("statement"):
                pass
        names = {span.name for span in collector.trace(778)}
        assert names == {"statement"}  # no "(remote-parent)" span

    def test_context_is_restored_after_exit(self):
        from repro.obs.tracing import propagated_trace

        collector = SpanCollector()
        tracer = Tracer("server", collector=collector)
        with propagated_trace(trace_id=779, span_id=44):
            pass
        with tracer.span("after"):
            pass
        [span] = [s for s in collector.spans() if s.name == "after"]
        assert span.trace_id != 779  # a fresh root, not the adopted trace
        assert span.parent_id is None
