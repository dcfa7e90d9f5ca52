"""The statement log: each statement-path metric site is one lock-free
append, folded exactly into the registry's metrics on read."""

import sys
import threading

from repro.obs.metrics import LOG_BOUND, global_registry
from repro.obs.tracing import Span
from tests.conftest import make_shop_backend

THREADS = 4
PER_THREAD = 200

#: A read by key, an aggregate over a secondary-index seek, and a write
#: that changes nothing the reads see: the same work in any interleaving.
STATEMENTS = [
    ("SELECT cname FROM customer WHERE cid = @k", lambda index: {"k": index % 200 + 1}),
    ("SELECT COUNT(*) FROM orders WHERE o_cid = @k", lambda index: {"k": index % 200 + 1}),
    ("UPDATE orders SET total = total WHERE oid = @k", lambda index: {"k": index % 400 + 1}),
]


def run(server, index):
    sql, params = STATEMENTS[index % len(STATEMENTS)]
    server.execute(sql, params(index), database="shop")


def fresh_server():
    server = make_shop_backend()
    server.reset_work()
    return server


def test_concurrent_statements_fold_exactly():
    reference = fresh_server()
    for index in range(THREADS * PER_THREAD):
        run(reference, index)

    server = fresh_server()
    failures = []

    def worker(slot):
        try:
            for index in range(slot * PER_THREAD, (slot + 1) * PER_THREAD):
                run(server, index)
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures

    snapshot = server.metrics.snapshot()
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    assert counters["exec.batches"] == histograms["exec.batch_rows"]["count"] > 0
    assert histograms["engine.statement_seconds"]["count"] == server.statements_executed
    assert server.statements_executed == THREADS * PER_THREAD
    for field in ("rows_processed", "rows_returned", "index_seeks"):
        assert counters[f"work.{field}"] == getattr(reference.total_work, field) > 0


def test_an_unread_log_stays_bounded():
    server = fresh_server()
    statements = LOG_BOUND  # three or more records each: past the bound twice
    for index in range(statements):
        run(server, 3 * index)  # the read by key
        assert len(server.total_work.log) <= LOG_BOUND
    assert server.statements_executed == statements
    assert server.total_work.rows_returned == statements


class CountingLock:
    """A metric's lock that counts its acquisitions."""

    def __init__(self, inner, tally):
        self._inner = inner
        self._tally = tally

    def __enter__(self):
        self._tally.append(1)
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def test_a_warm_untraced_statement_does_no_instrumentation_work(cache, monkeypatch):
    backend = cache.deployment.backend
    statements = [
        ("SELECT cname FROM customer WHERE cid = @cid", {"cid": 5}),  # local
        ("SELECT cname FROM customer WHERE cid = @cid", {"cid": 150}),  # remote
        ("UPDATE customer SET caddress = caddress WHERE cid = @cid", {"cid": 7}),  # forwarded
    ]
    for sql, params in statements * 2:
        cache.execute(sql, params)
    served = cache.server.statements_executed, backend.statements_executed
    registries = [cache.server.metrics, backend.metrics, global_registry()]
    acquisitions = []
    names = []
    for registry in registries:
        registry.snapshot()  # every log empty: no fold is due below
        for family in (registry._counters, registry._gauges, registry._histograms):
            names.append(sorted(family))
            for metric in family.values():
                monkeypatch.setattr(metric, "_lock", CountingLock(metric._lock, acquisitions))
    spans = []
    original = Span.__init__

    def counting_init(self, *args, **kwargs):
        spans.append(args[0])
        original(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting_init)

    for index in range(100):
        sql, params = statements[index % len(statements)]
        cache.execute(sql, params)

    assert spans == []
    assert acquisitions == []
    assert names == [
        sorted(family)
        for registry in registries
        for family in (registry._counters, registry._gauges, registry._histograms)
    ]
    assert cache.server.statements_executed == served[0] + 100
    assert backend.statements_executed > served[1]
