"""Readers never see half a transaction across two cached views.

A writer commits multi-statement transactions on the backend (an order
with its lines, then a third line together with the order's line count),
a ticker drives replication, and a reader joins ``orders`` with
``order_line`` through the cache — served from two cached views. Every
order the reader sees must carry exactly the number of lines its own row
announces: the cache applies each transaction atomically across both
views, under the same latch + sorted table locks the reader's statement
takes. Runs under the suite-wide lock witness, so the agent's multi-table
acquisition is also checked against the modeled lock hierarchy.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import MTCacheDeployment, Server

pytestmark = pytest.mark.concurrency

ORDERS = 60
JOIN = (
    "SELECT o.oid, o.nlines, l.olid FROM orders o JOIN order_line l ON l.ol_oid = o.oid"
)


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    yield
    sys.setswitchinterval(old)


def build_env():
    backend = Server("backend")
    backend.create_database("shop")
    backend.execute(
        """
        CREATE TABLE orders (oid INT PRIMARY KEY, nlines INT NOT NULL);
        CREATE TABLE order_line (olid INT PRIMARY KEY, ol_oid INT NOT NULL);
        CREATE INDEX ix_ol_oid ON order_line (ol_oid);
        """
    )
    backend.database("shop").analyze_all()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view("CREATE CACHED VIEW cv_orders AS SELECT oid, nlines FROM orders")
    cache.create_cached_view("CREATE CACHED VIEW cv_ol AS SELECT olid, ol_oid FROM order_line")
    return backend, deployment, cache


def test_no_order_is_ever_seen_with_a_partial_set_of_lines():
    backend, deployment, cache = build_env()
    assert not cache.plan(JOIN).uses_remote  # the join reads the two views

    done = threading.Event()
    failures = []
    reads = [0]

    def guarded(body):
        def run():
            try:
                body()
            except BaseException as exc:  # pragma: no cover - only on regression
                failures.append(exc)
                done.set()

        return run

    def write():
        for oid in range(1, ORDERS + 1):
            first = oid * 10
            backend.execute(
                f"BEGIN TRANSACTION; INSERT INTO orders VALUES ({oid}, 2); "
                f"INSERT INTO order_line VALUES ({first}, {oid}); "
                f"INSERT INTO order_line VALUES ({first + 1}, {oid}); COMMIT",
                database="shop",
            )
            backend.execute(
                f"BEGIN TRANSACTION; UPDATE orders SET nlines = 3 WHERE oid = {oid}; "
                f"INSERT INTO order_line VALUES ({first + 2}, {oid}); COMMIT",
                database="shop",
            )
        done.set()

    def tick():
        while not done.is_set():
            deployment.tick(0.3)

    def read():
        while not done.is_set():
            lines = {}
            for oid, nlines, _ in cache.execute(JOIN).rows:
                seen, _ = lines.get(oid, (0, nlines))
                lines[oid] = (seen + 1, nlines)
            for oid, (seen, nlines) in lines.items():
                assert seen == nlines, f"order {oid} announces {nlines} lines, shows {seen}"
            reads[0] += 1

    threads = [
        threading.Thread(target=guarded(body), daemon=True) for body in (write, tick, read, read)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    assert failures == []
    assert reads[0] > 0

    deployment.sync()
    rows = cache.execute(JOIN).rows
    assert len(rows) == 3 * ORDERS and {nlines for _, nlines, _ in rows} == {3}
    assert not cache.plan(JOIN).uses_remote
    latch = cache.database.latch
    assert latch.readers == 0 and not latch.owns_exclusive()
