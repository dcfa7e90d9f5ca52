"""Direct probes: one layer's public functions called on their own.

Where the traced run says what a layer costs inside a workload, a probe
says what the layer's primitive costs by itself, so a change to it can be
seen without the rest of the stack's variance. Every probe is timed in
batches bracketed by the calibration slice and reports the median batch,
in calibrated units.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from benchmarks.harness import calib
from benchmarks.harness.stats import median
from benchmarks.harness.workloads import (
    CACHED_THROUGH,
    CUSTOMERS,
    POINT,
    RANGE,
    UPDATE,
    build_partial_view_deployment,
    tpcw_config,
)

BATCHES = 7


def per_call_us(call: Callable[[], object], calls: int) -> float:
    """Calibrated microseconds per ``call``: median over ``BATCHES``
    batches of ``calls`` calls each."""
    call()  # caches warm, lazy set-up done
    samples = []
    calibration = calib.Slice()
    before = calibration.ms()
    for _ in range(BATCHES):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        elapsed = time.perf_counter() - started
        after = calibration.ms()
        samples.append(elapsed * calib.scale(before, after) / calls * 1e6)
        before = after
    return median(samples)


def run_probes() -> Dict[str, float]:
    from repro.client import ConnectionPool, connect
    from repro.net import ReproServer, protocol
    from repro.resilience.overload import AdmissionController
    from repro.sharding import decompose, tpcw_sharding_policy
    from repro.sql import parse, parse_statements
    from repro.storage.btree import BPlusTree, encode_key
    from repro.storage.table import Table
    from repro.tpcw.procedures import procedure_definitions

    backend, deployment, cache = build_partial_view_deployment()
    shop = backend.database("shop")
    results: Dict[str, float] = {}

    # client / resilience ----------------------------------------------------
    pool = ConnectionPool(lambda: connect(backend, database="shop"), size=2)
    results["client.pool_checkout_us"] = per_call_us(
        lambda: pool.release(pool.acquire()), 2000
    )
    pool.close()
    gate = AdmissionController(backend.clock, rate=1e9, burst=1e9)
    results["resilience.admit_us"] = per_call_us(gate.admit, 5000)

    # sharding ---------------------------------------------------------------
    config = tpcw_config()
    policy = tpcw_sharding_policy(config)
    search = parse(procedure_definitions(config)["doSubjectSearch"]).body[0]
    results["sharding.decompose_us"] = per_call_us(
        lambda: decompose(search, policy.partitions), 200
    )
    scatter = decompose(search, policy.partitions)
    width = len(scatter.select.items)
    shard_rows = [
        [tuple(f"v{(row * 37 + column) % 499:03d}" for column in range(width)) for row in range(500)]
        for _ in range(2)
    ]
    results["sharding.merge_us_per_krow"] = per_call_us(lambda: scatter.merge(shard_rows), 10)

    # net ----------------------------------------------------------------------
    params = {"cid": CACHED_THROUGH // 2}
    local = connect(backend, database="shop").cursor()
    server = ReproServer.serve(backend)
    try:
        wire = connect(server.dsn)
        remote = wire.cursor()
        over_wire = per_call_us(lambda: remote.execute(POINT, params), 80)
        in_process = per_call_us(lambda: local.execute(POINT, params), 80)
        wire.close()
    finally:
        server.stop()
    results["net.roundtrip_us"] = over_wire - in_process
    rows = [(cid, f"cust{cid}", f"r{cid % 7}") for cid in range(1000)]
    payload = {"rows": rows, "last": True}
    frame = protocol.encode_frame(protocol.OP_ROWS, payload)
    results["net.encode_us_per_krow"] = per_call_us(
        lambda: protocol.encode_frame(protocol.OP_ROWS, payload), 5
    )
    results["net.decode_us_per_krow"] = per_call_us(
        lambda: protocol.decode_body(frame[4:]), 5
    )

    # sql / optimizer ----------------------------------------------------------
    corpus = [POINT, RANGE, UPDATE, "SELECT cid, cname, region FROM customer WHERE cid = 4711"]
    corpus += [
        f"EXEC {name} " + ", ".join(f"@{p.name} = @{p.name}" for p in parse(text).params)
        for name, text in procedure_definitions(config).items()
    ]

    def parse_corpus() -> None:
        for text in corpus:
            parse_statements(text)

    results["sql.parse_us"] = per_call_us(parse_corpus, 4) / len(corpus)
    point = parse(POINT)
    cold_keys = iter(range(10**9))
    results["optimizer.cold_plan_us"] = per_call_us(
        lambda: cache.server.plan_select(point, cache.database, cache_key=("probe", next(cold_keys))),
        20,
    )

    # exec / storage -------------------------------------------------------------
    aggregate = "SELECT region, COUNT(*), SUM(cid) FROM customer GROUP BY region"
    results["exec.scan_agg_us_per_krow"] = per_call_us(
        lambda: backend.execute(aggregate), 1
    ) / (CUSTOMERS / 1000)
    tree = BPlusTree()
    for key in range(CUSTOMERS):
        tree.insert(encode_key((key,)), key)
    keys = [encode_key(((index * 7919) % CUSTOMERS,)) for index in range(1000)]

    def tree_gets() -> None:
        for key in keys:
            tree.get(key)

    results["storage.btree_get_us"] = per_call_us(tree_gets, 5) / len(keys)
    customer = shop.storage_table("customer")
    next_cid = iter(range(10**6, 10**9))

    def table_inserts() -> None:
        table = Table("probe", customer.schema, customer.primary_key)
        for _ in range(1000):
            cid = next(next_cid)
            table.insert((cid, "probe", "r0"))

    results["storage.table_insert_us"] = per_call_us(table_inserts, 3) / 1000

    # distributed / replication ----------------------------------------------------
    remote_key = {"cid": CACHED_THROUGH + 1}
    handle = cache.server.linked_servers.get("backend").prepare(POINT)
    backend_handle = backend.prepare_sql(POINT, "shop")
    through_link = per_call_us(lambda: handle.execute_rows(remote_key), 500)
    at_backend = per_call_us(lambda: backend.execute_prepared(backend_handle, remote_key), 500)
    results["distributed.hop_us"] = through_link - at_backend

    commits = 100
    next_name = iter(range(10**9))

    def pipeline() -> None:
        for cid in range(1, commits + 1):
            backend.execute(UPDATE, {"cname": f"p{next(next_name)}", "cid": cid})
        deployment.clock.advance(1.0)
        deployment.sync()

    results["replication.pipeline_txn_s"] = commits / (per_call_us(pipeline, 1) / 1e6)
    return results
