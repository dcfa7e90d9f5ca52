"""The five workloads: what is built, the seeded operation stream, and the
reads the correctness gate repeats on a direct backend connection.

Each workload exists to load a different layer (README, "Workloads"); the
one-line reasons are in ``BENCHMARK.json``. A *rig* is one freshly built
deployment plus its client connection. Rigs share a small surface:

``backend`` / ``caches``  the engine server and the cache servers in front
``tier``                  what is ticked and synced (a deployment)
``replication``           the ``MTCacheDeployment`` owning the distributor
``connection``            the client connection the operations use
``run(i)``                operation ``i`` of the stream; raises on failure
``writes(i)``             whether operation ``i`` belongs to the write class
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import MTCacheDeployment, Server
from repro.client import ConnectionPool, connect
from repro.net import ReproServer, register_inproc, unregister_inproc
from repro.sharding import ShardedDeployment
from repro.tpcw import (
    INTERACTIONS,
    MIXES,
    ORDER_INTERACTIONS,
    SUBJECTS,
    TPCWApplication,
    TPCWConfig,
    build_backend,
    enable_caching,
)
from repro.tpcw.config import TITLE_WORDS

Statement = Tuple[str, Optional[Dict[str, Any]]]

#: Replication is driven inline so a run is deterministic: every
#: ``TICK_EVERY`` operations the deployment clock advances ``TICK_ADVANCE``
#: virtual seconds (log reader and agents poll every 0.25 s of it).
TICK_EVERY = 10
TICK_ADVANCE = 0.1

USERS = 20
WARM_UP_ROUNDS = 8
IDENTITY_READS = 50


class WrongResult(Exception):
    """An operation returned rows that contradict the closed form."""


def tpcw_config() -> TPCWConfig:
    return TPCWConfig(num_items=1000, num_ebs=USERS)


def stratified(weights: Dict[str, float], count: int, rng: random.Random) -> List[str]:
    """``count`` names in the exact proportions of ``weights`` (largest
    remainder), shuffled by ``rng``.

    Sampling the mix independently per operation would let the share of the
    expensive interactions wander by several percent between seeds; fixing
    the composition leaves order and parameters as the only seeded inputs.
    """
    total = sum(weights.values())
    exact = {name: weight / total * count for name, weight in weights.items()}
    counts = {name: int(share) for name, share in exact.items()}
    leftovers = sorted(weights, key=lambda name: exact[name] - counts[name], reverse=True)
    for name in leftovers[: count - sum(counts.values())]:
        counts[name] += 1
    names = [name for name in weights for _ in range(counts[name])]
    rng.shuffle(names)
    return names


def tpcw_identity_reads(rng: random.Random, config: TPCWConfig) -> List[Statement]:
    """Read procedures with a total result order, so cache and backend
    must agree row for row. ``getBestSellers`` is left out: ties in its
    ``SUM`` ordering are broken by plan shape, which transparency does
    not promise to preserve."""

    def call(procedure: str, **params: Any) -> Statement:
        arguments = ", ".join(f"@{name} = @{name}" for name in params)
        return f"EXEC {procedure} {arguments}", params

    makers: List[Callable[[], Statement]] = [
        lambda: call("getBook", i_id=rng.randint(1, config.num_items)),
        lambda: call("getRelated", i_id=rng.randint(1, config.num_items)),
        lambda: call("getName", c_id=rng.randint(1, config.num_customers)),
        lambda: call("getCustomer", uname=f"user{rng.randint(1, config.num_customers)}"),
        lambda: call("doSubjectSearch", subject=rng.choice(SUBJECTS)),
        lambda: call("doTitleSearch", title=f"%{rng.choice(TITLE_WORDS)}%"),
        lambda: call("doAuthorSearch", lname=f"Last{rng.randint(0, 40)}%"),
        lambda: call("getNewProducts", subject=rng.choice(SUBJECTS)),
    ]
    return [makers[index % len(makers)]() for index in range(IDENTITY_READS)]


class TpcwRig:
    """One TPC-W deployment behind one of four client transports."""

    database_name = "tpcw"

    def __init__(self, name: str, mix: str, transport: str, seed: int, ops: int):
        self.config = tpcw_config()
        self.server: Optional[ReproServer] = None
        self.pool: Optional[ConnectionPool] = None
        self._inproc_name: Optional[str] = None
        if transport == "sharded":
            self.tier = ShardedDeployment(config=self.config, shards=2)
            self.backend = self.tier.backend
            self.caches = list(self.tier.shards.values())
            self.replication = self.tier.deployment
            self.connection = self.tier.connect()
        else:
            self.backend, _ = build_backend(self.config)
            self.tier, self.caches = enable_caching(self.backend, ["cache1"], self.config)
            self.replication = self.tier
            if transport == "tcp":
                self.server = ReproServer.serve(self.caches[0])
                dsn = self.server.dsn
            else:
                self._inproc_name = f"harness/{name}"
                register_inproc(self._inproc_name, self.caches[0], database=self.database_name)
                dsn = f"inproc://{self._inproc_name}"
            self.connection = connect(dsn)
            if transport == "pool":
                self.pool = ConnectionPool(lambda: connect(dsn), size=2)
        self.app = TPCWApplication(self.connection, self.config, random.Random(seed * 7919 + 1))
        self.sessions = [self.app.new_session() for _ in range(USERS)]
        self.schedule = stratified(MIXES[mix].weights, ops, random.Random(seed))

    def warm_up(self) -> None:
        """Every interaction a few times: plan caches filled, remote
        handles prepared, the socket dialed."""
        for round_index in range(WARM_UP_ROUNDS):
            for name in INTERACTIONS:
                self._interact(name, self.sessions[round_index % USERS])
        self.tier.tick(TICK_ADVANCE)

    def _interact(self, name: str, session) -> None:
        if self.pool is None:
            self.app.run(name, session)
            return
        with self.pool.connection() as connection:
            self.app.connection = connection
            try:
                self.app.run(name, session)
            finally:
                self.app.connection = self.connection

    def run(self, index: int) -> None:
        self._interact(self.schedule[index], self.sessions[index % USERS])

    def writes(self, index: int) -> bool:
        return self.schedule[index] in ORDER_INTERACTIONS

    def identity_reads(self, rng: random.Random) -> List[Statement]:
        return tpcw_identity_reads(rng, self.config)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        self.connection.close()
        if self.server is not None:
            self.server.stop()
        if self._inproc_name is not None:
            unregister_inproc(self._inproc_name)


CUSTOMERS = 20_000
CACHED_THROUGH = 10_000
RANGE_ROWS = 50

POINT = "SELECT cid, cname, region FROM customer WHERE cid = @cid"
RANGE = "SELECT cid, cname FROM customer WHERE cid >= @lo AND cid <= @hi"
UPDATE = "UPDATE customer SET cname = @cname WHERE cid = @cid"

#: Statement kinds of ``adhoc_partial`` (percent). ``literal`` is POINT with
#: the key inlined: nearly every text is new, so the 512-entry parse and
#: plan caches miss and evict, the opposite of the TPC-W procedure calls.
#: Each kind is split evenly into keys inside (``local``) and outside
#: (``remote``) the cached half, i.e. the two ChoosePlan branches.
ADHOC_KINDS = {"point": 25.0, "range": 25.0, "literal": 40.0, "update": 10.0}
ADHOC_MIX = {
    f"{kind}/{side}": share / 2
    for kind, share in ADHOC_KINDS.items()
    for side in ("local", "remote")
}


def build_partial_view_deployment() -> Tuple[Server, MTCacheDeployment, Any]:
    """``customer`` x20000 on the backend; the cache holds ``cid <= 10000``,
    so parameterised queries get the paper's dynamic (ChoosePlan) plans."""
    backend = Server("backend")
    backend.create_database("shop")
    backend.execute(
        "CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40) NOT NULL, "
        "region VARCHAR(10))"
    )
    shop = backend.database("shop")
    shop.bulk_load(
        "customer", [(cid, f"cust{cid}", f"r{cid % 7}") for cid in range(1, CUSTOMERS + 1)]
    )
    shop.analyze_all()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW CustLow AS "
        f"SELECT cid, cname, region FROM customer WHERE cid <= {CACHED_THROUGH}"
    )
    return backend, deployment, cache


class AdhocRig:
    """Ad-hoc statements against a partially cached table."""

    database_name = "shop"

    def __init__(self, name: str, seed: int, ops: int):
        self.backend, self.tier, cache = build_partial_view_deployment()
        self.replication = self.tier
        self.caches = [cache]
        self._inproc_name = f"harness/{name}"
        register_inproc(self._inproc_name, cache, database=self.database_name)
        self.connection = connect(f"inproc://{self._inproc_name}")
        self.cursor = self.connection.cursor()
        self.rng = random.Random(seed * 7919 + 1)
        self.schedule = stratified(ADHOC_MIX, ops, random.Random(seed))

    def _key(self, side: str, span: int = 1) -> int:
        """A key whose ``span``-row range lies wholly inside (``local``)
        or wholly outside (``remote``) the cached half."""
        base = 0 if side == "local" else CACHED_THROUGH
        return base + self.rng.randint(1, CACHED_THROUGH - span + 1)

    def warm_up(self) -> None:
        for _ in range(WARM_UP_ROUNDS):
            for name in ADHOC_MIX:
                if not name.startswith("literal"):
                    self._statement(name)
        self.tier.tick(TICK_ADVANCE)

    def _statement(self, name: str) -> None:
        kind, side = name.split("/")
        cursor = self.cursor
        if kind == "range":
            low = self._key(side, RANGE_ROWS)
            rows = cursor.execute(RANGE, {"lo": low, "hi": low + RANGE_ROWS - 1}).fetchall()
            if sorted(row[0] for row in rows) != list(range(low, low + RANGE_ROWS)):
                raise WrongResult(f"range from {low} returned {len(rows)} rows")
        elif kind == "update":
            cid = self._key(side)
            cursor.execute(UPDATE, {"cname": f"renamed{self.rng.randint(0, 999_999)}", "cid": cid})
            if cursor.rowcount != 1:
                raise WrongResult(f"update of {cid} touched {cursor.rowcount} rows")
        else:
            cid = self._key(side)
            if kind == "point":
                cursor.execute(POINT, {"cid": cid})
            else:
                cursor.execute(f"SELECT cid, cname, region FROM customer WHERE cid = {cid}")
            rows = cursor.fetchall()
            if len(rows) != 1 or rows[0][0] != cid:
                raise WrongResult(f"{kind} lookup of {cid} returned {rows!r}")

    def run(self, index: int) -> None:
        self._statement(self.schedule[index])

    def writes(self, index: int) -> bool:
        return self.schedule[index].startswith("update")

    def identity_reads(self, rng: random.Random) -> List[Statement]:
        reads: List[Statement] = []
        for index in range(IDENTITY_READS):
            key = rng.randint(1, CUSTOMERS - RANGE_ROWS)
            if index % 2:
                reads.append((RANGE + " ORDER BY cid", {"lo": key, "hi": key + RANGE_ROWS - 1}))
            else:
                reads.append((POINT, {"cid": key}))
        return reads

    def close(self) -> None:
        self.connection.close()
        unregister_inproc(self._inproc_name)


def _tpcw(mix: str, transport: str) -> Callable[[str, int, int], Any]:
    return lambda name, seed, ops: TpcwRig(name, mix, transport, seed, ops)


#: name -> builder(name, seed, ops). How many operations a repetition runs
#: is the orchestrator's decision (``cli.OPS``), not the workload's.
WORKLOADS: Dict[str, Callable[[str, int, int], Any]] = {
    "browse_inproc": _tpcw("Browsing", "inproc"),
    "order_inproc": _tpcw("Ordering", "pool"),
    "shop_tcp": _tpcw("Shopping", "tcp"),
    "adhoc_partial": AdhocRig,
    "shop_sharded": _tpcw("Shopping", "sharded"),
}
