"""MTCache reproduction: transparent mid-tier database caching.

A pure-Python reproduction of *MTCache: Transparent Mid-Tier Database
Caching in SQL Server* (Larson, Goldstein, Zhou - SIGMOD 2003), including
the relational engine substrate, transactional replication, distributed
queries, the MTCache optimizer extensions (DataTransfer, dynamic plans)
and the TPC-W evaluation.

Quickstart::

    from repro import Server, MTCacheDeployment

    backend = Server("backend")
    db = backend.create_database("shop")
    backend.execute("CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40))")
    ...
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW cust1000 AS SELECT cid, cname FROM customer WHERE cid <= 1000"
    )
    result = cache.execute("SELECT cname FROM customer WHERE cid = @cid", params={"cid": 7})
"""

from repro.client import Connection, ConnectionPool, Cursor, connect
from repro.common.clock import SimulatedClock
from repro.engine import Database, Result, Server, Session
from repro.mtcache import CacheServer, MTCacheDeployment
from repro.optimizer import CostModel, Optimizer
from repro.resilience import CircuitBreaker, FailoverRouter, RetryPolicy

__version__ = "1.0.0"

__all__ = [
    "Connection",
    "ConnectionPool",
    "Cursor",
    "connect",
    "SimulatedClock",
    "Database",
    "Result",
    "Server",
    "Session",
    "CacheServer",
    "MTCacheDeployment",
    "CostModel",
    "Optimizer",
    "CircuitBreaker",
    "FailoverRouter",
    "RetryPolicy",
    "__version__",
]
