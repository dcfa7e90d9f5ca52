"""MTCache: the paper's primary contribution.

* :class:`MTCacheDeployment` — a backend server plus its replication
  infrastructure (distributor, log readers) and any number of cache
  servers.
* :class:`CacheServer` — a SQL Server instance configured as a mid-tier
  cache: a shadow database with the backend's catalog, statistics and
  permissions but empty tables; cached materialized views maintained by
  replication; transparent cost-based routing of queries and transparent
  forwarding of updates and stored-procedure calls.
* :mod:`repro.mtcache.odbc` — the redirection mechanism that makes
  caching transparent to applications: re-point a logical data source from
  the backend to a cache server without touching application code. Each
  name is an :class:`OdbcSource`, an execution target that forwards to
  wherever the name points now.
"""

from repro.mtcache.deployment import MTCacheDeployment
from repro.mtcache.cache_server import CacheServer
from repro.mtcache.scripts import generate_shadow_script

__all__ = [
    "MTCacheDeployment",
    "CacheServer",
    "generate_shadow_script",
]
