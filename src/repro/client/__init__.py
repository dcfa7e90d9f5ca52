"""The unified client API (DBAPI-2.0 flavoured).

This package is the one sanctioned way for application code to talk to
the engine. Every execution target — engine server, cache facade,
failover router, shard router (:mod:`repro.client.shard_router`), wire
client — speaks one protocol, ``execute(sql, params=None,
session=None)``, and applications reach any of them through:

    connection = connect(server_or_cache, database="tpcw")
    cursor = connection.cursor()
    cursor.execute("SELECT cname FROM customer WHERE cid = @cid", {"cid": 7})
    for row in cursor:
        ...
    connection.commit()

and under load, through a bounded :class:`ConnectionPool` whose checkout
health-checks each connection via the engine's ``healthy()`` probes.

The selflint rule ``session-construction`` enforces the funnel: outside
this package and ``repro.engine`` itself, nothing constructs a raw
``Session`` — connections own their sessions.
"""

from repro.client.connection import Connection, Cursor, connect
from repro.client.pool import ConnectionPool

__all__ = ["Connection", "ConnectionPool", "Cursor", "connect"]
