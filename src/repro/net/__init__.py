"""repro.net — the wire protocol and network front end (PR 10).

Three pieces:

* :mod:`repro.net.protocol` — the length-prefixed binary frame codec, the
  one frame reader both ends use, and the opcode vocabulary
  (:data:`PROTOCOL_VERSION`).
* :mod:`repro.net.server` — :class:`ReproServer`, a blocking TCP listener
  (one handler thread per connection) in front of any execution target.
* :mod:`repro.net.wire` — :class:`WireConnection`, the blocking client
  that plugs into the existing :func:`repro.client.connect` facade.
* :mod:`repro.net.dsn` — :func:`parse_dsn` and the ``inproc://`` target
  registry behind the DSN-based ``connect()`` redesign.

This package is the only place in the codebase allowed to construct raw
sockets or asyncio streams (the ``net-raw-socket`` selflint rule): every
other layer reaches the network through :func:`repro.client.connect` with
a ``tcp://`` DSN.
"""

from repro.net.dsn import (
    DEFAULT_PORT,
    DSN,
    parse_dsn,
    register_inproc,
    resolve_inproc,
    unregister_inproc,
)
from repro.net.protocol import MAX_FRAME, PROTOCOL_VERSION
from repro.net.server import ReproServer
from repro.net.wire import WireConnection

__all__ = [
    "DEFAULT_PORT",
    "DSN",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ReproServer",
    "WireConnection",
    "parse_dsn",
    "register_inproc",
    "resolve_inproc",
    "unregister_inproc",
]
