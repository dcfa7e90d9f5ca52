"""Fixtures for the wire-protocol suite: a backend behind a TCP listener."""

from __future__ import annotations

import pytest

from repro.net import ReproServer
from tests.conftest import make_shop_backend, stop_wire_server


@pytest.fixture()
def wire_server():
    """A shop backend served over TCP on an ephemeral loopback port."""
    backend = make_shop_backend()
    server = ReproServer.serve(backend)
    try:
        yield backend, server
    finally:
        stop_wire_server(server)
