"""DSN grammar, the inproc registry, and the connect() redesign."""

from __future__ import annotations

import pytest

from repro.client import connect
from repro.errors import ClientError, DsnError
from repro.net import (
    DEFAULT_PORT,
    parse_dsn,
    register_inproc,
    resolve_inproc,
    unregister_inproc,
)
from tests.conftest import make_shop_backend


class TestParseDsn:
    def test_tcp_full(self):
        dsn = parse_dsn("tcp://db.example.com:9999/tpcw?timeout=2.5&fetch_rows=64")
        assert dsn.scheme == "tcp"
        assert dsn.host == "db.example.com"
        assert dsn.port == 9999
        assert dsn.database == "tpcw"
        assert dsn.timeout == 2.5
        assert dsn.fetch_rows == 64
        assert dsn.principal is None

    def test_tcp_port_defaults(self):
        assert parse_dsn("tcp://localhost/shop").port == DEFAULT_PORT

    def test_inproc_key_joins_path(self):
        dsn = parse_dsn("inproc://deployment/cache0")
        assert dsn.scheme == "inproc"
        assert dsn.inproc_key == "deployment/cache0"
        assert parse_dsn("inproc://cache0").inproc_key == "cache0"

    def test_principal_param(self):
        assert parse_dsn("tcp://h/d?principal=web").principal == "web"

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("just-a-name", "not a DSN"),
            ("http://h/d", "unknown DSN scheme"),
            ("tcp:///shop", "missing a host"),
            ("inproc://", "missing a registry name"),
            ("tcp://h:notaport/d", "invalid port"),
            ("inproc://name:123", "cannot carry a port"),
            ("tcp://h/a/b", "multi-segment path"),
            ("tcp://h/d?bogus=1", "unknown DSN parameter"),
            ("tcp://h/d?timeout=", "has no value"),
            ("tcp://h/d?timeout=fast", "is not a number"),
            ("tcp://h/d?fetch_rows=many", "is not a number"),
        ],
    )
    def test_precise_errors(self, bad, fragment):
        with pytest.raises(DsnError, match=fragment):
            parse_dsn(bad)


class TestInprocRegistry:
    def test_register_resolve_unregister(self):
        sentinel = object()
        register_inproc("t/dsn-suite", sentinel, database="shop")
        try:
            target, database = resolve_inproc("t/dsn-suite")
            assert target is sentinel
            assert database == "shop"
        finally:
            unregister_inproc("t/dsn-suite")
        with pytest.raises(DsnError, match="no inproc target registered"):
            resolve_inproc("t/dsn-suite")

    def test_unknown_key_lists_known_names(self):
        register_inproc("t/known-one", object())
        try:
            with pytest.raises(DsnError, match="t/known-one"):
                resolve_inproc("t/missing")
        finally:
            unregister_inproc("t/known-one")

    def test_empty_name_rejected(self):
        with pytest.raises(DsnError, match="empty name"):
            register_inproc("///", object())  # strips to nothing


class TestConnectRedesign:
    def test_plain_object_back_compat(self):
        backend = make_shop_backend()
        connection = connect(backend, database="shop")
        try:
            rows = connection.cursor().execute(
                "SELECT cid FROM customer WHERE cid <= 3"
            ).fetchall()
            assert len(rows) == 3
        finally:
            connection.close()

    def test_inproc_dsn_resolves_registered_target(self):
        backend = make_shop_backend()
        register_inproc("t/shop0", backend, database="shop")
        try:
            connection = connect("inproc://t/shop0")
            assert connection.database == "shop"
            row = connection.cursor().execute(
                "SELECT cname FROM customer WHERE cid = 1"
            ).fetchone()
            assert row == ("cust1",)
            # close() must NOT tear down the shared registered target
            connection.close()
            assert connect("inproc://t/shop0").healthy()
        finally:
            unregister_inproc("t/shop0")

    def test_database_argument_deprecated_when_dsn_has_path(self):
        backend = make_shop_backend()
        register_inproc("t/depr", backend)
        register_inproc("t/depr/shop", backend, database="shop")
        try:
            with pytest.raises(ClientError, match="already\\s+carries"):
                connect("inproc://t/depr/shop", database="other")
        finally:
            unregister_inproc("t/depr")
            unregister_inproc("t/depr/shop")

    def test_unknown_inproc_target_is_a_dsn_error(self):
        with pytest.raises(DsnError, match="no inproc target registered"):
            connect("inproc://never/registered")
