"""Prepared remote statements: the prepare/execute protocol (paper §4.3)."""

import pytest

from repro import Server
from repro.errors import PreparedStatementError


@pytest.fixture
def pair():
    local = Server("local")
    local.create_database("localdb")
    remote = Server("remote")
    remote.create_database("catdb")
    remote.execute(
        "CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(30), price FLOAT)"
    )
    for i in range(1, 11):
        remote.execute(f"INSERT INTO part VALUES ({i}, 'part{i}', {i * 2.5})")
    remote.database("catdb").analyze_all()
    local.linked_servers.register("remote", remote, "catdb")
    return local, remote


class TestPrepareExecute:
    def test_execute_by_handle_matches_text_path(self, pair):
        local, remote = pair
        link = local.linked_servers.get("remote")
        sql = "SELECT name FROM part WHERE id = @id"
        handle = link.prepare(sql)
        assert handle.execute({"id": 3}).rows == [("part3",)]
        assert handle.execute({"id": 7}).rows == [("part7",)]
        assert remote.execute(sql, params={"id": 3}).rows == [("part3",)]

    def test_text_ships_once(self, pair):
        local, remote = pair
        link = local.linked_servers.get("remote")
        handle = link.prepare("SELECT name FROM part WHERE id = @id")
        before = remote.parses
        for i in range(1, 6):
            handle.execute({"id": i})
        # One parse to prepare, zero per execution.
        assert remote.parses == before + 1
        assert handle.prepares == 1
        assert link.prepared_executions == 5

    def test_same_text_shares_one_handle(self, pair):
        local, _ = pair
        link = local.linked_servers.get("remote")
        sql = "SELECT price FROM part WHERE id = @id"
        assert link.prepare(sql) is link.prepare(sql)

    def test_remote_ddl_triggers_transparent_reprepare(self, pair):
        """A schema version bump re-prepares; the handle sees the new schema."""
        local, remote = pair
        link = local.linked_servers.get("remote")
        handle = link.prepare("SELECT * FROM part WHERE id = @id")
        row = handle.execute({"id": 2}).rows[0]
        assert len(row) == 3

        remote.execute("DROP TABLE part")
        remote.execute(
            "CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(30), "
            "price FLOAT, stock INT)"
        )
        remote.execute("INSERT INTO part VALUES (2, 'part2', 5.0, 40)")

        row = handle.execute({"id": 2}).rows[0]
        assert row == (2, "part2", 5.0, 40)
        assert remote.prepared_statement(handle.handle_id).reprepares == 1

    def test_lost_remote_handle_reprepares_from_text(self, pair):
        local, remote = pair
        link = local.linked_servers.get("remote")
        handle = link.prepare("SELECT name FROM part WHERE id = @id")
        handle.execute({"id": 1})
        first_id = handle.handle_id
        remote.close_prepared(first_id)
        # Transparent: the link re-prepares and the execution succeeds.
        assert handle.execute({"id": 4}).rows == [("part4",)]
        assert handle.handle_id != first_id

    def test_unknown_handle_raises(self, pair):
        _, remote = pair
        with pytest.raises(PreparedStatementError):
            remote.execute_prepared(999_999)


class TestRemoteQueryOpFastPath:
    def _route_remote(self, local):
        """Force a RemoteQueryOp: query a four-part remote table."""
        return local.execute(
            "SELECT ps.name FROM remote.catdb.dbo.part ps WHERE ps.id = @id",
            params={"id": 5},
        )

    def test_remote_query_executes_by_handle(self, pair):
        local, remote = pair
        link = local.linked_servers.get("remote")
        self._route_remote(local)
        parses_after_first = remote.parses
        for _ in range(4):
            self._route_remote(local)
        assert remote.parses == parses_after_first
        assert link.prepares == 1
        assert local.total_work.prepared_executions >= 4


class TestForwardedDml:
    def test_forwarded_update_uses_prepared_handle(self, pair):
        local, remote = pair
        link = local.linked_servers.get("remote")
        before = remote.parses
        for i in range(1, 5):
            local.execute(
                "UPDATE remote.catdb.dbo.part SET price = @p WHERE id = @id",
                params={"p": float(i), "id": i},
            )
        assert remote.parses == before + 1
        assert link.prepares == 1
        assert remote.execute("SELECT price FROM part WHERE id = 4").rows == [(4.0,)]
