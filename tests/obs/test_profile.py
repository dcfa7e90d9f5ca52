"""Per-operator execution profiles (statistics profile)."""

import pytest

from repro.obs.profile import profiled
from repro.sql import parse
from tests.conftest import make_shop_backend


#: Plans Project -> IndexLookupJoin -> Project -> Filter -> IndexRangeScan.
LOOKUP_JOIN_QUERY = (
    "SELECT c.cname, o.total FROM customer c JOIN orders o ON c.cid = o.o_cid "
    "WHERE c.cid <= 5"
)


@pytest.fixture
def server():
    return make_shop_backend()


def cached_plan(server):
    """The plan-cache entry's operator tree (shared across executions)."""
    return server.plan_select(parse(LOOKUP_JOIN_QUERY), server.database("shop")).root


def assert_unpatched(root):
    for operator in root.walk():
        assert "execute_batches" not in vars(operator), operator


class TestProfiledPlan:
    def test_actual_rows_and_opens(self, server):
        # Profiling through the session flag (SET STATISTICS PROFILE ON).
        from repro.engine.session import Session

        session = Session()
        session.statistics_profile = True
        result = server.execute(
            "SELECT cname FROM customer WHERE cid <= 10", session=session
        )
        assert len(result.rows) == 10
        profile = result.profile
        assert profile is not None
        assert profile.root.actual_rows == 10
        assert profile.root.opens == 1
        # Every operator in the tree was opened exactly once.
        for node in profile.root.walk():
            assert node.opens == 1

    def test_server_flag_profiles_every_select(self, server):
        server.profile_statements = True
        result = server.execute("SELECT cid FROM customer WHERE cid = 5")
        assert result.profile is not None
        server.profile_statements = False
        result = server.execute("SELECT cid FROM customer WHERE cid = 5")
        assert result.profile is None

    def test_render_carries_actuals_and_estimates(self, server):
        server.profile_statements = True
        result = server.execute("SELECT cname FROM customer WHERE segment = 'gold'")
        text = result.profile.render()
        assert "actual rows=" in text
        assert "est rows=" in text
        assert "self=" in text
        # The tree is indented: at least one nested operator line.
        assert any(line.startswith("  ") for line in text.splitlines())

    def test_to_dict_is_json_ready(self, server):
        import json

        server.profile_statements = True
        result = server.execute("SELECT cid FROM customer WHERE cid <= 3")
        payload = json.loads(json.dumps(result.profile.to_dict()))
        assert payload["actual_rows"] == 3
        assert isinstance(payload["children"], list)

    def test_every_node_counts_batches(self, server):
        # One patched method per node: the subtree under a loop-shaped
        # operator is accounted the same way as the rest of the plan.
        server.profile_statements = True
        profile = server.execute(LOOKUP_JOIN_QUERY).profile
        descriptions = [node.description for node in profile.root.walk()]
        assert any(text.startswith("IndexLookupJoin") for text in descriptions)
        assert profile.root.actual_rows == 10
        for node in profile.root.walk():
            assert node.actual_rows > 0 and node.actual_batches >= 1, node

    def test_patches_removed_from_cached_plan(self, server):
        server.profile_statements = True
        server.execute(LOOKUP_JOIN_QUERY)
        assert_unpatched(cached_plan(server))

    def test_patches_removed_even_when_execution_raises(self, server):
        root = cached_plan(server)

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with profiled(root):
                assert "execute_batches" in vars(root)
                raise Boom()
        assert_unpatched(root)

    def test_wall_time_accumulates(self, server):
        server.profile_statements = True
        result = server.execute("SELECT cname FROM customer")
        root = result.profile.root
        assert root.actual_rows == 200
        assert root.wall_seconds > 0.0
        assert root.self_seconds >= 0.0
