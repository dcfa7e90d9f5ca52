"""TPC-W implementation tests: schema, data, procedures, interactions."""

import random

import pytest

from repro.exec.reference import evaluate_select
from repro.client import connect
from repro.sql import parse
from repro.tpcw import (
    MIXES,
    TPCWApplication,
    TPCWConfig,
    browse_order_split,
    build_backend,
    enable_caching,
)
from repro.tpcw.config import SUBJECTS, TITLE_WORDS
from repro.tpcw.procedures import procedure_definitions
from repro.tpcw.workload import BROWSE_INTERACTIONS, INTERACTIONS, ORDER_INTERACTIONS


@pytest.fixture(scope="module")
def env():
    backend, config = build_backend(TPCWConfig(num_items=60, num_ebs=10))
    return backend, config


class TestSchemaAndData:
    def test_all_tables_present(self, env):
        backend, _ = env
        tables = set(backend.database("tpcw").catalog.tables)
        assert {
            "country", "author", "address", "customer", "item",
            "orders", "order_line", "cc_xacts", "shopping_cart",
            "shopping_cart_line",
        } <= tables

    def test_row_counts_follow_scale(self, env):
        backend, config = env
        counts = {
            name: backend.execute(f"SELECT COUNT(*) FROM {name}", database="tpcw").scalar
            for name in ("item", "customer", "orders", "author", "address")
        }
        assert counts["item"] == config.num_items
        assert counts["customer"] == config.num_customers
        assert counts["orders"] == config.num_orders
        assert counts["address"] == config.num_addresses

    def test_referential_shape(self, env):
        backend, _ = env
        orphans = backend.execute(
            "SELECT COUNT(*) FROM order_line ol WHERE ol.ol_i_id NOT IN "
            "(SELECT i_id FROM item)",
            database="tpcw",
        ).scalar
        assert orphans == 0

    def test_statistics_built(self, env):
        backend, config = env
        stats = backend.database("tpcw").stats_for("item")
        assert stats.row_count == config.num_items

    def test_deterministic_generation(self):
        b1, c1 = build_backend(TPCWConfig(num_items=30, num_ebs=5, seed=7))
        b2, c2 = build_backend(TPCWConfig(num_items=30, num_ebs=5, seed=7))
        r1 = b1.execute("SELECT i_title FROM item WHERE i_id = 9", database="tpcw").scalar
        r2 = b2.execute("SELECT i_title FROM item WHERE i_id = 9", database="tpcw").scalar
        assert r1 == r2


class TestProcedures:
    def test_get_book(self, env):
        backend, _ = env
        result = backend.execute("EXEC getBook @i_id = 5", database="tpcw")
        assert len(result.rows) == 1
        assert result.rows[0][0] == 5

    def test_best_sellers_ranked(self, env):
        backend, _ = env
        from repro.tpcw.config import SUBJECTS

        for subject in SUBJECTS[:4]:
            result = backend.execute(
                "EXEC getBestSellers @subject = @s",
                params={"s": subject},
                database="tpcw",
            )
            sums = [row[4] for row in result.rows]
            assert sums == sorted(sums, reverse=True)

    def test_title_search(self, env):
        backend, _ = env
        result = backend.execute(
            "EXEC doTitleSearch @title = '%SHADOW%'", database="tpcw"
        )
        assert all("SHADOW" in row[1].upper() for row in result.rows)

    def test_subject_search_limit(self, env):
        backend, config = env
        result = backend.execute(
            "EXEC doSubjectSearch @subject = 'ARTS'", database="tpcw"
        )
        assert len(result.rows) <= config.search_result_limit

    def test_get_customer_join(self, env):
        backend, _ = env
        result = backend.execute("EXEC getCustomer @uname = 'user3'", database="tpcw")
        assert result.rows[0][0] == 3
        assert result.rows[0][-1].startswith("Country")

    def test_cart_lifecycle(self, env):
        backend, _ = env
        cart = backend.execute(
            "EXEC createEmptyCart @now = '2003-06-09'", database="tpcw"
        ).scalar
        backend.execute(
            "EXEC addItem @sc_id = @c, @i_id = 4, @qty = 2",
            params={"c": cart},
            database="tpcw",
        )
        backend.execute(
            "EXEC addItem @sc_id = @c, @i_id = 4, @qty = 1",
            params={"c": cart},
            database="tpcw",
        )
        rows = backend.execute(
            "EXEC getCart @sc_id = @c", params={"c": cart}, database="tpcw"
        ).rows
        assert len(rows) == 1 and rows[0][5] == 3  # quantities merged
        backend.execute("EXEC clearCart @sc_id = @c", params={"c": cart}, database="tpcw")
        assert (
            backend.execute(
                "EXEC getCart @sc_id = @c", params={"c": cart}, database="tpcw"
            ).rows
            == []
        )

    def test_enter_order_computes_totals(self, env):
        backend, _ = env
        cart = backend.execute(
            "EXEC createEmptyCart @now = '2003-06-09'", database="tpcw"
        ).scalar
        backend.execute(
            "EXEC addItem @sc_id = @c, @i_id = 7, @qty = 2",
            params={"c": cart},
            database="tpcw",
        )
        order_id = backend.execute(
            "EXEC enterOrder @c_id = 1, @sc_id = @c, @ship_type = 'AIR', "
            "@bill_addr = 1, @ship_addr = 1, @now = '2003-06-09'",
            params={"c": cart},
            database="tpcw",
        ).scalar
        row = backend.execute(
            "SELECT o_sub_total, o_total FROM orders WHERE o_id = @o",
            params={"o": order_id},
            database="tpcw",
        ).rows[0]
        assert row[0] > 0 and row[1] > row[0]

    def test_update_related_items_copurchase(self, env):
        """The admin-confirm related-items recomputation: a self-join of
        order_line finding the most co-purchased items."""
        backend, _ = env
        result = backend.execute(
            "EXEC updateRelatedItems @i_id = 1", database="tpcw"
        )
        assert len(result.rows) <= 5
        for row in result.rows:
            assert row[0] != 1  # never relates an item to itself
        quantities = [row[1] for row in result.rows]
        assert quantities == sorted(quantities, reverse=True)

    def test_admin_update(self, env):
        backend, _ = env
        backend.execute(
            "EXEC adminUpdate @i_id = 2, @cost = 42.5, @image = 'i', "
            "@thumbnail = 't', @now = '2003-06-10'",
            database="tpcw",
        )
        assert (
            backend.execute("SELECT i_cost FROM item WHERE i_id = 2", database="tpcw").scalar
            == 42.5
        )


#: The read procedures whose result order is total (getBestSellers breaks
#: SUM ties by plan shape), each with a seeded parameter maker.
ORACLE_READS = {
    "getBook": lambda rng, config: {"i_id": rng.randint(1, config.num_items)},
    "getRelated": lambda rng, config: {"i_id": rng.randint(1, config.num_items)},
    "getName": lambda rng, config: {"c_id": rng.randint(1, config.num_customers)},
    "getCustomer": lambda rng, config: {
        "uname": f"user{rng.randint(1, config.num_customers)}"
    },
    "doSubjectSearch": lambda rng, config: {"subject": rng.choice(SUBJECTS)},
    "doTitleSearch": lambda rng, config: {"title": f"%{rng.choice(TITLE_WORDS)}%"},
    "doAuthorSearch": lambda rng, config: {
        "lname": f"Last{rng.randrange(config.num_authors // 2)}%"
    },
    "getNewProducts": lambda rng, config: {"subject": rng.choice(SUBJECTS)},
}


class TestReadProceduresAgainstOracle:
    """The real workload's SELECTs hold the batch kernels to the scalar
    semantics of ``exec.reference``: same rows, same order."""

    @pytest.mark.parametrize("procedure", sorted(ORACLE_READS))
    def test_engine_rows_equal_reference_rows(self, env, procedure):
        backend, config = env
        database = backend.database("tpcw")
        select = parse(procedure_definitions(config)[procedure]).body[0]
        rng = random.Random(procedure)
        returned = 0
        for _ in range(6):
            params = ORACLE_READS[procedure](rng, config)
            rows = backend.execute_statement(select, params, database=database).rows
            assert rows == evaluate_select(database, select, params)[1], params
            returned += len(rows)
        assert returned > 0  # the seeded parameters must select something


class TestWorkloadMixes:
    def test_mix_weights_normalized(self):
        for mix in MIXES.values():
            assert sum(mix.weights.values()) == pytest.approx(1.0)

    def test_papers_browse_order_split(self):
        """The §6.1.1 table: 95/5, 80/20, 50/50."""
        browse, order = browse_order_split("Browsing")
        assert browse == pytest.approx(0.95, abs=0.005)
        browse, order = browse_order_split("Shopping")
        assert browse == pytest.approx(0.80, abs=0.005)
        browse, order = browse_order_split("Ordering")
        assert browse == pytest.approx(0.50, abs=0.005)

    def test_fourteen_interactions(self):
        assert len(INTERACTIONS) == 14
        assert len(BROWSE_INTERACTIONS) == 6
        assert len(ORDER_INTERACTIONS) == 8
        for mix in MIXES.values():
            assert set(mix.weights) == set(INTERACTIONS)

    def test_sampling_matches_weights(self):
        mix = MIXES["Shopping"]
        rng = random.Random(11)
        counts = {}
        for _ in range(20_000):
            name = mix.sample(rng)
            counts[name] = counts.get(name, 0) + 1
        assert counts["search_request"] / 20_000 == pytest.approx(0.20, abs=0.02)
        assert counts["home"] / 20_000 == pytest.approx(0.16, abs=0.02)


class TestInteractionsEndToEnd:
    @pytest.mark.parametrize("interaction", INTERACTIONS)
    def test_each_interaction_runs_against_backend(self, env, interaction):
        backend, config = env
        connection = connect(backend, database="tpcw")
        application = TPCWApplication(connection, config, random.Random(3))
        session = application.new_session()
        if interaction in ("buy_request", "buy_confirm"):
            application.shopping_cart(session)
        application.run(interaction, session)
        assert application.db_calls > 0

    def test_interactions_through_cache_equal_backend_semantics(self):
        backend, config = build_backend(TPCWConfig(num_items=40, num_ebs=8))
        deployment, caches = enable_caching(backend, ["c1"], config)
        connection = connect(caches[0].server, database="tpcw")
        application = TPCWApplication(connection, config, random.Random(4))
        rng = random.Random(9)
        sessions = [application.new_session() for _ in range(4)]
        mix = MIXES["Shopping"]
        for step in range(100):
            application.run(mix.sample(rng), sessions[step % 4])
            deployment.tick(0.05)
        deployment.sync()
        # Core invariant: cached order data converged to the backend's.
        backend_orders = backend.execute(
            "SELECT COUNT(*) FROM orders", database="tpcw"
        ).scalar
        cache_orders = caches[0].execute("SELECT COUNT(*) FROM cv_orders").scalar
        assert cache_orders == backend_orders
