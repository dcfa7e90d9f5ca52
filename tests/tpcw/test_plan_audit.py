"""Plan audit of a Shopping run through one cache: the backend seeks every
table it reads — the cart tables are ANALYZEd while still empty, which is
no statistics — the cache scans only what no index can serve, and no
index seek is filtered again on its own key."""

import random

import pytest

from repro.client import connect
from repro.exec.operators import FilterOp, IndexSeekOp, SeqScanOp
from repro.tpcw import (
    INTERACTIONS,
    MIXES,
    TPCWApplication,
    TPCWConfig,
    build_backend,
    enable_caching,
)

SESSIONS = 10
WARM_UP_ROUNDS = 3
SHOPPING_OPS = 300


def plan_roots(server):
    """Every plan root the server holds: the plan cache's entries and the
    ``bound.planned`` slots of its bound batches, procedure bodies
    included."""
    roots = [planned.root for _, planned in server._plan_cache.values()]
    seen = set()

    def visit(bound):
        if id(bound) in seen:
            return
        seen.add(id(bound))
        root = getattr(bound.planned, "root", None)  # DML slots hold runners
        if root is not None:
            roots.append(root)
        if bound.procedure is not None:
            for nested in bound.procedure.statements:
                visit(nested)

    for batch in server._parse_cache.values():
        for bound in batch.bound:
            visit(bound)
    return roots


def scanned_tables(server):
    return {
        node.table_name
        for root in plan_roots(server)
        for node in root.walk()
        if isinstance(node, SeqScanOp)
    }


@pytest.fixture(scope="module")
def shopping_run():
    backend, config = build_backend(TPCWConfig(num_items=200, num_ebs=SESSIONS))
    deployment, (cache,) = enable_caching(backend, ["cache1"], config)
    application = TPCWApplication(
        connect(cache.server, database="tpcw"), config, random.Random(3)
    )
    sessions = [application.new_session() for _ in range(SESSIONS)]
    for round_index in range(WARM_UP_ROUNDS):
        for name in INTERACTIONS:
            application.run(name, sessions[round_index])
    deployment.tick(0.1)
    rng = random.Random(5)
    for step in range(SHOPPING_OPS):
        application.run(MIXES["Shopping"].sample(rng), sessions[step % SESSIONS])
        if (step + 1) % 10 == 0:
            deployment.tick(0.1)
    return backend, cache


def test_backend_plans_contain_no_scan(shopping_run):
    backend, _ = shopping_run
    assert plan_roots(backend)
    assert scanned_tables(backend) == set()


def test_cache_scans_only_like_searches_and_the_bestseller_window(shopping_run):
    _, cache = shopping_run
    assert scanned_tables(cache.server) == {"cv_item", "cv_author", "cv_orders"}


BROWSE_SEEKS = ("getRelated", "getBook", "doSubjectSearch", "getNewProducts", "getBestSellers")


def procedure_roots(server, name):
    """The plan roots of the statements in procedure ``name``'s bound body."""
    roots = []
    for batch in server._parse_cache.values():
        for bound in batch.bound:
            procedure = bound.procedure
            if procedure is not None and procedure.definition.name.lower() == name.lower():
                roots += [
                    nested.planned.root
                    for nested in procedure.statements
                    if getattr(nested.planned, "root", None) is not None
                ]
    return roots


@pytest.mark.parametrize("name", BROWSE_SEEKS)
def test_cache_seeks_are_not_filtered_again_on_their_key(shopping_run, name):
    _, cache = shopping_run
    nodes = [node for root in procedure_roots(cache.server, name) for node in root.walk()]
    assert any(isinstance(node, IndexSeekOp) for node in nodes), name
    assert not [
        node
        for node in nodes
        if isinstance(node, FilterOp) and isinstance(node.children[0], IndexSeekOp)
    ]


def test_get_cart_cost_follows_the_cart_not_the_table():
    """One 2-line cart among 500 lines of other carts: the backend reads
    the cart's lines by key, not the whole table."""
    backend, config = build_backend(TPCWConfig(num_items=60, num_ebs=SESSIONS))
    _, (cache,) = enable_caching(backend, ["cache1"], config)
    others = [(cart, item, 1) for cart in range(1000, 1100) for item in range(1, 6)]
    backend.database("tpcw").bulk_load("shopping_cart_line", others + [(1, 3, 2), (1, 7, 1)])

    before = backend.total_work.rows_processed
    rows = cache.execute("EXEC getCart @sc_id = @c", params={"c": 1}).rows
    assert sorted((row[0], row[5]) for row in rows) == [(3, 2), (7, 1)]
    assert backend.total_work.rows_processed - before < 30
