"""TPC-W storefront: the paper's evaluation scenario in miniature.

Builds the TPC-W bookstore on a backend server, runs Shopping-mix traffic
directly against the backend, then enables MTCache (the paper's caching
strategy: projections of item/author/orders/order_line plus the
read-dominated stored procedures) and *redirects the application's ODBC
source* — no application change — and shows how much database work moved
to the cache tier.

The registry hands out DBAPI-style connections over the source name
(``connection.cursor()`` works the same against either tier, and an open
connection follows a redirect), which is what makes the redirect
invisible to application code.

Run:  python examples/tpcw_storefront.py
"""

import random

from repro.mtcache.odbc import OdbcSourceRegistry
from repro.tpcw import (
    MIXES,
    TPCWApplication,
    TPCWConfig,
    build_backend,
    enable_caching,
)

INTERACTIONS_TO_RUN = 300


def run_traffic(application, deployment=None, seed=7):
    rng = random.Random(seed)
    mix = MIXES["Shopping"]
    sessions = [application.new_session() for _ in range(8)]
    for step in range(INTERACTIONS_TO_RUN):
        application.run(mix.sample(rng), sessions[step % len(sessions)])
        if deployment is not None:
            deployment.tick(0.02)


def main() -> None:
    print("Building TPC-W backend (items, authors, customers, orders)...")
    backend, config = build_backend(TPCWConfig(num_items=200, num_ebs=40))

    registry = OdbcSourceRegistry()
    registry.register("tpcw", backend, "tpcw")

    # --- Phase 1: everything on the backend ---------------------------------
    connection = registry.connect("tpcw")
    application = TPCWApplication(connection, config)
    backend.reset_work()
    run_traffic(application)
    backend_only_work = backend.total_work.rows_processed
    print(f"\nPhase 1 (no cache): {INTERACTIONS_TO_RUN} Shopping interactions")
    print(f"  backend work: {backend_only_work:,} row touches")
    print(f"  db calls:     {application.db_calls}")

    # --- Phase 2: enable MTCache, redirect the DSN ---------------------------
    print("\nEnabling MTCache (cached views + copied procedures)...")
    deployment, caches = enable_caching(backend, ["cache1"], config)
    registry.redirect("tpcw", caches[0].server, "tpcw")

    # The connection already open follows the redirect on its next
    # statement: the app code did not change and did not reconnect.
    application = TPCWApplication(connection, config)
    backend.reset_work()
    caches[0].server.reset_work()
    run_traffic(application, deployment)
    deployment.sync()

    backend_work = backend.total_work.rows_processed
    cache_work = caches[0].server.total_work.rows_processed
    print(f"\nPhase 2 (MTCache): same traffic through cache server")
    print(f"  backend work: {backend_work:,} row touches")
    print(f"  cache work:   {cache_work:,} row touches")
    offloaded = 1.0 - backend_work / max(1, backend_only_work)
    print(f"  backend load reduced by {offloaded:.0%}")
    latency = deployment.average_replication_latency()
    if latency is not None:
        print(f"  average replication latency: {latency:.2f}s")

    # --- The same cursor code works against either tier ----------------------
    cursor = registry.connect("tpcw").cursor()
    cursor.execute("SELECT i_title FROM item WHERE i_id = @id", {"id": 1})
    print("\nDBAPI cursor through the redirected source:", cursor.fetchone()[0])

    # --- Show a plan: the bestseller query runs on cached views --------------
    print("\nBestseller query plan on the cache server:")
    plan = caches[0].plan(
        "SELECT TOP 10 i.i_id, i.i_title, SUM(ol.ol_qty) AS sold "
        "FROM item i, order_line ol "
        "WHERE i.i_id = ol.ol_i_id AND i.i_subject = 'HISTORY' "
        "AND ol.ol_o_id IN (SELECT TOP 200 o_id FROM orders ORDER BY o_date DESC) "
        "GROUP BY i.i_id, i.i_title ORDER BY sold DESC"
    )
    print(plan.explain())


if __name__ == "__main__":
    main()
