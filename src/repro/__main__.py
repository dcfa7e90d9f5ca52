"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``     — the quickstart walkthrough (cached views, dynamic plans,
  transparent updates);
* ``scaleout`` — regenerate the paper's Figure 6 and summary table from
  calibrated cluster models;
* ``tpcw``     — run TPC-W traffic against backend and cache and report
  the work split;
* ``metrics``  — drive a short TPC-W workload and print the deployment's
  observability snapshot (metrics, caches, replication lag) as JSON;
* ``analyze``  — run the static-analysis passes (``--self`` AST lint,
  ``--workload`` the engine's bind and the plan verifier over every TPC-W
  procedure, ``--concurrency`` lock-order/atomicity/witness checks; all
  three when no flag is given);
* ``serve``    — boot a TCP network front end (``repro.net``) over a
  TPC-W cache deployment (or a minimal shop backend) and print the
  ``tcp://`` DSN clients dial with ``connect()`` / ``--dsn``.

These wrap the scripts under ``examples/`` so the package is runnable
after installation without a source checkout.
"""

from __future__ import annotations

import argparse
import sys


def _demo() -> None:
    from repro import MTCacheDeployment, Server

    backend = Server("backend")
    backend.create_database("shop")
    backend.execute(
        "CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40) NOT NULL)"
    )
    shop = backend.database("shop")
    shop.bulk_load("customer", [(i, f"cust{i}") for i in range(1, 2001)])
    shop.analyze_all()

    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW Cust1000 AS "
        "SELECT cid, cname FROM customer WHERE cid <= 1000"
    )
    query = "SELECT cid, cname FROM customer WHERE cid <= @cid"
    print("Dynamic plan (with cost annotations):\n")
    print(cache.plan(query).explain(costs=True))
    print()
    for value in (500, 1500):
        rows = cache.execute(query, params={"cid": value}).rows
        print(f"@cid={value:5d} -> {len(rows)} rows")
    cache.execute("UPDATE customer SET cname = 'RENAMED' WHERE cid = 1")
    deployment.clock.advance(1.0)
    deployment.sync()
    print(
        "after update + sync:",
        cache.execute("SELECT cname FROM Cust1000 WHERE cid = 1").scalar,
    )


def _scaleout() -> None:
    import runpy
    import pathlib

    script = pathlib.Path(__file__).resolve().parents[2] / "examples" / "scaleout_analysis.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return
    # Installed without the examples directory: inline fallback.
    from repro.simulation import ClusterModel, ClusterSpec, calibrate
    from repro.tpcw import TPCWConfig

    config = TPCWConfig(num_items=200, num_ebs=40, bestseller_window=200)
    cached = ClusterModel(calibrate("cached", config, repetitions=6), ClusterSpec())
    for mix in ("Browsing", "Shopping", "Ordering"):
        curve = cached.curve(mix, 5)
        wips = ", ".join(f"{point.wips:.0f}" for point in curve)
        print(f"{mix:10s} WIPS(1..5 servers): {wips}")


def _tpcw() -> None:
    import random

    from repro.mtcache.odbc import OdbcSourceRegistry
    from repro.tpcw import MIXES, TPCWApplication, TPCWConfig, build_backend, enable_caching

    backend, config = build_backend(TPCWConfig(num_items=100, num_ebs=20))
    deployment, caches = enable_caching(backend, ["cache1"], config)
    registry = OdbcSourceRegistry()
    registry.register("tpcw", caches[0].server, "tpcw")
    application = TPCWApplication(registry.connect("tpcw"), config)
    rng = random.Random(1)
    sessions = [application.new_session() for _ in range(8)]
    mix = MIXES["Shopping"]
    backend.reset_work()
    caches[0].server.reset_work()
    for step in range(300):
        application.run(mix.sample(rng), sessions[step % 8])
        deployment.tick(0.02)
    deployment.sync()
    print(f"interactions: 300  db calls: {application.db_calls}")
    print(f"cache work:   {caches[0].server.total_work.rows_processed:,} row touches")
    print(f"backend work: {backend.total_work.rows_processed:,} row touches")
    latency = deployment.average_replication_latency()
    if latency is not None:
        print(f"replication latency: {latency:.2f}s")


def _metrics() -> None:
    import random

    from repro.mtcache.odbc import OdbcSourceRegistry
    from repro.obs.export import deployment_snapshot, to_json
    from repro.tpcw import MIXES, TPCWApplication, TPCWConfig, build_backend, enable_caching

    backend, config = build_backend(TPCWConfig(num_items=100, num_ebs=20))
    deployment, caches = enable_caching(backend, ["cache1"], config)
    registry = OdbcSourceRegistry()
    registry.register("tpcw", caches[0].server, "tpcw")
    application = TPCWApplication(registry.connect("tpcw"), config)
    rng = random.Random(1)
    sessions = [application.new_session() for _ in range(8)]
    mix = MIXES["Shopping"]
    for step in range(150):
        application.run(mix.sample(rng), sessions[step % 8])
        deployment.tick(0.02)
    deployment.sync()
    print(to_json(deployment_snapshot(deployment)))


def _serve(args) -> None:
    import threading
    import time

    from repro.net import ReproServer

    if args.serve_workload == "tpcw":
        from repro.tpcw import TPCWConfig, build_backend, enable_caching

        backend, config = build_backend(TPCWConfig(num_items=args.items, num_ebs=20))
        deployment, caches = enable_caching(backend, ["cache1"], config)
        target = caches[0]
        # Replication needs virtual time to flow while real clients talk
        # over real sockets: a ticker tracks elapsed wall time onto the
        # deployment clock (the ThreadedLoadDriver does the same).
        virtual_start = deployment.clock.now()
        wall_start = time.perf_counter()

        def tick() -> None:
            while True:
                time.sleep(0.05)
                deployment.clock.advance_to(
                    virtual_start + (time.perf_counter() - wall_start)
                )
                deployment.tick()

        threading.Thread(target=tick, name="repro-serve-ticker", daemon=True).start()
    else:  # shop: a bare backend, no cache tier
        from repro import Server

        backend = Server("backend")
        backend.create_database("shop")
        backend.execute(
            "CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40) NOT NULL)"
        )
        shop = backend.database("shop")
        shop.bulk_load("customer", [(i, f"cust{i}") for i in range(1, 1001)])
        shop.analyze_all()
        target = backend

    server = ReproServer.serve(
        target, host=args.host, port=args.port, max_connections=args.max_connections
    )
    # The exact line tests and scripts parse to find the ephemeral port.
    print(f"serving {server.dsn}", flush=True)
    server.serve_forever()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MTCache reproduction (SIGMOD 2003) demos",
    )
    parser.add_argument(
        "command", choices=["demo", "scaleout", "tpcw", "metrics", "analyze", "serve"]
    )
    parser.add_argument(
        "--self",
        dest="self_lint",
        action="store_true",
        help="analyze: run only the repo AST lint pack",
    )
    parser.add_argument(
        "--workload",
        action="store_true",
        help="analyze: run only the workload pass (bind and plan every procedure)",
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="analyze: run only the concurrency lint (lock order, atomicity, witness)",
    )
    parser.add_argument(
        "--path",
        default=None,
        help="analyze --concurrency: static passes over this source tree "
        "instead of the installed package",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="serve: interface to bind"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="serve: port (0 = ephemeral; DSN is printed)"
    )
    parser.add_argument(
        "--serve-workload",
        choices=["tpcw", "shop"],
        default="tpcw",
        help="serve: tpcw cache deployment (default) or a bare shop backend",
    )
    parser.add_argument(
        "--items", type=int, default=100, help="serve: TPC-W item count"
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="serve: accept limit before shedding with OverloadError",
    )
    args = parser.parse_args(argv)
    if args.command == "serve":
        _serve(args)
        return 0
    if args.command == "analyze":
        from repro.analysis.cli import run_analyze

        return run_analyze(
            self_lint=args.self_lint,
            workload=args.workload,
            concurrency=args.concurrency,
            path=args.path,
        )
    {"demo": _demo, "scaleout": _scaleout, "tpcw": _tpcw, "metrics": _metrics}[
        args.command
    ]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
