"""``python -m repro analyze`` — run the static-analysis passes.

Four passes (all by default, each opt-in via flag):

* ``--self``        — the repo-specific AST lint pack over ``repro``'s
  own source (:mod:`repro.analysis.selflint`);
* ``--workload``    — the workload SQL lint over the full TPC-W
  procedure set, the MTCache cached-view DDL, the generated shadow/grant
  deployment scripts (:mod:`repro.analysis.sqllint`), and the sharding
  policy lint, followed by the route table the sharded tier derives from
  the catalog (:mod:`repro.analysis.shardlint`);
* ``--plans``       — the plan-invariant verifier over every SELECT the
  optimizer produces for the TPC-W procedures, on both the backend and
  a provisioned cache server (:mod:`repro.analysis.plancheck`);
* ``--concurrency`` — the whole-program concurrency lint
  (:mod:`repro.analysis.concurrency`): the static lock-order analyzer,
  the atomicity checker over the provisioned corpus, and — when a
  witness is active — the observed-graph subgraph check.

``--concurrency`` additionally accepts ``--path DIR`` to run the static
passes over an out-of-tree source tree instead of the installed package
(no corpus is built); the seeded-violation fixtures under
``tests/fixtures/concurrency/`` are exercised this way.

Exit status is 1 when any error-severity diagnostic is reported.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.errors import AnalysisError


def _print(pass_name: str, diagnostics: List[AnalysisError]) -> int:
    errors = 0
    for diagnostic in diagnostics:
        print(f"{pass_name}: {diagnostic.severity}: {diagnostic}")
        if diagnostic.is_error:
            errors += 1
    return errors


def _build_corpus():
    from repro.tpcw import TPCWConfig, build_backend, enable_caching

    backend, config = build_backend(TPCWConfig(num_items=50, num_ebs=10))
    deployment, caches = enable_caching(backend, ["cache1"], config)
    deployment.sync()
    return backend, caches[0], config


def _self_pass() -> int:
    from repro.analysis.selflint import lint_package

    diagnostics = lint_package()
    errors = _print("self", diagnostics)
    print(f"self: {len(diagnostics)} diagnostic(s)")
    return errors


def _workload_pass(backend, cache, config) -> int:
    from repro.analysis.shardlint import lint_sharding_policy, route_table
    from repro.analysis.sqllint import SqlLinter, lint_workload
    from repro.mtcache.scripts import generate_grant_script, generate_shadow_script
    from repro.sharding.policy import tpcw_sharding_policy
    from repro.tpcw.setup import CACHED_VIEW_DDL, DATABASE_NAME

    catalog = backend.databases[DATABASE_NAME].catalog
    diagnostics = lint_workload(
        backend.databases[DATABASE_NAME],
        scripts={"cached-view-ddl": ";".join(CACHED_VIEW_DDL)},
    )
    diagnostics += lint_workload(cache.database)
    policy = tpcw_sharding_policy(config)
    diagnostics += lint_sharding_policy(policy, catalog)
    # The generated deployment scripts run against an initially empty
    # shadow database, so they lint with no base catalog: the script's
    # own CREATE TABLEs must carry the later CREATE INDEX / GRANT lines.
    empty = SqlLinter(None)
    diagnostics += empty.lint_sql(generate_shadow_script(catalog), "shadow-script")
    diagnostics += empty.lint_sql(generate_grant_script(catalog), "grant-script")
    errors = _print("workload", diagnostics)
    print(f"workload: {len(diagnostics)} diagnostic(s)")
    for line in route_table(policy, catalog):
        print(f"workload: shard route: {line}")
    return errors


def _plans_pass(backend, cache) -> int:
    from repro.analysis.plancheck import verify_plan
    from repro.sql import ast
    from repro.tpcw.setup import DATABASE_NAME

    errors = 0
    planned_count = 0
    for server in (backend, cache.server):
        database = server.databases[DATABASE_NAME]
        for procedure in database.catalog.procedures.values():
            pending = list(procedure.body)
            while pending:
                statement = pending.pop()
                if isinstance(statement, ast.Select):
                    planned = server.plan_select(statement, database)
                    diagnostics = verify_plan(planned, database=database)
                    planned_count += 1
                    errors += _print(
                        f"plans[{server.name}:{procedure.name}]", diagnostics
                    )
                elif isinstance(statement, ast.IfStatement):
                    pending.extend(statement.then_body)
                    pending.extend(statement.else_body)
                elif isinstance(statement, ast.WhileStatement):
                    pending.extend(statement.body)
    print(f"plans: {planned_count} plan(s) verified on backend and cache")
    return errors


def _concurrency_pass(backend, cache, path: Optional[str] = None) -> int:
    from repro.analysis.concurrency import (
        analyze_lock_order,
        check_atomicity,
        verify_witness,
    )
    from repro.analysis.concurrency.atomicity import check_rebalance_protocol

    report = analyze_lock_order(root=path)
    errors = _print("concurrency[lock-order]", report.diagnostics)
    print(
        f"concurrency: lock graph has {len(report.classes)} class(es), "
        f"{len(report.edges)} edge(s)"
    )
    if path is not None:
        # Out-of-tree mode: the corpus-driven atomicity rules need a
        # provisioned server, but the rebalance protocol rules are
        # static — run them over any deployment-named module in the tree.
        for directory, _, names in os.walk(path):
            for name in sorted(names):
                if "deployment" in name and name.endswith(".py"):
                    with open(os.path.join(directory, name), "r", encoding="utf-8") as f:
                        errors += _print(
                            "concurrency[rebalance]", check_rebalance_protocol(f.read())
                        )
        return errors
    diagnostics = check_atomicity(backend, cache)
    errors += _print("concurrency[atomicity]", diagnostics)
    errors += _print("concurrency[witness]", verify_witness())
    return errors


def run_analyze(
    self_lint: bool = False,
    workload: bool = False,
    plans: bool = False,
    concurrency: bool = False,
    path: Optional[str] = None,
) -> int:
    """Run the selected passes (all four when none is selected)."""
    if not (self_lint or workload or plans or concurrency):
        self_lint = workload = plans = concurrency = True
    errors = 0
    if self_lint:
        errors += _self_pass()
    backend = cache = config = None
    if workload or plans or (concurrency and path is None):
        backend, cache, config = _build_corpus()
    if workload:
        errors += _workload_pass(backend, cache, config)
    if plans:
        errors += _plans_pass(backend, cache)
    if concurrency:
        errors += _concurrency_pass(backend, cache, path)
    if errors:
        print(f"analyze: {errors} error(s)")
        return 1
    print("analyze: clean")
    return 0
