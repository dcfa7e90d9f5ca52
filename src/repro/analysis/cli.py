"""``python -m repro analyze`` — run the static-analysis passes.

Three passes (all by default, each opt-in via flag):

* ``--self``        — the repo-specific AST lint pack over ``repro``'s
  own source (:mod:`repro.analysis.selflint`);
* ``--workload``    — the engine's own bind (:func:`check_workload`) over
  every TPC-W procedure on the backend and a cache server, each SELECT
  planned under :mod:`repro.analysis.plancheck`; then the sharding-policy
  lint and route table (:mod:`repro.analysis.shardlint`);
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

from repro.errors import AnalysisError, ReproError


def _print(pass_name: str, diagnostics: List[AnalysisError]) -> int:
    errors = 0
    for diagnostic in diagnostics:
        print(f"{pass_name}: {diagnostic.severity}: {diagnostic}")
        if diagnostic.is_error:
            errors += 1
    return errors


def _build_corpus():
    """The TPC-W backend and one cache server: building it executes the
    generated shadow script and the cached-view DDL."""
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


def check_workload(server, database) -> List[AnalysisError]:
    """Bind every procedure of ``database`` as ``server`` binds an
    ``EXEC`` naming all its parameters, then plan each SELECT of the bound
    body (its nested bodies included, by construction) under the plan
    verifier and compile each local DML. The first error a procedure
    raises is reported at ``procedure <name>``."""
    from repro.analysis.plancheck import check_plan
    from repro.engine.binding import bind_statement
    from repro.engine.dml import compile_dml
    from repro.engine.procedures import call_with_every_parameter
    from repro.sql import ast

    optimizer = server.optimizer_for(database)
    diagnostics: List[AnalysisError] = []
    for procedure in database.catalog.procedures.values():
        try:
            bound = bind_statement(call_with_every_parameter(procedure), database).procedure
            assert bound is not None  # a procedure in the catalog binds locally
            for nested in bound.statements:
                if nested.kind in (ast.Insert, ast.Update, ast.Delete) and not nested.forward:
                    compile_dml(database, nested.statement)
                for select in (nested, *nested.children):
                    if select.kind is ast.Select:
                        check_plan(optimizer.plan_select(select.statement), database=database)
        except AnalysisError as exc:  # the plan verifier's
            rule, message = exc.rule, exc.message
        except ReproError as exc:
            rule, message = type(exc).__name__, str(exc)
        else:
            continue
        location = f"procedure {procedure.name}"
        diagnostics.append(AnalysisError(rule, f"{server.name}: {message}", location=location))
    return diagnostics


def _workload_pass(backend, cache, config) -> int:
    from repro.analysis.shardlint import lint_sharding_policy, route_table
    from repro.sharding.policy import tpcw_sharding_policy
    from repro.tpcw.setup import DATABASE_NAME

    diagnostics: List[AnalysisError] = []
    procedures = 0
    for server in (backend, cache.server):
        database = server.databases[DATABASE_NAME]
        diagnostics += check_workload(server, database)
        procedures += len(database.catalog.procedures)
    catalog = backend.databases[DATABASE_NAME].catalog
    policy = tpcw_sharding_policy(config)
    diagnostics += lint_sharding_policy(policy, catalog)
    errors = _print("workload", diagnostics)
    print(f"workload: {procedures} procedure(s) bound and planned on backend and cache")
    print(f"workload: {len(diagnostics)} diagnostic(s)")
    for line in route_table(policy, catalog):
        print(f"workload: shard route: {line}")
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
    concurrency: bool = False,
    path: Optional[str] = None,
) -> int:
    """Run the selected passes (all three when none is selected)."""
    if not (self_lint or workload or concurrency):
        self_lint = workload = concurrency = True
    errors = 0
    if self_lint:
        errors += _self_pass()
    backend = cache = config = None
    if workload or (concurrency and path is None):
        backend, cache, config = _build_corpus()
    if workload:
        errors += _workload_pass(backend, cache, config)
    if concurrency:
        errors += _concurrency_pass(backend, cache, path)
    if errors:
        print(f"analyze: {errors} error(s)")
        return 1
    print("analyze: clean")
    return 0
