"""Sharding-policy lint: verify what the policy *declares*.

A :class:`~repro.sharding.policy.ShardingPolicy` declares placement
only — which cached views the shards hold and which of their source
tables partition on which key — so that is all that can be wrong in
one: a partitioned table or key column the catalog does not have, a
view that does not parse or is not a cached view over one catalog
table, a view over a partitioned table that does not project the
partition key (its slice could not be guarded or re-sliced).
:class:`~repro.sharding.deployment.ShardedDeployment` refuses to
provision from a policy this pass flags. Routing is not declared, so
there is nothing to lint in it; :func:`route_table` prints what
:func:`repro.sharding.routing.decide` derives, so a procedure edit that
changes routing shows in the ``analyze`` log.

:func:`check_partitioner` separately verifies the geometric invariant
routing correctness rests on: a partitioner's slices tile the key domain
exactly — no gaps, no overlaps — after any sequence of rebalance
operations.
"""

from __future__ import annotations

from typing import List

from repro.errors import AnalysisError, CatalogError, ParseError
from repro.sharding.policy import ShardingPolicy, source_table
from repro.sharding.ring import RangePartitioner
from repro.sharding.routing import procedure_routes
from repro.sql import ast as sqlast


def lint_sharding_policy(policy: ShardingPolicy, catalog) -> List[AnalysisError]:
    """Verify every partition and view declaration against the catalog."""
    diagnostics: List[AnalysisError] = []

    for table_key, partition in sorted(policy.partitions.items()):
        where = f"policy.partitions[{table_key!r}]"
        table = catalog.tables.get(partition.table.lower())
        if table is None:
            diagnostics.append(
                AnalysisError(
                    "shard-partition-table",
                    f"partitioned table {partition.table!r} is not in the catalog",
                    location=where,
                )
            )
        elif partition.key_column.lower() not in {
            column.name.lower() for column in table.schema.columns
        }:
            diagnostics.append(
                AnalysisError(
                    "shard-partition-key",
                    f"partition key {partition.key_column!r} is not a column "
                    f"of {partition.table!r}",
                    location=where,
                )
            )

    try:
        views = policy.view_statements
    except (ParseError, CatalogError) as error:
        return diagnostics + [AnalysisError("shard-view", str(error), location="policy.views")]
    for view in views:
        where = f"policy.views[{view.name!r}]"
        table_name = source_table(view)
        if table_name.lower() not in catalog.tables:
            diagnostics.append(
                AnalysisError(
                    "shard-view-table",
                    f"cached view {view.name!r} selects from {table_name!r}, "
                    "which is not in the catalog",
                    location=where,
                )
            )
        partition = policy.partitions.get(table_name.lower())
        if partition is not None and not any(
            isinstance(item.expression, sqlast.Star)
            or (
                isinstance(item.expression, sqlast.ColumnRef)
                and item.expression.name.lower() == partition.key_column.lower()
            )
            for item in view.select.items
        ):
            diagnostics.append(
                AnalysisError(
                    "shard-view-key",
                    f"cached view {view.name!r} slices {table_name!r} but does "
                    f"not project its partition key {partition.key_column!r}",
                    location=where,
                )
            )

    diagnostics += check_partitioner_domain(policy)
    return diagnostics


def route_table(policy: ShardingPolicy, catalog) -> List[str]:
    """The derived route per catalog procedure, one printable line each,
    closing with the set the deployment copies to the shards."""
    routes = procedure_routes(policy, catalog)
    lines = [f"{name} -> {kind}" for name, kind in sorted(routes.items())]
    copied = sorted(name for name, kind in routes.items() if kind != "backend")
    return lines + [f"copied to shards: {', '.join(copied) or '(none)'}"]


def check_partitioner(partitioner: RangePartitioner) -> List[AnalysisError]:
    """Do the slices tile ``[low, high]`` exactly (no gap, no overlap)?"""
    diagnostics: List[AnalysisError] = []
    slices = sorted(
        (partitioner.slice(shard), shard)
        for shard in partitioner.shards
        if partitioner.slice(shard)[0] <= partitioner.slice(shard)[1]
    )
    if not slices:
        return [
            AnalysisError(
                "shard-domain-coverage",
                "partitioner has no non-empty slices; every key is unowned",
            )
        ]
    expected = partitioner.low
    for (low, high), shard in slices:
        if low > expected:
            diagnostics.append(
                AnalysisError(
                    "shard-domain-coverage",
                    f"keys [{expected}, {low - 1}] are owned by no shard "
                    f"(gap before {shard!r})",
                )
            )
        elif low < expected:
            diagnostics.append(
                AnalysisError(
                    "shard-domain-overlap",
                    f"keys [{low}, {min(high, expected - 1)}] have two "
                    f"owners (overlap at {shard!r})",
                )
            )
        expected = max(expected, high + 1)
    if expected <= partitioner.high:
        diagnostics.append(
            AnalysisError(
                "shard-domain-coverage",
                f"keys [{expected}, {partitioner.high}] are owned by no shard "
                "(domain tail uncovered)",
            )
        )
    return diagnostics


def check_partitioner_domain(policy: ShardingPolicy) -> List[AnalysisError]:
    """Exercise partitioner geometry over the policy's key domain.

    Builds throwaway partitioners for 1-4 shards over ``key_domain`` and
    re-checks tiling after a split (``plan_split`` + ``add_shard`` +
    ``set_slice``) and an atomic ``move_boundary`` — the two mutation
    sequences rebalancing performs.
    """
    low, high = policy.key_domain
    diagnostics: List[AnalysisError] = []
    for count in range(1, 5):
        if high - low + 1 < count:
            break
        names = [f"s{i}" for i in range(count)]
        partitioner = RangePartitioner(names, low, high)
        diagnostics += check_partitioner(partitioner)
        donor = partitioner.widest_shard()
        if partitioner.slice(donor)[1] > partitioner.slice(donor)[0]:
            keep, give = partitioner.plan_split(donor)
            partitioner.add_shard("split", *give)
            partitioner.set_slice(donor, *keep)
            diagnostics += check_partitioner(partitioner)
        if count >= 2:
            fresh = RangePartitioner(names, low, high)
            left, right = fresh.shards[0], fresh.shards[1]
            cut = fresh.slice(left)[0] + (fresh.slice(right)[1] - fresh.slice(left)[0]) // 3
            fresh.move_boundary(left, right, cut)
            diagnostics += check_partitioner(fresh)
    return diagnostics
