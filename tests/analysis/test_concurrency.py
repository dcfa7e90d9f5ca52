"""Concurrency lint pack: the repo is clean, mutations are caught."""

from __future__ import annotations

import threading
from textwrap import dedent

from repro.analysis.concurrency import analyze_lock_order, verify_witness
from repro.analysis.concurrency.atomicity import (
    check_lock_plans,
    check_rebalance_protocol,
    check_statement_coverage,
)
from repro.analysis.concurrency.model import (
    LEVEL_LATCH,
    LEVEL_LEAF,
    LEVEL_OUTER,
    LEVEL_TABLE,
    allowed_edge,
    find_cycle,
)
from repro.analysis.shardlint import (
    check_partitioner,
    check_partitioner_domain,
    lint_sharding_policy,
)
from repro.common.witness import Witness, WitnessedLock, lock_class
from repro.engine.locks import LockMode, LockPlan
from repro.sharding.policy import ShardingPolicy, TablePartition, tpcw_sharding_policy
from repro.sharding.ring import RangePartitioner
from repro.sql import ast as sqlast
from repro.tpcw import TPCWConfig


def _rules(diagnostics):
    return [d.rule for d in diagnostics]


# -- the repository itself is clean -----------------------------------------


def test_repository_lock_order_is_clean():
    report = analyze_lock_order()
    assert report.errors == []
    # The graph is non-trivial: the analyzer actually found the engine's
    # latch and table classes and at least the latch -> table edge.
    keys = set(report.classes)
    assert "latch" in keys and "table" in keys
    assert ("latch", "table") in report.edges


def test_statement_coverage_is_complete():
    assert check_statement_coverage() == []


def test_rebalance_protocol_of_real_deployment_is_clean():
    assert check_rebalance_protocol() == []


def test_tpcw_sharding_policy_partitioners_tile_the_domain():
    assert check_partitioner_domain(tpcw_sharding_policy(TPCWConfig())) == []


# -- modeled hierarchy ------------------------------------------------------


class TestModel:
    def test_descending_edges_are_legal(self):
        assert allowed_edge(LEVEL_OUTER, LEVEL_LATCH, False, False)
        assert allowed_edge(LEVEL_LATCH, LEVEL_TABLE, False, False)
        assert allowed_edge(LEVEL_TABLE, LEVEL_LEAF, False, False)

    def test_ascending_edges_are_illegal(self):
        assert not allowed_edge(LEVEL_LEAF, LEVEL_LATCH, False, False)
        assert not allowed_edge(LEVEL_TABLE, LEVEL_LATCH, False, False)

    def test_sideways_edges_are_locally_legal(self):
        assert allowed_edge(LEVEL_LEAF, LEVEL_LEAF, False, False)

    def test_same_class_requires_intra_class_order(self):
        assert not allowed_edge(LEVEL_TABLE, LEVEL_TABLE, True, False)
        assert allowed_edge(LEVEL_TABLE, LEVEL_TABLE, True, True)

    def test_find_cycle_reports_a_two_node_cycle(self):
        cycle = find_cycle([("a", "b"), ("b", "a")])
        assert cycle is not None
        assert set(cycle) == {"a", "b"}

    def test_find_cycle_clean_on_a_dag(self):
        assert find_cycle([("a", "b"), ("b", "c"), ("a", "c")]) is None

    def test_ordered_self_loop_is_sanctioned(self):
        assert find_cycle([("table", "table")], ordered_classes=["table"]) is None
        assert find_cycle([("pool", "pool")]) == ["pool", "pool"]


# -- runtime witness verification -------------------------------------------


def _synthetic_witness(classes, edges):
    witness = Witness()
    witness.key_levels.update(classes)
    for edge in edges:
        witness.edges[edge] = witness.edges.get(edge, 0) + 1
    return witness


class TestVerifyWitness:
    def test_clean_descending_graph_verifies(self):
        witness = Witness()
        outer = WitnessedLock(
            threading.Lock(), lock_class("vw-outer", LEVEL_OUTER), witness=witness
        )
        leaf = WitnessedLock(
            threading.Lock(), lock_class("vw-leaf", LEVEL_LEAF), witness=witness
        )
        with outer:
            with leaf:
                pass
        assert verify_witness(witness) == []

    def test_recorded_violations_become_errors(self):
        witness = Witness()
        latch = WitnessedLock(
            threading.Lock(), lock_class("vw-latch", LEVEL_LATCH), witness=witness
        )
        leaf = WitnessedLock(
            threading.Lock(), lock_class("vw-leaf2", LEVEL_LEAF), witness=witness
        )
        with leaf:
            with latch:
                pass
        rules = _rules(verify_witness(witness))
        assert "lock-order-inversion" in rules
        # The inverted edge is also outside the modeled hierarchy.
        assert "witness-hierarchy" in rules

    def test_upward_edge_without_violation_is_still_flagged(self):
        # A hand-built graph (no violations list): the subgraph check
        # alone must reject the upward edge.
        witness = _synthetic_witness(
            {"leafish": (LEVEL_LEAF, False), "latchish": (LEVEL_LATCH, False)},
            [("leafish", "latchish")],
        )
        assert _rules(verify_witness(witness)) == ["witness-hierarchy"]

    def test_sideways_cycle_is_flagged(self):
        witness = _synthetic_witness(
            {"x": (LEVEL_LEAF, False), "y": (LEVEL_LEAF, False)},
            [("x", "y"), ("y", "x")],
        )
        assert _rules(verify_witness(witness)) == ["witness-cycle"]

    def test_ordered_self_edge_verifies(self):
        witness = _synthetic_witness(
            {"tablesort": (LEVEL_TABLE, True)}, [("tablesort", "tablesort")]
        )
        assert verify_witness(witness) == []


# -- atomicity: statement coverage mutations --------------------------------


class FancyMerge(sqlast.Statement):
    """A statement class the lock planner knows nothing about."""


def test_unclassified_statement_flagged():
    diagnostics = check_statement_coverage(statements=[FancyMerge])
    assert _rules(diagnostics) == ["unclassified-statement"]
    assert "FancyMerge" in diagnostics[0].message


# -- atomicity: lock-plan coverage against a live catalog -------------------


def _shop_with_procedures(backend):
    backend.execute(
        """
        CREATE PROCEDURE markShipped @oid INT AS
        BEGIN
            UPDATE orders SET status = 'SHIPPED' WHERE oid = @oid
        END;
        CREATE PROCEDURE getOrder @oid INT AS
        BEGIN
            SELECT oid, total FROM orders WHERE oid = @oid
        END
        """
    )
    return backend.database("shop")


def test_real_lock_plans_cover_the_shop_catalog(backend):
    database = _shop_with_procedures(backend)
    assert check_lock_plans(database, "shop") == []


def test_missing_plans_reported_per_table_and_procedure(backend):
    database = _shop_with_procedures(backend)
    diagnostics = check_lock_plans(database, "shop", lock_plan=lambda s, c: None)
    rules = set(_rules(diagnostics))
    # The writing procedure loses its exclusive EXEC span; the read-only
    # procedure's SELECT and the synthetic per-table DML lose coverage.
    assert rules == {"exec-span", "missing-table-lock"}
    messages = " ".join(d.message for d in diagnostics)
    assert "markShipped" in messages


def test_shared_lock_on_a_write_is_insufficient(backend):
    from repro.analysis.concurrency.atomicity import _walk_table_names

    database = _shop_with_procedures(backend)

    def weak_plan(statement, catalog):
        tables = sorted(
            {name.object_name.lower() for name in _walk_table_names(statement)}
        )
        return LockPlan(
            latch=LockMode.SHARED,
            tables=tuple((table, LockMode.SHARED) for table in tables),
        )

    diagnostics = check_lock_plans(database, "shop", lock_plan=weak_plan)
    # Writing procedures demand an exclusive latch span; the synthetic
    # DML needs exclusive table locks, SHARED is not enough.
    assert set(_rules(diagnostics)) == {"exec-span", "missing-table-lock"}


# -- atomicity: rebalance protocol over source text -------------------------


def test_undrained_rebalance_flagged():
    source = dedent(
        """
        class Deployment:
            def add_shard(self, name):
                keep, give = self.partitioner.plan_split("s0")
                self.partitioner.set_slice("s0", *keep)
                self.deployment.sync()
        """
    )
    assert _rules(check_rebalance_protocol(source)) == ["rebalance-drain"]


def test_torn_boundary_move_flagged():
    source = dedent(
        """
        class Deployment:
            def move_boundary(self, left, right, cut):
                self.deployment.sync()
                self.partitioner.set_slice(left, 0, cut)
                self.partitioner.set_slice(right, cut + 1, 100)
        """
    )
    assert _rules(check_rebalance_protocol(source)) == ["boundary-move-window"]


def test_drained_single_mutation_is_clean():
    source = dedent(
        """
        class Deployment:
            def move_boundary(self, left, right, cut):
                self.deployment.sync()
                self.partitioner.move_boundary(left, right, cut)
        """
    )
    assert check_rebalance_protocol(source) == []


# -- sharding policy lint ----------------------------------------------------


def _policy(**overrides):
    base = dict(
        key_domain=(1, 100),
        partitions={"customer": TablePartition(table="customer", key_column="cid")},
        views=["CREATE CACHED VIEW CustomerSlice AS SELECT cid, cname FROM customer"],
    )
    base.update(overrides)
    return ShardingPolicy(**base)


def test_well_formed_policy_is_clean(backend):
    assert lint_sharding_policy(_policy(), backend.database("shop").catalog) == []


def test_policy_with_unknown_table_flagged(backend):
    catalog = backend.database("shop").catalog
    policy = _policy(
        partitions={"ghost": TablePartition(table="ghost", key_column="gid")}
    )
    assert "shard-partition-table" in _rules(lint_sharding_policy(policy, catalog))


def test_policy_with_unknown_key_column_flagged(backend):
    catalog = backend.database("shop").catalog
    policy = _policy(
        partitions={
            "customer": TablePartition(table="customer", key_column="not_a_column")
        }
    )
    assert "shard-partition-key" in _rules(lint_sharding_policy(policy, catalog))


# -- partitioner geometry ----------------------------------------------------


def test_partitioner_tiles_after_moves():
    partitioner = RangePartitioner(["a", "b", "c"], 1, 99)
    partitioner.move_boundary("a", "b", partitioner.slice("a")[1] + 5)
    assert check_partitioner(partitioner) == []


def test_partitioner_gap_flagged():
    partitioner = RangePartitioner(["a", "b"], 1, 100)
    low, high = partitioner.slice("a")
    partitioner.set_slice("a", low, high - 3)  # leaves a hole before b
    assert _rules(check_partitioner(partitioner)) == ["shard-domain-coverage"]


def test_partitioner_overlap_flagged():
    partitioner = RangePartitioner(["a", "b"], 1, 100)
    low, high = partitioner.slice("a")
    partitioner.set_slice("a", low, high + 3)  # bleeds into b
    assert _rules(check_partitioner(partitioner)) == ["shard-domain-overlap"]
