"""Merge join operator and planner selection tests."""

from itertools import chain

from repro.common.schema import Column, Schema
from repro.common.types import INT, VARCHAR
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler
from repro.exec.operators import MergeJoinOp, ValuesOp
from repro.sql import parse_expression


def values_op(qualifier, pairs):
    schema = Schema(
        [Column("k", INT, qualifier=qualifier), Column("v", VARCHAR(10), qualifier=qualifier)]
    )
    blank = ExpressionCompiler(Schema(()))
    makers = [
        [
            blank.compile(parse_expression(str(k))),
            blank.compile(parse_expression(f"'{v}'")),
        ]
        for k, v in pairs
    ]
    return ValuesOp(schema, makers)


def run_merge(left_pairs, right_pairs, residual_text=None):
    left = values_op("l", left_pairs)
    right = values_op("r", right_pairs)
    left_key = ExpressionCompiler(left.schema).compile(parse_expression("l.k"))
    right_key = ExpressionCompiler(right.schema).compile(parse_expression("r.k"))
    residual = None
    if residual_text:
        residual = ExpressionCompiler(left.schema.concat(right.schema)).compile(
            parse_expression(residual_text)
        )
    return rows_of(MergeJoinOp(left, right, [left_key], [right_key], residual))


def rows_of(op):
    return list(chain.from_iterable(op.execute_batches(ExecutionContext())))


class TestMergeJoinOperator:
    def test_basic_match(self):
        rows = run_merge([(1, "a"), (2, "b")], [(2, "x"), (3, "y")])
        assert rows == [(2, "b", 2, "x")]

    def test_unsorted_inputs_are_sorted_internally(self):
        rows = run_merge([(3, "c"), (1, "a"), (2, "b")], [(2, "x"), (1, "w")])
        keys = [row[0] for row in rows]
        assert keys == [1, 2]

    def test_duplicate_groups_cross_product(self):
        rows = run_merge([(1, "a"), (1, "b")], [(1, "x"), (1, "y"), (1, "z")])
        assert len(rows) == 6

    def test_no_matches(self):
        assert run_merge([(1, "a")], [(2, "x")]) == []

    def test_empty_inputs(self):
        assert run_merge([], [(1, "x")]) == []
        assert run_merge([(1, "a")], []) == []

    def test_residual_filters(self):
        rows = run_merge(
            [(1, "a"), (2, "b")],
            [(1, "a"), (2, "x")],
            residual_text="l.v = r.v",
        )
        assert rows == [(1, "a", 1, "a")]

    def test_null_keys_never_join(self):
        left = values_op("l", [(1, "a")])
        # Build a right side with a NULL key.
        schema = Schema([Column("k", INT, qualifier="r"), Column("v", VARCHAR(10), qualifier="r")])
        blank = ExpressionCompiler(Schema(()))
        right = ValuesOp(
            schema,
            [[blank.compile(parse_expression("NULL")), blank.compile(parse_expression("'x'"))]],
        )
        left_key = ExpressionCompiler(left.schema).compile(parse_expression("l.k"))
        right_key = ExpressionCompiler(right.schema).compile(parse_expression("r.k"))
        op = MergeJoinOp(left, right, [left_key], [right_key])
        assert rows_of(op) == []


class TestPlannerSelection:
    def test_merge_join_chosen_when_hash_is_expensive(self):
        """With a punishing hash cost the planner must switch to merge and
        still return identical results."""
        from repro import Server
        from repro.optimizer.cost import CostModel
        from repro.exec.operators import HashJoinOp

        def build(cost_model):
            server = Server("s", cost_model=cost_model)
            server.create_database("db")
            server.execute("CREATE TABLE a (id INT PRIMARY KEY, tag VARCHAR(10))")
            server.execute("CREATE TABLE b (bid INT PRIMARY KEY, tag VARCHAR(10))")
            database = server.database("db")
            database.bulk_load("a", [(i, f"t{i % 7}") for i in range(1, 101)])
            database.bulk_load("b", [(i, f"t{i % 7}") for i in range(1, 101)])
            database.analyze_all()
            return server

        sql = "SELECT a.id, b.bid FROM a JOIN b ON a.tag = b.tag ORDER BY a.id, b.bid"

        normal = build(CostModel())
        expensive_hash = build(CostModel(hash_join_row=1000.0))

        from repro.sql import parse

        normal_plan = normal.plan_select(parse(sql), normal.database("db"))
        merge_plan = expensive_hash.plan_select(parse(sql), expensive_hash.database("db"))
        assert any(isinstance(n, HashJoinOp) for n in normal_plan.root.walk())
        assert any(isinstance(n, MergeJoinOp) for n in merge_plan.root.walk())

        assert (
            normal.execute(sql).rows == expensive_hash.execute(sql).rows
        )
        assert len(normal.execute(sql).rows) > 0

    def test_merge_join_keys_meet_in_one_stored_form(self):
        """A string against a DATE, a DATE against a DATETIME and a BIT
        against an INT: the merge join matches what the comparison rule
        matches, as the reference evaluator does."""
        import datetime

        from repro import Server
        from repro.exec.reference import evaluate_select
        from repro.optimizer.cost import CostModel
        from repro.sql import parse

        server = Server("s", cost_model=CostModel(hash_join_row=1000.0))
        server.create_database("db")
        server.execute("CREATE TABLE a (id INT PRIMARY KEY, d DATE, flag BIT)")
        server.execute(
            "CREATE TABLE b (bid INT PRIMARY KEY, ds VARCHAR(20), ts DATETIME, n INT)"
        )
        database = server.database("db")
        day = datetime.date(2020, 1, 1)
        database.bulk_load(
            "a",
            [(i, day + datetime.timedelta(days=i), i % 2 == 0) for i in range(1, 41)],
        )
        database.bulk_load(
            "b",
            [
                (
                    i,
                    str(day + datetime.timedelta(days=i % 20)),
                    datetime.datetime(2020, 1, 1 + i % 20, 6 * (i % 2)),
                    i % 3,
                )
                for i in range(1, 41)
            ],
        )
        database.analyze_all()
        for on in ("a.d = b.ds", "b.ts = a.d", "a.flag = b.n"):
            sql = f"SELECT a.id, b.bid FROM a JOIN b ON {on}"
            planned = server.plan_select(parse(sql), database)
            assert any(isinstance(n, MergeJoinOp) for n in planned.root.walk()), on
            expected = sorted(evaluate_select(database, parse(sql), {})[1])
            assert expected, on
            assert sorted(server.execute(sql).rows) == expected, on
