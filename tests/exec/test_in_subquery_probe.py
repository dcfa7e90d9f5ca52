"""``IN (subquery)`` by set probe answers exactly as the linear scan.

The compiled predicate probes a membership structure the execution
context builds once per execution; the definition of the predicate is a
``sql_equal`` scan of the subquery's rows, restated here as the oracle.
Every combination of candidates and probe — one family, mixed families,
NULLs on either side, nothing at all, dates against ISO strings, a string
probed into numbers — must give the oracle's answer or raise what it
raises, on one row and on a chunk. The oracle is restated here and
checked against ``in_subquery_linear``, the engine's own definition.
"""

from __future__ import annotations

import datetime

import pytest

from repro import Server
from repro.errors import TypeCheckError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler, evaluate, in_subquery_linear, sql_equal
from repro.sql import ast, parse
from repro.tpcw import TPCWConfig, build_backend, enable_caching

NAN = float("nan")

CANDIDATES = {
    "empty": [],
    "only-null": [None],
    "ints": [1, 2, 3],
    "ints+null": [1, None, 3],
    "floats": [1.0, 2.5],
    "1/1.0/TRUE": [1, 1.0, True],
    "bools": [True, False],
    "big": [2**53 + 1, float(2**53)],
    "strings": ["a", "b"],
    "strings+null": ["a", None],
    "numbers+strings": [1, "a"],
    "dates": [datetime.date(2020, 1, 2), datetime.date(2020, 1, 3)],
    "iso-strings": ["2020-01-02", "2020-01-03"],
    "nan": [NAN, 1.0],
}

PROBES = [
    None, 0, 1, 2, 4, 1.0, 2.5, 0.5, True, False, float(2**53 + 1), 2**53, NAN,
    "a", "c", "1", "2020-01-02", datetime.date(2020, 1, 2), datetime.date(2021, 1, 1),
    datetime.datetime(2020, 1, 2, 0, 0),
]  # fmt: skip


def oracle(value, candidates, negated):
    """``value [NOT] IN candidates`` by definition: a ``sql_equal`` scan."""
    if value is None:
        return None
    seen_null = False
    for candidate in candidates:
        if candidate is None:
            seen_null = True
        elif sql_equal(value, candidate) is True:
            return not negated
    if seen_null:
        return None
    return negated


def outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)


SUBQUERY = parse("SELECT a FROM t")


@pytest.mark.parametrize("negated", [False, True], ids=["IN", "NOT IN"])
@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_probe_matches_the_linear_scan(name, negated):
    candidates = CANDIDATES[name]
    rows = [(candidate,) for candidate in candidates]
    predicate = ExpressionCompiler().compile(
        ast.InSubquery(ast.Parameter("p"), SUBQUERY, negated)
    )
    for value in PROBES:
        expected = outcome(lambda: oracle(value, candidates, negated))
        if value is not None:
            assert outcome(lambda: in_subquery_linear(value, rows, negated)) == expected
        ctx = ExecutionContext(params={"p": value}, subquery_executor=lambda s, p: rows)
        assert outcome(lambda: evaluate(predicate, ctx)) == expected, (name, value)
        ctx = ExecutionContext(params={"p": value}, subquery_executor=lambda s, p: rows)
        assert outcome(lambda: predicate([(), ()], ctx)) == (
            expected if isinstance(expected, type) else [expected, expected]
        ), (name, value)


def test_the_subquery_runs_once_per_execution_and_not_for_null_probes():
    runs = []

    def executor(select, params):
        runs.append(select)
        return [(1,), (2,)]

    from repro.common.schema import Column, Schema
    from repro.common.types import INT

    predicate = ExpressionCompiler(Schema([Column("x", INT)])).compile(
        ast.InSubquery(ast.ColumnRef("x"), SUBQUERY, False)
    )
    ctx = ExecutionContext(subquery_executor=executor)
    assert predicate([(None,), (None,)], ctx) == [None, None]
    assert runs == []
    assert predicate([(1,), (5,), (None,)], ctx) == [True, False, None]
    assert [evaluate(predicate, ctx, (value,)) for value in (2, 3)] == [True, False]
    assert len(runs) == 1


@pytest.fixture(scope="module")
def typed():
    server = Server("s")
    server.create_database("db")
    server.execute(
        """
        CREATE TABLE n (k INT PRIMARY KEY, i INT, f FLOAT, s VARCHAR(12), d DATE);
        INSERT INTO n VALUES (1, 1, 1.0, 'a', '2020-01-02');
        INSERT INTO n VALUES (2, 2, 2.5, 'b', '2020-01-03');
        INSERT INTO n VALUES (3, NULL, NULL, NULL, NULL);
        INSERT INTO n VALUES (4, 4, 4.0, 'c', '2021-01-01');
        CREATE TABLE iso (s VARCHAR(12));
        INSERT INTO iso VALUES ('2020-01-02');
        INSERT INTO iso VALUES (NULL)
        """
    )
    return server


@pytest.mark.parametrize(
    "probe, subquery, expected",
    [
        ("i", "SELECT i FROM n", [1, 2, 4]),
        ("i", "SELECT f FROM n", [1, 4]),  # 1 = 1.0, 4 = 4.0
        ("f", "SELECT i FROM n", [1, 4]),
        ("s", "SELECT s FROM n", [1, 2, 4]),
        ("d", "SELECT s FROM iso", [1]),  # a date against ISO strings coerces
        ("s", "SELECT i FROM n", TypeCheckError),  # 'x' IN (SELECT int_col ...) still raises
        ("i", "SELECT s FROM n", TypeCheckError),
    ],
)
def test_in_subquery_through_the_engine(typed, probe, subquery, expected):
    sql = f"SELECT k FROM n WHERE {probe} IN ({subquery}) ORDER BY k"
    if isinstance(expected, type):
        with pytest.raises(expected):
            typed.execute(sql)
        return
    assert [row[0] for row in typed.execute(sql).rows] == expected
    # NOT IN over candidates holding a NULL is never TRUE.
    assert typed.execute(f"SELECT k FROM n WHERE {probe} NOT IN ({subquery})").rows == []


def test_best_sellers_is_the_same_on_cache_and_backend():
    config = TPCWConfig(num_items=80, num_ebs=4, seed=13)
    backend, _ = build_backend(config)
    deployment, (cache,) = enable_caching(backend, ["cache1"], config)
    deployment.sync()
    from repro.tpcw.config import SUBJECTS

    answered = 0
    for subject in SUBJECTS:
        params = {"subject": subject}
        rows = backend.execute("EXEC getBestSellers @subject = @subject", params, database="tpcw").rows
        assert cache.execute("EXEC getBestSellers @subject = @subject", params).rows == rows
        answered += bool(rows)
    assert answered
