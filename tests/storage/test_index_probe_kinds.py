"""An index answers what a scan answers, whatever kind of value probes it.

Table ``t`` carries an index on each column; its twin ``u`` holds the
same rows and no index. Every query runs on both — through an index
seek, range scan, lookup join or DML narrowing on ``t``, by a scan of
``u`` — and on the reference evaluator. The probes are values whose
Python type is not the column's stored one but which the comparison rule
accepts: a bool against INT or FLOAT, an int against FLOAT or BIT, a
float holding an integer (or not) against INT, an ISO string or a
datetime against DATE, a date or an ISO string against DATETIME — and
NULL, against columns that store NULLs: an index keeps NULL keys, and
an exact seek, which is not filtered again on its key, must still find
no row for ``= NULL``.
"""

from __future__ import annotations

import datetime

import pytest

from repro import Server
from repro.exec.operators import IndexLookupJoinOp, IndexRangeScanOp, IndexSeekOp
from repro.exec.reference import evaluate_select
from repro.sql import parse

ROWS = 2000
DAY0 = datetime.date(2020, 1, 1)
COLUMNS = "id INT{pk}, d DATE, ts DATETIME, f FLOAT, flag BIT, v INT, n1 INT, h INT, n2 INT"


def stored_row(i: int):
    """Row ``i``: day ``DAY0 + i``; ``ts`` is that day's midnight for even
    ``i`` and 06:00 for odd ``i``; ``flag`` is set on every 100th row.
    ``n1`` is NULL on every 5th row, ``n2`` on every 3rd; ``h`` is
    ``i % 10``."""
    day = DAY0 + datetime.timedelta(days=i)
    moment = datetime.datetime(day.year, day.month, day.day, 0 if i % 2 == 0 else 6)
    n1 = None if i % 5 == 0 else i % 50
    n2 = None if i % 3 == 0 else i % 7
    return (i, day, moment, float(i), i % 100 == 0, i, n1, i % 10, n2)


def build() -> Server:
    server = Server("probes")
    server.create_database("db")
    server.execute(
        f"""
        CREATE TABLE t ({COLUMNS.format(pk=" PRIMARY KEY")});
        CREATE INDEX ix_d ON t (d);
        CREATE INDEX ix_ts ON t (ts);
        CREATE INDEX ix_f ON t (f);
        CREATE INDEX ix_flag ON t (flag);
        CREATE INDEX ix_n1 ON t (n1);
        CREATE INDEX ix_h_n2_v ON t (h, n2, v);
        CREATE TABLE u ({COLUMNS.format(pk="")});
        CREATE TABLE l (k INT PRIMARY KEY, kb BIT, kf FLOAT, ks VARCHAR(20), kts DATETIME);
        """,
        database="db",
    )
    database = server.database("db")
    rows = [stored_row(i) for i in range(1, ROWS + 1)]
    database.bulk_load("t", rows)
    database.bulk_load("u", rows)
    database.bulk_load(
        "l",
        [
            (1, True, 2.0, "2020-01-04", datetime.datetime(2020, 1, 4)),
            (2, False, 2.5, "2020-01-06", datetime.datetime(2020, 1, 6, 6)),
            (3, None, None, None, None),
        ],
    )
    database.analyze_all()
    return server


@pytest.fixture(scope="module")
def shared():
    return build()


def index_ops(server: Server, sql: str):
    planned = server.plan_select(parse(sql), server.database("db"))
    kinds = (IndexSeekOp, IndexRangeScanOp, IndexLookupJoinOp)
    return [op for op in planned.root.walk() if isinstance(op, kinds)]


def answers(server: Server, template: str, params):
    """``template`` on ``t`` and on ``u``, and the reference's answer."""
    indexed, twin = template.format(t="t"), template.format(t="u")
    assert index_ops(server, indexed), f"no index access path for {indexed}"
    assert not index_ops(server, twin)
    run = lambda sql: sorted(server.execute(sql, params, database="db").rows)  # noqa: E731
    expected = sorted(evaluate_select(server.database("db"), parse(indexed), params)[1])
    return run(indexed), run(twin), expected


def case_ids(cases):
    """``UPDATE id = @p~True``: the statement's verb, its predicate, the probe."""
    return [f"{t.split()[0]} {t.split('WHERE ')[1]}~{p!r}" for t, p in cases]


MIDNIGHT_3 = datetime.datetime(2020, 1, 3)
MORNING_3 = datetime.datetime(2020, 1, 3, 6)

POINT = [
    ("SELECT id FROM {t} WHERE id = @p", True),
    ("SELECT id FROM {t} WHERE id = @p", 2.0),
    ("SELECT id FROM {t} WHERE id = @p", 2.5),
    ("SELECT id FROM {t} WHERE id = @p", None),
    ("SELECT id FROM {t} WHERE f = @p", 3),
    ("SELECT id FROM {t} WHERE f = @p", True),
    ("SELECT id FROM {t} WHERE flag = @p", 1),
    ("SELECT id FROM {t} WHERE d = @p", "2020-01-02"),
    ("SELECT id FROM {t} WHERE d = @p", MIDNIGHT_3),
    ("SELECT id FROM {t} WHERE d = @p", MORNING_3),
    ("SELECT id FROM {t} WHERE d = @p", None),
    ("SELECT id FROM {t} WHERE ts = @p", datetime.date(2020, 1, 3)),
    ("SELECT id FROM {t} WHERE ts = @p", "2020-01-04 06:00:00"),
]

RANGE = [
    ("SELECT COUNT(*) FROM {t} WHERE d <= @p", "2020-01-04"),
    ("SELECT COUNT(*) FROM {t} WHERE d > @p", "2025-01-01"),
    ("SELECT COUNT(*) FROM {t} WHERE d < @p", MORNING_3),
    ("SELECT COUNT(*) FROM {t} WHERE d <= @p", MORNING_3),
    ("SELECT COUNT(*) FROM {t} WHERE d > @p", MORNING_3),
    ("SELECT COUNT(*) FROM {t} WHERE d >= @p", MORNING_3),
    ("SELECT COUNT(*) FROM {t} WHERE d >= @p", MIDNIGHT_3),
    ("SELECT COUNT(*) FROM {t} WHERE id <= @p", True),
    ("SELECT COUNT(*) FROM {t} WHERE ts < @p", datetime.date(2020, 1, 4)),
    ("SELECT COUNT(*) FROM {t} WHERE ts >= @p", "2025-06-01 06:00:00"),
    ("SELECT COUNT(*) FROM {t} WHERE d <= @p", None),
]

JOIN = [
    "SELECT l.k, {t}.id FROM l JOIN {t} ON l.kb = {t}.id",
    "SELECT l.k, {t}.id FROM l JOIN {t} ON l.kf = {t}.id",
    "SELECT l.k, {t}.id FROM l JOIN {t} ON l.kf = {t}.f",
]


@pytest.mark.parametrize("template,probe", POINT, ids=case_ids(POINT))
def test_point_probe_answers_what_a_scan_answers(shared, template, probe):
    indexed, twin, expected = answers(shared, template, {"p": probe})
    assert indexed == twin == expected


@pytest.mark.parametrize("template,probe", RANGE, ids=case_ids(RANGE))
def test_range_probe_answers_what_a_scan_answers(shared, template, probe):
    indexed, twin, expected = answers(shared, template, {"p": probe})
    assert indexed == twin == expected


@pytest.mark.parametrize("template", JOIN)
def test_lookup_join_probe_answers_what_a_scan_answers(shared, template):
    indexed, twin, expected = answers(shared, template, {})
    assert indexed == twin == expected


def test_lookup_join_parses_string_and_datetime_probes_of_a_date(shared):
    # The twin's hash join builds and probes on keys in one stored form.
    for template, rows in (
        ("SELECT l.k, {t}.id FROM l JOIN {t} ON l.ks = {t}.d", [(1, 3), (2, 5)]),
        ("SELECT l.k, {t}.id FROM l JOIN {t} ON l.kts = {t}.d", [(1, 3)]),
        ("SELECT l.k, {t}.id FROM l JOIN {t} ON {t}.d = l.ks", [(1, 3), (2, 5)]),
        ("SELECT l.k, {t}.id FROM l JOIN {t} ON {t}.d = l.kts", [(1, 3)]),
    ):
        indexed, twin, expected = answers(shared, template, {})
        assert indexed == twin == expected == rows


NULL_PROBES = [
    ("SELECT id FROM {t} WHERE id = @p", {"p": None}),
    ("SELECT id FROM {t} WHERE n1 = @p", {"p": None}),
    ("SELECT id FROM {t} WHERE h = @q AND n2 = @p", {"q": 0, "p": None}),
    ("SELECT id FROM {t} WHERE h = @p AND n2 = @q", {"q": 1, "p": None}),
]


@pytest.mark.parametrize(
    "template,params", NULL_PROBES, ids=[t.split("WHERE ")[1] for t, _ in NULL_PROBES]
)
def test_null_probe_finds_no_stored_null(shared, template, params):
    assert shared.execute(
        "SELECT COUNT(*) FROM t WHERE n1 IS NULL AND h = 0 AND n2 IS NULL", database="db"
    ).rows == [(ROWS // 30,)]
    seeks = [op for op in index_ops(shared, template.format(t="t")) if isinstance(op, IndexSeekOp)]
    assert seeks
    indexed, twin, expected = answers(shared, template, params)
    assert indexed == twin == expected == []


@pytest.mark.parametrize(
    "template",
    [
        "UPDATE {t} SET v = 0 WHERE n1 = @p",
        "DELETE FROM {t} WHERE h = @q AND n2 = @p",
    ],
)
def test_null_probe_dml_touches_no_row(template):
    server = build()
    for name in ("t", "u"):
        result = server.execute(template.format(t=name), {"q": 0, "p": None}, database="db")
        assert result.rowcount == 0
    contents = [
        sorted(server.execute(f"SELECT * FROM {name}", database="db").rows)
        for name in ("t", "u")
    ]
    assert contents[0] == contents[1]


DML = [
    ("UPDATE {t} SET v = 0 WHERE id = @p", True),
    ("UPDATE {t} SET v = 0 WHERE id = @p", None),
    ("UPDATE {t} SET v = 0 WHERE flag = @p", 1),
    ("UPDATE {t} SET v = 0 WHERE ts = @p", datetime.date(2020, 1, 5)),
    ("DELETE FROM {t} WHERE d = @p", "2020-01-03"),
    ("DELETE FROM {t} WHERE d = @p", MIDNIGHT_3),
    ("DELETE FROM {t} WHERE f = @p", 7),
]


@pytest.mark.parametrize("template,probe", DML, ids=case_ids(DML))
def test_dml_probe_touches_what_a_scan_touches(template, probe):
    server = build()
    counts = [
        server.execute(template.format(t=name), {"p": probe}, database="db").rowcount
        for name in ("t", "u")
    ]
    assert counts[0] == counts[1]
    contents = [
        sorted(server.execute(f"SELECT * FROM {name}", database="db").rows)
        for name in ("t", "u")
    ]
    assert contents[0] == contents[1]
