"""Statistics and histogram tests (with hypothesis properties)."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.statistics import ColumnStatistics, Histogram, TableStatistics, _sort_key


class TestHistogram:
    def test_empty(self):
        histogram = Histogram.build([])
        assert histogram.fraction_below(5, True) == 0.5  # no information

    def test_uniform_fractions(self):
        histogram = Histogram.build(list(range(100)), buckets=20)
        assert histogram.fraction_below(50, True) == pytest.approx(0.5, abs=0.1)
        assert histogram.fraction_below(-1, True) == 0.0
        assert histogram.fraction_below(1000, True) == 1.0

    def test_skewed_data(self):
        values = [1] * 90 + list(range(2, 12))
        histogram = Histogram.build(values, buckets=10)
        assert histogram.fraction_below(1, True) >= 0.8

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=500))
    def test_property_monotone(self, values):
        histogram = Histogram.build(values, buckets=10)
        fractions = [histogram.fraction_below(v, True) for v in range(-110, 111, 10)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert all(0.0 <= f <= 1.0 for f in fractions)


class TestColumnStatistics:
    def test_basics(self):
        stats = ColumnStatistics.build("c", [1, 2, 2, 3, None])
        assert stats.row_count == 5
        assert stats.null_count == 1
        assert stats.distinct_count == 3
        assert stats.min_value == 1
        assert stats.max_value == 3

    def test_equality_selectivity(self):
        stats = ColumnStatistics.build("c", list(range(100)))
        assert stats.equality_selectivity() == pytest.approx(0.01)

    def test_equality_selectivity_accounts_for_nulls(self):
        stats = ColumnStatistics.build("c", [1, 2] + [None] * 2)
        assert stats.equality_selectivity() == pytest.approx(0.25)

    def test_range_selectivity_half(self):
        stats = ColumnStatistics.build("c", list(range(100)))
        assert stats.range_selectivity("<=", 49) == pytest.approx(0.5, abs=0.1)
        assert stats.range_selectivity(">", 49) == pytest.approx(0.5, abs=0.1)

    def test_range_selectivity_extremes(self):
        stats = ColumnStatistics.build("c", list(range(100)))
        assert stats.range_selectivity("<", -5) == 0.0
        assert stats.range_selectivity("<=", 200) == 1.0

    def test_all_null_column(self):
        stats = ColumnStatistics.build("c", [None, None])
        assert stats.null_fraction == 1.0
        assert stats.min_value is None

    def test_copy_is_detached(self):
        stats = ColumnStatistics.build("c", [1, 2, 3])
        clone = stats.copy()
        clone.distinct_count = 99
        assert stats.distinct_count == 3

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(-50, 50)), max_size=300))
    def test_property_selectivities_bounded(self, values):
        stats = ColumnStatistics.build("c", values)
        assert 0.0 <= stats.equality_selectivity() <= 1.0
        for op in ("<", "<=", ">", ">="):
            assert 0.0 <= stats.range_selectivity(op, 0) <= 1.0


class TestTableStatistics:
    def test_build_from_rows(self):
        rows = [(i, f"n{i%3}") for i in range(30)]
        stats = TableStatistics.build("t", ["id", "name"], rows)
        assert stats.row_count == 30
        assert stats.column("id").distinct_count == 30
        assert stats.column("NAME").distinct_count == 3

    def test_copy_renames(self):
        stats = TableStatistics.build("t", ["id"], [(1,)])
        clone = stats.copy("shadow_t")
        assert clone.table_name == "shadow_t"
        assert clone.column("id") is not stats.column("id")

    def test_missing_column(self):
        stats = TableStatistics.build("t", ["id"], [(1,)])
        assert stats.column("nope") is None


# -- ANALYZE sorts each column once: the same statistics as three passes ------


def _reference_column(name, values, buckets=20):
    """Column statistics as min, max and a keyed sort compute them, each
    its own pass over the values."""
    non_null = [value for value in values if value is not None]
    reference = {
        "ndv": max(1, len(set(non_null))) if non_null else 1,
        "nulls": len(values) - len(non_null),
        "rows": len(values),
        "min": None,
        "max": None,
        "bounds": [],
        "buckets": 0,
    }
    if non_null:
        ordered = sorted(non_null, key=_sort_key)
        count = max(1, min(buckets, len(ordered)))
        reference.update(
            min=min(non_null, key=_sort_key),
            max=max(non_null, key=_sort_key),
            bounds=[
                ordered[max(0, min(len(ordered) - 1, (index * len(ordered)) // count - 1))]
                for index in range(1, count + 1)
            ],
            buckets=count,
        )
    return reference


def _typed(value):
    """A value with its type, so ``1``, ``1.0`` and ``True`` differ."""
    if isinstance(value, list):
        return [_typed(part) for part in value]
    return (type(value), value)


_DAY = st.dates(datetime.date(2020, 1, 1), datetime.date(2020, 1, 9))
_COLUMN_KINDS = [
    st.integers(-3, 3),
    st.one_of(st.integers(-3, 3), st.floats(-3, 3, allow_nan=False)),
    st.sampled_from([1, 1.0, True, 0, 0.0, False, 2, -0.0]),
    st.one_of(st.booleans(), st.integers(-2, 2), st.floats(-2, 2, allow_nan=False)),
    st.booleans(),
    st.text("abc", max_size=3),
    _DAY,
    st.one_of(_DAY, st.datetimes(datetime.datetime(2020, 1, 1), datetime.datetime(2020, 1, 9))),
    st.one_of(st.integers(0, 2), st.text("ab", max_size=2), _DAY),
]


@st.composite
def _columns(draw):
    kinds = draw(st.lists(st.sampled_from(range(len(_COLUMN_KINDS))), min_size=1, max_size=4))
    rows = draw(st.integers(0, 40))
    columns = [
        draw(st.lists(st.one_of(st.none(), _COLUMN_KINDS[kind]), min_size=rows, max_size=rows))
        for kind in kinds
    ]
    return [tuple(row) for row in zip(*columns)] if rows else [], len(kinds)


@settings(max_examples=80, deadline=None)
@given(_columns())
def test_property_one_sort_matches_three_passes(table):
    rows, width = table
    names = [f"c{position}" for position in range(width)]
    stats = TableStatistics.build("t", names, rows)
    assert stats.row_count == len(rows)
    for position, name in enumerate(names):
        column = stats.column(name)
        reference = _reference_column(name, [row[position] for row in rows])
        assert column.distinct_count == reference["ndv"]
        assert column.null_count == reference["nulls"]
        assert column.row_count == reference["rows"]
        assert _typed(column.min_value) == _typed(reference["min"])
        assert _typed(column.max_value) == _typed(reference["max"])
        assert _typed(column.histogram.bounds) == _typed(reference["bounds"])
        assert column.histogram.bucket_count == reference["buckets"]


def test_ties_keep_the_first_extreme():
    stats = ColumnStatistics.build("c", [1, 2.0, 1.0, 2, True, None])
    assert _typed(stats.min_value) == (bool, True)
    assert _typed(stats.max_value) == (float, 2.0)
    stats = ColumnStatistics.build("c", [2, 1.0, 2.0, 1])
    assert (_typed(stats.min_value), _typed(stats.max_value)) == ((float, 1.0), (int, 2))


def test_bound_keys_are_made_once_and_not_compared():
    histogram = Histogram.build(list(range(100)), buckets=10)
    first = histogram.fraction_below(35, True)
    assert histogram._keys is histogram._keys
    assert histogram.fraction_below(35, True) == first
    assert histogram == Histogram(list(histogram.bounds), histogram.bucket_count)
