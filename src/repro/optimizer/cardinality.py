"""Cardinality and selectivity estimation from shadowed statistics.

The MTCache server keeps the *backend's* statistics for shadow tables
(tables are empty but statistics reflect the backend state), so estimates
here work identically on a backend server and on a cache server — a core
requirement for fully local cost-based optimization.

Parameterized predicates cannot consult histograms at optimization time:
equality uses the 1/NDV rule, ranges the System-R 1/3 default. Guard
frequency for dynamic plans assumes the parameter is uniformly distributed
between the column's min and max values (the paper's stated assumption).
"""

from __future__ import annotations

from typing import List, Optional

from repro.optimizer.predicates import SimpleComparison, normalize_comparison
from repro.sql import ast
from repro.storage.statistics import TableStatistics

DEFAULT_EQUALITY_SELECTIVITY = 0.05
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.1
DEFAULT_OPAQUE_SELECTIVITY = 0.5
DEFAULT_IN_SELECTIVITY = 0.2
#: Rows assumed for a leaf that has no statistics (or is a derived table).
DEFAULT_TABLE_ROWS = 1000.0


def leaf_rows(held: int, statistics: Optional[TableStatistics]) -> float:
    """The one row estimate for a leaf: the rows its storage holds now or
    its analyzed rows (the default without statistics), whichever is
    larger — so a momentarily tiny table cannot pin a scan into a cached
    plan. A remote leaf holds no local rows.
    """
    analyzed = float(statistics.row_count) if statistics is not None else DEFAULT_TABLE_ROWS
    return max(float(held), analyzed)


class CardinalityEstimator:
    """Estimates selectivities and cardinalities against TableStatistics.

    ``parameter_distribution`` selects how dynamic-plan guard frequencies
    are estimated (paper §5.1):

    * ``"uniform"`` (the paper's choice): the parameter is uniform between
      the column's min and max values;
    * ``"column"`` (the alternative the paper mentions): the parameter
      follows the column's own value distribution, read off the histogram.
    """

    def __init__(
        self,
        statistics: Optional[TableStatistics] = None,
        parameter_distribution: str = "uniform",
    ):
        if parameter_distribution not in ("uniform", "column"):
            raise ValueError(
                f"parameter_distribution must be 'uniform' or 'column', "
                f"not {parameter_distribution!r}"
            )
        self.statistics = statistics
        self.parameter_distribution = parameter_distribution

    def conjunct_selectivity(self, conjunct: ast.Expression) -> float:
        """Selectivity of one conjunct (independence assumed by callers)."""
        comparison = normalize_comparison(conjunct)
        if comparison is not None:
            return self._comparison_selectivity(comparison)
        if isinstance(conjunct, ast.Like):
            return DEFAULT_LIKE_SELECTIVITY
        if isinstance(conjunct, ast.InList):
            return min(1.0, DEFAULT_EQUALITY_SELECTIVITY * max(1, len(conjunct.items)))
        if isinstance(conjunct, ast.InSubquery):
            return DEFAULT_IN_SELECTIVITY
        if isinstance(conjunct, ast.IsNull):
            stats = self._column_stats(getattr(conjunct.operand, "name", None))
            if stats is not None:
                fraction = stats.null_fraction
                return fraction if not conjunct.negated else 1.0 - fraction
            return 0.1 if not conjunct.negated else 0.9
        if isinstance(conjunct, ast.Between):
            return DEFAULT_RANGE_SELECTIVITY
        return DEFAULT_OPAQUE_SELECTIVITY

    def selectivity(self, conjuncts: List[ast.Expression]) -> float:
        """Combined selectivity of conjuncts under independence."""
        result = 1.0
        for conjunct in conjuncts:
            result *= self.conjunct_selectivity(conjunct)
        return max(1e-9, min(1.0, result))

    def _column_stats(self, column_name: Optional[str]):
        if self.statistics is None or column_name is None:
            return None
        return self.statistics.column(column_name)

    def _comparison_selectivity(self, comparison: SimpleComparison) -> float:
        stats = self._column_stats(comparison.column.name)
        if comparison.op == "=":
            if comparison.is_parameterized:
                if stats is not None:
                    return stats.equality_selectivity()
                return DEFAULT_EQUALITY_SELECTIVITY
            if stats is not None:
                return stats.equality_selectivity()
            return DEFAULT_EQUALITY_SELECTIVITY
        if comparison.op == "<>":
            if stats is not None:
                return max(0.0, 1.0 - stats.equality_selectivity())
            return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
        # Range predicate.
        if comparison.is_parameterized or stats is None:
            return DEFAULT_RANGE_SELECTIVITY
        return stats.range_selectivity(comparison.op, comparison.constant)

    # -- dynamic-plan guard frequency ---------------------------------------

    def guard_frequency(self, guard: ast.Expression) -> float:
        """Probability that a parameter guard evaluates to true at run time.

        The guard references parameters and literals only. Following the
        paper, each ``@p op K`` factor assumes ``@p`` is uniform over the
        [min, max] of the column the guard was derived from; since the
        derivation loses the column, we key off the guarded constant's
        position inside the guarded view column range when available via
        ``self.statistics`` — callers estimating guards should construct
        the estimator with the *base table's* statistics and call
        :meth:`guard_frequency_for_column` instead when they know the
        column. This generic entry point applies the uniform rule when it
        can and falls back to 0.5.
        """
        return self._guard_probability(guard, column_name=None)

    def guard_frequency_for_column(self, guard: ast.Expression, column_name: str) -> float:
        """Guard probability using a specific column's min/max range."""
        return self._guard_probability(guard, column_name)

    def _guard_probability(self, guard: ast.Expression, column_name: Optional[str]) -> float:
        if isinstance(guard, ast.BinaryOp) and guard.op == "AND":
            return self._guard_probability(guard.left, column_name) * self._guard_probability(
                guard.right, column_name
            )
        if (
            isinstance(guard, ast.BinaryOp)
            and guard.op in ("=", "<", "<=", ">", ">=")
            and isinstance(guard.left, ast.Parameter)
            and isinstance(guard.right, ast.Literal)
        ):
            stats = self._column_stats(column_name)
            value = guard.right.value
            if stats is not None and self.parameter_distribution == "column":
                if stats.histogram.bounds:
                    position = stats.histogram.fraction_below(
                        value, inclusive=guard.op in ("<=", "=")
                    )
                    if guard.op in ("<", "<="):
                        return position
                    if guard.op in (">", ">="):
                        return 1.0 - position
                    return max(1e-6, 1.0 / max(1, stats.distinct_count))
            if (
                stats is not None
                and isinstance(value, (int, float))
                and isinstance(stats.min_value, (int, float))
                and isinstance(stats.max_value, (int, float))
                and stats.max_value > stats.min_value
            ):
                position = (value - stats.min_value) / (stats.max_value - stats.min_value)
                position = max(0.0, min(1.0, position))
                if guard.op in ("<", "<="):
                    return position
                if guard.op in (">", ">="):
                    return 1.0 - position
                return max(
                    1e-6, 1.0 / max(1, stats.distinct_count)
                )  # equality guard
            if guard.op == "=":
                return DEFAULT_EQUALITY_SELECTIVITY
            return 0.5
        return 0.5
