"""Statement results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.schema import Schema


@dataclass
class Result:
    """The outcome of executing one statement (or procedure).

    ``rows``/``schema`` describe the (last) result set; ``rowcount`` is the
    number of rows a DML statement affected; ``return_value`` carries a
    stored procedure's RETURN code; ``messages`` collects PRINT output.
    ``resultsets`` holds every result set a procedure produced, in order.
    ``profile`` carries the per-operator execution profile when statistics
    profiling was on for the statement (``SET STATISTICS PROFILE ON``
    style; see :mod:`repro.obs.profile`). ``read_only`` is set on a
    batch's result by the server that ran it: every statement of the batch
    was a pure query.
    """

    rows: List[Tuple] = field(default_factory=list)
    schema: Optional[Schema] = None
    rowcount: int = 0
    return_value: Optional[Any] = None
    messages: List[str] = field(default_factory=list)
    resultsets: List[Tuple[Schema, List[Tuple]]] = field(default_factory=list)
    profile: Optional[Any] = None
    read_only: bool = False

    @property
    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if self.rows:
            return self.rows[0][0]
        return None

    def column(self, name: str) -> List[Any]:
        """Extract one output column by name across all rows."""
        if self.schema is None:
            raise ValueError("result has no schema")
        position = self.schema.resolve(name)
        return [row[position] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple]:
        """Iterate the result rows directly (``for row in result``)."""
        return iter(self.rows)

    def mappings(self) -> List[Dict[str, Any]]:
        """Rows as dicts keyed by output column name."""
        if self.schema is None:
            if self.rows:
                raise ValueError("result has rows but no schema")
            return []
        names = list(self.schema.names)
        return [dict(zip(names, row)) for row in self.rows]
