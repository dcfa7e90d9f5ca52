"""Execution context threaded through every operator.

Carries run-time parameter values (the ``@param`` bindings that make
dynamic plans choose a branch), access to the local database's storage,
the linked-server registry for remote subplans, the virtual clock, and
work counters the cluster simulator uses to calibrate CPU demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

#: Rows per chunk between operators. Large enough to amortize per-batch
#: dispatch, small enough to keep chunks cache-friendly.
DEFAULT_BATCH_ROWS = 256


@dataclass
class WorkCounters:
    """Accumulated work for one statement execution.

    ``rows_processed`` counts operator row touches (a CPU proxy),
    ``rows_returned`` the final result size, ``bytes_transferred`` the data
    shipped across DataTransfer boundaries, and ``remote_queries`` how many
    subexpressions were shipped to a linked server.

    The statement fast path adds three savings counters:
    ``parse_cache_hits`` (batches that skipped the lexer/parser),
    ``prepared_executions`` (remote statements executed by prepared
    handle instead of shipping text), and ``round_trips_saved``
    (extra round trips avoided by batching, e.g. multiple replicated
    transactions applied in one subscriber poll).
    """

    rows_processed: int = 0
    rows_returned: int = 0
    bytes_transferred: int = 0
    remote_queries: int = 0
    index_seeks: int = 0
    parse_cache_hits: int = 0
    prepared_executions: int = 0
    round_trips_saved: int = 0


#: Comparison families whose Python hash and equality agree with
#: ``_coerce_pair``: numbers compare across ``bool``/``int``/``float``,
#: strings with strings. Exact types only — anything else (dates, which
#: coerce against ISO strings; subclasses) takes the ``sql_equal`` loop.
COMPARISON_FAMILY: Dict[type, str] = {bool: "number", int: "number", float: "number", str: "string"}

#: What ``IN (subquery)`` probes: the non-NULL candidates, their family
#: (None when there are none) and whether a NULL candidate was seen.
Membership = Tuple[FrozenSet[Any], Optional[str], bool]


def build_membership(rows: List[Tuple]) -> Optional[Membership]:
    """The hash-probe form of a subquery's first column, or None when the
    candidates do not all belong to one comparison family (or hold a NaN,
    which ``_coerce_pair`` treats as equal to everything)."""
    family: Optional[str] = None
    seen_null = False
    members = set()
    for row in rows:
        candidate = row[0]
        if candidate is None:
            seen_null = True
            continue
        candidate_family = COMPARISON_FAMILY.get(type(candidate))
        if candidate_family is None or candidate != candidate:
            return None
        if family is None:
            family = candidate_family
        elif family != candidate_family:
            return None
        members.add(candidate)
    return frozenset(members), family, seen_null


class ExecutionContext:
    """Per-execution state shared by all operators in a plan.

    One statement runs in one context: its plan, its subqueries (which
    see the same parameters) and, for an ``EXEC``, the procedure body,
    whose frame of variables replaces ``params`` for the call. ``params``
    is held, not copied: only a procedure body writes it, and then it is
    the body's own frame.
    """

    __slots__ = (
        "database", "params", "linked_servers", "clock", "batch_rows", "session",
        "compiled_cache_hits", "compiled_cache_misses", "chunk_sizes", "tracer", "work",
        "subquery_executor", "_subquery_cache", "_membership_cache",
    )  # fmt: skip

    def __init__(
        self,
        database: Optional[object] = None,
        params: Optional[Dict[str, Any]] = None,
        linked_servers: Optional[object] = None,
        clock: Optional[object] = None,
        subquery_executor: Optional[Callable] = None,
        tracer: Optional[object] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        session: Optional[object] = None,
    ):
        self.database = database
        self.params = params if params is not None else {}
        self.linked_servers = linked_servers
        self.clock = clock
        self.batch_rows = batch_rows
        #: The engine session the statement runs for (None for a bare
        #: context): its transaction, its ``STATISTICS PROFILE`` switch.
        self.session = session
        # Batch-kernel memoization stats for this execution (drained into
        # the exec.compiled_cache_* metrics by the server).
        self.compiled_cache_hits = 0
        self.compiled_cache_misses = 0
        #: The size of every chunk a drain pulled (``exec.batch_rows``).
        self.chunk_sizes: List[int] = []
        # Observability: the owning server's Tracer (None for a bare
        # context); RemoteQueryOp opens client-side spans through it.
        self.tracer = tracer
        self.work = WorkCounters()
        # Callable(select_ast, ctx) -> list of rows; installed by the
        # engine so scalar/IN subqueries can run nested statements.
        self.subquery_executor = subquery_executor
        self._subquery_cache: Dict[int, list] = {}
        self._membership_cache: Dict[int, Optional[Membership]] = {}

    def param(self, name: str) -> Any:
        """Fetch a parameter value; missing parameters read as NULL."""
        return self.params.get(name)

    def run_subquery(self, select_ast: object) -> list:
        """Execute an uncorrelated subquery once per execution.

        The rows are memoised by AST identity until
        :meth:`forget_subqueries` — the plan (or bound statement) holding
        the AST outlives the memo, so the key cannot be recycled — and so
        every row the outer plan probes sees one evaluation of the
        subquery.
        """
        key = id(select_ast)
        if key not in self._subquery_cache:
            if self.subquery_executor is None:
                from repro.errors import ExecutionError

                raise ExecutionError("no subquery executor installed in context")
            self._subquery_cache[key] = self.subquery_executor(select_ast, self)
        return self._subquery_cache[key]

    def forget_subqueries(self) -> None:
        """Drop the memoised subquery results: what runs next in this
        context (a procedure body's next statement or expression) may see
        different parameters."""
        if self._subquery_cache:
            self._subquery_cache.clear()
            self._membership_cache.clear()

    def subquery_membership(self, select_ast: object) -> Optional[Membership]:
        """The subquery's rows as one membership structure, built once per
        execution beside the memoised row list and dropped with it (None
        when the candidates need the ``sql_equal`` loop)."""
        key = id(select_ast)
        try:
            return self._membership_cache[key]
        except KeyError:
            membership = build_membership(self.run_subquery(select_ast))
            self._membership_cache[key] = membership
            return membership

    def now(self) -> float:
        """Virtual current time (0.0 when no clock attached)."""
        if self.clock is None:
            return 0.0
        return self.clock.now()
