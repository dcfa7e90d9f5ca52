"""DML execution: INSERT, UPDATE, DELETE against local storage.

Remote forwarding (the MTCache "all updates go to the backend" rule) is
decided when the statement is bound, before anything here is reached;
everything here operates on locally stored tables inside a transaction.
A statement is compiled once (:func:`compile_dml`) into a runner that
every execution under the same schema version reuses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.results import Result
from repro.engine.transactions import Transaction, TransactionManager
from repro.errors import ExecutionError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler, Scalar, compile_scalar
from repro.optimizer.predicates import normalize_comparison, split_conjuncts
from repro.sql import ast


#: A compiled DML statement: ``run(ctx, transaction, select_runner)``, where
#: ``select_runner()`` yields ``(rows, schema)`` of an INSERT's source SELECT.
DmlRunner = Callable[..., Result]

#: CPU work charged per written row, per touched index. Writes cost more
#: than reads (index maintenance, logging, page dirtying); this factor
#: keeps the calibrated TPC-W Order-class demands realistic relative to
#: the read path.
WRITE_WORK_PER_INDEX = 6.0


def _charge_write(ctx: ExecutionContext, storage, rows_affected: int) -> None:
    """Account CPU work for DML: row write + index maintenance + logging."""
    per_row = WRITE_WORK_PER_INDEX * (1 + len(storage.indexes))
    ctx.work.rows_processed += int(per_row * rows_affected)


def _index_equalities(where: Optional[ast.Expression]) -> Dict[str, Scalar]:
    """Column (lowercase) -> compiled operand, for each ``column = literal
    or parameter`` conjunct of ``where``: what an index seek can use."""
    equalities: Dict[str, Scalar] = {}
    if where is not None:
        for conjunct in split_conjuncts(where):
            comparison = normalize_comparison(conjunct)
            if comparison is not None and comparison.op == "=":
                equalities.setdefault(
                    comparison.column.name.lower(), compile_scalar(comparison.operand)
                )
    return equalities


def _candidate_rids(storage, equalities: Dict[str, Scalar], ctx) -> Optional[List[int]]:
    """Narrow a DML statement's candidates through an index when possible.

    Finds an index whose leading columns are covered by equality conjuncts
    and seeks it; the full predicate is still re-checked per candidate.
    Returns None when no index applies (caller falls back to a table
    scan). Chosen per execution: indexes are looked up on the storage the
    statement finds, only the operands were compiled ahead.
    """
    if not equalities:
        return None
    for index in storage.indexes.values():
        prefix = []
        for column_name in index.column_names:
            maker = equalities.get(column_name.lower())
            if maker is None:
                break
            prefix.append(maker((), ctx))
        if prefix:
            index.check_key(prefix)
            ctx.work.index_seeks += 1
            return list(storage.indexes[index.name].seek_prefix(prefix))
    return None


def _matching(storage, predicate: Optional[Scalar], equalities, ctx) -> List[Tuple[int, Tuple]]:
    """``(rid, row)`` of every row the WHERE predicate accepts."""
    candidates = _candidate_rids(storage, equalities, ctx)
    if candidates is not None:
        pairs = ((rid, storage.rows.get(rid)) for rid in candidates)
    else:
        pairs = list(storage.rows.items())
    matched = []
    for rid, row in pairs:
        ctx.work.rows_processed += 1
        if row is not None and (predicate is None or predicate(row, ctx) is True):
            matched.append((rid, row))
    return matched


def _check_types(schema, expressions) -> None:
    """The planner's operand-type rule (:func:`repro.sql.ast.check_types`)
    over a DML statement's own expressions; an INSERT's source SELECT is
    planned, so checked, on its own."""

    def column_type(ref: ast.ColumnRef):
        position = schema.maybe_resolve(ref.name, ref.qualifier)
        return schema[position].sql_type if position is not None else None

    for expression in expressions:
        ast.check_types(expression, column_type)


def compile_dml(database, statement) -> DmlRunner:
    """Compile a local INSERT, UPDATE or DELETE against the catalog as it
    is now: name resolution, the operand-type check and expression
    compilation happen here, once per binding (the server keeps the runner
    in the bound statement's slot); the runner does what varies — find the
    storage, evaluate, log.
    """
    if isinstance(statement, ast.Insert):
        return _compile_insert(database, statement)
    if isinstance(statement, ast.Update):
        return _compile_update(database, statement)
    return _compile_delete(database, statement)


def _compile_insert(database, statement: ast.Insert) -> DmlRunner:
    """Insert literal rows or the output of a SELECT."""
    table_def = database.catalog.get_table(statement.table.object_name)
    schema = table_def.schema
    if statement.columns:
        positions = [schema.resolve(name) for name in statement.columns]
    else:
        positions = list(range(len(schema)))
    width = len(schema)
    row_makers = [tuple(compile_scalar(expr) for expr in row) for row in statement.rows]
    _check_types(schema, [expression for row in statement.rows for expression in row])

    def expand(values: Tuple) -> List[Any]:
        if len(values) != len(positions):
            raise ExecutionError(
                f"INSERT supplies {len(values)} values for {len(positions)} columns"
            )
        full: List[Any] = [None] * width
        for position, value in zip(positions, values):
            full[position] = value
        return full

    def run(ctx: ExecutionContext, transaction: Transaction, select_runner=None) -> Result:
        storage = ctx.database.storage_table(table_def.name)
        manager: TransactionManager = ctx.database.transactions
        if statement.select is not None:
            if select_runner is None:
                raise ExecutionError("INSERT ... SELECT requires a select runner")
            rows, _ = select_runner()
        else:
            rows = [tuple(maker((), ctx) for maker in makers) for makers in row_makers]
        for row in rows:
            manager.logged_insert(transaction, storage, expand(tuple(row)))
        _charge_write(ctx, storage, len(rows))
        return Result(rowcount=len(rows))

    return run


def _compile_update(database, statement: ast.Update) -> DmlRunner:
    """Update rows matching the WHERE predicate."""
    table_def = database.catalog.get_table(statement.table.object_name)
    schema = table_def.schema.with_qualifier(table_def.name)
    compiler = ExpressionCompiler(schema)
    predicate = compiler.compile(statement.where) if statement.where is not None else None
    assignments = [
        (schema.resolve(column_name), compiler.compile(expression))
        for column_name, expression in statement.assignments
    ]
    _check_types(
        schema,
        [expression for _, expression in statement.assignments]
        + ([statement.where] if statement.where is not None else []),
    )
    equalities = _index_equalities(statement.where)

    def run(ctx: ExecutionContext, transaction: Transaction, select_runner=None) -> Result:
        storage = ctx.database.storage_table(table_def.name)
        manager: TransactionManager = ctx.database.transactions
        matched = _matching(storage, predicate, equalities, ctx)
        for rid, row in matched:
            new_row = list(row)
            for position, maker in assignments:
                new_row[position] = maker(row, ctx)
            manager.logged_update(transaction, storage, rid, new_row)
        _charge_write(ctx, storage, len(matched))
        return Result(rowcount=len(matched))

    return run


def _compile_delete(database, statement: ast.Delete) -> DmlRunner:
    """Delete rows matching the WHERE predicate."""
    table_def = database.catalog.get_table(statement.table.object_name)
    schema = table_def.schema.with_qualifier(table_def.name)
    predicate = None
    if statement.where is not None:
        predicate = ExpressionCompiler(schema).compile(statement.where)
        _check_types(schema, [statement.where])
    equalities = _index_equalities(statement.where)

    def run(ctx: ExecutionContext, transaction: Transaction, select_runner=None) -> Result:
        storage = ctx.database.storage_table(table_def.name)
        manager: TransactionManager = ctx.database.transactions
        matched = _matching(storage, predicate, equalities, ctx)
        for rid, _ in matched:
            manager.logged_delete(transaction, storage, rid)
        _charge_write(ctx, storage, len(matched))
        return Result(rowcount=len(matched))

    return run
