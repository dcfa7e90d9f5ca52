"""Recursive-descent parser for the T-SQL subset.

Grammar highlights:

* ``SELECT [TOP n] [DISTINCT] items FROM refs [WHERE] [GROUP BY] [HAVING]
  [ORDER BY] [WITH FRESHNESS n SECONDS]``
* explicit ``INNER/LEFT/CROSS JOIN ... ON`` plus comma cross joins
* ``INSERT/UPDATE/DELETE``, ``CREATE TABLE/INDEX/VIEW/PROCEDURE``,
  ``EXEC``, transactions, ``DECLARE/SET/IF/WHILE/RETURN/PRINT``
* ``@name`` parameters anywhere an expression is allowed
* four-part names (``server.db.schema.object``) for linked servers
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.types import (
    BIGINT,
    BOOLEAN,
    CHAR,
    DATE,
    DATETIME,
    FLOAT,
    INT,
    NUMERIC,
    SqlType,
    TypeKind,
    VARCHAR,
)
from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize


class Parser:
    """A single-pass recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        tokens = self.tokens
        index = self.pos + offset  # ``pos`` never passes the closing EOF
        return tokens[index] if index < len(tokens) else tokens[-1]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _check_keyword(self, *words: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is TokenType.KEYWORD and token.value in words

    def _match_keyword(self, *words: str) -> Optional[Token]:
        if self._check_keyword(*words):
            return self._advance()
        return None

    def _expect_keyword(self, *words: str) -> Token:
        token = self._match_keyword(*words)
        if token is None:
            actual = self._peek()
            raise ParseError(
                f"expected {' or '.join(words)}, found {actual.value!r}",
                actual.line,
                actual.column,
            )
        return token

    def _match(self, token_type: TokenType, value: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token.type is token_type and (value is None or token.value == value):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self._match(token_type, value)
        if token is None:
            actual = self._peek()
            expected = value or token_type.value
            raise ParseError(
                f"expected {expected!r}, found {actual.value!r}",
                actual.line,
                actual.column,
            )
        return token

    def _identifier(self) -> str:
        token = self._peek()
        # Permit non-reserved use of some keywords as identifiers (e.g. a
        # column named "date" or aggregate names used as column names).
        if token.type is TokenType.IDENT:
            return self._advance().value
        if token.type is TokenType.KEYWORD and token.value in _SOFT_KEYWORDS:
            return self._advance().value.lower()
        raise ParseError(f"expected identifier, found {token.value!r}", token.line, token.column)

    # -- entry points -------------------------------------------------------

    def parse_statements(self) -> List[ast.Statement]:
        """Parse a batch: zero or more statements separated by semicolons."""
        statements: List[ast.Statement] = []
        while not self._at_end():
            while self._match(TokenType.SEMICOLON):
                pass
            if self._at_end():
                break
            statements.append(self.parse_statement())
            while self._match(TokenType.SEMICOLON):
                pass
        return statements

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement."""
        token = self._peek()
        if token.is_keyword("EXPLAIN"):
            self._advance()
            costs = False
            if self._peek().type is TokenType.IDENT and self._peek().value.upper() == "COSTS":
                self._advance()
                costs = True
            inner = self.parse_statement()
            if not isinstance(inner, ast.Select):
                raise ParseError("EXPLAIN supports SELECT statements", token.line, token.column)
            return ast.Explain(inner, costs)
        if token.is_keyword("SELECT"):
            return self._parse_select_or_union()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("EXEC", "EXECUTE"):
            return self._parse_execute()
        if token.is_keyword("DECLARE"):
            return self._parse_declare()
        if token.is_keyword("SET"):
            return self._parse_set()
        if token.is_keyword("IF"):
            return self._parse_if()
        if token.is_keyword("WHILE"):
            return self._parse_while()
        if token.is_keyword("RETURN"):
            self._advance()
            if self._starts_expression():
                return ast.ReturnStatement(self._parse_expression())
            return ast.ReturnStatement()
        if token.is_keyword("PRINT"):
            self._advance()
            return ast.PrintStatement(self._parse_expression())
        if token.is_keyword("BEGIN"):
            if self._peek(1).is_keyword("TRANSACTION", "TRAN"):
                self._advance()
                self._advance()
                return ast.BeginTransaction()
            raise ParseError("BEGIN blocks are only valid inside procedures", token.line, token.column)
        if token.is_keyword("COMMIT"):
            self._advance()
            self._match_keyword("TRANSACTION", "TRAN")
            return ast.CommitTransaction()
        if token.is_keyword("ROLLBACK"):
            self._advance()
            self._match_keyword("TRANSACTION", "TRAN")
            return ast.RollbackTransaction()
        if token.is_keyword("GRANT"):
            return self._parse_grant()
        raise ParseError(f"unexpected token {token.value!r}", token.line, token.column)

    def _at_end(self) -> bool:
        return self._peek().type is TokenType.EOF

    def _starts_expression(self) -> bool:
        token = self._peek()
        return token.type in (
            TokenType.NUMBER,
            TokenType.STRING,
            TokenType.PARAMETER,
            TokenType.IDENT,
            TokenType.LPAREN,
        ) or token.is_keyword("NULL", "NOT", "CASE", "EXISTS", "COUNT", "SUM", "AVG", "MIN", "MAX")

    # -- SELECT -------------------------------------------------------------

    def _parse_select_or_union(self) -> ast.Statement:
        first = self._parse_select()
        if not self._check_keyword("UNION"):
            return first
        branches = [first]
        while self._match_keyword("UNION"):
            self._expect_keyword("ALL")
            branches.append(self._parse_select())
        return ast.UnionAll(tuple(branches))

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        top = None
        if self._match_keyword("TOP"):
            if self._match(TokenType.LPAREN):
                top = self._parse_expression()
                self._expect(TokenType.RPAREN)
            else:
                top = self._parse_primary()
        distinct = False
        if self._match_keyword("DISTINCT"):
            distinct = True
        elif self._match_keyword("ALL"):
            pass
        items = [self._parse_select_item()]
        while self._match(TokenType.COMMA):
            items.append(self._parse_select_item())

        from_clause = None
        if self._match_keyword("FROM"):
            from_clause = self._parse_table_refs()
        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expression()
        group_by: Tuple[ast.Expression, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self._parse_expression()]
            while self._match(TokenType.COMMA):
                exprs.append(self._parse_expression())
            group_by = tuple(exprs)
        having = None
        if self._match_keyword("HAVING"):
            having = self._parse_expression()
        order_by: Tuple[ast.OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            entries = [self._parse_order_item()]
            while self._match(TokenType.COMMA):
                entries.append(self._parse_order_item())
            order_by = tuple(entries)
        freshness = None
        if self._check_keyword("WITH") and self._peek(1).is_keyword("FRESHNESS"):
            self._advance()
            self._advance()
            amount_token = self._expect(TokenType.NUMBER)
            amount = float(amount_token.value)
            unit = self._expect_keyword("SECONDS", "MINUTES")
            if unit.value == "MINUTES":
                amount *= 60.0
            freshness = ast.FreshnessSpec(max_staleness_seconds=amount)
        return ast.Select(
            items=tuple(items),
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            top=top,
            distinct=distinct,
            freshness=freshness,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type is TokenType.STAR:
            self._advance()
            return ast.SelectItem(ast.Star())
        # alias.* form
        if (
            token.type is TokenType.IDENT
            and self._peek(1).type is TokenType.DOT
            and self._peek(2).type is TokenType.STAR
        ):
            qualifier = self._advance().value
            self._advance()
            self._advance()
            return ast.SelectItem(ast.Star(qualifier=qualifier))
        # T-SQL assignment: SELECT @x = expr
        if token.type is TokenType.PARAMETER and self._peek(1).type is TokenType.OPERATOR and self._peek(1).value == "=":
            target = self._advance().value
            self._advance()  # =
            expression = self._parse_expression()
            return ast.SelectItem(expression, target_parameter=target)
        expression = self._parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias = self._identifier()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expression, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        else:
            self._match_keyword("ASC")
        return ast.OrderItem(expression, descending)

    def _parse_table_refs(self) -> ast.TableRef:
        ref = self._parse_joined_table()
        while self._match(TokenType.COMMA):
            right = self._parse_joined_table()
            ref = ast.JoinRef("CROSS", ref, right)
        return ref

    def _parse_joined_table(self) -> ast.TableRef:
        left = self._parse_primary_table()
        while True:
            kind = None
            if self._match_keyword("INNER"):
                kind = "INNER"
                self._expect_keyword("JOIN")
            elif self._match_keyword("LEFT"):
                self._match_keyword("OUTER")
                kind = "LEFT"
                self._expect_keyword("JOIN")
            elif self._match_keyword("CROSS"):
                kind = "CROSS"
                self._expect_keyword("JOIN")
            elif self._match_keyword("JOIN"):
                kind = "INNER"
            if kind is None:
                return left
            right = self._parse_primary_table()
            condition = None
            if kind != "CROSS":
                self._expect_keyword("ON")
                condition = self._parse_expression()
            left = ast.JoinRef(kind, left, right, condition)

    def _parse_primary_table(self) -> ast.TableRef:
        if self._match(TokenType.LPAREN):
            select = self._parse_select()
            self._expect(TokenType.RPAREN)
            self._match_keyword("AS")
            alias = self._identifier()
            return ast.DerivedTable(select, alias)
        parts = [self._identifier()]
        while self._match(TokenType.DOT):
            parts.append(self._identifier())
        if len(parts) > 4:
            token = self._peek()
            raise ParseError("names may have at most four parts", token.line, token.column)
        alias = None
        if self._match_keyword("AS"):
            alias = self._identifier()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.TableName(tuple(parts), alias)

    # -- DML ----------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._match_keyword("INTO")
        table = self._parse_plain_table_name()
        columns: Tuple[str, ...] = ()
        if self._peek().type is TokenType.LPAREN and not self._peek(1).is_keyword("SELECT"):
            self._advance()
            names = [self._identifier()]
            while self._match(TokenType.COMMA):
                names.append(self._identifier())
            self._expect(TokenType.RPAREN)
            columns = tuple(names)
        if self._match_keyword("VALUES"):
            rows = [self._parse_value_row()]
            while self._match(TokenType.COMMA):
                rows.append(self._parse_value_row())
            return ast.Insert(table, columns, rows=tuple(rows))
        if self._check_keyword("SELECT"):
            select = self._parse_select()
            return ast.Insert(table, columns, select=select)
        if self._match(TokenType.LPAREN):
            select = self._parse_select()
            self._expect(TokenType.RPAREN)
            return ast.Insert(table, columns, select=select)
        token = self._peek()
        raise ParseError("expected VALUES or SELECT in INSERT", token.line, token.column)

    def _parse_value_row(self) -> Tuple[ast.Expression, ...]:
        self._expect(TokenType.LPAREN)
        values = [self._parse_expression()]
        while self._match(TokenType.COMMA):
            values.append(self._parse_expression())
        self._expect(TokenType.RPAREN)
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._parse_plain_table_name()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._match(TokenType.COMMA):
            assignments.append(self._parse_assignment())
        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expression()
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> Tuple[str, ast.Expression]:
        name = self._identifier()
        self._expect(TokenType.OPERATOR, "=")
        return (name, self._parse_expression())

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._match_keyword("FROM")
        table = self._parse_plain_table_name()
        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expression()
        return ast.Delete(table, where)

    def _parse_plain_table_name(self) -> ast.TableName:
        parts = [self._identifier()]
        while self._match(TokenType.DOT):
            parts.append(self._identifier())
        return ast.TableName(tuple(parts))

    # -- DDL ----------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._match_keyword("TABLE"):
            return self._parse_create_table()
        unique = bool(self._match_keyword("UNIQUE"))
        clustered = bool(self._match_keyword("CLUSTERED"))
        if self._match_keyword("INDEX"):
            return self._parse_create_index(unique, clustered)
        materialized = bool(self._match_keyword("MATERIALIZED"))
        cached = bool(self._match_keyword("CACHED"))
        if self._match_keyword("VIEW"):
            name = self._identifier()
            self._expect_keyword("AS")
            select = self._parse_select()
            return ast.CreateView(name, select, materialized=materialized or cached, cached=cached)
        if self._match_keyword("PROCEDURE", "PROC"):
            return self._parse_create_procedure()
        token = self._peek()
        raise ParseError(f"unsupported CREATE {token.value!r}", token.line, token.column)

    def _parse_create_table(self) -> ast.CreateTable:
        name = self._identifier()
        self._expect(TokenType.LPAREN)
        columns: List[ast.ColumnDef] = []
        primary_key: Tuple[str, ...] = ()
        foreign_keys: List[ast.ForeignKeyDef] = []
        while True:
            if self._check_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                self._expect(TokenType.LPAREN)
                names = [self._identifier()]
                while self._match(TokenType.COMMA):
                    names.append(self._identifier())
                self._expect(TokenType.RPAREN)
                primary_key = tuple(names)
            elif self._check_keyword("FOREIGN"):
                self._advance()
                self._expect_keyword("KEY")
                self._expect(TokenType.LPAREN)
                cols = [self._identifier()]
                while self._match(TokenType.COMMA):
                    cols.append(self._identifier())
                self._expect(TokenType.RPAREN)
                self._expect_keyword("REFERENCES")
                ref_table = self._identifier()
                ref_cols: List[str] = []
                if self._match(TokenType.LPAREN):
                    ref_cols.append(self._identifier())
                    while self._match(TokenType.COMMA):
                        ref_cols.append(self._identifier())
                    self._expect(TokenType.RPAREN)
                foreign_keys.append(
                    ast.ForeignKeyDef(tuple(cols), ref_table, tuple(ref_cols))
                )
            else:
                columns.append(self._parse_column_def())
            if not self._match(TokenType.COMMA):
                break
        self._expect(TokenType.RPAREN)
        return ast.CreateTable(name, tuple(columns), primary_key, tuple(foreign_keys))

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._identifier()
        sql_type = self._parse_type()
        nullable = True
        primary_key = False
        default = None
        while True:
            if self._check_keyword("NOT") and self._peek(1).is_keyword("NULL"):
                self._advance()
                self._advance()
                nullable = False
            elif self._match_keyword("NULL"):
                nullable = True
            elif self._check_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                primary_key = True
                nullable = False
            elif self._match_keyword("DEFAULT"):
                default = self._parse_primary()
            else:
                return ast.ColumnDef(name, sql_type, nullable, primary_key, default)

    def _parse_type(self) -> SqlType:
        token = self._peek()
        if not token.is_keyword(
            "INT", "INTEGER", "BIGINT", "FLOAT", "REAL", "NUMERIC", "DECIMAL",
            "VARCHAR", "CHAR", "DATE", "DATETIME", "BIT",
        ):
            raise ParseError(f"expected type name, found {token.value!r}", token.line, token.column)
        self._advance()
        word = token.value
        if word in ("INT", "INTEGER"):
            return INT
        if word == "BIGINT":
            return BIGINT
        if word in ("FLOAT", "REAL"):
            return FLOAT
        if word in ("NUMERIC", "DECIMAL"):
            precision = scale = None
            if self._match(TokenType.LPAREN):
                precision = int(self._expect(TokenType.NUMBER).value)
                if self._match(TokenType.COMMA):
                    scale = int(self._expect(TokenType.NUMBER).value)
                self._expect(TokenType.RPAREN)
            return SqlType(TypeKind.NUMERIC, precision=precision or 15, scale=scale or 2)
        if word == "VARCHAR":
            length = None
            if self._match(TokenType.LPAREN):
                length = int(self._expect(TokenType.NUMBER).value)
                self._expect(TokenType.RPAREN)
            return VARCHAR(length)
        if word == "CHAR":
            length = 1
            if self._match(TokenType.LPAREN):
                length = int(self._expect(TokenType.NUMBER).value)
                self._expect(TokenType.RPAREN)
            return CHAR(length)
        if word == "DATE":
            return DATE
        if word == "DATETIME":
            return DATETIME
        return BOOLEAN

    def _parse_create_index(self, unique: bool, clustered: bool) -> ast.CreateIndex:
        name = self._identifier()
        self._expect_keyword("ON")
        table = self._identifier()
        self._expect(TokenType.LPAREN)
        columns = [self._identifier()]
        while self._match(TokenType.COMMA):
            columns.append(self._identifier())
        self._expect(TokenType.RPAREN)
        return ast.CreateIndex(name, table, tuple(columns), unique, clustered)

    def _parse_create_procedure(self) -> ast.CreateProcedure:
        name = self._identifier()
        params: List[ast.ProcedureParam] = []
        if self._peek().type is TokenType.PARAMETER:
            params.append(self._parse_procedure_param())
            while self._match(TokenType.COMMA):
                params.append(self._parse_procedure_param())
        self._expect_keyword("AS")
        body = self._parse_block()
        return ast.CreateProcedure(name, tuple(params), tuple(body))

    def _parse_procedure_param(self) -> ast.ProcedureParam:
        token = self._expect(TokenType.PARAMETER)
        sql_type = self._parse_type()
        default = None
        if self._match(TokenType.OPERATOR, "="):
            default = self._parse_primary()
        return ast.ProcedureParam(token.value, sql_type, default)

    def _parse_block(self) -> List[ast.Statement]:
        """Parse BEGIN stmt... END, or a single statement."""
        if self._match_keyword("BEGIN"):
            body: List[ast.Statement] = []
            while not self._check_keyword("END"):
                if self._at_end():
                    token = self._peek()
                    raise ParseError("unterminated BEGIN block", token.line, token.column)
                while self._match(TokenType.SEMICOLON):
                    pass
                if self._check_keyword("END"):
                    break
                body.append(self.parse_statement())
                while self._match(TokenType.SEMICOLON):
                    pass
            self._expect_keyword("END")
            return body
        return [self.parse_statement()]

    def _parse_drop(self) -> ast.DropObject:
        self._expect_keyword("DROP")
        kind_token = self._expect_keyword("TABLE", "INDEX", "VIEW", "PROCEDURE", "PROC")
        kind = "PROCEDURE" if kind_token.value == "PROC" else kind_token.value
        name = self._identifier()
        return ast.DropObject(kind, name)

    def _parse_grant(self) -> ast.Grant:
        self._expect_keyword("GRANT")
        permission = self._expect_keyword("SELECT", "INSERT", "UPDATE", "DELETE", "EXEC", "EXECUTE").value
        self._expect_keyword("ON")
        object_name = self._identifier()
        self._expect_keyword("TO")
        principal = self._identifier()
        return ast.Grant(permission, object_name, principal)

    # -- procedural ----------------------------------------------------------

    def _parse_execute(self) -> ast.Execute:
        self._expect_keyword("EXEC", "EXECUTE")
        parts = [self._identifier()]
        while self._match(TokenType.DOT):
            parts.append(self._identifier())
        arguments: List[Tuple[Optional[str], ast.Expression]] = []
        if self._starts_expression() or self._peek().type is TokenType.PARAMETER:
            arguments.append(self._parse_exec_argument())
            while self._match(TokenType.COMMA):
                arguments.append(self._parse_exec_argument())
        return ast.Execute(tuple(parts), tuple(arguments))

    def _parse_exec_argument(self) -> Tuple[Optional[str], ast.Expression]:
        if (
            self._peek().type is TokenType.PARAMETER
            and self._peek(1).type is TokenType.OPERATOR
            and self._peek(1).value == "="
        ):
            name = self._advance().value
            self._advance()
            return (name, self._parse_expression())
        return (None, self._parse_expression())

    def _parse_declare(self) -> ast.Declare:
        self._expect_keyword("DECLARE")
        token = self._expect(TokenType.PARAMETER)
        sql_type = self._parse_type()
        initial = None
        if self._match(TokenType.OPERATOR, "="):
            initial = self._parse_expression()
        return ast.Declare(token.value, sql_type, initial)

    def _parse_set(self) -> ast.SetVariable:
        self._expect_keyword("SET")
        token = self._expect(TokenType.PARAMETER)
        self._expect(TokenType.OPERATOR, "=")
        return ast.SetVariable(token.value, self._parse_expression())

    def _parse_if(self) -> ast.IfStatement:
        self._expect_keyword("IF")
        condition = self._parse_expression()
        then_body = self._parse_block()
        else_body: List[ast.Statement] = []
        if self._match_keyword("ELSE"):
            else_body = self._parse_block()
        return ast.IfStatement(condition, tuple(then_body), tuple(else_body))

    def _parse_while(self) -> ast.WhileStatement:
        self._expect_keyword("WHILE")
        condition = self._parse_expression()
        body = self._parse_block()
        return ast.WhileStatement(condition, tuple(body))

    # -- expressions ----------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._match_keyword("OR"):
            right = self._parse_and()
            left = ast.BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            right = self._parse_not()
            left = ast.BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self._match_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ("=", "<>", "<", "<=", ">", ">="):
            op = self._advance().value
            right = self._parse_additive()
            return ast.BinaryOp(op, left, right)
        negated = False
        if self._check_keyword("NOT") and self._peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
            self._advance()
            negated = True
        if self._match_keyword("IS"):
            is_negated = bool(self._match_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)
        if self._match_keyword("IN"):
            self._expect(TokenType.LPAREN)
            if self._check_keyword("SELECT"):
                subquery = self._parse_select()
                self._expect(TokenType.RPAREN)
                return ast.InSubquery(left, subquery, negated)
            items = [self._parse_expression()]
            while self._match(TokenType.COMMA):
                items.append(self._parse_expression())
            self._expect(TokenType.RPAREN)
            return ast.InList(left, tuple(items), negated)
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self._match_keyword("LIKE"):
            pattern = self._parse_additive()
            return ast.Like(left, pattern, negated)
        if negated:
            raise ParseError("dangling NOT", token.line, token.column)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                op = self._advance().value
                right = self._parse_multiplicative()
                left = ast.BinaryOp(op, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.type is TokenType.STAR:
                self._advance()
                left = ast.BinaryOp("*", left, self._parse_unary())
            elif token.type is TokenType.OPERATOR and token.value in ("/", "%"):
                op = self._advance().value
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            self._advance()
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if token.type is TokenType.OPERATOR and token.value == "+":
            self._advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.type is TokenType.PARAMETER:
            self._advance()
            return ast.Parameter(token.value)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect(TokenType.LPAREN)
            subquery = self._parse_select()
            self._expect(TokenType.RPAREN)
            return ast.Exists(subquery)
        if token.is_keyword("COUNT", "SUM", "AVG", "MIN", "MAX"):
            self._advance()
            return self._parse_func_call(token.value)
        if token.type is TokenType.LPAREN:
            self._advance()
            if self._check_keyword("SELECT"):
                subquery = self._parse_select()
                self._expect(TokenType.RPAREN)
                return ast.ScalarSubquery(subquery)
            expression = self._parse_expression()
            self._expect(TokenType.RPAREN)
            return expression
        if token.type is TokenType.IDENT or token.value in _SOFT_KEYWORDS:
            name = self._identifier()
            if self._peek().type is TokenType.LPAREN:
                return self._parse_func_call(name.upper())
            if self._match(TokenType.DOT):
                column = self._identifier()
                return ast.ColumnRef(column, qualifier=name)
            return ast.ColumnRef(name)
        raise ParseError(f"unexpected token {token.value!r} in expression", token.line, token.column)

    def _parse_func_call(self, name: str) -> ast.FuncCall:
        self._expect(TokenType.LPAREN)
        distinct = bool(self._match_keyword("DISTINCT"))
        args: List[ast.Expression] = []
        if self._peek().type is TokenType.STAR:
            self._advance()
            args.append(ast.Star())
        elif self._peek().type is not TokenType.RPAREN:
            args.append(self._parse_expression())
            while self._match(TokenType.COMMA):
                args.append(self._parse_expression())
        self._expect(TokenType.RPAREN)
        return ast.FuncCall(name, tuple(args), distinct)

    def _parse_case(self) -> ast.CaseWhen:
        self._expect_keyword("CASE")
        whens: List[Tuple[ast.Expression, ast.Expression]] = []
        while self._match_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            result = self._parse_expression()
            whens.append((condition, result))
        else_result = None
        if self._match_keyword("ELSE"):
            else_result = self._parse_expression()
        self._expect_keyword("END")
        if not whens:
            token = self._peek()
            raise ParseError("CASE requires at least one WHEN", token.line, token.column)
        return ast.CaseWhen(tuple(whens), else_result)


#: Keywords that may also appear as identifiers (column/table names).
_SOFT_KEYWORDS = frozenset(
    {"DATE", "DATETIME", "KEY", "COUNT", "SUM", "AVG", "MIN", "MAX", "TOP", "ALL", "BIT"}
)


def parse(text: str) -> ast.Statement:
    """Parse a single statement from SQL text."""
    parser = Parser(text)
    statement = parser.parse_statement()
    while parser._match(TokenType.SEMICOLON):
        pass
    if not parser._at_end():
        token = parser._peek()
        raise ParseError(f"unexpected trailing input {token.value!r}", token.line, token.column)
    return statement


def parse_statements(text: str) -> List[ast.Statement]:
    """Parse a batch of statements from SQL text."""
    return Parser(text).parse_statements()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (used in tests and view predicates)."""
    parser = Parser(text)
    expression = parser._parse_expression()
    if not parser._at_end():
        token = parser._peek()
        raise ParseError(f"unexpected trailing input {token.value!r}", token.line, token.column)
    return expression
