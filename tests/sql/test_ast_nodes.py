"""The AST node base: fields declared as annotations, immutable instances
with field equality and hashing, ``replace`` and argument checking."""

import pytest

from repro.sql import ast, parse


class TestFields:
    def test_fields_and_defaults_follow_the_declaration(self):
        assert ast.Select._fields == (
            "items", "from_clause", "where", "group_by", "having",
            "order_by", "top", "distinct", "freshness",
        )  # fmt: skip
        assert ast.Select._defaults["group_by"] == ()
        assert "items" not in ast.Select._defaults
        assert ast.Between._fields == ("operand", "low", "high", "negated")
        assert ast.BeginTransaction._fields == ()

    def test_positional_keyword_and_mixed_arguments_build_the_same_node(self):
        built = [
            ast.ColumnRef("a", "t"),
            ast.ColumnRef("a", qualifier="t"),
            ast.ColumnRef(qualifier="t", name="a"),
        ]
        assert built[0] == built[1] == built[2]
        assert (built[0].name, built[0].qualifier) == ("a", "t")
        assert ast.ColumnRef("a").qualifier is None

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ast.ColumnRef(), "missing argument 'name'"),
            (lambda: ast.BinaryOp("=", ast.Literal(1)), "missing argument 'right'"),
            (lambda: ast.ColumnRef("a", "t", "x"), "takes 2 arguments but 3 were given"),
            (lambda: ast.ColumnRef("a", name="b"), "repeated argument 'name'"),
            (lambda: ast.ColumnRef("a", table="t"), "unexpected or repeated argument 'table'"),
        ],
    )
    def test_a_wrong_argument_list_is_a_type_error(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()


class TestValueSemantics:
    def test_equal_fields_of_one_class_are_equal_and_hash_alike(self):
        first = parse("SELECT a FROM t WHERE b = 1")
        second = parse("SELECT a FROM t WHERE b = 1")
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert first != parse("SELECT a FROM t WHERE b = 2")

    def test_a_node_hashes_as_the_tuple_of_its_fields(self):
        node = ast.BinaryOp("=", ast.ColumnRef("a"), ast.Literal(1))
        assert hash(node) == hash(("=", ast.ColumnRef("a"), ast.Literal(1)))
        assert hash(ast.BeginTransaction()) == hash(())

    def test_nodes_of_different_classes_differ_even_with_equal_fields(self):
        assert ast.Literal("x") != ast.Parameter("x")
        assert ast.Literal(1) != (1,)

    def test_nodes_are_immutable(self):
        node = ast.ColumnRef("a")
        with pytest.raises(AttributeError):
            node.name = "b"
        with pytest.raises(AttributeError):
            del node.name

    def test_replace_changes_the_named_fields_only(self):
        select = parse("SELECT a FROM t WITH FRESHNESS 5 SECONDS")
        stripped = select.replace(freshness=None)
        assert type(stripped) is ast.Select and stripped.freshness is None
        assert stripped.items == select.items and select.freshness is not None
        with pytest.raises(TypeError):
            select.replace(nonsense=1)

    def test_repr_names_every_field(self):
        assert repr(ast.ColumnRef("a")) == "ColumnRef(name='a', qualifier=None)"
