"""An index's exact-key map stays the tree's twin through every write.

``SecondaryIndex`` answers full-key probes from a dict keyed by the
stored key (the bare value for a one-column index) whose values are the
tree's own payload lists. After any insert, update, delete, undo
re-insert (``insert_with_rid``), refused insert or ``truncate`` the map
must hold exactly the tree's keys, each bound to the very list the leaf
holds, none of them empty.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog.objects import TableDef
from repro.common.schema import Column, Schema
from repro.common.types import INT, VARCHAR
from repro.engine.database import Database
from repro.errors import ConstraintError


def make_table():
    database = Database("exact")
    schema = Schema(
        [Column("id", INT, nullable=False), Column("g", INT), Column("name", VARCHAR(8))]
    )
    database.create_storage(TableDef("t", schema, primary_key=("id",)))
    table = database.storage_table("t")
    table.create_index("ix_g", ["g"])
    table.create_index("ix_g_name", ["g", "name"])
    return table


def leaf_entries(index):
    """``(exact-map key, payload list)`` for every key in the tree."""
    node = index.tree.root
    while not node.is_leaf:
        node = node.children[0]
    entries = []
    while node is not None:
        for key, payloads in zip(node.keys, node.values):
            parts = tuple(part[-1] if len(part) > 1 else None for part in key)
            entries.append((parts[0] if len(parts) == 1 else parts, payloads))
        node = node.next_leaf
    return entries


def assert_twins(table):
    for index in table.indexes.values():
        entries = leaf_entries(index)
        assert len(index._exact) == len(entries), index
        for key, payloads in entries:
            assert payloads, index
            assert index._exact[key] is payloads, (index, key)
        # And the map answers what a scan answers.
        for key, payloads in entries:
            probe = key if isinstance(key, tuple) else (key,)
            expected = [
                rid
                for rid, row in table.rows.items()
                if tuple(row[p] for p in index.positions) == probe
            ]
            assert sorted(index.seek(probe)) == sorted(expected) == sorted(payloads)


def test_map_follows_every_kind_of_write():
    table = make_table()
    rng = random.Random(7)
    rids = {}
    for i in range(300):  # enough to split leaves
        rids[i] = table.insert((i, rng.randrange(12), rng.choice(["a", "b", None])))
    assert_twins(table)
    for i in range(0, 300, 7):
        table.update_rid(rids[i], (i, rng.randrange(12), "c"))  # moves between keys
    for i in range(1, 300, 11):
        table.update_rid(rids[i], table.rows[rids[i]])  # same key
    assert_twins(table)
    deleted = {}
    for i in range(2, 300, 3):
        deleted[rids[i]] = table.delete_rid(rids[i])
    assert_twins(table)
    for rid, row in deleted.items():  # a rollback re-inserts under the old rid
        table.insert_with_rid(rid, row)
    assert_twins(table)
    with pytest.raises(ConstraintError):
        table.insert((5, 99, "dup"))  # primary key taken: every index undone
    with pytest.raises(ConstraintError):
        table.update_rid(rids[6], (7, 1, "x"))
    assert_twins(table)
    assert table.indexes["ix_g"].seek((99,)) == []
    table.truncate()
    assert_twins(table)
    assert all(not index._exact for index in table.indexes.values())
    again = [table.insert((1, 3, "a")), table.insert((2, 3, "a"))]
    assert_twins(table)
    assert table.indexes["ix_g_name"].seek((3, "a")) == again


def test_duplicate_keys_share_one_list_in_insertion_order():
    table = make_table()
    first = table.insert((1, 4, "x"))
    second = table.insert((2, 4, "y"))
    third = table.insert((3, 4, "x"))
    index = table.indexes["ix_g"]
    assert index.seek((4,)) == [first, second, third]
    table.delete_rid(second)
    assert index.seek((4,)) == [first, third]
    table.insert_with_rid(second, (2, 4, "y"))
    assert index.seek((4,)) == [first, third, second]
    assert table.indexes["ix_g_name"].seek((4,)) == [first, third, second]  # prefix: the tree
    assert_twins(table)
