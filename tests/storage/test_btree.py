"""B+-tree unit and property-based tests."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.btree import BPlusTree, encode_key


class TestBasics:
    def test_empty(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.get(encode_key((1,))) == []
        assert tree.min_key() is None
        assert tree.max_key() is None

    def test_insert_get(self):
        tree = BPlusTree()
        tree.insert(encode_key((5,)), "a")
        assert tree.get(encode_key((5,))) == ["a"]

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree()
        key = encode_key((5,))
        tree.insert(key, "a")
        tree.insert(key, "b")
        assert sorted(tree.get(key)) == ["a", "b"]
        assert len(tree) == 2

    def test_delete_specific_payload(self):
        tree = BPlusTree()
        key = encode_key((5,))
        tree.insert(key, "a")
        tree.insert(key, "b")
        assert tree.delete(key, "a")
        assert tree.get(key) == ["b"]

    def test_delete_missing_returns_false(self):
        tree = BPlusTree()
        assert not tree.delete(encode_key((1,)), "x")

    def test_clear(self):
        tree = BPlusTree()
        for i in range(100):
            tree.insert(encode_key((i,)), i)
        tree.clear()
        assert len(tree) == 0


class TestSplitsAndOrder:
    def test_many_inserts_stay_sorted(self):
        tree = BPlusTree(order=8)
        values = list(range(1000))
        random.Random(3).shuffle(values)
        for value in values:
            tree.insert(encode_key((value,)), value)
        scanned = [payload for _, payload in tree.scan()]
        assert scanned == list(range(1000))

    def test_min_max(self):
        tree = BPlusTree(order=8)
        for value in (5, 1, 9, 3):
            tree.insert(encode_key((value,)), value)
        assert tree.min_key() == encode_key((1,))
        assert tree.max_key() == encode_key((9,))

    def test_max_key_after_deleting_rightmost(self):
        tree = BPlusTree(order=4)
        for value in range(50):
            tree.insert(encode_key((value,)), value)
        for value in range(40, 50):
            assert tree.delete(encode_key((value,)), value)
        assert tree.max_key() == encode_key((39,))


class TestRangeScans:
    def make_tree(self):
        tree = BPlusTree(order=8)
        for value in range(0, 100, 2):  # evens
            tree.insert(encode_key((value,)), value)
        return tree

    def test_bounded_inclusive(self):
        tree = self.make_tree()
        result = [p for _, p in tree.scan(encode_key((10,)), encode_key((20,)))]
        assert result == [10, 12, 14, 16, 18, 20]

    def test_bounded_exclusive(self):
        tree = self.make_tree()
        result = [
            p
            for _, p in tree.scan(
                encode_key((10,)), encode_key((20,)), low_inclusive=False, high_inclusive=False
            )
        ]
        assert result == [12, 14, 16, 18]

    def test_open_low(self):
        tree = self.make_tree()
        result = [p for _, p in tree.scan(high=encode_key((6,)))]
        assert result == [0, 2, 4, 6]

    def test_open_high(self):
        tree = self.make_tree()
        result = [p for _, p in tree.scan(low=encode_key((94,)))]
        assert result == [94, 96, 98]

    def test_bounds_between_keys(self):
        tree = self.make_tree()
        result = [p for _, p in tree.scan(encode_key((11,)), encode_key((15,)))]
        assert result == [12, 14]

    def test_prefix_scan_composite(self):
        tree = BPlusTree()
        for a in range(3):
            for b in range(4):
                tree.insert(encode_key((a, b)), (a, b))
        result = [p for _, p in tree.scan_prefix(encode_key((1,)))]
        assert result == [(1, 0), (1, 1), (1, 2), (1, 3)]


class TestKeyEncoding:
    def test_null_sorts_first(self):
        tree = BPlusTree()
        tree.insert(encode_key((5,)), 5)
        tree.insert(encode_key((None,)), None)
        tree.insert(encode_key((1,)), 1)
        assert [p for _, p in tree.scan()] == [None, 1, 5]

    def test_mixed_int_float_compare(self):
        assert encode_key((1,)) < encode_key((1.5,)) < encode_key((2,))

    def test_strings_and_numbers_do_not_collide(self):
        tree = BPlusTree()
        tree.insert(encode_key(("a",)), "a")
        tree.insert(encode_key((1,)), 1)
        assert [p for _, p in tree.scan()] == [1, "a"]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-1000, 1000), st.integers(0, 5)),
        min_size=0,
        max_size=300,
    )
)
def test_property_scan_matches_sorted_insertion(pairs):
    """Full scan always yields entries in encoded-key order with the right
    multiplicity, regardless of insertion order."""
    tree = BPlusTree(order=6)
    for key_value, payload in pairs:
        tree.insert(encode_key((key_value,)), payload)
    scanned = [(key, payload) for key, payload in tree.scan()]
    expected = sorted(
        (encode_key((key_value,)), payload) for key_value, payload in pairs
    )
    # Payload order within a key is insertion order, so compare as multisets
    # per key while requiring global key order.
    assert [key for key, _ in scanned] == [key for key, _ in expected]
    assert sorted(scanned) == expected
    assert len(tree) == len(pairs)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=200, unique=True),
    st.data(),
)
def test_property_deletes_remove_exactly(keys, data):
    tree = BPlusTree(order=6)
    for key_value in keys:
        tree.insert(encode_key((key_value,)), key_value)
    to_delete = data.draw(st.lists(st.sampled_from(keys), unique=True))
    for key_value in to_delete:
        assert tree.delete(encode_key((key_value,)), key_value)
    remaining = sorted(set(keys) - set(to_delete))
    assert [p for _, p in tree.scan()] == remaining


# -- the append path: ascending keys go straight to the rightmost leaf --------

#: One step against a tree and its oracle: append above the greatest key so
#: far, insert anywhere (duplicates likely), delete the top keys (emptying
#: the rightmost leaf), delete anywhere, or clear.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 12)),
        st.tuples(st.just("insert"), st.integers(0, 60)),
        st.tuples(st.just("drop_top"), st.integers(1, 10)),
        st.tuples(st.just("delete"), st.integers(0, 60)),
        st.tuples(st.just("clear"), st.just(0)),
    ),
    max_size=60,
)


def _tree_key(value):
    """A two-part key whose first part groups values by four, so prefix
    scans cross leaves."""
    return encode_key((value // 4, value))


class _Oracle:
    """A sorted-dict model of the tree: value -> payloads in insertion order."""

    def __init__(self):
        self.entries = {}
        self.top = 0  # every value ever inserted lies at or below it

    def items(self, low=None, high=None):
        return [
            (_tree_key(value), payload)
            for value in sorted(self.entries)
            if (low is None or value >= low) and (high is None or value <= high)
            for payload in self.entries[value]
        ]


def _apply(tree, oracle, steps, rng):
    payloads = itertools.count()
    for action, amount in steps:
        if action == "append":
            for _ in range(amount):
                oracle.top += rng.randint(1, 3)
                payload = next(payloads)
                tree.insert(_tree_key(oracle.top), payload)
                oracle.entries.setdefault(oracle.top, []).append(payload)
        elif action == "insert":
            payload = next(payloads)
            tree.insert(_tree_key(amount), payload)
            oracle.entries.setdefault(amount, []).append(payload)
            oracle.top = max(oracle.top, amount)
        elif action in ("drop_top", "delete"):
            victims = sorted(oracle.entries)[-amount:] if action == "drop_top" else [amount]
            for value in victims:
                for payload in oracle.entries.pop(value, []):
                    assert tree.delete(_tree_key(value), payload)
        else:
            tree.clear()
            oracle.entries.clear()


def _check(tree, oracle):
    assert list(tree.items()) == oracle.items()
    assert len(tree) == sum(map(len, oracle.entries.values()))
    for value in range(oracle.top + 2):
        assert tree.get(_tree_key(value)) == oracle.entries.get(value, [])
    for low, high in ((0, oracle.top // 2), (oracle.top // 3, oracle.top), (5, 9)):
        assert list(tree.scan(_tree_key(low), _tree_key(high))) == oracle.items(low, high)
    for group in range(oracle.top // 4 + 2):
        assert list(tree.scan_prefix(encode_key((group,)))) == [
            entry for entry in oracle.items() if entry[0][0] == encode_key((group,))[0]
        ]


@settings(max_examples=60, deadline=None)
@given(_STEPS, st.integers(0, 2**16))
def test_property_appends_interleaved_with_every_write(steps, seed):
    tree, oracle = BPlusTree(order=4), _Oracle()
    _apply(tree, oracle, steps, random.Random(seed))
    _check(tree, oracle)
    # And a cleared tree takes ascending keys above everything it held.
    tree.clear()
    oracle.entries.clear()
    _apply(tree, oracle, [("append", 20)], random.Random(seed))
    _check(tree, oracle)


def test_append_after_clear_lands_in_the_new_tree():
    tree = BPlusTree(order=4)
    for value in range(30):
        tree.insert(encode_key((value,)), value)
    tree.clear()
    for value in range(100, 110):
        tree.insert(encode_key((value,)), value)
    assert [payload for _, payload in tree.items()] == list(range(100, 110))
    assert tree.get(encode_key((105,))) == [105]


def test_equal_key_joins_the_existing_list():
    tree = BPlusTree()  # the rightmost leaf has room, so only the key decides
    for value in range(10):
        first = tree.insert(encode_key((value,)), value)
    again = tree.insert(encode_key((9,)), "again")
    assert again is first
    assert tree.get(encode_key((9,))) == [9, "again"]
    assert [key for key, _ in tree.items()].count(encode_key((9,))) == 2


def test_exact_map_holds_the_tree_lists_after_appends():
    from tests.storage.test_index_exact_map import assert_twins, make_table

    table = make_table()
    rng = random.Random(11)
    rids = [table.insert((i, i // 3, "a")) for i in range(200)]  # ascending keys
    for i in (500, 250, 201, 499):  # out of order
        table.insert((i, rng.randrange(70), "b"))
    for rid in rids[-40:]:  # empties the rightmost leaves
        table.delete_rid(rid)
    rids = [table.insert((i, i // 3, None)) for i in range(600, 700)]
    table.insert_with_rid(rids[0] + 1000, (900, 1, "c"))
    assert_twins(table)
    table.truncate()
    for i in range(1000, 1100):
        table.insert((i, i % 5, "d"))
    assert_twins(table)
    assert sorted(table.indexes["pk_t"].seek((1050,))) == [
        rid for rid, row in table.rows.items() if row[0] == 1050
    ]
