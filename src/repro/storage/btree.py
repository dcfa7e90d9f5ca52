"""An in-memory B+-tree with range scans and duplicate-key support.

Keys are tuples of SQL values. Because Python cannot order ``None`` against
other values (and SQL gives NULL a defined sort position: first, ascending),
keys are passed through :func:`encode_key` which maps every part to a
``(tag, value)`` pair with NULL tagged lowest. Numbers — ``bool`` included,
as the comparison rule has it — share one tag and compare natively;
strings/dates only meet their own kind in a typed column.

Leaves are linked for ordered scans. Each key maps to a small list of
payloads so secondary indexes with duplicate keys need no special casing.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Sequence, Tuple

_NULL_TAG = 0
_NUMBER_TAG = 1
_STRING_TAG = 2
_OTHER_TAG = 3  # dates, datetimes — ordered within their own kind

#: Sorts after every real key component; used to turn a key prefix into an
#: upper bound covering all keys that start with the prefix.
PREFIX_SENTINEL = (9,)


def encode_part(part: Any) -> Tuple:
    """Encode one key component so heterogeneous parts never compare."""
    if part is None:
        return (_NULL_TAG,)
    if isinstance(part, (int, float)):
        return (_NUMBER_TAG, part)
    if isinstance(part, str):
        return (_STRING_TAG, part)
    return (_OTHER_TAG, type(part).__name__, part)


def encode_key(parts: Sequence[Any]) -> Tuple:
    """Encode a composite key for storage in the tree."""
    return tuple([encode_part(part) for part in parts])


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: List[Tuple] = []
        self.children: List["_Node"] = []  # internal nodes only
        self.values: List[List[Any]] = []  # leaf nodes only
        self.next_leaf: Optional["_Node"] = None


class BPlusTree:
    """A B+-tree mapping encoded composite keys to lists of payloads."""

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = order
        self.root = _Node(is_leaf=True)
        self._size = 0  # number of (key, payload) pairs
        # The rightmost leaf, or one left of it that splits have since
        # moved it past (``insert`` follows ``next_leaf`` to catch up).
        self._last = self.root

    def __len__(self) -> int:
        return self._size

    # -- lookup ---------------------------------------------------------------

    def _find_leaf(self, key: Tuple) -> _Node:
        node = self.root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def get(self, key: Tuple) -> List[Any]:
        """Return the payload list for ``key`` (empty when absent)."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def scan(
        self,
        low: Optional[Tuple] = None,
        high: Optional[Tuple] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Tuple, Any]]:
        """Yield ``(key, payload)`` pairs in key order within the bounds.

        A ``low``/``high`` of None means unbounded on that side. Prefix
        bounds work naturally because tuple comparison is lexicographic.
        """
        if low is None:
            node: Optional[_Node] = self.root
            while node and not node.is_leaf:
                node = node.children[0]
            index = 0
        else:
            node = self._find_leaf(low)
            if low_inclusive:
                index = bisect.bisect_left(node.keys, low)
            else:
                index = bisect.bisect_right(node.keys, low)
        while node is not None:
            while index < len(node.keys):
                key = node.keys[index]
                if high is not None:
                    if high_inclusive:
                        if key > high:
                            return
                    elif key >= high:
                        return
                for payload in node.values[index]:
                    yield key, payload
                index += 1
            node = node.next_leaf
            index = 0

    def scan_prefix(self, prefix: Tuple) -> Iterator[Tuple[Tuple, Any]]:
        """Yield all entries whose key starts with ``prefix`` (encoded)."""
        for key, payload in self.scan(low=prefix):
            if key[: len(prefix)] != prefix:
                return
            yield key, payload

    # -- mutation ---------------------------------------------------------------

    def insert(self, key: Tuple, payload: Any) -> List[Any]:
        """Insert a payload under ``key`` (duplicates allowed).

        Returns the key's payload list itself — the object the leaf holds
        for as long as the key has payloads (splits move it, never copy
        it) — so an index can reach it without a descent.

        A key above every stored key, while the rightmost leaf has room,
        is appended to that leaf without a descent: ascending keys (a bulk
        load, new order ids) arrive that way.
        """
        last = self._last
        while last.next_leaf is not None:
            last = last.next_leaf
        self._last = last
        keys = last.keys
        if keys and key > keys[-1] and len(keys) < self.order:
            payloads = [payload]
            keys.append(key)
            last.values.append(payloads)
            self._size += 1
            return payloads
        root = self.root
        if len(root.keys) >= self.order:
            new_root = _Node(is_leaf=False)
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self.root = new_root
        payloads = self._insert_nonfull(self.root, key, payload)
        self._size += 1
        return payloads

    def _insert_nonfull(self, node: _Node, key: Tuple, payload: Any) -> List[Any]:
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            child = node.children[index]
            if len(child.keys) >= self.order:
                self._split_child(node, index)
                if key > node.keys[index]:
                    index += 1
                child = node.children[index]
            node = child
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            payloads = node.values[index]
            payloads.append(payload)
        else:
            payloads = [payload]
            node.keys.insert(index, key)
            node.values.insert(index, payloads)
        return payloads

    def _split_child(self, parent: _Node, index: int) -> None:
        child = parent.children[index]
        middle = len(child.keys) // 2
        sibling = _Node(is_leaf=child.is_leaf)
        if child.is_leaf:
            sibling.keys = child.keys[middle:]
            sibling.values = child.values[middle:]
            child.keys = child.keys[:middle]
            child.values = child.values[:middle]
            sibling.next_leaf = child.next_leaf
            child.next_leaf = sibling
            separator = sibling.keys[0]
        else:
            separator = child.keys[middle]
            sibling.keys = child.keys[middle + 1 :]
            sibling.children = child.children[middle + 1 :]
            child.keys = child.keys[:middle]
            child.children = child.children[: middle + 1]
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, sibling)

    def delete(self, key: Tuple, payload: Any) -> bool:
        """Remove one matching ``payload`` stored under ``key``.

        Returns True when an entry was removed. Structural rebalancing is
        deliberately lazy (keys with empty payload lists are purged); for an
        in-memory index this preserves correctness and scan order without
        the complexity of full B-tree deletion.
        """
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        payloads = leaf.values[index]
        try:
            payloads.remove(payload)
        except ValueError:
            return False
        if not payloads:
            leaf.keys.pop(index)
            leaf.values.pop(index)
        self._size -= 1
        return True

    def clear(self) -> None:
        """Remove every entry."""
        self.root = self._last = _Node(is_leaf=True)
        self._size = 0

    def items(self) -> Iterator[Tuple[Tuple, Any]]:
        """Yield every (key, payload) pair in order."""
        return self.scan()

    def min_key(self) -> Optional[Tuple]:
        """Return the smallest key, or None when empty."""
        for key, _ in self.scan():
            return key
        return None

    def max_key(self) -> Optional[Tuple]:
        """Return the largest key, or None when empty."""
        node = self.root
        while not node.is_leaf:
            node = node.children[-1]
        # Rightmost leaf may be empty after lazy deletes; walk leaves if so.
        if node.keys:
            return node.keys[-1]
        result = None
        for key, _ in self.scan():
            result = key
        return result
