"""Placement for the sharded cache tier: contiguous key ranges.

There is one strategy, :class:`RangePartitioner`, because a shard's
slice has to be a **SQL predicate**: ``key BETWEEN lo AND hi``
(:func:`slice_predicate`) is what a shard's cached views carry as their
WHERE clause, what their replication articles carry as a row
restriction, and what lets the optimizer build dynamic plans whose
guards keep even a misrouted key correct. Ownership of a hash bucket is
not expressible that way, so consistent hashing — more uniform under
skew — cannot place data here.

:func:`stable_hash` (md5-based) is what any code that does need a hash
of a key must use, never Python's builtin ``hash`` — the builtin is
salted per process, and anything derived from a key must be
deterministic across processes and runs. The ``shard-ownership``
selflint rule enforces that no code outside this package improvises
``hash(...) % n`` placement.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.locks import rmutex
from repro.sql import ast


def stable_hash(value: object) -> int:
    """A process-independent 64-bit hash (md5 prefix) of ``str(value)``."""
    digest = hashlib.md5(str(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def slice_predicate(
    column: str, low: int, high: int, qualifier: Optional[str] = None
) -> ast.Expression:
    """A slice as an AST predicate: ``column BETWEEN low AND high``."""
    return ast.Between(
        operand=ast.ColumnRef(name=column, qualifier=qualifier),
        low=ast.Literal(low),
        high=ast.Literal(high),
    )


class RangePartitioner:
    """Contiguous key ranges over an integer key domain.

    Ranges are inclusive on both ends, kept contiguous and in shard-list
    order; keys outside the domain clamp to the edge shards (the dynamic
    plans' guards make a wrong guess merely slower, never incorrect).
    ``version`` bumps on every boundary change so routers can invalidate
    per-shard statement caches.

    Routers consult the partitioner from worker threads while the
    rebalancer mutates it, so every read and mutation runs under one
    reentrant mutex; :meth:`move_boundary` shifts a boundary between two
    adjacent shards as a *single* version bump, so no reader can observe
    the half-moved state where a key range belongs to both or neither.
    """

    def __init__(self, shards: Iterable[str], low: int, high: int):
        names = list(shards)
        if not names:
            raise ValueError("need at least one shard")
        if high < low:
            raise ValueError(f"empty key domain [{low}, {high}]")
        self.low = low
        self.high = high
        self.version = 0
        self._mutex = rmutex()
        self._shards: List[str] = []
        self._ranges: Dict[str, Tuple[int, int]] = {}
        total = high - low + 1
        count = len(names)
        start = low
        for index, name in enumerate(names):
            # Spread the remainder over the first shards, one key each.
            width = total // count + (1 if index < total % count else 0)
            end = start + width - 1
            self._shards.append(name)
            self._ranges[name] = (start, end)
            start = end + 1

    @property
    def shards(self) -> Tuple[str, ...]:
        with self._mutex:
            return tuple(self._shards)

    def slice(self, shard: str) -> Tuple[int, int]:
        """The shard's inclusive ``(low, high)`` range (empty when high < low)."""
        with self._mutex:
            try:
                return self._ranges[shard]
            except KeyError:
                raise ValueError(f"no shard {shard!r}") from None

    def owner(self, key: int) -> str:
        with self._mutex:
            boundaries = [
                (self._ranges[name][1], name)
                for name in self._shards
                if self._ranges[name][0] <= self._ranges[name][1]
            ]
        if not boundaries:
            raise ValueError("all shard ranges are empty")
        boundaries.sort()
        position = bisect.bisect_left(boundaries, (key, ""))
        if position == len(boundaries):
            position -= 1  # clamp above the domain to the last shard
        return boundaries[position][1]

    def ownership(self, keys: Iterable[int]) -> Dict[str, int]:
        counts = {shard: 0 for shard in self.shards}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    # -- rebalancing primitives -------------------------------------------

    def set_slice(self, shard: str, low: int, high: int) -> None:
        """Assign a range directly (rebalance internals; bumps version)."""
        with self._mutex:
            if shard not in self._ranges:
                raise ValueError(f"no shard {shard!r}")
            self._ranges[shard] = (low, high)
            self.version += 1

    def move_boundary(self, left: str, right: str, cut: int) -> None:
        """Move the boundary between two adjacent shards atomically.

        After the move ``left`` owns ``[left.low, cut]`` and ``right``
        owns ``[cut + 1, right.high]``. Both slices change under one
        mutex hold and one version bump — a concurrent :meth:`owner`
        call sees either the old cutover or the new one, never a state
        where keys around the boundary have two owners or none.
        """
        with self._mutex:
            left_low, left_high = self.slice(left)
            right_low, right_high = self.slice(right)
            if left_high + 1 != right_low:
                raise ValueError(
                    f"shards {left!r} [{left_low}, {left_high}] and {right!r} "
                    f"[{right_low}, {right_high}] are not adjacent"
                )
            if not (left_low - 1 <= cut <= right_high):
                raise ValueError(
                    f"cut {cut} outside the combined range [{left_low}, {right_high}]"
                )
            self._ranges[left] = (left_low, cut)
            self._ranges[right] = (cut + 1, right_high)
            self.version += 1

    def widest_shard(self) -> str:
        """The shard owning the most keys (the natural split donor)."""
        with self._mutex:
            return max(
                self._shards,
                key=lambda name: self._ranges[name][1] - self._ranges[name][0],
            )

    def plan_split(self, donor: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Halve the donor's range: returns (donor_keeps, new_shard_takes)."""
        low, high = self.slice(donor)
        if high <= low:
            raise ValueError(f"shard {donor!r} range [{low}, {high}] cannot split")
        cut = (low + high) // 2
        return (low, cut), (cut + 1, high)

    def add_shard(self, name: str, low: int, high: int) -> None:
        """Register a new shard with an explicit range (bumps version)."""
        with self._mutex:
            if name in self._ranges:
                raise ValueError(f"shard {name!r} already registered")
            self._shards.append(name)
            self._ranges[name] = (low, high)
            self.version += 1

    def remove_shard(self, name: str) -> Tuple[int, int]:
        """Drop a shard, returning the range its data must move to."""
        with self._mutex:
            vacated = self.slice(name)
            self._shards.remove(name)
            del self._ranges[name]
            self.version += 1
            return vacated

    def __repr__(self) -> str:
        with self._mutex:
            ranges = ", ".join(
                f"{name}=[{low},{high}]" for name, (low, high) in self._ranges.items()
            )
        return f"<RangePartitioner {ranges}>"
