"""A small bounded LRU cache with hit/miss/eviction accounting.

Shared by the statement fast path: the server's SQL-text parse cache,
the plan cache, and the linked-server prepared-handle caches all need
the same thing — a dict with an eviction policy and counters the
benchmarks can read. Derived artifacts (parse trees, plans, handles)
are cheap to rebuild, so least-recently-used eviction is safe: an
evicted entry just pays one extra miss.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.common.locks import rmutex


@dataclass
class CacheStats:
    """Cumulative counters for one cache (survive ``clear()``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``get`` counts a hit or miss and refreshes recency; ``peek`` does
    neither (for tests and introspection). Setting an existing key
    refreshes recency without counting anything.

    Every operation runs under one internal reentrant mutex, so the
    parse/plan/prepared-handle caches can be shared by concurrent worker
    threads without external locking. The mutex is reentrant because
    ``on_evict`` callbacks (e.g. closing a remote prepared handle) may
    touch the cache again.
    """

    def __init__(self, capacity: int = 512, on_evict: Optional[Any] = None):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, not {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        # Called with the evicted value (capacity evictions only, not
        # invalidations) — e.g. closing a remote prepared handle.
        self.on_evict = on_evict
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = rmutex()

    def get(self, key: Any, default: Any = None, valid: Optional[Any] = None) -> Any:
        """Look up ``key``; optionally validate the entry before counting.

        ``valid`` is a predicate on the stored value (e.g. a schema-version
        check). A present-but-invalid entry is dropped and counted as an
        invalidation plus a miss — never a hit.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return default
            if valid is not None and not valid(value):
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def count_hit(self) -> None:
        """Count a hit served from a reference to an entry's value that the
        caller already holds (and has validated) — no lookup happens."""
        with self._lock:
            self.stats.hits += 1

    def __setitem__(self, key: Any, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
                return
            if len(self._entries) >= self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self.on_evict is not None:
                    self.on_evict(evicted)
            self._entries[key] = value

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        with self._lock:
            return iter(list(self._entries))

    def values(self):
        with self._lock:
            return list(self._entries.values())

    def __repr__(self) -> str:
        return (
            f"<LRUCache {len(self._entries)}/{self.capacity} "
            f"hits={self.stats.hits} misses={self.stats.misses} "
            f"evictions={self.stats.evictions}>"
        )
