"""Lockdep-style runtime lock-order witness.

Opt-in via ``REPRO_LOCK_WITNESS=1`` (the test suite enables it in
``tests/conftest.py`` the same way checked plans are enabled). When
active, every lock minted by the :mod:`repro.common.locks` chokepoint
factories carries a *lock class* — all locks created at the same source
site form one class, mirroring how the Linux kernel's lockdep keys
classes by initialization site — and every acquisition is recorded
against the calling thread's stack of held classes:

* an **edge** ``A -> B`` is recorded whenever a thread acquires a lock
  of class ``B`` while holding one of class ``A``;
* acquiring *down* the modeled hierarchy (toward smaller levels) is a
  ``lock-order-inversion``, reported eagerly at the acquisition;
* acquiring a second instance of the same class is ``same-class-nesting``
  unless the class is *ordered* (table locks, which ``locking`` takes in
  sorted name order — a global order within the class).

The modeled hierarchy has four levels per nesting depth:

====== ===== ==========================================================
level  name  what lives there
====== ===== ==========================================================
0      outer client/application tier: pool bookkeeping, driver ticking,
             shard routing, partitioner placement
1      latch the per-database :class:`~repro.engine.locks.DatabaseLatch`
2      table per-table locks from the
             :class:`~repro.engine.locks.TableLockManager`
3      leaf  everything protecting a single structure: metric values,
             LRU entries, WAL appends, transaction bookkeeping
====== ===== ==========================================================

Cross-server calls (cache -> backend through a
:class:`~repro.distributed.linked_server.ServerLink`) bump a per-thread
*nesting depth*; a lock taken at depth ``d`` sits ``d * 4`` levels below
its base level. Holding the cache's latch while the backend takes its
own latch is therefore a legal downward edge (``latch`` at level 1 ->
``latch@1`` at level 5), which is exactly the paper's one-directional
cache-to-backend flow.

The witness never *prevents* anything — it records, and the analysis
pass (:func:`repro.analysis.concurrency.verify_witness`) asserts after
the fact that the observed graph embeds in the modeled hierarchy and
that no violations fired.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: Hierarchy levels (smaller = acquired earlier / further from the data).
LEVEL_OUTER = 0
LEVEL_LATCH = 1
LEVEL_TABLE = 2
LEVEL_LEAF = 3
#: Levels consumed per cross-server nesting depth.
LEVEL_SPAN = 4

LEVEL_NAMES = {
    LEVEL_OUTER: "outer",
    LEVEL_LATCH: "latch",
    LEVEL_TABLE: "table",
    LEVEL_LEAF: "leaf",
}

ENV_VAR = "REPRO_LOCK_WITNESS"

#: Subpackages whose locks belong to the client/application tier (level
#: 0): they may be held across calls into the engine, never vice versa.
OUTER_SUBPACKAGES = (
    "client",
    "tpcw",
    "sharding",
    "resilience",
    "faults",
    "simulation",
    "mtcache",
)


def level_for_site(site: str) -> int:
    """The modeled level of a lock created at ``site`` (``path:line``).

    Locks created in the client/application subpackages are *outer*;
    locks created anywhere else inside ``repro`` are *leaf* (the latch
    and table classes are annotated explicitly, not classified by path).
    Unknown paths — tests, applications — default to outer: application
    code sits above the engine.
    """
    normalized = site.replace("\\", "/")
    for package in OUTER_SUBPACKAGES:
        if f"repro/{package}/" in normalized:
            return LEVEL_OUTER
    if "repro/" in normalized:
        return LEVEL_LEAF
    return LEVEL_OUTER


def _normalize_path(filename: str) -> str:
    normalized = filename.replace("\\", "/")
    for anchor in ("/repro/", "/tests/", "/benchmarks/"):
        index = normalized.rfind(anchor)
        if index >= 0:
            return normalized[index + 1 :]
    return normalized


_INTERNAL_FILES = ("repro/common/locks.py", "repro/common/witness.py")


def caller_site() -> str:
    """``path:line`` of the nearest caller outside the lock chokepoints."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = _normalize_path(frame.f_code.co_filename)
        if not filename.endswith(_INTERNAL_FILES):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>:0"


class LockClass:
    """One lock class: every lock created at the same source site."""

    __slots__ = ("name", "level", "ordered")

    def __init__(self, name: str, level: int, ordered: bool = False) -> None:
        self.name = name
        self.level = level
        self.ordered = ordered

    def __repr__(self) -> str:
        flag = " ordered" if self.ordered else ""
        return f"<LockClass {self.name} level={self.level}{flag}>"


# Raw lock on purpose: the witness instruments the chokepoint factories,
# so its own synchronization cannot go through them.
_registry_lock = threading.Lock()
_registry: Dict[str, LockClass] = {}


def lock_class(name: str, level: int, ordered: bool = False) -> LockClass:
    """The (interned) class named ``name``; created on first use."""
    with _registry_lock:
        cls = _registry.get(name)
        if cls is None:
            cls = LockClass(name, level, ordered)
            _registry[name] = cls
        return cls


def annotate_lock(lock: Any, name: str, level: int, ordered: bool = False) -> None:
    """Assign ``lock`` to an explicitly named class (latch, table).

    A lock minted while the witness was inactive carries no class and
    stays raw: instrumentation is decided when a lock is created.
    """
    if getattr(lock, "_witness_class", None) is not None:
        lock._witness_class = lock_class(name, level, ordered)


class WitnessViolation:
    """One recorded ordering violation (deduplicated per edge)."""

    __slots__ = ("rule", "held", "acquired", "detail")

    def __init__(self, rule: str, held: str, acquired: str, detail: str = "") -> None:
        self.rule = rule
        self.held = held
        self.acquired = acquired
        self.detail = detail

    def as_dict(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "held": self.held,
            "acquired": self.acquired,
            "detail": self.detail,
        }

    def __repr__(self) -> str:
        return f"<{self.rule} held={self.held} acquired={self.acquired}>"


class Witness:
    """Records lock acquisition edges and flags ordering violations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()  # raw: see _registry_lock
        self._local = threading.local()
        self.acquisitions = 0
        #: (held key, acquired key) -> times observed.
        self.edges: Dict[Tuple[str, str], int] = {}
        #: key -> (effective level, ordered) for every key ever acquired.
        self.key_levels: Dict[str, Tuple[int, bool]] = {}
        self.violations: List[WitnessViolation] = []
        self._reported: Set[Tuple[str, str, str]] = set()

    # -- per-thread state --------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @contextmanager
    def nesting(self) -> Iterator[None]:
        """One cross-server call: locks acquired inside sit LEVEL_SPAN
        levels below everything the calling tier holds."""
        depth = self._depth()
        self._local.depth = depth + 1
        try:
            yield
        finally:
            self._local.depth = depth

    # -- recording ---------------------------------------------------------

    def on_acquire(self, lock: Any, cls: LockClass) -> None:
        stack = self._stack()
        for entry in stack:
            if entry[0] is lock:
                entry[4] += 1  # reentrant re-acquire of the same instance
                return
        depth = self._depth()
        key = cls.name if depth == 0 else f"{cls.name}@{depth}"
        level = cls.level + depth * LEVEL_SPAN
        with self._lock:
            self.acquisitions += 1
            self.key_levels.setdefault(key, (level, cls.ordered))
            seen: Set[str] = set()
            for entry in stack:
                held_key = entry[1]
                if held_key in seen:
                    continue
                seen.add(held_key)
                edge = (held_key, key)
                self.edges[edge] = self.edges.get(edge, 0) + 1
                if held_key == key:
                    if not cls.ordered:
                        self._report(
                            "same-class-nesting",
                            held_key,
                            key,
                            "second instance of an unordered class",
                        )
                elif level < entry[2]:
                    self._report(
                        "lock-order-inversion",
                        held_key,
                        key,
                        f"level {level} acquired under level {entry[2]}",
                    )
        stack.append([lock, key, level, cls, 1])

    def on_release(self, lock: Any) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] is lock:
                stack[index][4] -= 1
                if stack[index][4] == 0:
                    del stack[index]
                return
        # A release of a lock acquired before the witness engaged: ignore.

    def _report(self, rule: str, held: str, acquired: str, detail: str) -> None:
        dedup = (rule, held, acquired)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        self.violations.append(WitnessViolation(rule, held, acquired, detail))

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The observed graph, JSON-ready (obs export + analysis dump)."""
        with self._lock:
            return {
                "acquisitions": self.acquisitions,
                "classes": {
                    key: {"level": level, "ordered": ordered}
                    for key, (level, ordered) in sorted(self.key_levels.items())
                },
                "edges": [
                    {"from": held, "to": acquired, "count": count}
                    for (held, acquired), count in sorted(self.edges.items())
                ],
                "violations": [violation.as_dict() for violation in self.violations],
            }

    def __repr__(self) -> str:
        return (
            f"<Witness acquisitions={self.acquisitions} "
            f"edges={len(self.edges)} violations={len(self.violations)}>"
        )


class WitnessedLock:
    """Duck-typed lock wrapper reporting acquire/release to the witness.

    Works everywhere the stdlib primitives do, including as the lock
    under a ``threading.Condition`` (which falls back to plain
    ``acquire``/``release`` when ``_release_save`` and friends are
    absent, keeping the witness's held stack accurate across ``wait``).
    """

    __slots__ = ("_inner", "_witness_class", "_witness")

    def __init__(
        self, inner: Any, cls: LockClass, witness: Optional[Witness] = None
    ) -> None:
        self._inner = inner
        self._witness_class = cls
        # None means "the process-wide witness, whichever is active when
        # the lock is used"; tests pin a private Witness instance here.
        self._witness = witness

    def _current(self) -> Optional[Witness]:
        return self._witness if self._witness is not None else active_witness()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            witness = self._current()
            if witness is not None:
                witness.on_acquire(self, self._witness_class)
        return bool(acquired)

    def release(self) -> None:
        witness = self._current()
        if witness is not None:
            witness.on_release(self)
        self._inner.release()

    def __enter__(self) -> "WitnessedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __repr__(self) -> str:
        return f"<witnessed {self._inner!r} class={self._witness_class.name}>"


# -- process-wide activation ----------------------------------------------

_active: Optional[Witness] = None


def witness_enabled() -> bool:
    """Whether ``REPRO_LOCK_WITNESS`` requests witnessing (read lazily,
    like ``REPRO_CHECKED_PLANS``, so conftest can set it at import time).

    An environment read, so never on a statement's path: it is consulted
    where a lock (or a server link) is *created* — through
    :func:`active_witness` — and the answer rides on the object.
    """
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def active_witness() -> Optional[Witness]:
    """The process-wide witness, created on first use when enabled.

    Instrumentation happens at lock *creation*: locks minted while the
    witness is inactive stay raw even if it activates later. Only an
    instrumented lock calls this again on acquire and release, and by then
    the witness exists, so that call returns before the environment read.
    """
    global _active
    if _active is not None:
        return _active
    if not witness_enabled():
        return None
    with _registry_lock:
        if _active is None:
            _active = Witness()
    return _active
