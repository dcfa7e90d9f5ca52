"""Lock primitives for the whole repository.

Every lock in the engine is created here. That single chokepoint is what
makes the locking hierarchy auditable: the ``selflint`` rule
``raw-threading-lock`` forbids calling ``threading.Lock``/``RLock``
directly anywhere else in the package, so grepping this module (and
:mod:`repro.engine.locks`, which composes these primitives into the
database latch and table lock manager) shows every synchronization
point in the system.

The primitives:

* :func:`mutex` / :func:`condition` — thin factories over the stdlib
  primitives, for leaf-level state protection (metric values, cache
  entries, WAL appends, pool bookkeeping).
* :class:`RWLock` — a writer-preferring reader/writer lock with
  per-thread exclusive reentrancy. Readers share; a waiting writer
  blocks new readers so a steady read stream cannot starve DDL or an
  explicit transaction — whose exclusive hold is *parked* on its
  session, not owned by a thread.

Timeouts are wall-clock (they bound how long a *real* thread waits);
simulated time never appears here.

When the lockdep-style witness is active (``REPRO_LOCK_WITNESS=1``, see
:mod:`repro.common.witness`), the factories hand out duck-typed wrappers
that record every acquisition against the modeled lock hierarchy; the
creation site of each lock names its class. The wrappers are declared as
the stdlib types (a cast) so annotations downstream stay unchanged.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional, cast

from repro.common import witness as _witness


def _witnessed(inner, site: str) -> "_witness.WitnessedLock":
    cls = _witness.lock_class(site, _witness.level_for_site(site))
    return _witness.WitnessedLock(inner, cls)


def mutex() -> threading.Lock:
    """A plain mutual-exclusion lock (the only sanctioned way to get one)."""
    inner = threading.Lock()
    if _witness.active_witness() is None:
        return inner
    return cast(threading.Lock, _witnessed(inner, _witness.caller_site()))


def rmutex() -> threading.RLock:
    """A reentrant mutual-exclusion lock."""
    inner = threading.RLock()
    if _witness.active_witness() is None:
        return inner
    return cast(threading.RLock, _witnessed(inner, _witness.caller_site()))


def condition(lock: Optional[threading.Lock] = None) -> threading.Condition:
    """A condition variable (over ``lock``, or a fresh mutex).

    With the witness active the underlying mutex is witnessed; the
    stdlib ``Condition`` falls back to plain ``acquire``/``release`` on
    a duck-typed lock, so waits keep the held-lock stack accurate.
    """
    return threading.Condition(lock if lock is not None else mutex())


class RWLock:
    """A writer-preferring reader/writer lock.

    * ``acquire_shared`` admits any number of concurrent readers, but
      blocks while a writer holds the lock **or is waiting for it** —
      writer preference, so writers cannot starve under a continuous
      stream of readers.
    * ``acquire_exclusive`` waits for all readers to drain and is
      **reentrant per thread**: the owning thread may re-acquire (DDL
      executed inside an explicit transaction, nested statement
      dispatch), and a thread that owns the lock exclusively passes
      straight through ``acquire_shared``.
    * ``hold_for(holder)`` parks the calling thread's exclusive hold on
      ``holder`` (the session that ran ``BEGIN``): the lock stays held
      *by the holder*, whichever thread — or none — is running, until
      ``end_hold()``, and ``held_by(holder)`` lends it to the calling
      thread for one statement. No thread ident outlives a statement.
    """

    def __init__(self) -> None:
        # The internal condition is deliberately *unwitnessed* (raw
        # construction is sanctioned in this chokepoint module): it only
        # guards this lock's own counters and is held exactly while the
        # RWLock acquisition itself is recorded — witnessing it would
        # read as a leaf lock held while a latch-level class is taken.
        # The shared paths take its raw mutex directly (no Python-level
        # ``Condition.__enter__``) and use the condition only to wait.
        guard = threading.Lock()
        self._mutex = guard
        self._cond = threading.Condition(guard)
        self._readers = 0
        self._writer: Optional[int] = None  # owning thread ident
        self._writer_depth = 0
        self._holder: Optional[Any] = None  # who a parked exclusive hold belongs to
        self._writers_waiting = 0
        # The context managers hold no per-use state: one of each serves
        # every ``with`` on every thread.
        self._shared = RWLock._Shared(self)
        self._exclusive = RWLock._Exclusive(self)
        # Decided here, like ``mutex``/``rmutex``: a lock minted while the
        # witness is inactive stays raw (class None), so acquire and
        # release on the statement path never consult the environment.
        self._witness_class: Optional[_witness.LockClass] = None
        if _witness.active_witness() is not None:
            site = _witness.caller_site()
            self._witness_class = _witness.lock_class(site, _witness.level_for_site(site))

    # The acquire and release paths call these only for a witnessed lock.
    def _note_acquired(self) -> None:
        if self._witness_class is not None:
            witness = _witness.active_witness()
            if witness is not None:
                witness.on_acquire(self, self._witness_class)

    def _note_released(self) -> None:
        if self._witness_class is not None:
            witness = _witness.active_witness()
            if witness is not None:
                witness.on_release(self)

    # -- shared (readers) ------------------------------------------------

    def acquire_shared(self, timeout: Optional[float] = None) -> bool:
        me = threading.get_ident()
        with self._mutex:
            if self._writer != me:  # exclusive owner reads freely
                while (
                    self._writer is not None
                    or self._holder is not None
                    or self._writers_waiting
                ):
                    if not self._cond.wait(timeout):
                        return False
                self._readers += 1
        if self._witness_class is not None:
            self._note_acquired()
        return True

    def release_shared(self) -> None:
        with self._mutex:
            if self._writer != threading.get_ident():
                # (the owner fast path is a matching no-op)
                if self._readers <= 0:
                    raise RuntimeError("release_shared without a matching acquire")
                self._readers -= 1
                # Only an exclusive waiter waits for the readers to drain
                # (readers wait on writer and holder, ``held_by`` on the
                # writer), and every one counts itself in
                # ``_writers_waiting`` while it waits.
                if self._readers == 0 and self._writers_waiting:
                    self._cond.notify_all()
        if self._witness_class is not None:
            self._note_released()

    # -- exclusive (writers) ---------------------------------------------

    def acquire_exclusive(self, timeout: Optional[float] = None) -> bool:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
            else:
                self._writers_waiting += 1
                try:
                    while (
                        self._writer is not None
                        or self._holder is not None
                        or self._readers
                    ):
                        if not self._cond.wait(timeout):
                            # Readers queued behind this writer may go now.
                            self._cond.notify_all()
                            return False
                finally:
                    self._writers_waiting -= 1
                self._writer = me
                self._writer_depth = 1
        if self._witness_class is not None:
            self._note_acquired()
        return True

    def release_exclusive(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_exclusive by a non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()
        if self._witness_class is not None:
            self._note_released()

    # -- a hold parked on a holder (explicit transactions) ------------------

    def hold_for(self, holder: Any) -> None:
        """Park the calling thread's exclusive hold on ``holder``: once the
        thread releases its own, the lock is still held, by ``holder``."""
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("hold_for by a thread that does not own the lock")
            self._holder = holder

    def end_hold(self) -> None:
        """Release the parked hold, whoever calls."""
        with self._cond:
            self._holder = None
            self._cond.notify_all()

    @property
    def holder(self) -> Optional[Any]:
        """Who the parked exclusive hold belongs to (None: nobody)."""
        return self._holder

    @contextmanager
    def held_by(self, holder: Any) -> Iterator[bool]:
        """Lend ``holder``'s parked hold to the calling thread for the
        span of the block (one statement of its transaction), with the
        usual reentrancy inside. Yields False, holding nothing, when the
        hold is no longer ``holder``'s (``end_hold`` got there first)."""
        me = threading.get_ident()
        with self._cond:
            # Another thread running a statement of the same holder goes first.
            while self._holder is holder and self._writer not in (None, me):
                self._cond.wait()
            lent = self._holder is holder
            if lent:
                self._writer = me
                self._writer_depth += 1
        if not lent:
            yield False
            return
        if self._witness_class is not None:
            self._note_acquired()
        try:
            yield True
        finally:
            self.release_exclusive()

    # -- introspection ----------------------------------------------------

    def owns_exclusive(self) -> bool:
        """True when the calling thread holds the lock exclusively."""
        return self._writer == threading.get_ident()

    @property
    def readers(self) -> int:
        return self._readers

    # -- context managers --------------------------------------------------

    class _Shared:
        __slots__ = ("_lock",)

        def __init__(self, lock: "RWLock"):
            self._lock = lock

        def __enter__(self) -> "RWLock":
            self._lock.acquire_shared()
            return self._lock

        def __exit__(self, *exc) -> None:
            self._lock.release_shared()

    class _Exclusive:
        __slots__ = ("_lock",)

        def __init__(self, lock: "RWLock"):
            self._lock = lock

        def __enter__(self) -> "RWLock":
            self._lock.acquire_exclusive()
            return self._lock

        def __exit__(self, *exc) -> None:
            self._lock.release_exclusive()

    def shared(self) -> "RWLock._Shared":
        return self._shared

    def exclusive(self) -> "RWLock._Exclusive":
        return self._exclusive

    def __repr__(self) -> str:
        return (
            f"<RWLock readers={self._readers} writer={self._writer} "
            f"holder={self._holder!r} waiting={self._writers_waiting}>"
        )
