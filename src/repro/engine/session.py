"""Sessions: principal, current database, session variables, transaction."""

from __future__ import annotations

from typing import Any, Dict, Optional


class Session:
    """One client conversation — the same object at every in-process hop.

    ``principal`` drives permission checks (the ``dbo`` owner bypasses
    them). ``variables`` holds session-level ``DECLARE``/``SET`` state.
    ``statistics_profile`` is the session-scoped analogue of SQL Server's
    ``SET STATISTICS PROFILE ON``: while True, every SELECT executed on
    this session attaches a per-operator execution profile to its result
    (see :mod:`repro.obs.profile`).

    The session owns its explicit transaction: ``BEGIN`` records it and
    its ``home`` — the database whose latch the session (no thread) holds
    until ``COMMIT``/``ROLLBACK`` — and routers send the session there
    and nowhere else. A crash of the home server ends the transaction
    and marks the session ``lost``: its next statement is answered
    :class:`~repro.errors.TransactionLostError`, once.
    """

    def __init__(self, principal: str = "dbo", database: Optional[str] = None):
        self.principal = principal
        self.database = database
        self.variables: Dict[str, Any] = {}
        self.statistics_profile = False
        #: Whose transaction this session's statements run in: its own,
        #: or, for a procedure frame, its caller's (see :meth:`frame`).
        #: The four fields below are only ever read through ``owner``.
        self.owner = self
        self.transaction = None  # the explicit one (None in autocommit)
        self.home = None
        self.lost = False
        #: Effects its statements committed (autocommit writes, forwarded
        #: statements, COMMIT, DDL): an engine call that fails after this
        #: moved raises :class:`~repro.errors.PartialEffectError`.
        self.commits = 0

    @property
    def in_transaction(self) -> bool:
        return self.owner.home is not None

    def frame(self) -> "Session":
        """The session a procedure body runs under: ``dbo`` (ownership
        chaining — once the caller holds EXECUTE, embedded statements do
        not re-check the caller's table permissions), no variables of its
        own, and the caller's transaction."""
        frame = Session(database=self.database)
        frame.owner = self.owner
        return frame

    def merged_params(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Explicit parameters overlaid on session variables."""
        merged = dict(self.variables)
        if params:
            merged.update(params)
        return merged
