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
        self.transaction = None  # the explicit one (None in autocommit)
        self.home = None
        self.lost = False
        #: Effects its statements committed (autocommit writes, forwarded
        #: statements, COMMIT, DDL): an engine call that fails after this
        #: moved raises :class:`~repro.errors.PartialEffectError`.
        self.commits = 0

    @property
    def in_transaction(self) -> bool:
        return self.home is not None
