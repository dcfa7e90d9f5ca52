"""A simplified SQL Server permission model.

The MTCache shadow database replicates *permissions* along with the rest of
the catalog so the cache server can check them locally. The model here is a
grant table: ``(principal, object) -> {SELECT, INSERT, UPDATE, DELETE,
EXECUTE}``. The built-in ``dbo`` principal implicitly holds every
permission, matching how the paper's setup scripts run as the owner.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.errors import PermissionError_

VALID_PERMISSIONS = frozenset({"SELECT", "INSERT", "UPDATE", "DELETE", "EXECUTE"})

#: The owner principal that implicitly holds all permissions.
OWNER = "dbo"


class PermissionSet:
    """Grant table with check/grant/revoke and full-copy support."""

    def __init__(self):
        self._grants: Dict[Tuple[str, str], Set[str]] = {}

    def grant(self, permission: str, object_name: str, principal: str) -> None:
        """Grant a permission on an object to a principal."""
        permission = "EXECUTE" if permission.upper() == "EXEC" else permission.upper()
        if permission not in VALID_PERMISSIONS:
            raise PermissionError_(f"unknown permission {permission!r}")
        key = (principal.lower(), object_name.lower())
        self._grants.setdefault(key, set()).add(permission)

    def revoke(self, permission: str, object_name: str, principal: str) -> None:
        """Revoke a permission; silently ignores absent grants."""
        permission = "EXECUTE" if permission.upper() == "EXEC" else permission.upper()
        key = (principal.lower(), object_name.lower())
        grants = self._grants.get(key)
        if grants:
            grants.discard(permission)

    def holds(self, permission: str, object_name: str, principal: str) -> bool:
        """Return True when the principal may perform the action."""
        if principal.lower() == OWNER:
            return True
        permission = "EXECUTE" if permission.upper() == "EXEC" else permission.upper()
        key = (principal.lower(), object_name.lower())
        return permission in self._grants.get(key, set())

    def check(self, permission: str, object_name: str, principal: str) -> None:
        """Raise :class:`PermissionError_` unless the permission is held."""
        if not self.holds(permission, object_name, principal):
            raise PermissionError_(
                f"principal {principal!r} lacks {permission.upper()} on {object_name!r}"
            )

    def copy(self) -> "PermissionSet":
        """Detached copy for shadow-database creation."""
        duplicate = PermissionSet()
        duplicate._grants = {key: set(value) for key, value in self._grants.items()}
        return duplicate
