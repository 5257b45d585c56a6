"""Shared guard for the exhaustive-search operations.

Brute-force strategy and profile enumeration refuse to start when the
search space exceeds the guard. The default of one million candidates can
be overridden per call, or globally through the MPRS_ENUM_GUARD
environment variable.
"""

from __future__ import annotations

import os

DEFAULT_ENUM_GUARD = 10**6
ENUM_GUARD_ENV = "MPRS_ENUM_GUARD"


class TooLargeError(RuntimeError):
    """The requested enumeration exceeds the configured guard."""


class GuardError(ValueError):
    """The guard was set to something other than a positive integer."""


def effective_guard(explicit: int | None = None) -> int:
    """Resolve the guard: explicit argument, then env var, then default."""
    if explicit is not None:
        if explicit < 1:
            raise GuardError("enumeration guard must be positive")
        return explicit
    raw = os.environ.get(ENUM_GUARD_ENV)
    if raw is None:
        return DEFAULT_ENUM_GUARD
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise GuardError(f"{ENUM_GUARD_ENV} must be a positive integer, got {raw!r}")
    return value


def check_guard(space: int, explicit: int | None = None) -> None:
    """Raise TooLargeError when `space` exceeds the effective guard."""
    guard = effective_guard(explicit)
    if space > guard:
        raise TooLargeError(
            f"search space of {space} candidates exceeds the guard of {guard}"
            f" (raise it via {ENUM_GUARD_ENV} or an explicit guard argument)"
        )
