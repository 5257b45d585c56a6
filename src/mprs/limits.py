"""Shared guard for the exhaustive-search operations.

Brute-force strategy and profile enumeration, and random generation's
edge draw, refuse to start when the search space exceeds the guard. The default of one million candidates can
be overridden per call, or globally through the MPRS_ENUM_GUARD
environment variable. `_is_int` is the package's one rule for an integer
argument: player ids, guards and counts alike.
"""

from __future__ import annotations

import os

__all__ = ["GuardError", "TooLargeError"]

DEFAULT_ENUM_GUARD = 10**6
ENUM_GUARD_ENV = "MPRS_ENUM_GUARD"


class TooLargeError(RuntimeError):
    """The requested enumeration exceeds the configured guard."""


class GuardError(ValueError):
    """The guard was set to something other than a positive integer."""


def _is_int(x: object) -> bool:
    """Whether `x` is an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_guard(space: int, explicit: int | None = None) -> None:
    """Raise TooLargeError when `space` exceeds the guard.

    The guard is the explicit argument, else the environment variable,
    else the default.
    """
    if explicit is not None:
        if not (_is_int(explicit) and explicit >= 1):
            raise GuardError(f"enumeration guard must be a positive int, got {explicit!r}")
        guard = explicit
    else:
        raw = os.environ.get(ENUM_GUARD_ENV, str(DEFAULT_ENUM_GUARD))
        try:
            guard = int(raw)
        except ValueError:
            guard = 0
        if guard < 1:
            raise GuardError(f"{ENUM_GUARD_ENV} must be a positive integer, got {raw!r}")
    if space > guard:
        raise TooLargeError(
            f"search space of {space} candidates exceeds the guard of {guard}"
            f" (raise it via {ENUM_GUARD_ENV} or an explicit guard argument)"
        )
