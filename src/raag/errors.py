"""Shared exception types and the global enumeration cap."""

import os

DEFAULT_MAX_STATES = 5_000_000


class RaagError(Exception):
    pass


class UnknownGeneratorError(RaagError, ValueError):
    pass


class ResourceLimitError(RaagError, RuntimeError):
    pass


class DomainError(RaagError, ValueError):
    pass


def max_states() -> int:
    """Enumeration cap, overridable through RAAG_MAX_STATES."""
    raw = os.environ.get("RAAG_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    return int(raw)


def check_states(count: int, what: str, cap: int | None = None) -> None:
    """Raise if `count` exceeds the cap.  A loop that checks once per state
    reads the cap once, with `max_states()`, and passes it as `cap`."""
    if cap is None:
        cap = max_states()
    if count > cap:
        raise ResourceLimitError(
            f"{what}: {count} states exceeds RAAG_MAX_STATES={cap}"
        )
