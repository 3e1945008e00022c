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
    """Enumeration cap, overridable through RAAG_MAX_STATES, which must be
    an int >= 0."""
    raw = os.environ.get("RAAG_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise RaagError(f"RAAG_MAX_STATES must be an int >= 0, got {raw!r}")
    return cap


def check_states(count: int, what: str, cap: int | None = None) -> None:
    """Raise if `count` exceeds the cap.  A loop that checks once per state
    reads the cap once, with `max_states()`, and passes it as `cap`."""
    if cap is None:
        cap = max_states()
    if count > cap:
        raise ResourceLimitError(
            f"{what}: {count} states exceeds RAAG_MAX_STATES={cap}"
        )
