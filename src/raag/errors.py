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


def decimal_int(text: str, signed: bool = False) -> int | None:
    """The int `text` writes in ASCII decimal, [0-9]+ (-?[0-9]+ if signed),
    else None: `int` also takes "1_0", " 3" and other scripts' digits, and
    raises past Python's limit on the digits of an int."""
    digits = text[1:] if signed and text.startswith("-") else text
    try:
        if digits.isascii() and digits.isdigit():
            return int(text)
    except ValueError:
        pass
    return None


def max_states() -> int:
    """Enumeration cap, overridable through RAAG_MAX_STATES, which must be
    an int >= 0 in ASCII decimal, as the command line's ints are."""
    raw = os.environ.get("RAAG_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    if (cap := decimal_int(raw)) is None:
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
