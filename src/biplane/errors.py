"""Exception types shared across the package, the integer check of the JSON
file loaders, and the clipped echo of user text in error messages."""


class BiplaneError(Exception):
    """Base class for all package errors."""


class InputError(BiplaneError, ValueError):
    """Malformed or inconsistent input (distinct from a failed verification)."""


class ScaleError(BiplaneError):
    """A computation exceeds the documented desk-scale bounds."""


def json_int(value, field: str) -> int:
    """`value` if it is a JSON integer (an int that is not a bool).

    Anything else (7.9, "7", true) raises InputError naming `field`, where
    int() would truncate or convert it silently.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{field}: {clipped(value)} is not an integer")


def clipped(value) -> str:
    """repr(value) for an error message, cut to 60 characters with its length
    named when it is longer, so that hostile input cannot fill the line."""
    shown = repr(value)
    return shown if len(shown) <= 60 else f"{shown:.60}... ({len(shown)} characters)"
