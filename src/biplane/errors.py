"""Exception types shared across the package, and the integer check of the
JSON file loaders."""


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
    raise InputError(f"{field}: {value!r} is not an integer")
