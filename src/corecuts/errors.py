"""Exception types shared across the package, and the integer check that raises one."""


class CorecutsError(Exception):
    """Base class for all package-specific errors."""


class SingularCirculant(CorecutsError):
    """The circulant matrix of the given vector is (numerically) singular."""


class LayerMismatch(CorecutsError):
    """Two vectors that must share a nonzero layer do not."""


class NonActiveMismatch(CorecutsError):
    """Non-active coordinates of a point differ from the reference vector."""


class OrbitCapExceeded(CorecutsError):
    """Orbit enumeration grew past the configured safety cap."""


class NotCore(CorecutsError):
    """A point required to be a core point is not one."""


class InputError(CorecutsError):
    """Malformed user input (files, CLI arguments, cycle strings)."""


def _integer(v, what: str) -> int:
    """v when it is an int; InputError naming it as ``what`` otherwise."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"{what} must be an integer, not {v!r}")
    return v
