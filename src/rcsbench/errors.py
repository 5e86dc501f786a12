"""Exception types shared across the package."""
from contextlib import contextmanager


class InputError(ValueError):
    """Invalid user input: bad file, bad flag, violated precondition."""


class ResourceLimitError(RuntimeError):
    """A resource limit was exceeded: a state-vector path would hold more
    bytes than the machine's physical memory, or a cost left the float
    range."""


def json_object(doc, what: str) -> dict:
    """``doc`` if it is a JSON object; an ``InputError`` naming ``what`` if not."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


@contextmanager
def reading(what: str):
    """Re-raise a missing key, a value of the wrong type or shape, or an
    `InputError`, met while reading the document ``what``, as an
    `InputError` that names ``what``."""
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{what}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # InputError is a ValueError
        raise InputError(f"{what}: {exc}") from exc
