"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user input: bad file, bad flag, violated precondition."""


class ResourceLimitError(RuntimeError):
    """A configured resource limit (qubit count, tensor count) was exceeded."""


def json_object(doc, what: str) -> dict:
    """``doc`` if it is a JSON object; an ``InputError`` naming ``what`` if not."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc
