"""Deterministic random streams derived from a single 64-bit seed.

All randomness flows through counter-based Philox generators (algorithm
identifier ``numpy-philox4x64``, recorded in every file format).  A stream is
keyed by ``(seed, role, index)``: the role constant occupies the high 16 bits
of the second key word and the index the low 48 bits.  Any pipeline stage can
therefore re-derive its own stream independently of execution order, chunking,
or thread count.
"""
from __future__ import annotations

from enum import IntEnum

import numpy as np

from .errors import InputError

RNG_ALGORITHM = "numpy-philox4x64"

_SEED_LIMIT = 1 << 64
_MAX_INDEX = 1 << 48


class Stream(IntEnum):
    """Role constants baked into the high bits of the Philox key."""

    CIRCUIT = 0x01
    IDEAL_SAMPLING = 0x02
    SPECKLE = 0x03
    TRAJECTORY = 0x04
    READOUT = 0x05
    BOOTSTRAP = 0x06
    PATH_SEARCH = 0x07


def check_seed(seed: int) -> None:
    """Raise `InputError` for a seed outside [0, 2^64)."""
    if not 0 <= seed < _SEED_LIMIT:
        raise InputError(f"seed {seed} is outside [0, 2^64)")


def stream(seed: int, role: Stream, index: int = 0) -> np.random.Generator:
    """Return the generator for ``(seed, role, index)``.

    Distinct ``index`` values give independent substreams, used e.g. for
    per-trajectory or per-restart randomness.  A seed outside [0, 2^64) is
    an `InputError` (`check_seed`).
    """
    check_seed(seed)
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"stream index out of range: {index}")
    # an explicit uint64 key: a list holding a word >= 2^63 would become float64
    key = np.array([seed, ((int(role) & 0xFFFF) << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
