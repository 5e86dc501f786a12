"""Gate matrices: three single-qubit square roots and the 5-parameter
iSWAP-like two-qubit gate.

Single-qubit conventions (each is exp(-i*pi/4 * P) for P in {X, Y, W},
W = (X + Y)/sqrt(2); squaring gives P up to a global phase of -i):

    sqrt_x = [[1, -i], [-i, 1]] / sqrt(2)
    sqrt_y = [[1, -1], [ 1, 1]] / sqrt(2)
    sqrt_w = [[1, -sqrt(i)], [sqrt(-i), 1]] / sqrt(2)

The two-qubit gate acts on the basis |q1 q2> with the first qubit as the
high bit.  Its matrix is

    [[1, 0,                               0,                               0],
     [0, e^{i(d+ + d-)} cos(t),           -i e^{i(d+ - d-off)} sin(t),     0],
     [0, -i e^{i(d+ + d-off)} sin(t),     e^{i(d+ - d-)} cos(t),           0],
     [0, 0,                               0,                e^{i(2 d+ - f)}]]

with swap angle t, conditional phase f, and phase parameters d+, d-, d-off.
It is unitary for any real parameter values.  Each phase parameter enters
an entry only through its exponent, so the derivative by d+, d-, d-off or f
is i times the entry times that parameter's coefficient in the exponent;
the derivative by t turns each cos(t) into -sin(t) and each sin(t) into
cos(t) (`fsim_derivative`).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError

_SQRT2 = math.sqrt(2.0)
_SQRT_I = np.exp(1j * np.pi / 4)  # sqrt(i)


class SingleQubitGate(str, Enum):
    SQRT_X = "sqrt_x"
    SQRT_Y = "sqrt_y"
    SQRT_W = "sqrt_w"


GATE_KINDS = (SingleQubitGate.SQRT_X, SingleQubitGate.SQRT_Y, SingleQubitGate.SQRT_W)

_SQ_MATRICES = {
    SingleQubitGate.SQRT_X: np.array([[1, -1j], [-1j, 1]], dtype=complex) / _SQRT2,
    SingleQubitGate.SQRT_Y: np.array([[1, -1], [1, 1]], dtype=complex) / _SQRT2,
    SingleQubitGate.SQRT_W: np.array(
        [[1, -_SQRT_I], [np.conj(_SQRT_I), 1]], dtype=complex
    ) / _SQRT2,
}


def sq_matrix(gate: SingleQubitGate | str) -> np.ndarray:
    """Fixed 2x2 matrix for the given single-qubit gate kind."""
    return _SQ_MATRICES[SingleQubitGate(gate)].copy()


@dataclass(frozen=True)
class FsimParams:
    """The five angles of an iSWAP-like gate, all in radians."""

    theta: float
    phi: float
    delta_plus: float = 0.0
    delta_minus: float = 0.0
    delta_minus_off: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise InputError(f"non-finite gate parameter {name}={value}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.theta, self.phi, self.delta_plus,
                self.delta_minus, self.delta_minus_off)

    def as_dict(self) -> dict[str, float]:
        return {
            "theta": self.theta,
            "phi": self.phi,
            "delta_plus": self.delta_plus,
            "delta_minus": self.delta_minus,
            "delta_minus_off": self.delta_minus_off,
        }

    @classmethod
    def from_tuple(cls, values) -> "FsimParams":
        """From a list or tuple of five numbers in the order of `as_tuple`."""
        if not (isinstance(values, (list, tuple)) and len(values) == 5
                and all(isinstance(v, numbers.Real) for v in values)):
            raise ValueError("want five numbers (theta, phi, delta_plus, delta_minus, "
                             f"delta_minus_off), not {values!r}")
        return cls(*(float(v) for v in values))


# Average swap angle / conditional phase of the shipped configuration.
DEFAULT_FSIM = FsimParams(theta=np.pi / 2, phi=np.pi / 18)


def fsim_matrix(params: FsimParams) -> np.ndarray:
    """4x4 matrix of the iSWAP-like gate; basis |q1 q2>, q1 = high bit."""
    t = params.theta
    dp, dm, dmo = params.delta_plus, params.delta_minus, params.delta_minus_off
    c, s = math.cos(t), math.sin(t)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, np.exp(1j * (dp + dm)) * c, -1j * np.exp(1j * (dp - dmo)) * s, 0],
            [0, -1j * np.exp(1j * (dp + dmo)) * s, np.exp(1j * (dp - dm)) * c, 0],
            [0, 0, 0, np.exp(1j * (2 * dp - params.phi))],
        ],
        dtype=complex,
    )


# Coefficient of each phase parameter in the exponent of each matrix entry.
_PHASE_COEFFICIENTS = {
    "phi": np.diag([0.0, 0.0, 0.0, -1.0]),
    "delta_plus": np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 2]],
                           dtype=float),
    "delta_minus": np.diag([0.0, 1.0, -1.0, 0.0]),
    "delta_minus_off": np.array([[0, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
                                dtype=float),
}


def fsim_derivative(params: FsimParams, name: str) -> np.ndarray:
    """Derivative of `fsim_matrix` by the named parameter (a field of
    `FsimParams`)."""
    if name == "theta":
        t = params.theta
        dp, dm, dmo = params.delta_plus, params.delta_minus, params.delta_minus_off
        c, s = math.cos(t), math.sin(t)
        out = np.zeros((4, 4), dtype=complex)
        out[1, 1] = -np.exp(1j * (dp + dm)) * s
        out[1, 2] = -1j * np.exp(1j * (dp - dmo)) * c
        out[2, 1] = -1j * np.exp(1j * (dp + dmo)) * c
        out[2, 2] = -np.exp(1j * (dp - dm)) * s
        return out
    coefficients = _PHASE_COEFFICIENTS.get(name)
    if coefficients is None:
        raise InputError(f"unknown gate parameter {name!r}")
    return 1j * coefficients * fsim_matrix(params)
