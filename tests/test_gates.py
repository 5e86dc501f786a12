import numpy as np
import pytest

import rcsbench as rb
from rcsbench.errors import InputError
from rcsbench.gates import GATE_KINDS, FsimParams, fsim_derivative, fsim_matrix, sq_matrix

from conftest import random_fsim


def phase_aligned(u, v):
    """True if u = e^{i a} v for some global phase a."""
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = u[idx] / v[idx]
    return np.allclose(u, phase * v, atol=1e-12) and abs(abs(phase) - 1) < 1e-12


X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
W = (X + Y) / np.sqrt(2)


class TestSingleQubitGates:
    @pytest.mark.parametrize("kind,target", [
        (rb.SingleQubitGate.SQRT_X, X),
        (rb.SingleQubitGate.SQRT_Y, Y),
        (rb.SingleQubitGate.SQRT_W, W),
    ])
    def test_square_equals_target_up_to_phase(self, kind, target):
        u = sq_matrix(kind)
        assert phase_aligned(u @ u, target)

    def test_all_unitary(self):
        for kind in GATE_KINDS:
            u = sq_matrix(kind)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

    def test_accepts_string_names(self):
        assert np.allclose(sq_matrix("sqrt_x"), sq_matrix(rb.SingleQubitGate.SQRT_X))


class TestFsimMatrix:
    def test_identity_at_zero(self):
        assert np.allclose(fsim_matrix(FsimParams(0, 0)), np.eye(4), atol=1e-15)

    def test_iswap_like_form(self):
        u = fsim_matrix(FsimParams(np.pi / 2, 0))
        want = np.array([
            [1, 0, 0, 0],
            [0, 0, -1j, 0],
            [0, -1j, 0, 0],
            [0, 0, 0, 1],
        ])
        assert np.allclose(u, want, atol=1e-15)

    def test_corner_phase(self):
        u = fsim_matrix(FsimParams(np.pi / 2, np.pi / 18))
        assert abs(u[3, 3] - np.exp(-1j * np.pi / 18)) < 1e-15

    def test_unitary_for_1000_random_draws(self):
        gen = np.random.default_rng(12)
        worst = 0.0
        for _ in range(1000):
            u = fsim_matrix(random_fsim(gen))
            worst = max(worst, float(np.max(np.abs(u @ u.conj().T - np.eye(4)))))
        assert worst <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            FsimParams(np.nan, 0)

    def test_tuple_round_trip(self):
        p = FsimParams(0.1, 0.2, 0.3, 0.4, 0.5)
        assert FsimParams.from_tuple(p.as_tuple()) == p


class TestFsimDerivative:
    @pytest.mark.parametrize("name", ["theta", "phi", "delta_plus", "delta_minus",
                                      "delta_minus_off"])
    def test_matches_central_differences(self, name):
        gen = np.random.default_rng(8)
        h = 1e-5
        for _ in range(20):
            p = random_fsim(gen)
            up, down = p.as_dict(), p.as_dict()
            up[name] += h
            down[name] -= h
            want = (fsim_matrix(FsimParams(**up)) - fsim_matrix(FsimParams(**down))) / (2 * h)
            assert np.max(np.abs(fsim_derivative(p, name) - want)) < 1e-8

    def test_rejects_unknown_name(self):
        with pytest.raises(InputError):
            fsim_derivative(FsimParams(0.1, 0.2), "gamma")
