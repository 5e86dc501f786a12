"""Peak memory of the state-vector paths, in units of one state.

The peaks are traced with `tracemalloc`, which numpy reports its array
buffers to.  On a 4x4 grid one complex128 state is 1 MiB.  The executor's
two work buffers are the floor of every path; the compiled program (about a
quarter of a state here, from 4 KiB per fused op) is not a state, so the
paths that compile inside the traced call are measured beyond it.
"""
import tracemalloc

import numpy as np
import pytest

import rcsbench as rb
from rcsbench import simulator, xeb
from rcsbench.calibration import (
    CalibrationProblem,
    OptimizerConfig,
    calibrate_patches,
    loss_and_gradient,
    pack_params,
)
from rcsbench.errors import ResourceLimitError

STATE = (1 << 16) * np.dtype(np.complex128).itemsize
NOISE = rb.NoiseModel(e1=0.0016, e2=0.006)  # the reference gate error rates


def traced_peak(fn) -> int:
    """Peak traced bytes above those held when ``fn`` starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def circuit(grid_4x4):
    return rb.standard_circuit(grid_4x4, 8, seed=3)


def compiled_bytes(circuit) -> int:
    """Traced bytes that a compiled program of the circuit holds."""
    simulator.compile_circuit(circuit)  # warms the fSim matrix cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        program = simulator.compile_circuit(circuit)  # noqa: F841 (held)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def program_bytes(circuit):
    return compiled_bytes(circuit)


def test_program_is_small_beside_a_state(program_bytes):
    assert program_bytes < 0.3 * STATE


def test_execute_holds_two_states(circuit):
    program = simulator.compile_circuit(circuit)
    assert traced_peak(lambda: simulator.execute(program)) <= 2.05 * STATE


def test_ideal_sampling_holds_two_states(circuit, program_bytes):
    peak = traced_peak(lambda: rb.sample_ideal(rb.run(circuit), 1000, seed=1))
    assert peak - program_bytes <= 2.25 * STATE


def test_sampling_a_held_state_holds_one_float64_per_outcome(circuit):
    # the cumulative distribution is half a state; the index table and the
    # temporaries of 1000 draws are a few pages
    state = rb.run(circuit)
    assert traced_peak(lambda: rb.sample_ideal(state, 1000, seed=1)) <= 0.65 * STATE


def test_sampling_many_draws_holds_the_output_and_fixed_chunks(circuit):
    # beyond the 8-byte words: the cumulative distribution (half a state),
    # the index table of 2^16 + 1 entries (never more than one per draw) and
    # the temporaries of one chunk of draws, whatever the number of draws
    state = rb.run(circuit)
    n = 1_000_000
    table = ((1 << 16) + 1) * 8
    chunk = 6 * 8 * simulator._DRAW_CHUNK
    peak = traced_peak(lambda: rb.sample_ideal(state, n, seed=1))
    assert peak - 8 * n <= 0.5 * STATE + table + chunk


def test_measured_xeb_holds_two_states(circuit, program_bytes):
    samples = rb.sample_ideal(rb.run(circuit), 2000, seed=1)
    peak = traced_peak(lambda: rb.measured_xeb(circuit, samples))
    assert peak - program_bytes <= 2.25 * STATE


@pytest.mark.parametrize("n_cycles, threads", [(8, 1), (40, 1), (8, 2)])
def test_trajectory_memory_does_not_grow_with_depth(grid_4x4, n_cycles, threads):
    # each worker holds its ideal cursor and two replay buffers, at any
    # depth, and builds every cumulative distribution in them.  The programs
    # are the circuit's and a faulty trajectory's, which re-fuses at most
    # every op
    circuit = rb.standard_circuit(grid_4x4, n_cycles, seed=3)
    peak = traced_peak(lambda: rb.sample_trajectory(circuit, NOISE, 100, seed=1,
                                                    threads=threads))
    assert peak - 2 * compiled_bytes(circuit) <= (3 * threads + 0.25) * STATE


@pytest.mark.parametrize("n_cycles", [8, 40])
def test_gradient_memory_does_not_grow_with_depth(grid_4x4, n_cycles):
    # the sweep holds two (conj(psi), mu) pairs, four states, at any depth;
    # the cotangent's float64 temporaries stay within 2 states more.  The
    # programs are the patch's and the candidate's
    circuit = rb.standard_circuit(grid_4x4, n_cycles, seed=3)
    train = rb.sample_ideal(rb.run(circuit), 2000, seed=1)
    problem = CalibrationProblem(circuit, train, ("theta", "phi"))
    x = pack_params(problem.base, problem.couplers, ("theta", "phi"))
    peak = traced_peak(lambda: loss_and_gradient(x, problem))
    assert peak - 2 * compiled_bytes(circuit) <= 6 * STATE


def test_budget_counts_the_states_each_path_holds(grid_4x4, monkeypatch):
    # a run holds 2 states, one trajectory worker 3, two noisy workers 6,
    # and a patch solve 6 plus its float64 histogram
    circuit = rb.standard_circuit(grid_4x4, 1, seed=3)
    train = rb.sample_ideal(rb.run(circuit), 100, seed=1)
    monkeypatch.setattr(simulator, "_MEMORY_BUDGET", 3 * STATE)
    rb.measured_xeb(circuit, rb.sample_ideal(rb.run(circuit), 100, seed=2))
    rb.sample_trajectory(circuit, rb.NoiseModel(), 10, seed=1, threads=1)
    with pytest.raises(ResourceLimitError):
        rb.sample_trajectory(circuit, NOISE, 10, seed=1, threads=2)
    with pytest.raises(ResourceLimitError):
        CalibrationProblem(circuit, train)


def test_noiseless_trajectories_count_one_worker(circuit, monkeypatch):
    # without noise every trajectory is fault-free: one plan, which one
    # worker runs whatever the thread count
    monkeypatch.setattr(simulator, "_MEMORY_BUDGET", simulator.memory_need(16, 3))
    one = rb.sample_trajectory(circuit, rb.NoiseModel(), 100, seed=1, threads=1)
    two = rb.sample_trajectory(circuit, rb.NoiseModel(), 100, seed=1, threads=2)
    assert np.array_equal(two.words, one.words)
    with pytest.raises(ResourceLimitError):
        rb.sample_trajectory(circuit, NOISE, 100, seed=1, threads=2)


def test_budget_counts_the_patches_solved_at_once(grid_4x4, monkeypatch):
    # two 8-qubit patches: one solve at a time fits a budget of one solve
    circuit = rb.standard_circuit(grid_4x4, 2, seed=3)
    _, patches = rb.split_grid_patches(circuit, col_cuts=(2,))
    trains = [rb.sample_ideal(rb.run(p), 100, seed=i) for i, p in enumerate(patches)]
    monkeypatch.setattr(simulator, "_MEMORY_BUDGET", simulator.memory_need(8, 6, 1))
    config = OptimizerConfig(max_iters=0)
    calibrate_patches(circuit, patches, trains, config, threads=1)
    with pytest.raises(ResourceLimitError):
        calibrate_patches(circuit, patches, trains, config, threads=2)


def test_probabilities_of_samples_hold_only_their_output(circuit):
    # the gather indexes the words through an int64 view: no 8-byte copy
    dist = rb.probabilities(rb.run(circuit))
    samples = rb.sample_ideal(rb.run(circuit), 1_000_000, seed=1)
    peak = traced_peak(lambda: xeb.probabilities_of_samples(dist, samples))
    assert peak <= 8 * samples.n_samples + 4096


def test_bootstrap_chunk_bounds_its_memory():
    gen = np.random.default_rng(5)
    rec = xeb.ProbabilityRecord(gen.exponential(size=20_000) / (1 << 16), 16)
    assert traced_peak(lambda: rb.bootstrap_xeb([rec], 2500, seed=1)) <= 4.5 * 2**20
