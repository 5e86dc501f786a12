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
from rcsbench import samples, simulator, xeb
from rcsbench.calibration import (
    CalibrationProblem,
    OptimizerConfig,
    calibrate_patches,
    histogram,
    load_histogram,
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


def test_speckle_sampling_holds_the_words_the_mask_and_fixed_chunks(circuit):
    # beyond the 8-byte words and the one-byte mask: the cumulative
    # distribution, the index table and one chunk, whatever the draws
    state = rb.run(circuit)
    n = 1_000_000
    table = ((1 << 16) + 1) * 8
    chunk = 6 * 8 * simulator._DRAW_CHUNK
    peak = traced_peak(lambda: rb.sample_noisy_speckle(state, 0.5, n, seed=1))
    assert peak - 9 * n <= 0.5 * STATE + table + chunk


def word_path_peaks(n_words: int) -> tuple[int, int]:
    """Traced peaks of readout errors and of `select_bits` to 30 bits on
    ``n_words`` random 60-bit words, beyond their output words."""
    words = np.random.default_rng(3).integers(0, 1 << 60, n_words, dtype=np.uint64)
    ss = rb.SampleSet(60, words)
    noise = rb.NoiseModel(e_r0=0.0148, e_r1=0.0303)
    readout = traced_peak(lambda: rb.apply_readout_error(ss, noise, seed=2))
    gathered = traced_peak(lambda: samples.select_bits(ss, range(0, 60, 2)))
    return readout - 8 * n_words, gathered - 8 * n_words


def test_readout_and_bit_selection_hold_one_chunk_beyond_their_words():
    # readout: one buffer of the uniforms of a chunk of samples, about
    # _DRAW_CHUNK doubles, and its flags; selection: one chunk of words
    small, large = word_path_peaks(100_000), word_path_peaks(400_000)
    readout_chunk = 8 * simulator._DRAW_CHUNK
    gather_chunk = 8 * samples._CHUNK_WORDS
    assert abs(large[0] - small[0]) <= readout_chunk
    assert abs(large[1] - small[1]) <= gather_chunk
    assert max(small[0], large[0]) <= 1.5 * readout_chunk
    assert max(small[1], large[1]) <= gather_chunk + 32 * 1024


def test_histogram_reader_holds_one_chunk_beyond_its_counts(tmp_path):
    # the 512 counts of 9-bit words, one chunk of words read and the
    # bincount of one chunk, whatever the file's length
    peaks = []
    for n_words in (600_000, 2_400_000):
        path = str(tmp_path / f"{n_words}.bin")
        words = np.random.default_rng(4).integers(0, 512, n_words, dtype=np.uint64)
        rb.save_samples(path, rb.SampleSet(9, words))
        del words
        peaks.append(traced_peak(lambda: load_histogram(path, 9)) - 8 * 512)
    assert abs(peaks[1] - peaks[0]) <= 4096
    assert max(peaks) <= 8 * samples._CHUNK_WORDS + 32 * 1024


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
    problem = CalibrationProblem(circuit, histogram(train), ("theta", "phi"))
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
        CalibrationProblem(circuit, histogram(train))


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
    trains = [histogram(rb.sample_ideal(rb.run(p), 100, seed=i))
              for i, p in enumerate(patches)]
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
