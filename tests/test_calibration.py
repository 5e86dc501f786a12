from dataclasses import replace

import numpy as np
import pytest

import rcsbench as rb
from rcsbench.calibration import (
    CalibrationProblem,
    OptimizerConfig,
    PARAM_NAMES,
    bfgs_minimize,
    calibrate_patches,
    histogram,
    loss,
    loss_and_gradient,
    pack_params,
    split_grid_patches,
    staggered_split_pair,
    unpack_params,
)
from rcsbench.circuit import grid_parts
from rcsbench.errors import InputError
from rcsbench.gates import FsimParams
from rcsbench.simulator import compile_circuit

from oracles import gradient_fd


def make_truth(topology, seed=2024, spread=0.1):
    gen = np.random.default_rng(seed)
    return {
        c.key: FsimParams(
            theta=float(np.pi / 2 + gen.uniform(-spread, spread)),
            phi=float(np.pi / 18 + gen.uniform(-spread, spread)),
            delta_plus=float(gen.uniform(-0.2, 0.2)),
            delta_minus=float(gen.uniform(-0.2, 0.2)),
            delta_minus_off=float(gen.uniform(-0.2, 0.2)),
        )
        for c in topology.enabled_couplers
    }


@pytest.fixture(scope="module")
def two_patch_problem():
    """A 12-qubit patch pair on a 3x8 grid with truth-parameter circuits and
    large ideal training sets."""
    topo = rb.assign_patterns(rb.build_grid(3, 8))
    truth = make_truth(topo)
    circuit = rb.standard_circuit(topo, 16, seed=77, params=truth)
    partition, patches = split_grid_patches(circuit, col_cuts=(4,))
    trains = [
        rb.sample_ideal(rb.run(pc), 1_000_000, seed=1000 + i)
        for i, pc in enumerate(patches)
    ]
    return topo, truth, circuit, partition, patches, trains


@pytest.fixture(scope="module")
def nine_qubit_patch():
    """The 3x3 left patch of a 14-cycle 3x6 circuit with truth parameters
    and an ideal training set."""
    topo = rb.assign_patterns(rb.build_grid(3, 6))
    truth = make_truth(topo, seed=9)
    circuit = rb.standard_circuit(topo, 14, seed=31, params=truth)
    partition, patches = split_grid_patches(circuit, col_cuts=(3,))
    train = rb.sample_ideal(rb.run(patches[0]), 20_000, seed=5)
    return truth, partition.internal[0], patches[0], train


class TestSplits:
    def test_2x2_quadrants_rejected(self):
        topo = rb.assign_patterns(rb.build_grid(2, 2))
        c = rb.standard_circuit(topo, 4, seed=0)
        with pytest.raises(InputError):
            split_grid_patches(c, (1,), (1,))

    def test_4x4_quadrant_counts(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 4, seed=0)
        partition, patch_circuits = split_grid_patches(c, (2,), (2,))
        assert [len(p) for p in partition.patches] == [4, 4, 4, 4]
        assert sum(len(i) for i in partition.internal) == 16
        assert len(partition.cross) == 8
        for pc, qubits in zip(patch_circuits, partition.patches):
            assert pc.qubits == qubits

    def test_staggered_pair_covers_all_couplers(self, demo60):
        c = rb.standard_circuit(demo60, 4, seed=0)
        covered = set()
        for row_cuts, col_cuts in staggered_split_pair(c):
            partition, _ = split_grid_patches(c, row_cuts, col_cuts)
            for keys in partition.internal:
                covered.update(keys)
        assert len(covered) == 99

    def test_patch_with_no_qubits_rejected(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=0)
        with pytest.raises(InputError):
            split_grid_patches(c, row_cuts=(1, 2), col_cuts=(1, 2, 3))


class TestLoss:
    def test_loss_near_zero_at_truth(self, two_patch_problem):
        _, truth, _, partition, patches, trains = two_patch_problem
        couplers = partition.internal[0]
        base = {k: truth[k] for k in couplers}
        problem = CalibrationProblem(patches[0], histogram(trains[0]), trainable=("theta", "phi"))
        x = pack_params(base, couplers, ("theta", "phi"))
        value = loss(x, problem)
        sigma = rb.xeb_sigma(rb.probabilities_of_samples(
            rb.probabilities(rb.run(patches[0])), trains[0]))
        assert abs(value) < max(3 * sigma, 0.05)

    def test_uniform_bitstrings_give_loss_one(self, two_patch_problem):
        _, truth, _, partition, patches, _ = two_patch_problem
        couplers = partition.internal[0]
        base = {k: truth[k] for k in couplers}
        gen = np.random.default_rng(5)
        uniform = rb.SampleSet(
            patches[0].n_qubits,
            gen.integers(0, 1 << patches[0].n_qubits, 100_000, dtype=np.uint64))
        problem = CalibrationProblem(patches[0], histogram(uniform))
        value = loss(pack_params(base, couplers), problem)
        assert abs(value - 1.0) < 0.05

    def test_theta_perturbation_increases_loss(self, two_patch_problem):
        _, truth, _, partition, patches, trains = two_patch_problem
        couplers = partition.internal[0]
        base = {k: truth[k] for k in couplers}
        problem = CalibrationProblem(patches[0], histogram(trains[0]), trainable=("theta",))
        x = pack_params(base, couplers, ("theta",))
        assert loss(x + 0.1, problem) > loss(x, problem)

    def test_deterministic(self, two_patch_problem):
        _, truth, _, partition, patches, trains = two_patch_problem
        couplers = partition.internal[0]
        base = {k: truth[k] for k in couplers}
        problem = CalibrationProblem(patches[0], histogram(trains[0]))
        x = pack_params(base, couplers) + 0.01
        assert loss(x, problem) == loss(x, problem)

    def test_loss_matches_gather_formula(self, nine_qubit_patch):
        truth, couplers, patch, train = nine_qubit_patch
        base = {k: truth[k] for k in couplers}
        problem = CalibrationProblem(patch, histogram(train))
        assert (problem.couplers, problem.base) == (couplers, base)
        x = pack_params(base, couplers) + 0.02
        mapping = unpack_params(x, base, couplers)
        dist = rb.probabilities(rb.run(rb.with_coupler_params(patch, mapping)))
        d = dist.size
        want = d * np.mean(dist[train.words.astype(np.int64)]) - 1.0
        want /= np.sqrt(d * np.sum(dist * dist) - 1.0)
        assert abs((1.0 - loss(x, problem)) - want) < 1e-12

    def test_couplers_are_those_that_fire(self, nine_qubit_patch):
        truth, couplers, patch, train = nine_qubit_patch
        first = replace(patch, cycles=patch.cycles[:1])
        fired = tuple(sorted((a, b) for a, b, _ in first.cycles[0].two_qubit))
        assert 0 < len(fired) < len(couplers)
        problem = CalibrationProblem(first, histogram(train))
        assert problem.couplers == fired
        assert problem.base == {k: truth[k] for k in fired}

    def test_patch_without_firing_coupler_rejected(self, nine_qubit_patch):
        _, _, patch, train = nine_qubit_patch
        idle = replace(patch, cycles=tuple(replace(c, two_qubit=()) for c in patch.cycles))
        with pytest.raises(InputError):
            CalibrationProblem(idle, histogram(train))

    def test_repeated_trainable_name_rejected(self, nine_qubit_patch):
        # unpacking keeps the last copy, so the loss would ignore the first
        _, _, patch, train = nine_qubit_patch
        with pytest.raises(InputError):
            CalibrationProblem(patch, histogram(train), trainable=("theta", "theta"))

    def test_histogram_that_is_not_one_count_per_outcome_rejected(self, nine_qubit_patch):
        _, _, patch, train = nine_qubit_patch
        counts = histogram(train)
        negative = counts.copy()
        negative[3] = -1
        for bad in (counts[:256], counts.astype(float), negative, list(counts)):
            with pytest.raises(InputError):
                CalibrationProblem(patch, bad)

    def test_empty_training_set_rejected(self, nine_qubit_patch):
        _, _, patch, _ = nine_qubit_patch
        empty = rb.SampleSet(patch.n_qubits, np.zeros(0, dtype=np.uint64))
        with pytest.raises(InputError):
            CalibrationProblem(patch, histogram(empty))

    def test_pack_unpack_round_trip(self, two_patch_problem):
        _, truth, _, partition, _, _ = two_patch_problem
        couplers = partition.internal[0]
        base = {k: truth[k] for k in couplers}
        x = pack_params(base, couplers)
        assert unpack_params(x, base, couplers) == base

    def test_wrong_gamma_size_rejected(self, two_patch_problem):
        _, truth, _, partition, _, _ = two_patch_problem
        couplers = partition.internal[0]
        base = {k: truth[k] for k in couplers}
        with pytest.raises(InputError):
            unpack_params(np.zeros(3), base, couplers)


class TestGradient:
    def test_quadratic_analytic(self):
        target = np.array([1.0, -2.0, 0.5])
        grad = gradient_fd(lambda x: float(np.sum((x - target) ** 2)),
                           np.zeros(3), h=1e-5)
        assert np.allclose(grad, -2 * target, atol=1e-6)

    def test_five_point_stencil_oracle(self):
        def f(x):
            return float(np.sin(x[0]) * np.exp(0.3 * x[1]))

        x0 = np.array([0.7, -0.4])
        h = 1e-3
        got = gradient_fd(f, x0, h)
        for k in range(2):
            e = np.zeros(2)
            e[k] = 1.0
            stencil = (
                -f(x0 + 2 * h * e) + 8 * f(x0 + h * e)
                - 8 * f(x0 - h * e) + f(x0 - 2 * h * e)
            ) / (12 * h)
            assert abs(got[k] - stencil) / abs(stencil) < 1e-4

    def test_richardson_consistency(self):
        def f(x):
            return float(np.cos(2 * x[0]) + x[0] ** 3)

        x0 = np.array([0.3])
        h = 1e-2
        g_h = gradient_fd(f, x0, h)[0]
        g_h2 = gradient_fd(f, x0, h / 2)[0]
        exact = -2 * np.sin(0.6) + 3 * 0.09
        # central differences are O(h^2): halving h shrinks the error ~4x
        assert abs(g_h2 - exact) < abs(g_h - exact) / 2.5

    def test_small_gradient_at_truth(self, two_patch_problem):
        _, truth, _, partition, patches, trains = two_patch_problem
        couplers = partition.internal[0]
        base = {k: truth[k] for k in couplers}
        problem = CalibrationProblem(patches[0], histogram(trains[0]), trainable=("theta", "phi"))
        x = pack_params(base, couplers, ("theta", "phi"))
        _, grad = loss_and_gradient(x, problem)
        assert np.max(np.abs(grad)) < 0.02

    @pytest.mark.parametrize("trainable", [("theta", "phi"), PARAM_NAMES])
    def test_adjoint_matches_finite_differences(self, nine_qubit_patch, trainable):
        truth, couplers, patch, train = nine_qubit_patch
        base = {k: truth[k] for k in couplers}
        problem = CalibrationProblem(patch, histogram(train), trainable=trainable)
        # Couplers fire in several cycles, and some op fuses two trained sites.
        fired = [i for _, i in problem.coupler_sites]
        assert max(fired.count(i) for i in set(fired)) >= 3
        trained = {site for site, _ in problem.coupler_sites}
        assert max(len(op.sites & trained) for op in compile_circuit(patch).ops) >= 2

        gen = np.random.default_rng(4)
        x = pack_params(base, couplers, trainable) + gen.uniform(-0.05, 0.05, problem.dim)
        value, grad = loss_and_gradient(x, problem)
        assert value == loss(x, problem)
        want = gradient_fd(lambda g: loss(g, problem), x, 1e-4)
        assert np.max(np.abs(grad - want)) < 1e-6
        assert np.max(np.abs(want)) > 1e-2

    def test_rejects_bad_step(self):
        with pytest.raises(InputError):
            gradient_fd(lambda x: 0.0, np.zeros(2), h=0.0)


class TestBfgs:
    def test_rosenbrock(self):
        def rosen(x):
            r = x[1] - x[0] ** 2
            f = float((1 - x[0]) ** 2 + 100 * r ** 2)
            return f, np.array([-2 * (1 - x[0]) - 400 * x[0] * r, 200 * r])

        res = bfgs_minimize(rosen, np.array([-1.2, 1.0]),
                            OptimizerConfig(max_iters=500, grad_tol=1e-9))
        assert res.status == "converged"
        assert np.max(np.abs(res.x - 1.0)) < 1e-6

    def test_quadratic_bowl_fast_convergence(self):
        dim = 8

        def quad(x):
            return float(np.sum((x - 3.0) ** 2)), 2 * (x - 3.0)

        res = bfgs_minimize(quad, np.zeros(dim), OptimizerConfig(grad_tol=1e-8))
        assert res.status == "converged"
        assert res.iterations <= 3 * dim

    def test_trace_monotone(self):
        def f(x):
            return float(np.sum(x**4) + np.sum((x - 1) ** 2)), 4 * x**3 + 2 * (x - 1)

        res = bfgs_minimize(f, np.full(4, 2.5))
        assert np.all(np.diff(res.trace) <= 0)

    def test_never_above_start(self):
        gen = np.random.default_rng(31)
        a = gen.standard_normal((5, 5))
        h = a @ a.T + np.eye(5)

        def f(x):
            return float(x @ h @ x + np.sin(3 * x).sum()), 2 * h @ x + 3 * np.cos(3 * x)

        for trial in range(5):
            x0 = gen.standard_normal(5)
            res = bfgs_minimize(f, x0, OptimizerConfig(max_iters=50))
            assert res.fun <= f(x0)[0] + 1e-12

    def test_rejects_non_finite_start(self):
        with pytest.raises(InputError):
            bfgs_minimize(lambda x: (0.0, np.zeros_like(x)), np.array([np.nan]))


class TestCalibration:
    def test_fixed_point_at_truth(self, two_patch_problem):
        _, truth, circuit, partition, patches, trains = two_patch_problem
        result = calibrate_patches(
            circuit, patches, [histogram(t) for t in trains],
            config=OptimizerConfig(max_iters=60, grad_tol=1e-6),
            trainable=("theta", "phi"))
        for keys in partition.internal:
            for key in keys:
                assert abs(result.params[key].theta - truth[key].theta) <= 0.005
                assert abs(result.params[key].phi - truth[key].phi) <= 0.005

    def test_recovery_and_holdout_improvement(self, two_patch_problem):
        topo, truth, circuit, partition, patches, trains = two_patch_problem
        gen = np.random.default_rng(55)
        perturbed = {
            k: FsimParams(p.theta + float(gen.uniform(-0.05, 0.05)),
                          p.phi + float(gen.uniform(-0.05, 0.05)),
                          p.delta_plus, p.delta_minus, p.delta_minus_off)
            for k, p in truth.items()
        }
        start = rb.with_coupler_params(circuit, perturbed)
        _, start_patches = split_grid_patches(start, col_cuts=(4,))
        result = calibrate_patches(
            start, start_patches, [histogram(t) for t in trains],
            config=OptimizerConfig(max_iters=150, grad_tol=1e-6),
            trainable=("theta", "phi"))
        for keys in partition.internal:
            for key in keys:
                assert abs(result.params[key].theta - truth[key].theta) <= 0.01
                assert abs(result.params[key].phi - truth[key].phi) <= 0.01
        for patch, train, pr in zip(start_patches, trains, result.patches):
            assert pr.after_loss <= pr.before_loss
            assert np.all(np.diff(pr.trace) <= 1e-12)
            problem = CalibrationProblem(patch, histogram(train), trainable=("theta", "phi"))
            assert problem.couplers == pr.couplers
            x0 = pack_params(perturbed, pr.couplers, ("theta", "phi"))
            assert pr.before_loss == loss(x0, problem)

        # held-out circuit: fresh instance with truth parameters; XEB of its
        # ideal samples must improve with the calibrated parameters
        held = rb.standard_circuit(topo, 10, seed=909, params=truth)
        held_patch = rb.make_patch(held, grid_parts(held, col_cuts=(4,)))
        hardware = rb.sample_ideal(rb.run(held_patch), 100_000, seed=77)

        def holdout_xeb(params):
            est, _ = rb.measured_xeb(
                rb.with_coupler_params(held_patch, params), hardware)
            return est.fidelity

        assert holdout_xeb(result.params) > holdout_xeb(perturbed)

    def test_outside_couplers_untouched(self, two_patch_problem):
        _, truth, circuit, partition, patches, trains = two_patch_problem
        result = calibrate_patches(
            circuit, patches, [histogram(t) for t in trains],
            config=OptimizerConfig(max_iters=5, grad_tol=1e-6),
            trainable=("theta", "phi"))
        for key in partition.cross:
            assert result.params[key] == truth[key]

    def test_thread_count_invariant(self, two_patch_problem):
        _, truth, circuit, partition, patches, trains = two_patch_problem
        cfg = OptimizerConfig(max_iters=3, grad_tol=1e-6)
        counts = [histogram(t) for t in trains]
        a = calibrate_patches(circuit, patches, counts, config=cfg, threads=1,
                              trainable=("theta",))
        b = calibrate_patches(circuit, patches, counts, config=cfg, threads=2,
                              trainable=("theta",))
        assert a.params == b.params

    def test_training_set_count_checked(self, two_patch_problem):
        _, _, circuit, partition, patches, trains = two_patch_problem
        with pytest.raises(InputError):
            calibrate_patches(circuit, patches, [histogram(trains[0])])
