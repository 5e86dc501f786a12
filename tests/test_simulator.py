import hashlib
import sys
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

import rcsbench as rb
from rcsbench import rng, simulator
from rcsbench.circuit import Circuit, Cycle, grid_parts
from rcsbench.errors import InputError, ResourceLimitError
from rcsbench.gates import FsimParams, SingleQubitGate, fsim_matrix
from rcsbench.simulator import (_execute, _work_buffers, adjoint_gradient,
                                compile_circuit, execute, fan_out, zero_state)

from conftest import random_fsim
from oracles import (adjoint_stored, dense_run, dense_run_sites, dense_single, dense_two,
                     draw_words_by_searchsorted)


# Words of sample_trajectory for a 3x4, 6-cycle circuit (seed 3) with
# NoiseModel(e1=0.01, e2=0.02), seed 12, 300 trajectories, recorded with the
# unfused gate-by-gate simulator.
GOLDEN_TRAJECTORY_WORDS = (
    3479, 1640, 3890, 3184, 2536, 3789, 2446, 86, 1049, 2847, 3097, 388,
    1290, 769, 1586, 2169, 669, 472, 2230, 8, 2653, 2018, 1426, 3708, 616,
    3639, 2541, 1387, 3721, 2992, 879, 3397, 475, 856, 2535, 2638, 2966,
    2370, 2744, 2218, 2771, 3743, 1665, 1107, 2143, 1075, 2912, 2089, 1696,
    1125, 3019, 3592, 3433, 83, 2693, 1135, 2999, 3381, 344, 4059, 476,
    2150, 2061, 2885, 1637, 3518, 2399, 4093, 1749, 2229, 4092, 2662, 896,
    1985, 1221, 2363, 916, 1623, 670, 2050, 1998, 46, 3199, 2084, 3843,
    2644, 1968, 1103, 633, 2677, 2142, 3451, 3723, 475, 3609, 3115, 837,
    3688, 709, 667, 3517, 1406, 3625, 3204, 2118, 3234, 3889, 160, 492,
    1006, 3494, 2424, 75, 310, 3280, 1034, 3985, 2792, 3574, 4065, 1112,
    2927, 3218, 332, 1201, 1868, 2941, 46, 2867, 2143, 662, 3630, 3483,
    1157, 558, 1648, 890, 592, 3982, 2256, 1352, 3279, 1298, 3600, 4060,
    1744, 3248, 1877, 3284, 422, 2460, 2525, 426, 1807, 89, 3373, 1611,
    2500, 2782, 1965, 4087, 2649, 794, 2448, 2374, 3967, 209, 3641, 2648,
    2803, 3445, 3718, 3181, 1808, 1533, 3740, 3058, 3232, 1759, 953, 1140,
    2418, 2443, 2530, 1800, 1956, 704, 1062, 1109, 3236, 1301, 2691, 375,
    2421, 1028, 1714, 2751, 1373, 2385, 1235, 2072, 2259, 681, 1510, 2678,
    2212, 631, 3645, 1463, 3477, 2725, 1584, 1679, 3854, 1716, 2458, 1306,
    2303, 2233, 4021, 859, 2286, 329, 298, 676, 1654, 1792, 3146, 2953,
    2639, 227, 1495, 2340, 1809, 2770, 1215, 338, 579, 3233, 4086, 3756,
    3493, 1238, 5, 1063, 2627, 1904, 1559, 3668, 1291, 4056, 1559, 3864,
    1534, 1489, 145, 764, 2732, 2626, 621, 1117, 1306, 3266, 1603, 1857,
    1044, 42, 1634, 898, 1067, 643, 3713, 85, 2226, 2308, 2447, 2680, 751,
    1382, 2180, 3200, 722, 3588, 642, 2191, 4058, 3704, 2317, 2903, 2315,
    1110, 3105, 2522, 873, 3883, 1697, 3704, 899, 1166, 838,
)

# sha256 of the amplitude bytes of run() on a 3x4, 8-cycle circuit (seed 21),
# and of the words drawn from that state by sample_ideal (1000 samples, seed
# 5) and sample_noisy_speckle (F = 0.3, 1000 samples, seed 6).
GOLDEN_SHA256 = {
    "run": "c0c7f1bcb8a08e8d64c1ed8d8da6d381b6519c6e72f71d239bc5dafc9fdc741d",
    "ideal": "7a5a53b0ebd3d33002de1f0a9ff0b965a92c1eeb6240ac0b26f1e67873654e98",
    "speckle": "6c65647d12477ddfe474bd47dd63500c2af43f09ac52521ae4e8cd95effdf273",
}


def random_state(n, gen):
    amps = gen.standard_normal(1 << n) + 1j * gen.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return rb.StateVector(n, amps)


def random_unitary(dim, gen):
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestApplyOps:
    def test_identity_leaves_state(self):
        gen = np.random.default_rng(0)
        st = random_state(5, gen)
        before = st.amplitudes.copy()
        rb.apply_single(st, 2, np.eye(2))
        rb.apply_two(st, (1, 4), np.eye(4))
        assert np.allclose(st.amplitudes, before, atol=1e-14)

    def test_x_flips_the_addressed_bit(self):
        st = zero_state(4)
        rb.apply_single(st, 1, np.array([[0, 1], [1, 0]]))
        assert abs(st.amplitudes[0b0100] - 1) < 1e-14

    def test_norm_preserved_for_random_gates(self):
        gen = np.random.default_rng(1)
        for _ in range(25):
            st = random_state(6, gen)
            rb.apply_single(st, int(gen.integers(0, 6)), random_unitary(2, gen))
            q1, q2 = gen.choice(6, 2, replace=False)
            rb.apply_two(st, (int(q1), int(q2)), random_unitary(4, gen))
            assert abs(st.norm() - 1) < 1e-12

    def test_iswap_on_01(self):
        st = zero_state(2)
        rb.apply_single(st, 1, np.array([[0, 1], [1, 0]]))  # |01>
        rb.apply_two(st, (0, 1), fsim_matrix(FsimParams(np.pi / 2, 0)))
        want = np.zeros(4, complex)
        want[0b10] = -1j
        assert np.allclose(st.amplitudes, want, atol=1e-14)

    def test_against_dense_oracle_100_random_gates(self):
        gen = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            n = int(gen.integers(2, 9))
            st = random_state(n, gen)
            ref = st.amplitudes.copy()
            if gen.random() < 0.5:
                q = int(gen.integers(0, n))
                u = random_unitary(2, gen)
                rb.apply_single(st, q, u)
                ref = dense_single(n, q, u) @ ref
            else:
                q1, q2 = (int(v) for v in gen.choice(n, 2, replace=False))
                u = random_unitary(4, gen)
                rb.apply_two(st, (q1, q2), u)
                ref = dense_two(n, q1, q2, u) @ ref
            worst = max(worst, float(np.max(np.abs(st.amplitudes - ref))))
        assert worst <= 1e-10

    def test_every_qubit_and_ordered_pair_on_five_qubits(self):
        gen = np.random.default_rng(3)
        n = 5
        for q in range(n):
            st = random_state(n, gen)
            u = random_unitary(2, gen)
            ref = dense_single(n, q, u) @ st.amplitudes
            rb.apply_single(st, q, u)
            assert np.max(np.abs(st.amplitudes - ref)) <= 1e-12
        for q1 in range(n):
            for q2 in range(n):
                if q1 == q2:
                    continue
                st = random_state(n, gen)
                u = random_unitary(4, gen)
                ref = dense_two(n, q1, q2, u) @ st.amplitudes
                rb.apply_two(st, (q1, q2), u)
                assert np.max(np.abs(st.amplitudes - ref)) <= 1e-12

    def test_rejects_bad_qubits(self):
        st = zero_state(3)
        with pytest.raises(InputError):
            rb.apply_single(st, 3, np.eye(2))
        with pytest.raises(InputError):
            rb.apply_two(st, (1, 1), np.eye(4))


class TestRun:
    def test_empty_circuit_is_vacuum(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 1, seed=0)
        empty = Circuit(topology=c.topology, qubits=c.qubits, cycles=(),
                        seed=0, kind="standard")
        st = rb.run(empty)
        assert abs(st.amplitudes[0] - 1) < 1e-15

    def test_hand_computed_two_qubit_cycle(self):
        topo = rb.assign_patterns(rb.build_grid(1, 2))
        p = FsimParams(theta=np.pi / 2, phi=np.pi / 18,
                       delta_plus=0.1, delta_minus=0.2, delta_minus_off=-0.3)
        cyc = Cycle(pattern="C",
                    single=(SingleQubitGate.SQRT_X, SingleQubitGate.SQRT_Y),
                    two_qubit=((0, 1, p),))
        c = Circuit(topology=topo, qubits=(0, 1), cycles=(cyc,), seed=0,
                    kind="standard")
        frozen = np.array([
            0.4999999999999999 + 0.0j,
            -0.4605304970014424 - 0.1947091711543252j,
            -0.09933466539753057 - 0.49003328892062076j,
            0.012732161009163485 - 0.4998378657885341j,
        ])
        st = rb.run(c)
        assert np.allclose(st.amplitudes, frozen, atol=1e-14)
        assert np.allclose(st.amplitudes, dense_run(c), atol=1e-12)

    def test_norm_after_deep_circuit(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 20, seed=5)
        assert abs(rb.run(c).norm() - 1) < 1e-10

    def test_qubit_limit_enforced(self):
        # two states of 40 qubits are 32 TiB, more than any host holds
        c = rb.standard_circuit(rb.assign_patterns(rb.build_grid(5, 8)), 1, seed=0)
        with pytest.raises(ResourceLimitError):
            rb.run(c)
        with pytest.raises(ResourceLimitError):
            rb.sample_trajectory(c, rb.NoiseModel(), 10, seed=1)


def assert_matches_oracle(circuit):
    got = rb.run(circuit).amplitudes
    assert np.max(np.abs(got - dense_run(circuit))) <= 1e-12


def random_param_circuit(rows, cols, n_cycles, seed):
    gen = np.random.default_rng(seed)
    topo = rb.assign_patterns(rb.build_grid(rows, cols))
    params = {c.key: random_fsim(gen) for c in topo.enabled_couplers}
    return rb.standard_circuit(topo, n_cycles, seed=seed, params=params)


class TestCompiledProgram:
    """The fused program of run() against the explicit-matrix oracle."""

    @pytest.mark.parametrize("rows, cols, n_cycles", [(3, 4, 10), (4, 4, 6)])
    def test_random_grid_circuits(self, rows, cols, n_cycles):
        # vertical couplers join qubits `cols` positions apart
        assert_matches_oracle(random_param_circuit(rows, cols, n_cycles, seed=31))

    def test_patch_elided_and_subcircuit(self):
        c = random_param_circuit(3, 4, 8, seed=32)
        bip = grid_parts(c, col_cuts=(2,))
        assert_matches_oracle(rb.make_patch(c, bip))
        assert_matches_oracle(rb.make_elided(c, bip, keep_last=3))
        assert_matches_oracle(rb.extract_subcircuit(c, sorted(bip[0])))

    def test_one_qubit_circuit(self):
        from rcsbench.topology import restrict

        topo = restrict(rb.assign_patterns(rb.build_grid(1, 2)), (0,))
        cycles = tuple(Cycle(pattern="A", single=(g,), two_qubit=())
                       for g in (SingleQubitGate.SQRT_X, SingleQubitGate.SQRT_W,
                                 SingleQubitGate.SQRT_Y, SingleQubitGate.SQRT_X))
        assert_matches_oracle(Circuit(topology=topo, qubits=(0,), cycles=cycles,
                                      seed=0, kind="standard"))

    def test_fewer_qubits_than_a_group(self):
        assert_matches_oracle(random_param_circuit(2, 2, 9, seed=33))

    def test_cycle_without_two_qubit_gates(self):
        c = random_param_circuit(3, 4, 5, seed=34)
        cycles = list(c.cycles)
        cycles[2] = replace(cycles[2], two_qubit=())
        assert_matches_oracle(replace(c, cycles=tuple(cycles)))

    def test_two_qubit_gates_sharing_a_qubit(self):
        # hand-built layer: chains through qubits 0-1-2-6 and 2-3 with a
        # reversed pair (6, 2), a repeated pair (0, 1) and a separate (4, 5)
        c = random_param_circuit(3, 4, 3, seed=35)
        gen = np.random.default_rng(35)
        gates = ((0, 1), (1, 2), (6, 2), (4, 5), (0, 1), (2, 3))
        layer = replace(c.cycles[1], two_qubit=tuple(
            (a, b, random_fsim(gen)) for a, b in gates))
        assert_matches_oracle(replace(c, cycles=(c.cycles[0], layer, c.cycles[2])))

    @pytest.mark.parametrize("seed", [40, 41, 42])
    @pytest.mark.parametrize("rows, cols, n_cycles", [(3, 4, 8), (4, 4, 6)])
    def test_site_swap_matches_recompile(self, rows, cols, n_cycles, seed):
        # every two-qubit site gets a random fSim, as calibration swaps them in
        c = random_param_circuit(rows, cols, n_cycles, seed)
        gen = np.random.default_rng([seed, 1])  # not the circuit's own stream
        params = {key: random_fsim(gen) for key in sorted(c.coupler_params())}
        assert all(params[k] != p for k, p in c.coupler_params().items())
        program = compile_circuit(c)
        replaced = {s: fsim_matrix(params[tuple(c.qubits[i] for i in site.qubits)])
                    for s, site in enumerate(program.sites) if len(site.qubits) == 2}
        swapped = program.with_sites(replaced)
        target = rb.with_coupler_params(c, params)
        want = compile_circuit(target)
        assert all(np.array_equal(a.matrix, b.matrix)
                   for a, b in zip(swapped.sites, want.sites))
        got = execute(swapped)
        assert np.array_equal(got, execute(want))
        assert np.max(np.abs(got - dense_run(target))) <= 1e-12

    def test_single_site_swap_matches_dense_sites(self):
        # trajectory faults replace single-qubit sites: a block with a
        # replaced single site recomputes its Kronecker product of singles
        c = random_param_circuit(3, 4, 6, seed=43)
        program = compile_circuit(c)
        gen = np.random.default_rng(43)
        chosen = gen.choice(len(program.sites), 16, replace=False)
        replaced = {int(s): random_unitary(1 << len(program.sites[s].qubits), gen)
                    for s in chosen}
        assert sum(len(program.sites[s].qubits) == 1 for s in replaced) >= 8
        swapped = program.with_sites(replaced)
        n = c.n_qubits
        want = np.zeros(1 << n, dtype=complex)
        want[0] = 1.0
        for site in swapped.sites:
            dense = dense_single if len(site.qubits) == 1 else dense_two
            want = dense(n, *site.qubits, site.matrix) @ want
        assert np.max(np.abs(execute(swapped) - want)) <= 1e-12

    def test_gate_sites_in_circuit_order(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=36)
        sites = compile_circuit(c).sites
        pos = {q: i for i, q in enumerate(c.qubits)}
        want = []
        for k, cyc in enumerate(c.cycles):
            want += [(k, (i,)) for i in range(c.n_qubits)]
            want += [(k, (pos[a], pos[b])) for a, b, _ in cyc.two_qubit]
        assert [(s.cycle, s.qubits) for s in sites] == want

    @pytest.mark.parametrize("rows, cols", [(3, 4), (4, 5), (6, 10)])
    def test_at_most_one_transpose_per_cycle(self, rows, cols):
        program = compile_circuit(random_param_circuit(rows, cols, 8, seed=37))
        assert all(sum(op.perm is not None for op in ops) <= 1
                   for ops in program.cycles)

    def test_executor_never_writes_its_input(self):
        program = compile_circuit(random_param_circuit(3, 4, 4, seed=38))
        psi = random_state(12, np.random.default_rng(38)).amplitudes
        before = psi.tobytes()
        ops = [op for ops in program.cycles for op in ops]
        out = _execute(ops, psi, _work_buffers(12))
        assert out is not psi
        assert psi.tobytes() == before

    def test_execute_twice_is_bit_identical(self):
        program = compile_circuit(random_param_circuit(3, 4, 6, seed=39))
        assert execute(program).tobytes() == execute(program).tobytes()


class TestAdjointGradient:
    """Per-site environments of `adjoint_gradient` against central
    differences of the explicit-matrix oracle."""

    @pytest.fixture(scope="class")
    def patch(self):
        # the 9-qubit left patch of a 3x6, 14-cycle circuit: its ops hold 1,
        # 2 and 3 blocks, with two-qubit sites in the first, middle and last block
        c = random_param_circuit(3, 6, 14, seed=31)
        return rb.split_grid_patches(c, col_cuts=(3,))[1][0]

    @staticmethod
    def real_function(n, gen):
        """L = sum(w |psi|^2) + Re(v^H psi), and its cotangent dL/dpsi*."""
        w = gen.uniform(0, 1, 1 << n) * (1 << n)
        v = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)

        def value(psi):
            return float(w @ np.abs(psi) ** 2 + np.vdot(v, psi).real)

        return value, lambda psi: (value(psi), w * psi + v / 2)

    def test_environments_match_central_differences(self, patch):
        program = compile_circuit(patch)
        # the first two-qubit site at each (blocks in op, position) found
        chosen = {}
        for op in (op for ops in program.cycles for op in ops):
            for b, block in enumerate(op.blocks):
                if block.two is not None:
                    chosen.setdefault((len(op.blocks), b), block.two)
        assert {(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)} <= chosen.keys()

        gen = np.random.default_rng(31)
        value, cotangent = self.real_function(patch.n_qubits, gen)
        got_value, envs = adjoint_gradient(program, cotangent, chosen.values())
        assert abs(got_value - value(dense_run(patch))) <= 1e-12
        assert envs.keys() == set(chosen.values())
        h = 1e-3  # L is quadratic in each site's matrix: no truncation error
        for s in chosen.values():
            g = program.sites[s].matrix
            for _ in range(2):
                d = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
                want = (value(dense_run_sites(patch, {s: g + h * d}))
                        - value(dense_run_sites(patch, {s: g - h * d}))) / (2 * h)
                assert abs(2 * np.sum(d * envs[s]).real - want) <= 1e-8

    def test_recomputed_inputs_do_not_drift_from_stored_ones(self):
        # 200 cycles of recomputing each op's input from its output, against
        # the sweep that stores every input, at every two-qubit site
        c = random_param_circuit(3, 4, 200, seed=37)
        program = compile_circuit(c)
        sites = [s for s, site in enumerate(program.sites) if len(site.qubits) == 2]
        _, cotangent = self.real_function(c.n_qubits, np.random.default_rng(37))
        value, envs = adjoint_gradient(program, cotangent, sites)
        want_value, want = adjoint_stored(program, cotangent, sites)
        assert value == want_value
        assert envs.keys() == want.keys() == set(sites)
        drift = max(np.max(np.abs(envs[s] - want[s])) for s in sites)
        assert drift <= 1e-12 * max(np.max(np.abs(want[s])) for s in sites)

    def test_rejects_sites_that_are_not_two_qubit_sites(self, grid_3x4):
        program = compile_circuit(rb.standard_circuit(grid_3x4, 4, seed=36))

        def cotangent(psi):
            return 0.0, psi

        single = next(s for s, site in enumerate(program.sites) if len(site.qubits) == 1)
        for bad in (single, len(program.sites), -1):
            with pytest.raises(InputError):
                adjoint_gradient(program, cotangent, [bad])


class TestProbabilities:
    def test_point_mass(self):
        st = zero_state(4)
        p = rb.probabilities(st)
        assert p[0] == 1 and p.sum() == 1

    def test_uniform_superposition(self):
        st = zero_state(3)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for q in range(3):
            rb.apply_single(st, q, h)
        assert np.allclose(rb.probabilities(st), 1 / 8, atol=1e-14)

    def test_sums_to_one(self, deep_12q_state):
        _, _, dist = deep_12q_state
        assert abs(dist.sum() - 1) < 1e-10

    def test_porter_thomas_emergence(self, deep_12q_state):
        _, _, dist = deep_12q_state
        scaled = dist * dist.size
        assert stats.kstest(scaled, "expon").pvalue > 0.01


class TestSampling:
    def test_golden_run_and_sampling(self, grid_3x4):
        # pins the executor bit for bit, and the ideal and speckle draws
        def sha(a):
            return hashlib.sha256(a.tobytes()).hexdigest()

        state = rb.run(rb.standard_circuit(grid_3x4, 8, seed=21))
        assert {
            "run": sha(state.amplitudes),
            "ideal": sha(rb.sample_ideal(state, 1000, seed=5).words),
            "speckle": sha(rb.sample_noisy_speckle(state, 0.3, 1000, seed=6).words),
        } == GOLDEN_SHA256

    def test_point_mass_all_identical(self):
        st = zero_state(6)
        ss = rb.sample_ideal(st, 50, seed=1)
        assert np.all(ss.words == 0)

    def test_same_seed_identical(self, deep_12q_state):
        _, state, _ = deep_12q_state
        a = rb.sample_ideal(state, 1000, seed=3)
        b = rb.sample_ideal(state, 1000, seed=3)
        assert np.array_equal(a.words, b.words)

    def test_multinomial_frequencies_within_4_sigma(self):
        st = zero_state(4)
        gen = np.random.default_rng(8)
        u = random_unitary(2, gen)
        for q in range(4):
            rb.apply_single(st, q, random_unitary(2, gen))
        probs = rb.probabilities(st)
        n = 100_000
        ss = rb.sample_ideal(st, n, seed=9)
        counts = np.bincount(ss.words.astype(int), minlength=16)
        for k in range(16):
            sigma = np.sqrt(n * probs[k] * (1 - probs[k]))
            assert abs(counts[k] - n * probs[k]) <= 4 * sigma + 1

    def test_speckle_f1_matches_ideal_distribution(self, deep_12q_state):
        _, state, dist = deep_12q_state
        ss = rb.sample_noisy_speckle(state, 1.0, 100_000, seed=4)
        rec = rb.probabilities_of_samples(dist, ss)
        est = rb.linear_xeb(rec)
        assert abs(est.fidelity - 1.0) < 3 * est.sigma

    def test_speckle_f0_uniform(self, deep_12q_state):
        _, state, dist = deep_12q_state
        ss = rb.sample_noisy_speckle(state, 0.0, 100_000, seed=4)
        est = rb.linear_xeb(rb.probabilities_of_samples(dist, ss))
        assert abs(est.fidelity) < 3 * est.sigma

    def test_speckle_half_consistent(self, deep_12q_state):
        _, state, dist = deep_12q_state
        ss = rb.sample_noisy_speckle(state, 0.5, 200_000, seed=6)
        est = rb.linear_xeb(rb.probabilities_of_samples(dist, ss))
        assert abs(est.fidelity - 0.5) < 3 * est.sigma

    def test_speckle_rejects_bad_fidelity(self, deep_12q_state):
        _, state, _ = deep_12q_state
        with pytest.raises(InputError):
            rb.sample_noisy_speckle(state, 1.5, 10, seed=0)


def _point_mass(at: int) -> np.ndarray:
    probs = np.zeros(1 << 9)
    probs[at] = 1.0
    return probs


def _half_zero(gen: np.random.Generator) -> np.ndarray:
    probs = gen.exponential(size=1 << 9)
    probs[::2] = 0.0  # repeats every cumulative value, 0.0 among them
    return probs


# Born distributions over 2^n outcomes: Porter-Thomas at five sizes, half of
# the entries zero, point masses at both ends and the middle, and p^9, whose
# few heavy outcomes leave most buckets of the index table wide
DISTRIBUTIONS = {
    **{f"pt{n}": lambda gen, n=n: gen.exponential(size=1 << n) for n in (1, 2, 9, 16, 20)},
    "half_zero": _half_zero,
    "mass_first": lambda gen: _point_mass(0),
    "mass_middle": lambda gen: _point_mass(1 << 8),
    "mass_last": lambda gen: _point_mass((1 << 9) - 1),
    "pt16_pow9": lambda gen: gen.exponential(size=1 << 16) ** 9,
}

# One draw, a few (m < 2^n at every size past 2^2), and a partial chunk
# below and past _DRAW_CHUNK (m = 2^n up to 2^16 outcomes)
DRAW_COUNTS = (1, 5, 1000, 600_000)


@lru_cache(maxsize=None)
def _distribution(name: str) -> np.ndarray:
    probs = DISTRIBUTIONS[name](np.random.default_rng(17))
    probs.flags.writeable = False
    return probs


def _cumulative(name: str) -> np.ndarray:
    cum = np.cumsum(_distribution(name))
    cum /= cum[-1]
    return cum


@pytest.mark.parametrize("n_draws", DRAW_COUNTS)
@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
class TestDrawWords:
    """The index-table inverse CDF against one binary search per draw."""

    def test_words_match_one_search_per_draw(self, name, n_draws):
        probs = _distribution(name)
        gen, ref = (rng.stream(7, rng.Stream.IDEAL_SAMPLING) for _ in range(2))
        words = simulator._draw_words(probs.copy(), n_draws, gen)
        assert words.dtype == np.uint64
        assert np.array_equal(words, draw_words_by_searchsorted(probs, n_draws, ref))
        assert gen.random() == ref.random()  # the same doubles were taken

    def test_table_holds_the_words_of_bucket_starts(self, name, n_draws):
        cum = _cumulative(name)
        first = simulator._bucket_starts(cum, n_draws)
        m = first.size - 1
        assert m & (m - 1) == 0 and m <= min(cum.size, n_draws) < 2 * m
        assert np.array_equal(first[:m], np.searchsorted(cum, np.arange(m) / m, "right"))
        assert first[m] == cum.size - 1  # u = 1 would draw past the last outcome

    def test_edge_uniforms(self, name, n_draws):
        # 0, the largest double below 1, the entries of cum and the bucket
        # starts k/m, each with its neighbouring doubles
        cum = _cumulative(name)
        first = simulator._bucket_starts(cum, n_draws)
        m = first.size - 1
        values = np.concatenate([cum[cum < 1], np.arange(m) / m])
        values = values[:: max(1, values.size >> 13)]
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], values,
                            np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
        u = u[u < 1]
        words = simulator._lookup(cum, first, u)
        assert np.array_equal(words, np.searchsorted(cum, u, side="right"))


class TestTrajectory:
    def test_zero_rates_matches_ideal(self, deep_12q_state):
        circuit, _, dist = deep_12q_state
        ss = rb.sample_trajectory(circuit, rb.NoiseModel(), 20_000, seed=11)
        est = rb.linear_xeb(rb.probabilities_of_samples(dist, ss))
        assert abs(est.fidelity - 1.0) < 3 * est.sigma

    @pytest.mark.parametrize("budget_states", [None, 2])
    def test_golden_words(self, grid_3x4, monkeypatch, budget_states):
        # pins the error sites, the Pauli draw order and the final draw; a
        # budget of 2 states keeps every 2nd cycle, so replays also run
        # ideal cycles between a checkpoint and the first error
        from rcsbench import simulator

        if budget_states:
            monkeypatch.setattr(simulator, "_CHECKPOINT_BUDGET", budget_states * 16 << 12)
        c = rb.standard_circuit(grid_3x4, 6, seed=3)
        noise = rb.NoiseModel(e1=0.01, e2=0.02)
        ss = rb.sample_trajectory(c, noise, 300, seed=12, threads=1)
        assert ss.words.tolist() == list(GOLDEN_TRAJECTORY_WORDS)

    def test_thread_count_invariant(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 6, seed=3)
        noise = rb.NoiseModel(e1=0.01, e2=0.02)
        a = rb.sample_trajectory(c, noise, 300, seed=12, threads=1)
        b = rb.sample_trajectory(c, noise, 300, seed=12, threads=3)
        assert np.array_equal(a.words, b.words)

    def test_fan_out_under_fast_thread_switching(self, grid_3x4):
        # more workers than cores, switching about every microsecond: an
        # index lost or run twice would change a word or the list of indices
        c = rb.standard_circuit(grid_3x4, 6, seed=3)
        noise = rb.NoiseModel(e1=0.01, e2=0.02)
        want = rb.sample_trajectory(c, noise, 300, seed=12, threads=1)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = rb.sample_trajectory(c, noise, 300, seed=12, threads=4)
            fan_out(seen.append, 20_000, 4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.words, want.words)
        assert sorted(seen) == list(range(20_000))

    @pytest.mark.parametrize("threads", [0, -1])
    def test_bad_thread_count_rejected_before_any_work(self, grid_3x4, monkeypatch, threads):
        def compile_circuit(*args, **kwargs):
            raise AssertionError("compiled before the thread count was checked")

        monkeypatch.setattr(simulator, "compile_circuit", compile_circuit)
        c = rb.standard_circuit(grid_3x4, 6, seed=3)
        with pytest.raises(InputError, match="thread"):
            rb.sample_trajectory(c, rb.NoiseModel(e1=0.01), 10, seed=1, threads=threads)

    def test_error_count_matches_rates(self, grid_3x4):
        # count injected errors by replaying the per-trajectory streams
        from rcsbench import rng as rngmod

        c = rb.standard_circuit(grid_3x4, 10, seed=3)
        noise = rb.NoiseModel(e1=0.004, e2=0.012)
        sites = compile_circuit(c).sites
        e_vec = np.array([noise.e2 if len(s.qubits) == 2 else noise.e1 for s in sites])
        n_traj = 4000
        total = 0
        for t in range(n_traj):
            gen = rngmod.stream(12, rngmod.Stream.TRAJECTORY, index=t)
            total += int(np.sum(gen.random(len(sites)) < e_vec))
        mean_expected = float(e_vec.sum())
        sigma = np.sqrt(mean_expected * n_traj)  # ~Poisson
        assert abs(total - n_traj * mean_expected) < 3 * sigma

    def test_xeb_matches_prediction(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 10, seed=151)
        noise = rb.NoiseModel(e2=0.006)
        pred = rb.predicted_fidelity(c, noise)
        ss = rb.sample_trajectory(c, noise, 20_000, seed=13)
        est, _ = rb.measured_xeb(c, ss)
        assert abs(est.fidelity - pred) / pred < 0.15


class TestReadout:
    def test_zero_rates_unchanged(self, deep_12q_state):
        _, state, _ = deep_12q_state
        ss = rb.sample_ideal(state, 1000, seed=14)
        out = rb.apply_readout_error(ss, rb.NoiseModel(), seed=15)
        assert np.array_equal(out.words, ss.words)

    def test_certain_flip_inverts_zeros(self):
        ss = rb.SampleSet(8, np.zeros(100, dtype=np.uint64))
        out = rb.apply_readout_error(ss, rb.NoiseModel(e_r0=1.0), seed=0)
        assert np.all(out.words == 0xFF)

    def test_flip_rates_within_3_sigma(self):
        n, n_samples = 8, 100_000
        gen = np.random.default_rng(16)
        words = gen.integers(0, 1 << n, n_samples, dtype=np.uint64)
        ss = rb.SampleSet(n, words)
        noise = rb.NoiseModel(e_r0=0.05, e_r1=0.11)
        out = rb.apply_readout_error(ss, noise, seed=17)
        before, after = ss.bits(), out.bits()
        zeros = before == 0
        rate0 = float((after[zeros] != 0).mean())
        rate1 = float((after[~zeros] != 1).mean())
        n0, n1 = int(zeros.sum()), int((~zeros).sum())
        assert abs(rate0 - 0.05) < 3 * np.sqrt(0.05 * 0.95 / n0)
        assert abs(rate1 - 0.11) < 3 * np.sqrt(0.11 * 0.89 / n1)


class TestPredictedFidelity:
    def test_noiseless_is_one(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 10, seed=0)
        assert rb.predicted_fidelity(c, rb.NoiseModel()) == 1.0

    def test_single_gate_value(self):
        from rcsbench.topology import restrict

        topo = rb.assign_patterns(rb.build_grid(1, 2))
        cyc = Cycle(pattern="A", single=(SingleQubitGate.SQRT_X,), two_qubit=())
        one = Circuit(topology=restrict(topo, (0,)), qubits=(0,),
                      cycles=(cyc,), seed=0, kind="standard")
        got = rb.predicted_fidelity(one, rb.NoiseModel(e1=0.0016))
        assert abs(got - 0.9984) < 1e-12

    def test_pinned_value_for_shipped_config(self, demo60):
        c = rb.standard_circuit(demo60, 24, seed=0)
        assert c.n_single_gates == 1440
        assert c.n_two_qubit_gates == 594
        got = rb.predicted_fidelity(
            c, rb.NoiseModel(e1=0.0016, e2=0.0060, e_r0=0.0148, e_r1=0.0303))
        assert abs(got - 0.0007108362320317223) < 1e-15
