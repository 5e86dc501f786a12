import hashlib
import math

import numpy as np
import pytest

import rcsbench as rb
from rcsbench.costmodel import (
    SUMMIT_REFERENCE,
    ContractionPath,
    CutAnalysis,
    TensorNetwork,
    _size,
    circuit_to_tn,
    estimate_sampling_cost,
    find_path_greedy_full,
    replay_path,
    schmidt_values,
    sfa_cut,
    sfa_speedup,
    slice_network,
)
from rcsbench.errors import InputError, ResourceLimitError
from rcsbench.gates import FsimParams, fsim_matrix

from conftest import random_fsim
from oracles import (
    exhaustive_min_cost,
    find_path_optimal,
    greedy_by_index_sets,
    matrix_chain_min_cost,
    replay_by_occupancy,
    slice_by_replay,
)


def random_tn(n_tensors, gen, extra_edges=None, dim_range=(2, 3)):
    """Random connected network with a spanning tree plus extra edges."""
    tensors = [[] for _ in range(n_tensors)]
    dims = {}
    k = 0

    def add_edge(i, j):
        nonlocal k
        name = f"e{k}"
        k += 1
        dims[name] = int(gen.integers(*dim_range))
        tensors[i].append(name)
        tensors[j].append(name)

    for i in range(1, n_tensors):
        add_edge(i, int(gen.integers(0, i)))
    n_extra = int(gen.integers(0, 2 * n_tensors)) if extra_edges is None else extra_edges
    for _ in range(n_extra):
        i, j = (int(v) for v in gen.choice(n_tensors, 2, replace=False))
        add_edge(i, j)
    open_idx = []
    for i in range(n_tensors):
        if gen.random() < 0.3:
            name = f"o{k}"
            k += 1
            dims[name] = 2
            tensors[i].append(name)
            open_idx.append(name)
    return TensorNetwork(
        tuple((f"t{i}", tuple(ix)) for i, ix in enumerate(tensors)),
        dims,
        tuple(open_idx),
    )


class TestCircuitToTn:
    def test_one_gate_closed_output(self):
        topo = rb.assign_patterns(rb.build_grid(1, 2))
        c = rb.standard_circuit(topo, 1, seed=0)
        from rcsbench.circuit import Circuit, Cycle

        one = Circuit(topology=c.topology, qubits=(0,),
                      cycles=(Cycle("A", (c.cycles[0].single[0],), ()),),
                      seed=0, kind="standard")
        tn = circuit_to_tn(one)
        assert len(tn.tensors) == 3
        assert len(tn.indices) == 2
        assert tn.open_indices == ()

    def test_no_cycles_all_open(self, grid_3x4):
        from rcsbench.circuit import Circuit

        c = rb.standard_circuit(grid_3x4, 1, seed=0)
        empty = Circuit(topology=c.topology, qubits=c.qubits, cycles=(),
                        seed=0, kind="standard")
        tn = circuit_to_tn(empty, open_qubits=c.qubits)
        assert len(tn.tensors) == 12
        assert len(tn.open_indices) == 12

    def test_tensor_count_formula(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 10, seed=1)
        open_qubits = c.qubits[:5]
        tn = circuit_to_tn(c, open_qubits)
        gates = c.n_single_gates + c.n_two_qubit_gates
        closed = c.n_qubits - len(open_qubits)
        assert len(tn.tensors) == c.n_qubits + gates + closed
        tn.validate()

    def test_rejects_unknown_open_qubit(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 2, seed=1)
        with pytest.raises(InputError):
            circuit_to_tn(c, open_qubits=(99,))


class TestPaths:
    def test_two_tensor_network(self):
        tn = TensorNetwork((("a", ("i", "j")), ("b", ("j", "k"))),
                           {"i": 3, "j": 4, "k": 5}, ("i", "k"))
        g = find_path_greedy_full(tn, restarts=1)[0]
        o = find_path_optimal(tn)
        assert g.merges == ((0, 1),)
        assert g.total_flops == o.total_flops == 60

    def test_matrix_chain_oracle(self):
        dims = [7, 2, 9, 3]
        tn = TensorNetwork(
            (("m1", ("d0", "d1")), ("m2", ("d1", "d2")), ("m3", ("d2", "d3"))),
            {"d0": dims[0], "d1": dims[1], "d2": dims[2], "d3": dims[3]},
            ("d0", "d3"),
        )
        o = find_path_optimal(tn)
        assert o.total_flops == matrix_chain_min_cost(dims)

    def test_greedy_within_2x_of_optimal(self):
        gen = np.random.default_rng(0)
        for trial in range(50):
            tn = random_tn(int(gen.integers(3, 9)), gen, dim_range=(2, 3))
            g = find_path_greedy_full(tn, seed=trial, restarts=16)[0]
            o = find_path_optimal(tn)
            assert o.total_flops <= g.total_flops + 1e-9
            assert g.total_flops <= 2 * o.total_flops

    def test_optimal_matches_partition_oracle(self):
        gen = np.random.default_rng(1)
        for trial in range(20):
            tn = random_tn(int(gen.integers(3, 7)), gen, dim_range=(2, 4))
            o = find_path_optimal(tn)
            assert o.total_flops == pytest.approx(exhaustive_min_cost(tn))

    def test_path_validity_final_indices_are_open(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 6, seed=2)
        tn = circuit_to_tn(c, open_qubits=c.qubits[:3])
        path = find_path_greedy_full(tn, seed=0, restarts=4)[0]
        assert len(path.merges) == len(tn.tensors) - 1
        costs, total, largest, _, final = replay_path(tn, path.merges)
        assert final == frozenset(tn.open_indices)
        assert tuple(costs) == path.step_costs
        assert total == path.total_flops
        assert largest == path.largest_intermediate_rank

    def test_deterministic_per_seed(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=2)
        tn = circuit_to_tn(c)
        a = find_path_greedy_full(tn, seed=5, restarts=8)[0]
        b = find_path_greedy_full(tn, seed=5, restarts=8)[0]
        assert a == b

    def test_cost_monotone_in_depth(self, grid_3x4):
        costs = []
        for cycles in (2, 4, 6, 8):
            c = rb.standard_circuit(grid_3x4, cycles, seed=3)
            tn = circuit_to_tn(c, open_qubits=c.qubits[:4])
            costs.append(find_path_greedy_full(tn, seed=0, restarts=16)[0].total_flops)
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_disconnected_components_handled(self):
        tn = TensorNetwork(
            (("a", ("i",)), ("b", ("i",)), ("c", ("j",)), ("d", ("j",))),
            {"i": 2, "j": 2}, (),
        )
        path = find_path_greedy_full(tn, restarts=1)[0]
        _, _, _, _, final = replay_path(tn, path.merges)
        assert final == frozenset()

    @pytest.mark.parametrize("merges", [
        ((0, 1), (0, 2)),   # tensor 0 merged twice
        ((0, 3), (1, 2)),   # tensor 3 is this merge's own result
        ((0, 1), (-1, 2)),  # negative id
        ((0, 0), (1, 2)),   # a == b
        ((0, 1),),          # one merge too few
        ((0, 1), (2, 3), (3, 2)),  # one merge too many
    ])
    def test_malformed_path_rejected(self, merges):
        tn = TensorNetwork((("a", ("i",)), ("b", ("i", "j")), ("c", ("j",))),
                           {"i": 2, "j": 2}, ())
        replay_path(tn, ((0, 1), (2, 3)))
        with pytest.raises(InputError):
            replay_path(tn, merges)

    def test_replay_matches_occupancy_oracle(self):
        gen = np.random.default_rng(7)
        open_sliced = 0
        for _ in range(200):
            tn = random_tn(int(gen.integers(2, 10)), gen, dim_range=(2, 5))
            n = len(tn.tensors)
            live, merges = list(range(n)), []
            while len(live) > 1:
                i, j = (int(v) for v in gen.choice(len(live), 2, replace=False))
                merges.append((live[i], live[j]))
                live = [t for k, t in enumerate(live) if k not in (i, j)]
                live.append(n + len(merges) - 1)
            sliced = frozenset(name for name in sorted(tn.indices) if gen.random() < 0.3)
            open_sliced += len(sliced & set(tn.open_indices))
            merges = tuple(merges)
            assert replay_path(tn, merges, sliced) == replay_by_occupancy(tn, merges, sliced)
        assert open_sliced > 0

    @staticmethod
    def disconnected_with_scalar():
        """Two components, one with an open index, plus a rank-0 tensor."""
        return TensorNetwork(
            (("a", ("i", "j")), ("b", ("j", "k")), ("c", ("k", "i")), ("s", ()),
             ("d", ("l", "m")), ("e", ("m", "x")), ("f", ("l",))),
            {"i": 2, "j": 3, "k": 2, "l": 2, "m": 4, "x": 2}, ("x",))

    def test_greedy_golden(self, demo60):
        """Paths and restart totals pinned from the occupancy-count search:
        any change in scores, pop order or restart draws changes a digest."""
        def digest(tn, restarts=4):
            path, totals = find_path_greedy_full(tn, seed=0, restarts=restarts)
            return hashlib.sha256(repr((path.merges, totals)).encode()).hexdigest()

        tn = circuit_to_tn(rb.standard_circuit(demo60, 12, seed=1))
        assert digest(tn) == (
            "9ff461976b9b57acd941cd2c86816fb97e53a9434ae5b1211e9515e67095485b")
        assert digest(self.disconnected_with_scalar()) == (
            "c887c3a1ca09f45927d0db050e30c8b6390d0084d19ef4c09487505dde67734d")
        # cost60's search: demo60 at 24 cycles, circuit seed 1, 16 restarts
        tn = circuit_to_tn(rb.standard_circuit(demo60, 24, seed=1))
        assert digest(tn, restarts=16) == (
            "bdddeba7131f9adbf875a63837c53584a9515f8e97236ff703a72dc4c3c455c1")

    def test_greedy_matches_index_set_oracle(self):
        gen = np.random.default_rng(11)
        networks = [random_tn(int(gen.integers(2, 13)), gen, dim_range=(2, 5))
                    for _ in range(100)]
        assert sum(len(tn.open_indices) for tn in networks) > 0
        for tn in networks:
            for seed in range(4):
                restarts = int(gen.integers(1, 9))
                assert (find_path_greedy_full(tn, seed=seed, restarts=restarts)
                        == greedy_by_index_sets(tn, seed, restarts))
        tn = self.disconnected_with_scalar()
        for seed in range(4):
            for restarts in range(1, 9):
                assert (find_path_greedy_full(tn, seed=seed, restarts=restarts)
                        == greedy_by_index_sets(tn, seed, restarts))

    def test_size_is_exact_in_any_order(self):
        dims = {f"a{k:02d}": 3 for k in range(25)} | {f"b{k:02d}": 5 for k in range(25)}
        names = sorted(dims)
        want = float(math.prod(dims.values()))
        assert _size(names, dims) == want
        assert _size(names[::-1], dims) == want

    def test_size_past_float_range_is_a_resource_limit(self):
        # Merging the two tensors leaves 1200 open indices: 2^1200 entries.
        left = tuple(f"l{k}" for k in range(600))
        right = tuple(f"r{k}" for k in range(600))
        tn = TensorNetwork(
            tensors=(("a", left + ("s",)), ("b", right + ("s",))),
            indices={name: 2 for name in left + right + ("s",)},
            open_indices=left + right)
        with pytest.raises(ResourceLimitError):
            find_path_greedy_full(tn, restarts=1)

    def test_optimal_size_guard(self):
        gen = np.random.default_rng(2)
        tn = random_tn(13, gen)
        with pytest.raises(ResourceLimitError):
            find_path_optimal(tn)


class TestSlicing:
    def test_under_cap_changes_nothing(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=4)
        tn = circuit_to_tn(c)
        path = find_path_greedy_full(tn, seed=0, restarts=8)[0]
        res = slice_network(tn, path, path.largest_intermediate_rank)
        assert res.sliced_indices == ()
        assert res.n_slices == 1
        assert res.total_flops == path.total_flops

    def test_single_merge_slice_count_two(self):
        tn = TensorNetwork((("a", ("i", "j")), ("b", ("j", "k"))),
                           {"i": 2, "j": 2, "k": 2}, ("i", "k"))
        path = find_path_greedy_full(tn, restarts=1)[0]
        assert path.largest_intermediate_rank == 2
        res = slice_network(tn, path, 1)
        assert res.n_slices == 2
        assert res.largest_intermediate_rank <= 1

    def test_cap_respected_and_overhead_bounded(self):
        gen = np.random.default_rng(3)
        done = 0
        while done < 10:
            tn = random_tn(20, gen, dim_range=(2, 3))
            path = find_path_greedy_full(tn, seed=done, restarts=8)[0]
            cap = path.largest_intermediate_rank - 1
            if cap < 1:
                continue
            res = slice_network(tn, path, cap)
            assert res.largest_intermediate_rank <= cap
            assert res.total_flops >= path.total_flops * 0.999
            if len(res.sliced_indices) <= 2:
                assert res.total_flops <= 4 * path.total_flops
            done += 1

    def test_cap_below_open_count_slices_open_index(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=4)
        tn = circuit_to_tn(c, open_qubits=c.qubits[:6])
        path = find_path_greedy_full(tn, seed=0, restarts=4)[0]
        res = slice_network(tn, path, 5)
        assert res.largest_intermediate_rank <= 5
        assert set(res.sliced_indices) & set(tn.open_indices)
        assert res.n_slices == math.prod(tn.indices[k] for k in res.sliced_indices)
        assert res.total_flops == res.n_slices * res.per_slice_flops
        with pytest.raises(InputError):
            slice_network(tn, path, -1)

    def test_rejects_index_on_three_tensors(self):
        tn = TensorNetwork(
            (("a", ("i",)), ("b", ("i",)), ("c", ("i", "j")), ("d", ("j",))),
            {"i": 2, "j": 2}, ())
        path = ContractionPath(((0, 1), (2, 3), (4, 5)), (2.0, 4.0, 1.0), 7.0, 1)
        with pytest.raises(InputError):
            slice_network(tn, path, 0)

    def test_matches_replay_after_each_slice(self, grid_3x4):
        gen = np.random.default_rng(4)
        networks = [random_tn(int(gen.integers(8, 25)), gen) for _ in range(12)]
        c = rb.standard_circuit(grid_3x4, 4, seed=4)
        networks.append(circuit_to_tn(c, open_qubits=c.qubits[:6]))
        assert sum(len(tn.open_indices) for tn in networks[:-1]) > 0
        for seed, tn in enumerate(networks):
            path = find_path_greedy_full(tn, seed=seed, restarts=4)[0]
            for cap in range(path.largest_intermediate_rank + 1):
                assert slice_network(tn, path, cap) == slice_by_replay(tn, path, cap)


class TestSamplingCost:
    def test_headline_extrapolations(self):
        deep = estimate_sampling_cost(4.68e23, 7.0e7, 3.66e-4)
        assert deep.runtime_years == pytest.approx(4.8e4, rel=0.05)
        shallow = estimate_sampling_cost(1.06e22, 1.5e7, 7.58e-4)
        assert shallow.runtime_years == pytest.approx(4.8e2, rel=0.05)

    def test_zero_fidelity_costs_nothing(self):
        assert estimate_sampling_cost(1e20, 1e7, 0.0).total_flops == 0.0

    def test_linear_in_samples_and_fidelity(self):
        base = estimate_sampling_cost(1e20, 1e6, 1e-3)
        assert estimate_sampling_cost(1e20, 2e6, 1e-3).total_flops == pytest.approx(
            2 * base.total_flops)
        assert estimate_sampling_cost(1e20, 1e6, 2e-3).total_flops == pytest.approx(
            2 * base.total_flops)

    def test_reference_default_is_summit(self):
        assert SUMMIT_REFERENCE == (6.66e18, 833.75)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            estimate_sampling_cost(-1, 1, 0.5)
        with pytest.raises(InputError):
            estimate_sampling_cost(1, 1, 2.0)


class TestSchmidt:
    def test_identity(self):
        s = schmidt_values(np.eye(4))
        assert np.allclose(s, [2, 0, 0, 0], atol=1e-10)

    def test_iswap_like(self):
        s = schmidt_values(fsim_matrix(FsimParams(np.pi / 2, 0)))
        assert np.allclose(s, [1, 1, 1, 1], atol=1e-10)

    def test_cz(self):
        s = schmidt_values(np.diag([1, 1, 1, -1]).astype(complex))
        assert np.allclose(s, [np.sqrt(2), np.sqrt(2), 0, 0], atol=1e-10)

    def test_sum_of_squares_is_four(self):
        gen = np.random.default_rng(6)
        for _ in range(1000):
            s = schmidt_values(fsim_matrix(random_fsim(gen)))
            assert abs(float(np.sum(s**2)) - 4.0) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(InputError):
            schmidt_values(np.ones((4, 4)))


class TestSfaCut:
    def test_patch_circuit_has_zero_g(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 10, seed=5)
        parts = rb.column_bipartition(c)
        patch = rb.make_patch(c, parts)
        cut = sfa_cut(patch, parts)
        assert cut.g == 0

    def test_counting_oracle(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 8, seed=5)
        parts = rb.column_bipartition(c, at=2)
        side = frozenset(parts[0])
        want = sum(
            1 for cyc in c.cycles for a, b, _ in cyc.two_qubit
            if (a in side) != (b in side)
        )
        assert sfa_cut(c, parts).g == want

    def test_full_scale_24_cycles_gives_54(self, demo60):
        c = rb.standard_circuit(demo60, 24, seed=0)
        cut = sfa_cut(c, rb.column_bipartition(c, at=3))
        assert cut.g == 54
        assert len(cut.spectra) == 54
        assert all(abs(d) < 1e-12 for d in cut.delta_theta)  # default theta=pi/2

    def test_delta_theta_recorded(self, grid_3x4):
        params = rb.FsimParams(np.pi / 2 - 0.07, np.pi / 18)
        c = rb.standard_circuit(grid_3x4, 8, seed=5, params=params)
        cut = sfa_cut(c, rb.column_bipartition(c, at=2))
        assert all(abs(d - 0.07) < 1e-12 for d in cut.delta_theta)


class TestSfaSpeedup:
    @staticmethod
    def uniform_cut(g, spectrum):
        return CutAnalysis(bipartition=(), g=g, spectra=(spectrum,) * g,
                           delta_theta=(0.0,) * g, path_count=4.0**g)

    def test_balanced_at_zero_budget(self):
        spectrum = tuple(
            float(v) for v in schmidt_values(fsim_matrix(FsimParams(np.pi / 2, 0))))
        assert sfa_speedup(self.uniform_cut(5, spectrum), 0.0) == 1.0

    def test_cz_rank_deficiency_gives_two(self):
        cz = tuple(float(v) for v in schmidt_values(np.diag([1, 1, 1, -1.0])))
        assert sfa_speedup(self.uniform_cut(1, cz), 0.0) == 2.0

    def test_paper_scale_below_an_order(self):
        spectrum = tuple(float(v) for v in schmidt_values(
            fsim_matrix(FsimParams(np.pi / 2 - 0.054, np.pi / 18))))
        speedup = sfa_speedup(self.uniform_cut(54, spectrum), 3.66e-4)
        assert speedup < 10.0

    def test_monotone_in_budget(self):
        spectrum = tuple(float(v) for v in schmidt_values(
            fsim_matrix(FsimParams(np.pi / 2 - 0.054, np.pi / 18))))
        cut = self.uniform_cut(20, spectrum)
        values = [sfa_speedup(cut, f) for f in (0.0, 1e-3, 0.1, 0.5, 0.9, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empty_cut_speedup_one(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 10, seed=5)
        parts = rb.column_bipartition(c)
        patch = rb.make_patch(c, parts)
        assert sfa_speedup(sfa_cut(patch, parts), 0.5) == 1.0

    def test_rejects_bad_budget(self):
        cut = self.uniform_cut(1, (2.0, 0.0, 0.0, 0.0))
        with pytest.raises(InputError):
            sfa_speedup(cut, 1.5)
