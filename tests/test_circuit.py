import json

import numpy as np
import pytest

import rcsbench as rb
from rcsbench.circuit import (
    Cycle,
    circuit_from_dict,
    circuit_to_dict,
    default_elide_keep_last,
    extract_subcircuit,
    grid_parts,
)
from rcsbench.errors import InputError
from rcsbench.gates import GATE_KINDS, SingleQubitGate


def crossing_count(circuit, side):
    side = frozenset(side)
    return sum(
        1
        for cyc in circuit.cycles
        for a, b, _ in cyc.two_qubit
        if (a in side) != (b in side)
    )


class TestGeneration:
    def test_deterministic(self, grid_3x4):
        a = rb.standard_circuit(grid_3x4, 10, seed=42)
        b = rb.standard_circuit(grid_3x4, 10, seed=42)
        assert a == b

    def test_seed_changes_gates(self, grid_3x4):
        a = rb.standard_circuit(grid_3x4, 10, seed=1)
        b = rb.standard_circuit(grid_3x4, 10, seed=2)
        assert a != b

    def test_gate_counts(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 10, seed=0)
        assert c.n_single_gates == 12 * 10
        by_label = {
            label: len(grid_3x4.pattern_couplers(label)) for label in "ABCD"
        }
        for cyc in c.cycles:
            assert len(cyc.two_qubit) == by_label[cyc.pattern]

    def test_pattern_sequence_matches(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 24, seed=0)
        assert tuple(cyc.pattern for cyc in c.cycles) == rb.pattern_sequence(24)

    def test_no_immediate_repeat(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 30, seed=7)
        for q in range(c.n_qubits):
            kinds = [cyc.single[q] for cyc in c.cycles]
            assert all(x != y for x, y in zip(kinds, kinds[1:]))

    def test_repeats_allowed_when_disabled(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 40, seed=7, no_repeat=False)
        repeats = sum(
            1
            for q in range(c.n_qubits)
            for x, y in zip(
                [cyc.single[q] for cyc in c.cycles],
                [cyc.single[q] for cyc in c.cycles][1:],
            )
            if x == y
        )
        assert repeats > 0

    def test_gate_draws_uniform(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 200, seed=3, no_repeat=False)
        counts = {k: 0 for k in GATE_KINDS}
        for cyc in c.cycles:
            for g in cyc.single:
                counts[g] += 1
        total = sum(counts.values())
        for k, v in counts.items():
            assert abs(v / total - 1 / 3) < 0.02

    def test_missing_coupler_params_rejected(self, grid_3x4):
        params = {c.key: rb.DEFAULT_FSIM for c in grid_3x4.enabled_couplers}
        params.popitem()
        with pytest.raises(InputError):
            rb.standard_circuit(grid_3x4, 4, seed=0, params=params)

    def test_cycle_single_layer_covers_every_qubit(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 6, seed=0)
        for cyc in c.cycles:
            assert len(cyc.single) == c.n_qubits

    def test_cycle_with_gates_sharing_a_qubit_rejected(self):
        single = (SingleQubitGate.SQRT_X,) * 3
        p = rb.DEFAULT_FSIM
        with pytest.raises(InputError, match="qubit 1 "):
            Cycle("A", single, ((0, 1, p), (1, 2, p)))
        Cycle("A", single, ((0, 1, p),))


class TestPatch:
    def test_no_crossing_bipartition_only_changes_tag(self, grid_3x4):
        # a patch of an already-patched circuit removes nothing new
        c = rb.standard_circuit(grid_3x4, 8, seed=0)
        parts = grid_parts(c, col_cuts=(2,))
        p1 = rb.make_patch(c, parts)
        p2 = rb.make_patch(p1, parts)
        assert p1.cycles == p2.cycles

    def test_crossing_gates_removed_every_cycle(self):
        topo = rb.assign_patterns(rb.build_grid(2, 4))
        c = rb.standard_circuit(topo, 8, seed=0)
        parts = grid_parts(c, col_cuts=(2,))
        p = rb.make_patch(c, parts)
        assert crossing_count(p, parts[0]) == 0
        assert p.variant == "patch"
        for before, after in zip(c.cycles, p.cycles):
            assert before.single == after.single

    def test_gate_count_identity(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 10, seed=1)
        parts = grid_parts(c, col_cuts=(2,))
        p = rb.make_patch(c, parts)
        assert (c.n_two_qubit_gates - p.n_two_qubit_gates
                == crossing_count(c, parts[0]))

    def test_invalid_partition_rejected(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=0)
        with pytest.raises(InputError):
            rb.make_patch(c, ({0, 1}, {2, 3}))  # does not cover active set
        with pytest.raises(InputError):
            rb.make_patch(c, (set(c.qubits), set()))
        with pytest.raises(InputError):
            rb.make_patch(c, (set(c.qubits), {0}))  # parts overlap
        with pytest.raises(InputError):
            rb.make_patch(c, (set(c.qubits),))  # one part

    def test_parts_sorted_and_ordered_by_lowest_qubit(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=0)
        left, right = grid_parts(c, col_cuts=(2,))
        p = rb.make_patch(c, (set(right), list(reversed(left))))
        assert p.parts == (left, right)

    def test_patch_of_a_patch_stores_the_refinement(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 12, seed=3)
        quadrants = grid_parts(c, row_cuts=(2,), col_cuts=(2,))
        twice = rb.make_patch(rb.make_patch(c, grid_parts(c, row_cuts=(2,))),
                              grid_parts(c, col_cuts=(2,)))
        assert twice.parts == quadrants
        assert twice.cycles == rb.make_patch(c, quadrants).cycles

    def test_elided_stores_the_parts_it_was_given(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 12, seed=3)
        cols = grid_parts(c, col_cuts=(2,))
        e = rb.make_elided(rb.make_patch(c, grid_parts(c, row_cuts=(2,))), cols, 3)
        assert e.parts == cols


class TestGridParts:
    def test_row_major_bands(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 2, seed=0)
        assert grid_parts(c, row_cuts=(1,), col_cuts=(2,)) == (
            (0, 1), (2, 3), (4, 5, 8, 9), (6, 7, 10, 11))
        assert grid_parts(c) == (c.qubits,)

    @pytest.mark.parametrize("row_cuts, col_cuts", [
        ((), (0,)), ((), (4,)), ((3,), ()), ((), (2, 1)), ((), (2, 2)),
    ])
    def test_cut_outside_or_out_of_order_rejected(self, grid_3x4, row_cuts, col_cuts):
        c = rb.standard_circuit(grid_3x4, 2, seed=0)
        with pytest.raises(InputError):
            grid_parts(c, row_cuts, col_cuts)

    def test_part_without_active_qubit_rejected(self):
        topo = rb.assign_patterns(rb.build_grid(3, 3, excluded=(0, 1, 3, 4)))
        c = rb.standard_circuit(topo, 2, seed=0)
        assert grid_parts(c, col_cuts=(2,)) == ((6, 7), (2, 5, 8))
        with pytest.raises(InputError):
            grid_parts(c, row_cuts=(2,), col_cuts=(2,))

    def test_demo60_quadrants(self, demo60):
        c = rb.standard_circuit(demo60, 2, seed=0)
        assert [len(p) for p in grid_parts(c, (5,), (3,))] == [13, 14, 16, 17]


class TestElided:
    def test_keep_all_equals_full(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 10, seed=2)
        parts = grid_parts(c, col_cuts=(2,))
        e = rb.make_elided(c, parts, keep_last=10)
        assert e.cycles == c.cycles
        assert e.variant == "elided"

    def test_keep_none_equals_patch(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 10, seed=2)
        parts = grid_parts(c, col_cuts=(2,))
        assert rb.make_elided(c, parts, 0).cycles == rb.make_patch(c, parts).cycles

    def test_window_of_cross_gates(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 10, seed=2)
        parts = grid_parts(c, col_cuts=(2,))
        e = rb.make_elided(c, parts, keep_last=6)
        side = frozenset(parts[0])
        for i, cyc in enumerate(e.cycles):
            crossing = [g for g in cyc.two_qubit if (g[0] in side) != (g[1] in side)]
            if i < 4:
                assert not crossing
            else:
                assert cyc.two_qubit == c.cycles[i].two_qubit

    def test_invalid_keep_last_rejected(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 10, seed=2)
        parts = grid_parts(c, col_cuts=(2,))
        for bad in (-1, 11):
            with pytest.raises(InputError):
                rb.make_elided(c, parts, bad)

    def test_default_keep_last(self):
        assert default_elide_keep_last(24) == 6
        assert default_elide_keep_last(12) == 6
        assert default_elide_keep_last(10) == 5


class TestExtractAndParams:
    def test_extract_subcircuit_keeps_internal_gates(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 8, seed=4)
        side = [q for q in c.qubits if q % 4 < 2]
        sub = extract_subcircuit(c, side)
        assert sub.qubits == tuple(sorted(side))
        keep = set(side)
        for cyc in sub.cycles:
            for a, b, _ in cyc.two_qubit:
                assert a in keep and b in keep

    def test_with_coupler_params_replaces_everywhere(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 8, seed=4)
        key = c.cycles[0].two_qubit[0][:2]
        new = rb.FsimParams(1.0, 2.0, 3.0, 4.0, 5.0)
        c2 = rb.with_coupler_params(c, {key: new})
        for cyc in c2.cycles:
            for a, b, p in cyc.two_qubit:
                if (a, b) == key:
                    assert p == new
                else:
                    assert p == rb.DEFAULT_FSIM


def _patch_doc(circuit, parts):
    doc = circuit_to_dict(circuit)
    doc["variant"], doc["parts"] = "patch", [list(p) for p in parts]
    return doc


class TestSerialization:
    def test_parts_round_trip(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 6, seed=9)
        p = rb.make_patch(c, grid_parts(c, (2,), (2,)))
        doc = json.loads(json.dumps(circuit_to_dict(p)))
        assert doc["format"] == "rcsbench.circuit.v2"
        assert circuit_from_dict(doc) == p

    def test_v1_document_rejected(self, grid_3x4):
        doc = circuit_to_dict(rb.standard_circuit(grid_3x4, 4, seed=9))
        doc["format"] = "rcsbench.circuit.v1"
        with pytest.raises(InputError, match="not a circuit document"):
            circuit_from_dict(doc)

    def test_patch_with_a_gate_joining_two_parts_rejected(self, grid_3x4):
        c = rb.standard_circuit(grid_3x4, 4, seed=9)
        with pytest.raises(InputError, match="joins two parts"):
            circuit_from_dict(_patch_doc(c, grid_parts(c, col_cuts=(2,))))
        patch = rb.make_patch(c, grid_parts(c, col_cuts=(2,)))
        assert circuit_from_dict(_patch_doc(patch, patch.parts)) == patch

    def test_layer_with_gates_sharing_a_qubit_rejected(self, grid_3x4):
        # the second layer (pattern B) gains layer D's gate (1, 2); its own
        # gate (1, 5) holds qubit 1 already
        doc = circuit_to_dict(rb.standard_circuit(grid_3x4, 4, seed=9))
        layers = doc["layers"]
        assert [layer["pattern"] for layer in layers] == ["A", "B", "C", "D"]
        layers[1]["two_qubit"].append(layers[3]["two_qubit"][0])
        with pytest.raises(InputError, match="qubit 1 "):
            circuit_from_dict(doc)

    @pytest.mark.parametrize("parts", [
        [list(range(12)), [0]], [list(range(6)), list(range(6, 11))], [list(range(12))],
    ], ids=["overlap", "missing-qubit", "one-part"])
    def test_bad_parts_rejected(self, grid_3x4, parts):
        doc = circuit_to_dict(rb.standard_circuit(grid_3x4, 4, seed=9))
        doc["parts"] = parts
        with pytest.raises(InputError):
            circuit_from_dict(doc)

    def test_round_trip_bit_exact(self, grid_3x4):
        gen = np.random.default_rng(0)
        params = {
            c.key: rb.FsimParams(*gen.uniform(-np.pi, np.pi, 5))
            for c in grid_3x4.enabled_couplers
        }
        c = rb.standard_circuit(grid_3x4, 10, seed=9, params=params)
        doc = circuit_to_dict(c)
        back = circuit_from_dict(json.loads(json.dumps(doc)))
        assert back == c

    def test_variant_round_trip(self, grid_3x4, tmp_path):
        c = rb.standard_circuit(grid_3x4, 10, seed=9)
        e = rb.make_elided(c, grid_parts(c, col_cuts=(2,)), 6)
        path = str(tmp_path / "c.json")
        rb.save_circuit(path, e)
        back = rb.load_circuit(path)
        assert back == e
        assert back.variant == "elided"
        assert back.keep_last == 6
