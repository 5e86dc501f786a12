import json

import pytest

import rcsbench as rb
from rcsbench.errors import InputError
from rcsbench.topology import (
    DEEP22_SEQUENCE,
    STANDARD_PERIOD,
    topology_from_dict,
    topology_to_dict,
)


def pattern_sets(topology):
    return {
        label: {c.key for c in topology.pattern_couplers(label)}
        for label in "ABCD"
    }


class TestBuildGrid:
    def test_complete_2x2_plaquette(self):
        topo = rb.build_grid(2, 2)
        assert len(topo.active) == 4
        assert len(topo.enabled_couplers) == 4

    def test_sixty_qubit_selection(self, demo60):
        assert len(demo60.active) == 60
        assert len(demo60.enabled_couplers) == 99

    def test_1x3_chain(self):
        topo = rb.build_grid(1, 3)
        assert len(topo.active) == 3
        assert {c.key for c in topo.enabled_couplers} == {(0, 1), (1, 2)}

    def test_excluded_removes_incident_couplers(self):
        topo = rb.build_grid(2, 2, excluded=(0,))
        assert len(topo.active) == 3
        assert {c.key for c in topo.enabled_couplers} == {(1, 3), (2, 3)}

    def test_broken_pair_disabled_not_removed(self):
        topo = rb.build_grid(1, 3, broken=((1, 2),))
        assert {c.key for c in topo.enabled_couplers} == {(0, 1)}
        assert (1, 2) in topo.broken

    def test_rejects_out_of_lattice_excluded(self):
        with pytest.raises(InputError):
            rb.build_grid(2, 2, excluded=(4,))

    def test_rejects_out_of_lattice_broken(self):
        with pytest.raises(InputError):
            rb.build_grid(2, 2, broken=((3, 4),))

    def test_rejects_non_adjacent_broken(self):
        with pytest.raises(InputError):
            rb.build_grid(2, 2, broken=((0, 3),))

    def test_rejects_empty_grid(self):
        with pytest.raises(InputError):
            rb.build_grid(0, 3)


class TestAssignPatterns:
    def test_2x2_one_coupler_per_label(self):
        topo = rb.assign_patterns(rb.build_grid(2, 2))
        sets = pattern_sets(topo)
        assert all(len(s) == 1 for s in sets.values())

    def test_1x3_chain_labels_differ(self):
        topo = rb.assign_patterns(rb.build_grid(1, 3))
        labels = [c.pattern for c in topo.enabled_couplers]
        assert labels[0] != labels[1]

    @pytest.mark.parametrize("rows,cols", [(2, 2), (1, 5), (3, 4), (4, 4), (5, 3)])
    def test_matchings_and_coverage(self, rows, cols):
        topo = rb.assign_patterns(rb.build_grid(rows, cols))
        seen_total = set()
        for label, keys in pattern_sets(topo).items():
            qubits = [q for a, b in keys for q in (a, b)]
            assert len(qubits) == len(set(qubits)), f"{label} is not a matching"
            seen_total |= keys
        assert seen_total == {c.key for c in topo.enabled_couplers}

    def test_demo60_covers_all_99(self, demo60):
        sets = pattern_sets(demo60)
        assert sum(len(s) for s in sets.values()) == 99
        for keys in sets.values():
            qubits = [q for a, b in keys for q in (a, b)]
            assert len(qubits) == len(set(qubits))

    def test_rejects_double_assignment(self, demo60):
        with pytest.raises(InputError):
            rb.assign_patterns(demo60)


class TestPatternSequence:
    def test_one_period(self):
        assert rb.pattern_sequence(8) == STANDARD_PERIOD

    def test_24_cycles_is_three_periods(self):
        assert rb.pattern_sequence(24) == STANDARD_PERIOD * 3

    def test_deep22_exact(self):
        seq = rb.pattern_sequence(22, "deep22")
        assert seq == DEEP22_SEQUENCE
        assert "".join(seq) == "ABCDCDAB" * 2 + "ABCD" + "CB"

    def test_deep22_rejects_other_lengths(self):
        with pytest.raises(InputError):
            rb.pattern_sequence(24, "deep22")

    def test_prefix_property(self):
        for n in range(1, 40):
            assert rb.pattern_sequence(n) == rb.pattern_sequence(n + 1)[:n]

    def test_rejects_zero_cycles(self):
        with pytest.raises(InputError):
            rb.pattern_sequence(0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            rb.pattern_sequence(8, "bogus")


class TestSerialization:
    def test_round_trip(self, demo60):
        doc = topology_to_dict(demo60)
        back = topology_from_dict(json.loads(json.dumps(doc)))
        assert topology_to_dict(back) == doc

    def test_couplers_sorted_canonically(self, demo60):
        doc = topology_to_dict(demo60)
        keys = [(e["a"], e["b"]) for e in doc["couplers"]]
        assert keys == sorted(keys)

    def test_rejects_mismatched_coupler_list(self, grid_3x4):
        doc = topology_to_dict(grid_3x4)
        doc["couplers"] = doc["couplers"][:-1]
        with pytest.raises(InputError):
            topology_from_dict(doc)

    def test_rejects_pattern_that_is_not_a_matching(self, grid_3x4, tmp_path):
        # coupler (1, 5) joins pattern A, which already holds (5, 9)
        doc = topology_to_dict(grid_3x4)
        for e in doc["couplers"]:
            if (e["a"], e["b"]) == (1, 5):
                e["pattern"] = "A"
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=r"pattern A is not a matching at qubit 5$"):
            rb.load_topology(str(path))

    def test_file_round_trip(self, tmp_path, demo60):
        path = str(tmp_path / "topo.json")
        with open(path, "w") as fh:
            json.dump(topology_to_dict(demo60), fh)
        assert topology_to_dict(rb.load_topology(path)) == topology_to_dict(demo60)
