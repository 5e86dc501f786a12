"""Gate k is one gate everywhere: entry k of `Circuit.gates`, site k of the
compiled program, tensor ``g{k}`` of the network, and the sites that
trajectories, the fidelity prediction and calibration count."""
from collections import Counter

import numpy as np
import pytest

import rcsbench as rb
from rcsbench.calibration import CalibrationProblem, histogram
from rcsbench.circuit import grid_parts, make_elided, make_patch
from rcsbench.costmodel import circuit_to_tn
from rcsbench.gates import fsim_matrix, sq_matrix
from rcsbench.simulator import compile_circuit

DESK = ("full", "patch", "elided")


@pytest.fixture(scope="module")
def circuits(grid_3x4, demo60):
    full = rb.standard_circuit(grid_3x4, 8, seed=5)
    parts = grid_parts(full, col_cuts=(2,))
    return {"full": full, "patch": make_patch(full, parts),
            "elided": make_elided(full, parts, 3),
            "demo60": rb.standard_circuit(demo60, 24, seed=1)}


def test_gates_list_each_cycle_singles_in_qubit_order_then_couplers(circuits):
    c = circuits["full"]
    want = []
    for k, cyc in enumerate(c.cycles):
        want += [(k, (q,), g) for q, g in zip(c.qubits, cyc.single)]
        want += [(k, (a, b), p) for a, b, p in cyc.two_qubit]
    assert c.gates() == want


@pytest.mark.parametrize("name", DESK + ("demo60",))
def test_site_k_is_gate_k(circuits, name):
    c = circuits[name]
    sites = compile_circuit(c).sites
    assert len(sites) == len(c.gates())
    for site, (cycle, qubits, gate) in zip(sites, c.gates()):
        assert (site.cycle, tuple(c.qubits[i] for i in site.qubits)) == (cycle, qubits)
        want = sq_matrix(gate) if len(qubits) == 1 else fsim_matrix(gate)
        assert np.array_equal(site.matrix, want)


@pytest.mark.parametrize("name", DESK + ("demo60",))
def test_tensor_gk_spans_the_qubits_of_site_k(circuits, name):
    c = circuits[name]
    sites = compile_circuit(c).sites
    gate_tensors = {t: idx for t, idx in circuit_to_tn(c, c.qubits[:3]).tensors
                    if t.startswith("g")}
    assert len(gate_tensors) == len(sites)
    for k, site in enumerate(sites):
        qubits = tuple(c.qubits[i] for i in site.qubits)
        # index "q<qubit>.<n>": the input legs, then the output legs
        legs = tuple(int(index[1:].split(".")[0]) for index in gate_tensors[f"g{k}"])
        assert legs == qubits + qubits


@pytest.mark.parametrize("name", DESK + ("demo60",))
def test_prediction_counts_the_sites_trajectories_draw_errors_for(circuits, name):
    # a trajectory draws one error per site: e2 on two-qubit sites, e1 else
    c = circuits[name]
    arity = Counter(len(site.qubits) for site in compile_circuit(c).sites)
    e1, e2 = 0.003, 0.011
    want = (1 - e1) ** arity[1] * (1 - e2) ** arity[2]
    assert rb.predicted_fidelity(c, rb.NoiseModel(e1=e1, e2=e2)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", DESK)
def test_coupler_sites_are_the_two_qubit_sites(circuits, name):
    c = circuits[name]
    problem = CalibrationProblem(c, histogram(rb.SampleSet(c.n_qubits, np.arange(4, dtype=np.uint64))))
    sites = problem.program.sites
    assert [s for s, _ in problem.coupler_sites] == [
        k for k, site in enumerate(sites) if len(site.qubits) == 2]
    for s, i in problem.coupler_sites:
        assert problem.couplers[i] == tuple(c.qubits[j] for j in sites[s].qubits)
