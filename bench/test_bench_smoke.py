"""Smoke test of the benchmark itself, in its tiny mode: every metric that
BENCHMARK.json names is emitted, the checks pass on good outputs, and
samples that carry no fidelity make them fail."""
from __future__ import annotations

import json

import numpy as np
import pytest

import run

run.load_program()  # puts the checkout's src/ on the path

from workloads import WORKLOADS  # noqa: E402

SEED = 3
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv: str) -> dict:
    assert run.main(["--seed", str(SEED), "--seconds", "0.1", "--tiny", *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted(capsys, workload, trace):
    doc = _result(capsys, "--workload", workload, "--trace", str(trace))
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0


def _uniform_samples(circuit_or_state, *args, **kwargs):
    """A well-formed sample set that carries no fidelity."""
    from rcsbench.samples import SampleSet

    n = circuit_or_state.n_qubits
    words = np.random.default_rng(SEED).integers(0, 1 << n, 400, dtype=np.uint64)
    return SampleSet(n, words, meta={"model": "uniform"})


@pytest.mark.parametrize("workload,sampler", [("xeb20", "sample_noisy_speckle"),
                                              ("traj16", "sample_trajectory")])
def test_corrupted_samples_fail_the_checks(capsys, monkeypatch, workload, sampler):
    from rcsbench import simulator

    monkeypatch.setattr(simulator, sampler, _uniform_samples)
    doc = _result(capsys, "--workload", workload)
    assert not doc["correct"]
    assert doc["failed"] / doc["attempted"] > 0
