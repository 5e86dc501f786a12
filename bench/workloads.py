"""The benchmark's workloads: inputs made from the seed, the CLI stages that
are timed, and the checks that the stages' outputs are correct.

Each workload stresses one layer of rcsbench and leaves the others idle, so
that a change to one layer shows on one workload and not on the others:

- ``xeb20``: one 2^20-amplitude state (16 MiB, larger than the L2) is
  simulated twice, then bootstrapped.  Bandwidth-bound ``simulator.run`` and
  ``xeb.bootstrap_xeb`` do the work.
- ``traj16``: Pauli-trajectory sampling on a 2^16 state under 2 threads:
  checkpoint copies plus replays of partial runs.  400 trajectories of an
  8-cycle circuit, so that the fidelity check rejects samples that carry no
  fidelity: the prediction, 0.42, is about 8 sigma from zero.
- ``calib9``: patch calibration on two 9-qubit patches: thousands of loss
  evaluations on 2^9 states, where per-call overhead, circuit rebuilds and
  the optimizer dominate.
- ``cost60``: pure-Python contraction-path search and slicing over the
  2154-tensor network of the 60-qubit, 24-cycle circuit; no state vector.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rcsbench as rb
from rcsbench import simulator

# Average simultaneous error rates of the paper's 60-qubit configuration.
REFERENCE_NOISE = {"e1": 0.0016, "e2": 0.0060, "e_r0": 0.0148, "e_r1": 0.0303}
READOUT_NOISE = {"e_r0": REFERENCE_NOISE["e_r0"], "e_r1": REFERENCE_NOISE["e_r1"]}

SPECKLE_FIDELITY = 0.5
CALIB_TOLERANCE = 0.01      # radians, per internal coupler
CALIB_PERTURBATION = 0.05   # radians, start circuit against truth
COST_FIDELITY = "3.66e-4"
COST_SAMPLES = "7e7"
COST_MAX_RANK = 30
N_SIGMA = 5.0
MIN_KS_P = 1e-3

# Figures only some workloads have: printed with the end-to-end metrics and
# reported by the traced run, where a workload without one reads 0.
INFO_UNITS = {"traj_samples_per_s": "1/s", "log10_flops_per_sample": "log10_flop"}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Stage:
    name: str                   # cli span name, e.g. "sample"
    argv: tuple[str, ...]


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _within(value: float, expected: float, sigma: float, name: str) -> Check:
    z = abs(value - expected) / sigma if sigma > 0 else math.inf
    return Check(name, z <= N_SIGMA,
                 f"{value:.4f} vs {expected:.4f}, |z| = {z:.2f} (limit {N_SIGMA:g})")


class Workload:
    """One set of inputs.  ``setup`` writes the inputs under ``inputs``;
    ``stages`` lists the CLI invocations that read them and write under
    ``out``; ``check`` inspects the outputs."""

    name = ""
    why = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, inputs: Path, seed: int) -> None:
        raise NotImplementedError

    def stages(self, inputs: Path, out: Path, seed: int) -> list[Stage]:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        raise NotImplementedError

    def info(self, out: Path, stage_seconds: dict[str, float]) -> dict[str, float]:
        """This workload's entries of ``INFO_UNITS``."""
        return {}


def _xeb_fidelity(analysis: Path) -> tuple[float, float, dict]:
    inst = _read_json(analysis)["instances"][0]
    return inst["fidelity"], inst["sigma"], inst["ks"]


class Xeb20(Workload):
    name = "xeb20"
    why = ("2^20 state (16 MiB, over L2) simulated twice plus a 2500-resample "
           "bootstrap: bandwidth-bound simulator.run and xeb.bootstrap_xeb")

    @property
    def grid(self) -> str:
        return "grid:3x4" if self.tiny else "grid:4x5"

    @property
    def n_qubits(self) -> int:
        return 12 if self.tiny else 20

    def setup(self, inputs: Path, seed: int) -> None:
        _write_json(inputs / "readout.json", READOUT_NOISE)

    def stages(self, inputs: Path, out: Path, seed: int) -> list[Stage]:
        # 8 cycles, one full ABCDCDAB period, is the shallowest depth at which
        # every instance tried passes the Porter-Thomas KS check at 20k samples.
        cycles = "12" if self.tiny else "8"
        n_samples = "5000" if self.tiny else "20000"
        bootstrap = ("--bootstrap", "200") if self.tiny else ()
        circ, samples = str(out / "circuit.json"), str(out / "samples.bin")
        (out / "analysis").mkdir(exist_ok=True)
        return [
            Stage("generate", ("generate", "--topology", self.grid, "--cycles", cycles,
                               "--seed", str(seed), "-o", circ)),
            Stage("sample", ("sample", "--circuit", circ, "--model", "speckle",
                             "--fidelity", str(SPECKLE_FIDELITY), "--readout",
                             "--noise", str(inputs / "readout.json"),
                             "-n", n_samples, "--seed", str(seed), "-o", samples)),
            Stage("analyze", ("analyze", "--circuit", circ, "--samples", samples,
                              "--seed", str(seed), *bootstrap,
                              "-o", str(out / "analysis" / "xeb.analysis.json"))),
            Stage("report", ("report", "--dir", str(out / "analysis"),
                             "-o", str(out / "report.json"))),
        ]

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        e_r = (READOUT_NOISE["e_r0"] + READOUT_NOISE["e_r1"]) / 2.0
        expected = SPECKLE_FIDELITY * (1.0 - e_r) ** self.n_qubits
        report = _read_json(out / "report.json")
        _, _, ks = _xeb_fidelity(out / "analysis" / "xeb.analysis.json")
        return [
            _within(report["fidelity"], expected, report["sigma"], "xeb_fidelity"),
            Check("ks_p_at_fhat", ks["p_at_fhat"] >= MIN_KS_P,
                  f"p = {ks['p_at_fhat']:.3g} (minimum {MIN_KS_P:g})"),
        ]


class Traj16(Workload):
    name = "traj16"
    why = ("Pauli-trajectory sampling on a 2^16 state under 2 threads: "
           "checkpoint copies and replays of partial runs")

    n_samples = 400

    def setup(self, inputs: Path, seed: int) -> None:
        _write_json(inputs / "noise.json", REFERENCE_NOISE)

    # The seed varies the circuit; the trajectory stream is the same in every
    # run.  Every circuit on the grid has the same gate layout, so every run
    # then replays the same number of gates.  Drawn from the seed, the
    # replayed-gate count of 100 trajectories varied by 14 % (coefficient of
    # variation over 20 seeds) and made up most of the spread of wall_s.
    sampling_seed = 0

    def stages(self, inputs: Path, out: Path, seed: int) -> list[Stage]:
        grid = "grid:3x3" if self.tiny else "grid:4x4"
        circ, samples = str(out / "circuit.json"), str(out / "samples.bin")
        return [
            Stage("generate", ("generate", "--topology", grid, "--cycles", "8",
                               "--seed", str(seed), "-o", circ)),
            Stage("sample", ("sample", "--circuit", circ, "--model", "trajectory",
                             "--noise", str(inputs / "noise.json"), "--readout",
                             "--threads", "2", "-n", str(self.n_samples),
                             "--seed", str(self.sampling_seed), "-o", samples)),
            Stage("analyze", ("analyze", "--circuit", circ, "--samples", samples,
                              "--seed", str(seed),
                              "-o", str(out / "traj.analysis.json"))),
        ]

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        circuit = rb.load_circuit(str(out / "circuit.json"))
        predicted = simulator.predicted_fidelity(circuit, rb.NoiseModel(**REFERENCE_NOISE))
        fidelity, sigma, _ = _xeb_fidelity(out / "traj.analysis.json")
        return [_within(fidelity, predicted, sigma, "xeb_fidelity")]

    def info(self, out: Path, stage_seconds: dict[str, float]) -> dict[str, float]:
        return {"traj_samples_per_s": self.n_samples / stage_seconds["sample"]}


class Calib9(Workload):
    name = "calib9"
    why = ("2-patch calibration of theta, phi on 9-qubit patches: about 1.7k "
           "loss evaluations where per-call overhead, rebuilds and BFGS dominate")

    def _problem(self, seed: int):
        rows, cols, cycles = (2, 6, 10) if self.tiny else (3, 6, 14)
        topo = rb.assign_patterns(rb.build_grid(rows, cols))
        gen = np.random.default_rng([seed, 9])
        truth = {
            c.key: rb.FsimParams(
                theta=float(np.pi / 2 + gen.uniform(-0.1, 0.1)),
                phi=float(np.pi / 18 + gen.uniform(-0.1, 0.1)),
                delta_plus=float(gen.uniform(-0.2, 0.2)),
                delta_minus=float(gen.uniform(-0.2, 0.2)),
                delta_minus_off=float(gen.uniform(-0.2, 0.2)),
            )
            for c in topo.enabled_couplers
        }
        start = {
            key: rb.FsimParams(
                p.theta + float(gen.uniform(-CALIB_PERTURBATION, CALIB_PERTURBATION)),
                p.phi + float(gen.uniform(-CALIB_PERTURBATION, CALIB_PERTURBATION)),
                p.delta_plus, p.delta_minus, p.delta_minus_off)
            for key, p in truth.items()
        }
        circuit = rb.standard_circuit(topo, cycles, seed, params=truth)
        partition, patches = rb.split_grid_patches(circuit, col_cuts=(cols // 2,))
        return circuit, truth, start, partition, patches

    def setup(self, inputs: Path, seed: int) -> None:
        # The CLI cannot extract patch subcircuits, so the training sets are
        # made through the library.
        circuit, truth, start, partition, patches = self._problem(seed)
        n_train = 200_000 if self.tiny else 600_000
        for i, patch in enumerate(patches):
            train = rb.sample_ideal(rb.run(patch), n_train, seed=seed * 16 + i)
            rb.save_samples(str(inputs / f"train{i}.bin"), train)
        rb.save_circuit(str(inputs / "start.json"), rb.with_coupler_params(circuit, start))
        _write_json(inputs / "truth.json", {
            "internal": [[f"{a}-{b}" for a, b in keys] for keys in partition.internal],
            "params": {f"{a}-{b}": list(p.as_tuple()) for (a, b), p in truth.items()},
        })

    def stages(self, inputs: Path, out: Path, seed: int) -> list[Stage]:
        trains = [str(p) for p in sorted(inputs.glob("train*.bin"))]
        argv = ["calibrate", "--circuit", str(inputs / "start.json"), "--patches", "2",
                "--trainable", "theta,phi", "--threads", "2",
                "-o", str(out / "calibration.json")]
        for path in trains:
            argv += ["--train", path]
        return [Stage("calibrate", tuple(argv))]

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        truth = _read_json(inputs / "truth.json")
        result = _read_json(out / "calibration.json")
        worst = 0.0
        for keys in truth["internal"]:
            for key in keys:
                got, want = result["params"][key], truth["params"][key]
                worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        patches = result["patches"]
        return [
            Check("param_error", worst <= CALIB_TOLERANCE,
                  f"worst |dtheta|, |dphi| = {worst:.4f} rad (limit {CALIB_TOLERANCE})"),
            Check("loss_not_increased",
                  all(p["after_loss"] <= p["before_loss"] for p in patches),
                  " ".join(f"{p['before_loss']:.4g}->{p['after_loss']:.4g}" for p in patches)),
            Check("converged", all(p["status"] == "converged" for p in patches),
                  " ".join(f"{p['status']}/{p['iterations']}it" for p in patches)),
        ]


class Cost60(Workload):
    name = "cost60"
    why = ("greedy path search and slicing over the 2154-tensor network of the "
           "60-qubit 24-cycle circuit: pure Python, no state vector")

    def setup(self, inputs: Path, seed: int) -> None:
        pass  # every input is a CLI flag

    # The seed varies the circuit; the path search's seed is the same in every
    # run.  Every circuit of the topology gives the same tensor network, so
    # every run then searches and slices the same way.  Drawn from the seed,
    # the number of sliced indices ranged from 88 to 114 over ten seeds, and
    # wall_s with it (spread 0.18 against 0.08 for xeb20).
    search_seed = 0

    def stages(self, inputs: Path, out: Path, seed: int) -> list[Stage]:
        topology, cycles, restarts = (("grid:3x4", "8", "4") if self.tiny
                                      else ("demo60", "24", "16"))
        circ = str(out / "circuit.json")
        return [
            Stage("generate", ("generate", "--topology", topology, "--cycles", cycles,
                               "--seed", str(seed), "-o", circ)),
            Stage("cost_tnc", ("cost", "tnc", "--circuit", circ, "--restarts", restarts,
                               "--open-qubits", "0", "--max-rank", str(COST_MAX_RANK),
                               "--n-samples", COST_SAMPLES, "--fidelity", COST_FIDELITY,
                               "--seed", str(self.search_seed),
                               "-o", str(out / "tnc.json"))),
            Stage("cost_sfa", ("cost", "sfa", "--circuit", circ, "--fidelity", COST_FIDELITY,
                               "--n-samples", COST_SAMPLES, "-o", str(out / "sfa.json"))),
        ]

    def check(self, inputs: Path, out: Path, seed: int) -> list[Check]:
        slicing = _read_json(out / "tnc.json")["slicing"]
        n_sliced = len(slicing["sliced_indices"])
        return [
            Check("sliced_rank", slicing["largest_intermediate_rank"] <= COST_MAX_RANK,
                  f"largest rank {slicing['largest_intermediate_rank']} "
                  f"(limit {COST_MAX_RANK})"),
            Check("slice_count", slicing["n_slices"] == 2 ** n_sliced,
                  f"{slicing['n_slices']} slices over {n_sliced} indices"),
        ]

    def info(self, out: Path, stage_seconds: dict[str, float]) -> dict[str, float]:
        flops = _read_json(out / "tnc.json")["flops_per_sample"]
        return {"log10_flops_per_sample": math.log10(flops)}


WORKLOADS = {w.name: w for w in (Xeb20, Traj16, Calib9, Cost60)}
