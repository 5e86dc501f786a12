import json

import numpy as np
import pytest

import rcsbench as rb
from rcsbench.cli import EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, main


@pytest.fixture(scope="module")
def calibrate_inputs(tmp_path_factory):
    """A 2x6, 10-cycle circuit with perturbed theta, phi and one ideal
    training file per 2x3 patch of the circuit with the true parameters."""
    root = tmp_path_factory.mktemp("calibrate")
    topo = rb.assign_patterns(rb.build_grid(2, 6))
    gen = np.random.default_rng(6)
    truth = {
        c.key: rb.FsimParams(np.pi / 2 + float(gen.uniform(-0.1, 0.1)),
                             np.pi / 18 + float(gen.uniform(-0.1, 0.1)))
        for c in topo.enabled_couplers
    }
    circuit = rb.standard_circuit(topo, 10, seed=3, params=truth)
    _, patches = rb.split_grid_patches(circuit, col_cuts=(3,))
    trains = []
    for i, patch in enumerate(patches):
        path = str(root / f"train{i}.bin")
        rb.save_samples(path, rb.sample_ideal(rb.run(patch), 50_000, seed=10 + i))
        trains.append(path)
    start = {k: rb.FsimParams(p.theta + 0.03, p.phi - 0.03) for k, p in truth.items()}
    circuit_path = str(root / "start.json")
    rb.save_circuit(circuit_path, rb.with_coupler_params(circuit, start))
    argv = ["calibrate", "--circuit", circuit_path, "--patches", "2",
            "--trainable", "theta,phi"]
    for path in trains:
        argv += ["--train", path]
    return argv


def _calibrate(argv, out, *extra):
    return main(argv + list(extra) + ["-o", str(out)])


def _calibrate_generated(root, cycles, patches):
    """``generate --topology grid:2x6 --cycles <cycles> --seed 3``, one ideal
    training file per patch of the CLI's split, then ``calibrate``."""
    circuit = str(root / "c.json")
    assert main(["generate", "--topology", "grid:2x6", "--cycles", str(cycles),
                 "--seed", "3", "-o", circuit]) == EXIT_OK
    circ = rb.load_circuit(circuit)
    row_cuts = (1,) if patches == 4 else ()
    _, patch_circuits = rb.split_grid_patches(circ, row_cuts, (3,))
    argv = ["calibrate", "--circuit", circuit, "--patches", str(patches),
            "--trainable", "theta,phi", "--max-iters", "3"]
    for i, patch in enumerate(patch_circuits):
        path = str(root / f"train{i}.bin")
        rb.save_samples(path, rb.sample_ideal(rb.run(patch), 1000, seed=i))
        argv += ["--train", path]
    return main(argv + ["-o", str(root / "calibration.json")])


class TestCalibrate:
    def test_rerun_byte_identical(self, calibrate_inputs, tmp_path):
        out = tmp_path / "calibration.json"
        manifest = tmp_path / "calibration.json.manifest.json"
        assert _calibrate(calibrate_inputs, out) == EXIT_OK
        first = out.read_bytes(), manifest.read_bytes()
        assert _calibrate(calibrate_inputs, out) == EXIT_OK
        assert (out.read_bytes(), manifest.read_bytes()) == first
        patches = json.loads(first[0])["patches"]
        assert [p["status"] for p in patches] == ["converged", "converged"]
        assert all(p["after_loss"] < p["before_loss"] for p in patches)

    def test_thread_count_invariant(self, calibrate_inputs, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert _calibrate(calibrate_inputs, one, "--threads", "1") == EXIT_OK
        assert _calibrate(calibrate_inputs, two, "--threads", "2") == EXIT_OK
        assert one.read_bytes() == two.read_bytes()

    def test_zero_threads_exits_2(self, calibrate_inputs, tmp_path):
        assert _calibrate(calibrate_inputs, tmp_path / "c.json", "--threads", "0") == EXIT_INPUT

    def test_wrong_train_count_exits_2(self, calibrate_inputs, tmp_path):
        argv = calibrate_inputs[:-2]  # drop the second --train
        assert _calibrate(argv, tmp_path / "c.json") == EXIT_INPUT

    def test_unknown_trainable_exits_2(self, calibrate_inputs, tmp_path):
        argv = list(calibrate_inputs)
        argv[argv.index("theta,phi")] = "theta,gamma"
        assert _calibrate(argv, tmp_path / "c.json") == EXIT_INPUT

    def test_lists_only_couplers_that_fire(self, tmp_path):
        # Two cycles fire only the vertical couplers of each 2x3 patch.
        assert _calibrate_generated(tmp_path, 2, 2) == EXIT_OK
        doc = json.loads((tmp_path / "calibration.json").read_bytes())
        assert [p["couplers"] for p in doc["patches"]] == [
            ["0-6", "1-7", "2-8"], ["3-9", "4-10", "5-11"]]
        assert sorted(doc["params"]) == sorted(
            key for p in doc["patches"] for key in p["couplers"])

    def test_patch_where_no_coupler_fires_exits_2(self, tmp_path):
        # One cycle fires no coupler inside any 1x3 quadrant.
        assert _calibrate_generated(tmp_path, 1, 4) == EXIT_INPUT

    def test_fd_step_rejected(self, calibrate_inputs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _calibrate(calibrate_inputs, tmp_path / "c.json", "--fd-step", "1e-3")
        assert exc.value.code == EXIT_INPUT


@pytest.fixture(scope="module")
def small_circuit(tmp_path_factory):
    """A 3x3, 6-cycle circuit and 2000 ideal samples of it, written by the CLI."""
    root = tmp_path_factory.mktemp("small")
    circuit, samples = str(root / "c.json"), str(root / "s.bin")
    assert main(["generate", "--topology", "grid:3x3", "--cycles", "6",
                 "--seed", "1", "-o", circuit]) == EXIT_OK
    assert main(["sample", "--circuit", circuit, "-n", "2000", "--seed", "2",
                 "-o", samples]) == EXIT_OK
    return circuit, samples


@pytest.fixture(scope="module")
def trajectory_inputs(tmp_path_factory):
    """A 3x3, 6-cycle circuit and a noise file with enough gate errors that
    most trajectories replay part of the circuit."""
    root = tmp_path_factory.mktemp("trajectory")
    circuit, noise = str(root / "c.json"), root / "noise.json"
    assert main(["generate", "--topology", "grid:3x3", "--cycles", "6",
                 "--seed", "4", "-o", circuit]) == EXIT_OK
    noise.write_text(json.dumps({"e1": 0.02, "e2": 0.05, "e_r0": 0.02, "e_r1": 0.04}))
    return circuit, str(noise)


def _sample_trajectory(inputs, out, threads):
    circuit, noise = inputs
    return main(["sample", "--circuit", circuit, "--model", "trajectory",
                 "--noise", noise, "--readout", "-n", "300", "--seed", "5",
                 "--threads", str(threads), "-o", str(out)])


def _outputs(out):
    return tuple(p.read_bytes() for p in
                 (out, out.with_name(out.name + ".json"),
                  out.with_name(out.name + ".manifest.json")))


class TestSample:
    def test_trajectory_rerun_and_thread_count_invariant(self, trajectory_inputs,
                                                         tmp_path):
        out = tmp_path / "s.bin"
        assert _sample_trajectory(trajectory_inputs, out, 1) == EXIT_OK
        first = _outputs(out)
        assert _sample_trajectory(trajectory_inputs, out, 1) == EXIT_OK
        assert _outputs(out) == first
        assert _sample_trajectory(trajectory_inputs, out, 2) == EXIT_OK
        assert _outputs(out) == first
        assert rb.load_samples(str(out)).n_samples == 300

    def test_trajectory_zero_threads_exits_2(self, trajectory_inputs, tmp_path):
        assert _sample_trajectory(trajectory_inputs, tmp_path / "s.bin", 0) == EXIT_INPUT

    def test_analyze_rerun_byte_identical(self, trajectory_inputs, tmp_path):
        samples, out = tmp_path / "s.bin", tmp_path / "a.json"
        assert _sample_trajectory(trajectory_inputs, samples, 2) == EXIT_OK
        argv = ["analyze", "--circuit", trajectory_inputs[0], "--samples", str(samples),
                "--bootstrap", "200", "--seed", "6", "-o", str(out)]
        assert main(argv) == EXIT_OK
        first = out.read_bytes(), out.with_name("a.json.manifest.json").read_bytes()
        assert main(argv) == EXIT_OK
        assert (out.read_bytes(), out.with_name("a.json.manifest.json").read_bytes()) == first
        assert json.loads(first[0])["instances"][0]["n_samples"] == 300


class TestExitCodes:
    def test_qubit_limit_exits_4(self, small_circuit, tmp_path):
        circuit, _ = small_circuit
        argv = ["sample", "--circuit", circuit, "-n", "10", "--seed", "2",
                "--limit", "4", "-o", str(tmp_path / "s.bin")]
        assert main(argv) == EXIT_RESOURCE

    def test_failed_ks_threshold_exits_3(self, small_circuit, tmp_path):
        circuit, samples = small_circuit
        argv = ["analyze", "--circuit", circuit, "--samples", samples,
                "--bootstrap", "0", "-o", str(tmp_path / "a.json")]
        assert main(argv) == EXIT_OK
        assert main(argv + ["--min-p-fhat", "1.01"]) == EXIT_HYPOTHESIS

    def test_p_zero_above_threshold_exits_3(self, small_circuit, tmp_path):
        circuit, samples = small_circuit
        argv = ["analyze", "--circuit", circuit, "--samples", samples,
                "--bootstrap", "0", "--max-p-zero", "-1", "-o", str(tmp_path / "a.json")]
        assert main(argv) == EXIT_HYPOTHESIS


class TestAnalyze:
    def test_csv_rerun_byte_identical(self, small_circuit, tmp_path):
        circuit, samples = small_circuit
        out, csv = tmp_path / "a.json", tmp_path / "cdf.csv"
        argv = ["analyze", "--circuit", circuit, "--samples", samples,
                "--bootstrap", "200", "--csv", str(csv), "-o", str(out)]
        assert main(argv) == EXIT_OK
        first = _artifacts(out) + (csv.read_bytes(),)
        assert main(argv) == EXIT_OK
        assert _artifacts(out) + (csv.read_bytes(),) == first
        header, *rows = first[2].decode().splitlines()
        assert header == "x,empirical_cdf,model_cdf"
        empirical = [float(row.split(",")[1]) for row in rows]
        assert len(rows) > 1
        assert all(a <= b for a, b in zip(empirical, empirical[1:]))
        assert empirical[-1] == 1.0


def _artifacts(out):
    """An output and its manifest, as bytes."""
    return out.read_bytes(), out.with_name(out.name + ".manifest.json").read_bytes()


class TestGenerateVariantsReport:
    def test_generate_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "c.json"
        argv = ["generate", "--topology", "grid:3x4", "--cycles", "6", "--seed", "8",
                "-o", str(out)]
        assert main(argv) == EXIT_OK
        first = _artifacts(out)
        assert main(argv) == EXIT_OK
        assert _artifacts(out) == first
        assert rb.load_circuit(str(out)).n_cycles == 6

    def test_generate_deep22(self, tmp_path):
        out = tmp_path / "c.json"
        argv = ["generate", "--topology", "grid:3x3", "--kind", "deep22", "--seed", "8",
                "-o", str(out)]
        assert main(argv + ["--cycles", "22"]) == EXIT_OK
        circ = rb.load_circuit(str(out))
        assert (circ.kind, circ.n_cycles) == ("deep22", 22)
        assert main(argv + ["--cycles", "21"]) == EXIT_INPUT

    @pytest.mark.parametrize("mode", ["patch", "elided"])
    def test_variants_rerun_byte_identical(self, small_circuit, tmp_path, mode):
        out = tmp_path / "v.json"
        argv = ["variants", "--circuit", small_circuit[0], "--mode", mode,
                "--split", "row", "-o", str(out)]
        assert main(argv) == EXIT_OK
        first = _artifacts(out)
        assert main(argv) == EXIT_OK
        assert _artifacts(out) == first
        assert rb.load_circuit(str(out)).variant == mode

    def test_elided_keep_last_beyond_cycles_exits_2(self, small_circuit, tmp_path):
        argv = ["variants", "--circuit", small_circuit[0], "--mode", "elided",
                "--keep-last", "7", "-o", str(tmp_path / "v.json")]
        assert main(argv) == EXIT_INPUT

    def test_report_rerun_byte_identical(self, small_circuit, tmp_path):
        circuit, samples = small_circuit
        assert main(["analyze", "--circuit", circuit, "--samples", samples,
                     "--bootstrap", "0", "-o", str(tmp_path / "s.analysis.json")]) == EXIT_OK
        out = tmp_path / "report" / "r.json"
        out.parent.mkdir()
        argv = ["report", "--dir", str(tmp_path), "--csv", str(out.with_suffix(".csv")),
                "-o", str(out)]
        assert main(argv) == EXIT_OK
        first = _artifacts(out) + (out.with_suffix(".csv").read_bytes(),)
        assert main(argv) == EXIT_OK
        assert _artifacts(out) + (out.with_suffix(".csv").read_bytes(),) == first
        assert json.loads(first[0])["n_instances"] == 1

    def test_report_without_analyses_exits_2(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path), "-o",
                     str(tmp_path / "r.json")]) == EXIT_INPUT


@pytest.fixture(scope="module")
def cost_circuit(tmp_path_factory):
    """A 3x4, 6-cycle circuit written by the CLI."""
    circuit = str(tmp_path_factory.mktemp("cost") / "c.json")
    assert main(["generate", "--topology", "grid:3x4", "--cycles", "6",
                 "--seed", "1", "-o", circuit]) == EXIT_OK
    return circuit


def _tnc(circuit, out, *extra):
    return main(["cost", "tnc", "--circuit", circuit, "--restarts", "4",
                 "--open-qubits", "2", "--max-rank", "4", "--n-samples", "1e6",
                 "--fidelity", "0.01", *extra, "-o", str(out)])


def _sfa(out, *extra):
    return main(["cost", "sfa", "--fidelity", "0.01", "--n-samples", "1e6",
                 *extra, "-o", str(out)])


class TestCost:
    @pytest.mark.parametrize("mode", ["tnc", "sfa"])
    def test_rerun_byte_identical(self, cost_circuit, tmp_path, mode):
        out = tmp_path / f"{mode}.json"
        manifest = tmp_path / f"{mode}.json.manifest.json"

        def run_once():
            if mode == "tnc":
                return _tnc(cost_circuit, out)
            return _sfa(out, "--circuit", cost_circuit)

        assert run_once() == EXIT_OK
        first = out.read_bytes(), manifest.read_bytes()
        assert run_once() == EXIT_OK
        assert (out.read_bytes(), manifest.read_bytes()) == first
        doc = json.loads(first[0])
        if mode == "tnc":
            assert doc["slicing"]["largest_intermediate_rank"] <= 4
            assert doc["slicing"]["n_slices"] > 1
        else:
            assert doc["fidelity_budget"] == 0.01
            assert doc["g"] > 0

    @pytest.mark.parametrize("flag", ["--max-rank", "--open-qubits"])
    def test_negative_tnc_count_exits_2(self, cost_circuit, tmp_path, flag):
        assert _tnc(cost_circuit, tmp_path / "tnc.json", flag, "-1") == EXIT_INPUT

    def test_restarts_csv(self, cost_circuit, tmp_path):
        out, csv = tmp_path / "tnc.json", tmp_path / "restarts.csv"
        assert _tnc(cost_circuit, out, "--restarts-csv", str(csv)) == EXIT_OK
        first = csv.read_bytes()
        assert _tnc(cost_circuit, out, "--restarts-csv", str(csv)) == EXIT_OK
        assert csv.read_bytes() == first
        header, *rows = first.decode().splitlines()
        assert header == "restart,total_flops"
        assert [int(row.split(",")[0]) for row in rows] == [0, 1, 2, 3]
        costs = [float(row.split(",")[1]) for row in rows]
        assert min(costs) == json.loads(out.read_bytes())["path"]["total_flops"]

    def test_zero_restarts_exits_2(self, cost_circuit, tmp_path):
        assert _tnc(cost_circuit, tmp_path / "tnc.json", "--restarts", "0") == EXIT_INPUT

    def test_tnc_past_float_range_exits_4(self, tmp_path):
        circuit = str(tmp_path / "c.json")
        assert main(["generate", "--topology", "grid:33x34", "--cycles", "1",
                     "--seed", "1", "-o", circuit]) == EXIT_OK
        assert main(["cost", "tnc", "--circuit", circuit, "--open-qubits", "1122",
                     "--restarts", "1", "--max-rank", "30",
                     "-o", str(tmp_path / "tnc.json")]) == EXIT_RESOURCE

    @pytest.mark.parametrize("flags, path_count", [
        (("--g", "10", "--delta-theta", "1.5707963267948966", "--phi", "0"), 1.0),
        (("--g", "3", "--delta-theta", "0.1"), 64.0),
    ])
    def test_synthetic_sfa(self, tmp_path, flags, path_count):
        out = tmp_path / "sfa.json"
        assert _sfa(out, *flags) == EXIT_OK
        first = _artifacts(out)
        assert _sfa(out, *flags) == EXIT_OK
        assert _artifacts(out) == first
        assert json.loads(first[0])["path_count"] == path_count

    def test_synthetic_sfa_negative_g_exits_2(self, tmp_path):
        assert _sfa(tmp_path / "sfa.json", "--g", "-1", "--delta-theta", "0.1") == EXIT_INPUT

    def test_sfa_without_circuit_or_g_exits_2(self, tmp_path):
        assert _sfa(tmp_path / "sfa.json") == EXIT_INPUT
