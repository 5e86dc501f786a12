import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import draw_words_by_searchsorted

import rcsbench as rb
from rcsbench import calibration, cli, costmodel, rng, samples, simulator
from rcsbench.circuit import CIRCUIT_FORMAT, circuit_to_dict
from rcsbench.cli import EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, main
from rcsbench.topology import TOPOLOGY_FORMAT, topology_to_dict


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

    def test_repeated_trainable_exits_2(self, calibrate_inputs, tmp_path):
        argv = list(calibrate_inputs)
        argv[argv.index("theta,phi")] = "theta,theta"
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

    @pytest.mark.parametrize("flag, value", [("--max-iters", "-3"), ("--grad-tol", "0")])
    def test_bad_optimizer_flag_exits_2(self, calibrate_inputs, tmp_path, capsys, flag, value):
        out = tmp_path / "c.json"
        assert _calibrate(calibrate_inputs, out, flag, value) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_fd_step_rejected(self, calibrate_inputs, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _calibrate(calibrate_inputs, tmp_path / "c.json", "--fd-step", "1e-3")
        assert exc.value.code == EXIT_INPUT


def _with_first_train(argv, path):
    """``argv`` with its first --train file replaced by ``path``."""
    argv = list(argv)
    argv[argv.index("--train") + 1] = str(path)
    return argv


def _train_file(tmp_path, n_words, n_qubits=6):
    """A valid sample file of ``n_words`` random words of ``n_qubits`` bits;
    the patches of ``calibrate_inputs`` have 6 qubits."""
    path = tmp_path / "bad.bin"
    words = np.random.default_rng(8).integers(0, 1 << n_qubits, n_words, dtype=np.uint64)
    rb.save_samples(str(path), rb.SampleSet(n_qubits, words))
    return path


class TestCalibrateTrainingFiles:
    """`calibrate` reads each training file in chunks into its histogram.  A
    bad file exits 2, names itself and leaves nothing written."""

    def _fails(self, argv, tmp_path, capsys, code=EXIT_INPUT):
        out = tmp_path / "calibration.json"
        assert _calibrate(argv, out) == code
        assert not out.exists()
        assert not (tmp_path / "calibration.json.manifest.json").exists()
        return capsys.readouterr().err

    def test_wide_word_past_the_first_chunk_exits_2(self, calibrate_inputs, tmp_path,
                                                    capsys):
        path = _train_file(tmp_path, samples._CHUNK_WORDS + 100)
        bad = samples._CHUNK_WORDS + 7
        raw = np.fromfile(path, dtype="<u8")
        raw[bad] = 1 << 6
        raw.tofile(path)
        err = self._fails(_with_first_train(calibrate_inputs, path), tmp_path, capsys)
        assert str(path) in err and f"word {bad} exceeds the 6-bit width" in err

    @pytest.mark.parametrize("change", [-8, 8], ids=["fewer", "more"])
    def test_word_count_other_than_the_sidecars_exits_2(self, calibrate_inputs, tmp_path,
                                                        capsys, change):
        path = _train_file(tmp_path, samples._CHUNK_WORDS + 100)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size + change)
        err = self._fails(_with_first_train(calibrate_inputs, path), tmp_path, capsys)
        assert f"{path} holds {size + change} bytes" in err

    def test_sidecar_width_other_than_the_patchs_exits_2_before_any_word(
            self, calibrate_inputs, tmp_path, capsys):
        # the words are gone, so only a check made before reading them can
        # name the width
        path = _train_file(tmp_path, 100, n_qubits=5)
        path.unlink()
        err = self._fails(_with_first_train(calibrate_inputs, path), tmp_path, capsys)
        assert f"{path} holds 5-bit samples, not 6-bit ones" in err

    def test_histograms_that_do_not_fit_exit_4_before_any_file_is_read(
            self, calibrate_inputs, tmp_path, capsys, monkeypatch):
        def load(*args, **kwargs):
            raise AssertionError("read a training file")

        # one 6-qubit histogram fits, the two patches' do not
        monkeypatch.setattr(simulator, "_MEMORY_BUDGET", calibration.histogram_bytes(6))
        monkeypatch.setattr(calibration, "load_histogram", load)
        err = self._fails(calibrate_inputs, tmp_path, capsys, code=EXIT_RESOURCE)
        assert "training histograms of 2 patches" in err


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
        for threads in (2, 3):
            assert _sample_trajectory(trajectory_inputs, out, threads) == EXIT_OK
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


@pytest.fixture(scope="module")
def circuit_4x4(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid4x4") / "c.json"
    assert main(["generate", "--topology", "grid:4x4", "--cycles", "8",
                 "--seed", "3", "-o", str(path)]) == EXIT_OK
    return str(path)


class TestSampleFromState:
    @pytest.mark.parametrize("model", [["ideal"], ["speckle", "--fidelity", "0.5"]])
    def test_rerun_byte_identical(self, circuit_4x4, tmp_path, model):
        out = tmp_path / "s.bin"
        argv = ["sample", "--circuit", circuit_4x4, "--model", *model,
                "-n", "5000", "--seed", "9", "-o", str(out)]
        assert main(argv) == EXIT_OK
        first = _outputs(out)
        assert main(argv) == EXIT_OK
        assert _outputs(out) == first

    def test_ideal_words_match_one_search_per_draw(self, circuit_4x4, tmp_path):
        out = tmp_path / "s.bin"
        assert main(["sample", "--circuit", circuit_4x4, "-n", "5000", "--seed", "9",
                     "-o", str(out)]) == EXIT_OK
        probs = rb.probabilities(rb.run(rb.load_circuit(circuit_4x4)))
        gen = rng.stream(9, rng.Stream.IDEAL_SAMPLING)
        assert np.array_equal(rb.load_samples(str(out)).words,
                              draw_words_by_searchsorted(probs, 5000, gen))

    def test_help_says_threads_serve_trajectories_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--threads THREADS only --model trajectory uses" in help_text


class TestExitCodes:
    def test_qubit_limit_exits_4(self, tmp_path, capsys):
        # two states of 40 qubits are 32 TiB, more than any host holds
        circuit, samples = str(tmp_path / "c.json"), str(tmp_path / "s.bin")
        assert main(["generate", "--topology", "grid:5x8", "--cycles", "1",
                     "--seed", "1", "-o", circuit]) == EXIT_OK
        rb.save_samples(samples, rb.SampleSet(40, np.arange(10) << 30))
        capsys.readouterr()
        out = tmp_path / "out"
        draw = ["-n", "10", "--seed", "2"]
        for argv in (["sample", *draw], ["sample", "--model", "trajectory", *draw],
                     ["analyze", "--samples", samples]):
            assert main([*argv, "--circuit", circuit, "-o", str(out)]) == EXIT_RESOURCE
            assert capsys.readouterr().err.startswith("resource limit: ")
            assert not out.exists()

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

    def test_analyze_checks_memory_before_reading_samples(self, circuit_4x4, tmp_path,
                                                          monkeypatch):
        def load_samples(path):
            pytest.fail("analyze read the samples before its memory check")

        monkeypatch.setattr(cli, "load_samples", load_samples)
        monkeypatch.setattr(simulator, "_MEMORY_BUDGET", simulator.memory_need(16, 2) - 1)
        out = tmp_path / "a.json"
        assert main(["analyze", "--circuit", circuit_4x4, "--samples",
                     str(tmp_path / "s.bin"), "-o", str(out)]) == EXIT_RESOURCE
        assert not out.exists()

    def test_out_of_memory_exits_4(self, small_circuit, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(simulator, "run", out_of_memory)
        circuit, samples = small_circuit
        argv = ["analyze", "--circuit", circuit, "--samples", samples,
                "-o", str(tmp_path / "a.json")]
        assert main(argv) == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("resource limit: ")


def _input_argv(kind, path, small_circuit, tmp_path):
    """A command that reads ``path`` as its ``kind`` input."""
    out = str(tmp_path / "out")
    if kind in ("noise", "circuit"):
        circuit = path if kind == "circuit" else small_circuit[0]
        noise = ["--noise", path] if kind == "noise" else []
        return ["sample", "--circuit", circuit, *noise, "-n", "10", "--seed", "1",
                "-o", out]
    topology = path if kind == "topology" else "grid:3x3"
    params = ["--params", path] if kind == "params" else []
    return ["generate", "--topology", topology, *params, "--cycles", "2",
            "--seed", "1", "-o", out]


class TestInputFiles:
    @pytest.mark.parametrize("data", [b"{bad", b"[1, 2]", b"\xff\xfe"])
    @pytest.mark.parametrize("kind", ["noise", "circuit", "topology", "params"])
    def test_malformed_or_non_object_json_exits_2(self, small_circuit, tmp_path,
                                                  capsys, kind, data):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(data)
        assert main(_input_argv(kind, str(path), small_circuit, tmp_path)) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_noise_key_exits_2(self, small_circuit, tmp_path, capsys):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"e1": 0.01, "e_2": 0.5}))
        assert main(_input_argv("noise", str(path), small_circuit, tmp_path)) == EXIT_INPUT
        assert "e_2" in capsys.readouterr().err

    def test_params_coupler_outside_topology_exits_2(self, small_circuit, tmp_path,
                                                     capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"couplers": {"0-99": [1.5, 0.17, 0, 0, 0]}}))
        assert main(_input_argv("params", str(path), small_circuit, tmp_path)) == EXIT_INPUT
        assert "0-99" in capsys.readouterr().err
        path.write_text(json.dumps({"couplers": {"0-1": [1.5, 0.17, 0, 0, 0]}}))
        assert main(_input_argv("params", str(path), small_circuit, tmp_path)) == EXIT_OK


    @pytest.mark.parametrize("kind, key", [("circuit", "topology"), ("topology", "rows")])
    def test_document_missing_a_key_exits_2(self, small_circuit, tmp_path, capsys,
                                            kind, key):
        path = tmp_path / f"{kind}.json"
        fmt = {"circuit": CIRCUIT_FORMAT, "topology": TOPOLOGY_FORMAT}[kind]
        path.write_text(json.dumps({"format": fmt}))
        assert main(_input_argv(kind, str(path), small_circuit, tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and f"missing key '{key}'" in err

    @pytest.mark.parametrize("edit", [
        pytest.param({"format": "rcsbench.circuit.v1"}, id="v1"),
        pytest.param({"variant": "patch", "parts": [[0, 1, 2], [3, 4, 5, 6, 7, 8]]},
                     id="patch-gate-joins-two-parts"),
        pytest.param({"parts": [list(range(9)), [0]]}, id="parts-overlap"),
        pytest.param({"parts": [[0, 1, 2], [3, 4, 5, 6, 7]]}, id="parts-miss-a-qubit"),
    ])
    def test_bad_circuit_document_exits_2(self, small_circuit, tmp_path, capsys, edit):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({**json.loads(Path(small_circuit[0]).read_text()),
                                    **edit}))
        assert main(_input_argv("circuit", str(path), small_circuit, tmp_path)) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_layer_with_gates_sharing_a_qubit_exits_2(self, tmp_path, capsys):
        # a 3x4 circuit whose second layer gains layer D's gate (1, 2), next
        # to its own (1, 5)
        topo = rb.assign_patterns(rb.build_grid(3, 4))
        doc = circuit_to_dict(rb.standard_circuit(topo, 4, seed=9))
        doc["layers"][1]["two_qubit"].append(doc["layers"][3]["two_qubit"][0])
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--circuit", str(path), "-n", "10", "--seed", "1",
                     "-o", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "qubit 1 " in err
        assert list(tmp_path.iterdir()) == [path]

    def test_pattern_that_is_not_a_matching_exits_2(self, tmp_path, capsys):
        # coupler (1, 5) joins pattern A, which already holds (5, 9)
        doc = topology_to_dict(rb.assign_patterns(rb.build_grid(3, 4)))
        for e in doc["couplers"]:
            if (e["a"], e["b"]) == (1, 5):
                e["pattern"] = "A"
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        assert main(["generate", "--topology", str(path), "--cycles", "4", "--seed", "1",
                     "-o", str(tmp_path / "out")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "pattern A is not a matching at qubit 5" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_noise_rate_of_wrong_type_exits_2(self, small_circuit, tmp_path, capsys):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"e1": "x"}))
        assert main(_input_argv("noise", str(path), small_circuit, tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "e1='x'" in err

    def test_params_coupler_with_one_value_exits_2(self, small_circuit, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"couplers": {"0-1": [1.5]}}))
        assert main(_input_argv("params", str(path), small_circuit, tmp_path)) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "'0-1'" in err


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, rcsbench.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def patch_4x4(circuit_4x4, tmp_path_factory):
    """The 4x4, 8-cycle circuit patched into two 8-qubit halves, and 2000
    ideal samples of the patch."""
    root = tmp_path_factory.mktemp("patch4x4")
    patch, samples = str(root / "p.json"), str(root / "s.bin")
    assert main(["variants", "--circuit", circuit_4x4, "--mode", "patch",
                 "-o", patch]) == EXIT_OK
    assert main(["sample", "--circuit", patch, "-n", "2000", "--seed", "3",
                 "-o", samples]) == EXIT_OK
    return patch, samples


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
        assert header == "part,x,empirical_cdf,model_cdf"
        assert {row.split(",")[0] for row in rows} == {"0"}
        empirical = [float(row.split(",")[2]) for row in rows]
        assert len(rows) > 1
        assert all(a <= b for a, b in zip(empirical, empirical[1:]))
        assert empirical[-1] == 1.0

    def test_patch_bootstraps_and_writes_every_part(self, patch_4x4, tmp_path):
        circuit, samples = patch_4x4
        out, csv = tmp_path / "a.json", tmp_path / "cdf.csv"
        assert main(["analyze", "--circuit", circuit, "--samples", samples,
                     "--bootstrap", "500", "--csv", str(csv), "-o", str(out)]) == EXIT_OK
        inst = json.loads(out.read_text())["instances"][0]
        assert [r["n_qubits"] for r in inst["ks_records"]] == [8, 8]
        assert inst["bootstrap_resamples"] == 500
        # the resamples spread the collision-normalised fidelity that sigma
        # propagates: raw resamples read 0.69 sigma here (collision ratios 0.83)
        assert abs(inst["sigma_bootstrap"] / inst["sigma"] - 1) < 0.1
        header, *rows = csv.read_text().splitlines()
        assert header == "part,x,empirical_cdf,model_cdf"
        parts = [row.split(",") for row in rows]
        assert sorted({p[0] for p in parts}) == ["0", "1"]
        for part in ("0", "1"):
            empirical = [float(p[2]) for p in parts if p[0] == part]
            assert len(empirical) > 1
            assert all(a <= b for a, b in zip(empirical, empirical[1:]))
            assert empirical[-1] == 1.0

    @pytest.mark.parametrize("which, bootstrap", [("whole", "0"), ("patch", "0"),
                                                  ("patch", "200")])
    def test_negative_seed_exits_2_before_any_work(self, small_circuit, patch_4x4,
                                                   tmp_path, which, bootstrap):
        circuit, samples = small_circuit if which == "whole" else patch_4x4
        out = tmp_path / "a.json"
        assert main(["analyze", "--circuit", circuit, "--samples", samples,
                     "--bootstrap", bootstrap, "--seed", "-1", "-o", str(out)]) == EXIT_INPUT
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_generate_seed_outside_64_bits_exits_2(self, tmp_path, seed):
        out = tmp_path / "c.json"
        assert main(["generate", "--topology", "grid:2x2", "--cycles", "2",
                     "--seed", seed, "-o", str(out)]) == EXIT_INPUT
        assert not out.exists()

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

    def test_demo60_patch_cut_twice_scores_its_quadrants(self, tmp_path):
        circuit, rows, quadrants, samples, out = (
            str(tmp_path / name) for name in ("c.json", "r.json", "q.json", "s.bin", "a.json"))
        assert main(["generate", "--topology", "demo60", "--cycles", "24", "--seed", "1",
                     "-o", circuit]) == EXIT_OK
        assert main(["variants", "--circuit", circuit, "--mode", "patch", "--split", "row",
                     "--at", "5", "-o", rows]) == EXIT_OK
        assert main(["variants", "--circuit", rows, "--mode", "patch", "--split", "col",
                     "--at", "3", "-o", quadrants]) == EXIT_OK
        words = np.random.default_rng(7).integers(0, 1 << 60, 20_000, dtype=np.uint64)
        rb.save_samples(samples, rb.SampleSet(60, words))
        assert main(["analyze", "--circuit", quadrants, "--samples", samples,
                     "-o", out]) == EXIT_OK
        records = json.loads(Path(out).read_text())["instances"][0]["ks_records"]
        assert sorted(r["n_qubits"] for r in records) == [13, 14, 16, 17]

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

    def test_report_on_an_analysis_missing_a_key_exits_2(self, tmp_path, capsys):
        (tmp_path / "x.analysis.json").write_text(json.dumps({"instances": [{"fidelity": 0.5}]}))
        assert main(["report", "--dir", str(tmp_path), "-o", str(tmp_path / "r.json")]) \
            == EXIT_INPUT
        assert "missing key 'sigma'" in capsys.readouterr().err

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
    return main(["cost", "sfa", "--fidelity", "0.01", *extra, "-o", str(out)])


class TestCost:
    @pytest.mark.parametrize("mode", ["tnc", "sfa"])
    def test_rerun_byte_identical(self, cost_circuit, tmp_path, mode):
        out = tmp_path / f"{mode}.json"
        manifest = tmp_path / f"{mode}.json.manifest.json"

        def run_once():
            if mode == "tnc":
                return _tnc(cost_circuit, out)
            return _sfa(out, "--circuit", cost_circuit, "--n-samples", "1e6")

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

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--max-rank", "-1", id="--max-rank"),
        pytest.param("--open-qubits", "-1", id="--open-qubits"),
        pytest.param("--open-qubits", "13", id="--open-qubits-above-qubit-count"),
    ])
    def test_negative_tnc_count_exits_2(self, cost_circuit, tmp_path, capsys, flag, value):
        assert _tnc(cost_circuit, tmp_path / "tnc.json", flag, value) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("given, missing", [
        (("--n-samples", "1e6"), "--fidelity"),
        (("--fidelity", "0.01"), "--n-samples"),
    ])
    def test_one_sampling_flag_exits_2(self, cost_circuit, tmp_path, capsys,
                                       given, missing):
        out = tmp_path / "tnc.json"
        assert main(["cost", "tnc", "--circuit", cost_circuit, "--restarts", "1",
                     *given, "-o", str(out)]) == EXIT_INPUT
        assert missing in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--n-samples", "1e6", "--fidelity", "2"),
        ("--n-samples", "-1", "--fidelity", "0.01"),
        ("--n-samples", "1e6", "--fidelity", "0.01", "--reference-flops", "0"),
        ("--n-samples", "1e6", "--fidelity", "0.01", "--reference-seconds", "-1"),
        ("--n-samples", "nan", "--fidelity", "0.5"),
        ("--n-samples", "1e6", "--fidelity", "0.01", "--reference-seconds", "inf"),
    ])
    def test_bad_sampling_flag_exits_2_before_the_search(self, cost_circuit, tmp_path,
                                                         capsys, monkeypatch, flags):
        def search(*args, **kwargs):
            raise AssertionError("built or searched the network")

        monkeypatch.setattr(costmodel, "circuit_to_tn", search)
        monkeypatch.setattr(costmodel, "find_path_greedy_full", search)
        out = tmp_path / "tnc.json"
        assert main(["cost", "tnc", "--circuit", cost_circuit, "--restarts", "1",
                     *flags, "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_negative_max_rank_exits_2_before_the_search(self, cost_circuit, tmp_path,
                                                         capsys, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("built or searched the network")

        monkeypatch.setattr(costmodel, "circuit_to_tn", search)
        monkeypatch.setattr(costmodel, "find_path_greedy_full", search)
        out = tmp_path / "tnc.json"
        assert main(["cost", "tnc", "--circuit", cost_circuit, "--restarts", "1",
                     "--max-rank", "-1", "-o", str(out)]) == EXIT_INPUT
        assert "--max-rank -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--n-samples", "-5"),
        ("--n-samples", "nan"),
        ("--n-samples", "1e6", "--core-flops", "-1"),
        ("--n-samples", "1e6", "--cores", "0"),
        ("--n-samples", "1e6", "--cores", "-1", "--core-flops", "-1000"),
        ("--n-samples", "1e6", "--cores", "inf"),
    ])
    def test_bad_sfa_runtime_flag_exits_2_before_the_cut(self, cost_circuit, tmp_path,
                                                         capsys, monkeypatch, flags):
        def cut(*args, **kwargs):
            raise AssertionError("analysed the cut")

        monkeypatch.setattr(costmodel, "sfa_cut", cut)
        out = tmp_path / "sfa.json"
        assert _sfa(out, "--circuit", cost_circuit, *flags) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_zero_samples_cost_nothing(self, cost_circuit, tmp_path):
        out = tmp_path / "tnc.json"
        assert _tnc(cost_circuit, out, "--n-samples", "0") == EXIT_OK
        sampling = json.loads(out.read_bytes())["sampling"]
        assert sampling["n_samples"] == 0
        assert sampling["total_flops"] == sampling["runtime_years"] == 0

    @pytest.mark.parametrize("mode, flag, values", [
        ("tnc", "--reference-flops", ("6.66e18", "1e19")),
        ("tnc", "--reference-seconds", ("833.75", "1000")),
        ("sfa", "--n-samples", ("1e6", "7e7")),
        ("sfa", "--cores", ("7630848", "1000")),
        ("sfa", "--core-flops", ("1e9", "2e9")),
    ])
    def test_config_hash_tracks_output_flags(self, cost_circuit, tmp_path, mode,
                                             flag, values):
        out = tmp_path / f"{mode}.json"
        manifest = tmp_path / f"{mode}.json.manifest.json"
        hashes = []
        for value in values:
            if mode == "tnc":
                assert _tnc(cost_circuit, out, flag, value) == EXIT_OK
            else:
                assert _sfa(out, "--circuit", cost_circuit, "--n-samples", "1e6",
                            flag, value) == EXIT_OK
            hashes.append(json.loads(manifest.read_bytes())["config_sha256"])
        assert hashes[0] != hashes[1]

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

    @pytest.mark.parametrize("flags", [("--restarts", "0"), ("--seed", "-1")])
    def test_bad_search_flag_exits_2_before_the_network_is_built(
            self, cost_circuit, tmp_path, capsys, monkeypatch, flags):
        def build(*args, **kwargs):
            raise AssertionError("built the network")

        monkeypatch.setattr(costmodel, "circuit_to_tn", build)
        out = tmp_path / "tnc.json"
        assert main(["cost", "tnc", "--circuit", cost_circuit, *flags,
                     "-o", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("restarts", ["1", "2"])
    def test_negative_seed_exits_2_whatever_the_restarts(self, cost_circuit, tmp_path,
                                                         restarts):
        # restart 0 draws no stream; the seed is checked all the same
        assert _tnc(cost_circuit, tmp_path / "tnc.json", "--restarts", restarts,
                    "--restarts-csv", str(tmp_path / "r.csv"), "--seed", "-1") == EXIT_INPUT
        assert list(tmp_path.iterdir()) == []

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

    def test_sfa_past_float_range_exits_4(self, tmp_path):
        out = tmp_path / "sfa.json"
        assert _sfa(out, "--g", "600", "--delta-theta", "0.1") == EXIT_RESOURCE
        assert not out.exists()

    def test_synthetic_sfa_negative_g_exits_2(self, tmp_path):
        assert _sfa(tmp_path / "sfa.json", "--g", "-1", "--delta-theta", "0.1") == EXIT_INPUT

    def test_synthetic_sfa_with_n_samples_exits_2(self, tmp_path, capsys):
        out = tmp_path / "sfa.json"
        assert _sfa(out, "--g", "3", "--delta-theta", "0.1",
                    "--n-samples", "1e6") == EXIT_INPUT
        assert "--circuit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_samples", [(), ("--n-samples", "0")], ids=["absent", "zero"])
    def test_sfa_extrapolates_when_n_samples_is_given(self, cost_circuit, tmp_path,
                                                      n_samples):
        out = tmp_path / "sfa.json"
        assert _sfa(out, "--circuit", cost_circuit, *n_samples) == EXIT_OK
        doc = json.loads(out.read_bytes())
        if not n_samples:
            assert "runtime_extrapolation" not in doc
        else:
            extrapolation = doc["runtime_extrapolation"]
            assert extrapolation["n_samples"] == 0
            assert extrapolation["total_flops"] == extrapolation["runtime_years"] == 0

    def test_sfa_without_circuit_or_g_exits_2(self, tmp_path):
        assert _sfa(tmp_path / "sfa.json") == EXIT_INPUT
