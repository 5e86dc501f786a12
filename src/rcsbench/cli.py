"""Command-line pipelines with reproducible, digest-tracked artifacts.

Subcommands: generate, variants, sample, analyze, calibrate, cost tnc,
cost sfa, report.  ``analyze`` scores one (circuit, samples) pair, and
``report`` combines the analyses in a directory into one inverse-variance
weighted estimate.  Every command accepts an explicit 64-bit seed where
randomness is involved; identical flags and seeds produce byte-identical
artifacts.  Each primary output gets a ``<output>.manifest.json`` listing the
command, resolved configuration hash, seeds, and the SHA-256 digest of every
input and output file.

Exit codes: 0 success, 2 input error, 3 hypothesis-test failure,
4 resource limit exceeded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import calibration, circuit as circuit_mod, costmodel, rng, simulator, xeb
from .errors import InputError, ResourceLimitError, json_object, reading
from .gates import DEFAULT_FSIM, FsimParams
from .samples import load_samples, save_samples, sidecar_path
from .topology import (
    assign_patterns,
    build_grid,
    load_topology,
    sixty_qubit_grid,
)

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_RESOURCE = 4


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _dump_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    """A CSV file of ``header`` and ``rows``, floats as ``.17g``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_manifest(primary: str, command: str, config: dict,
                    inputs: list[str], outputs: list[str],
                    seeds: dict | None = None) -> None:
    config_blob = json.dumps(config, sort_keys=True).encode()
    doc = {
        "format": "rcsbench.manifest.v1",
        "tool_version": TOOL_VERSION,
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "seeds": seeds or {},
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        "outputs": [{"path": p, "sha256": _sha256(p)} for p in outputs],
        "timestamp": None,  # deterministic by default; reruns stay byte-identical
    }
    _dump_json(primary + ".manifest.json", doc)


def _resolve_topology(spec: str):
    """A path to a topology JSON, the literal ``demo60``, or ``grid:RxC``."""
    if spec == "demo60":
        return sixty_qubit_grid()
    if spec.startswith("grid:"):
        try:
            rows, cols = (int(v) for v in spec[5:].split("x"))
        except ValueError as exc:
            raise InputError(f"bad grid spec {spec!r}; want grid:RxC") from exc
        return assign_patterns(build_grid(rows, cols))
    if not Path(spec).exists():
        raise InputError(f"topology file not found: {spec}")
    return load_topology(spec)


def _coupler_key(text: str) -> tuple[int, int]:
    try:
        a, b = sorted(int(v) for v in text.split("-"))
        return (a, b)
    except ValueError as exc:
        raise InputError(f"bad coupler key {text!r}; want 'a-b'") from exc


def _load_json_object(path: str, what: str, keys: tuple[str, ...]) -> dict:
    """A JSON object from ``path`` whose keys are all among ``keys``."""
    with open(path) as fh:
        doc = json_object(json.load(fh), f"{what} {path}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise InputError(f"{what} {path}: unknown keys {unknown}; known: {list(keys)}")
    return doc


def _load_params_file(path: str, topology) -> dict:
    doc = _load_json_object(path, "params file", ("default", "couplers"))
    base = DEFAULT_FSIM
    if doc.get("default"):
        with reading(f"params file {path}: 'default'"):
            base = FsimParams.from_tuple(doc["default"])
    params = {c.key: base for c in topology.enabled_couplers}
    couplers = json_object(doc.get("couplers", {}), f"params file {path}: 'couplers'")
    for key, values in couplers.items():
        coupler = _coupler_key(key)
        if coupler not in params:
            raise InputError(f"params file {path}: coupler {key!r} is not an "
                             "enabled coupler of the topology")
        with reading(f"params file {path}: coupler {key!r}"):
            params[coupler] = FsimParams.from_tuple(values)
    return params


def _load_noise(path: str | None) -> simulator.NoiseModel:
    if path is None:
        return simulator.NoiseModel()
    doc = _load_json_object(path, "noise file", ("e1", "e2", "e_r0", "e_r1"))
    with reading(f"noise file {path}"):
        return simulator.NoiseModel(**doc)


def cmd_generate(args) -> int:
    topo = _resolve_topology(args.topology)
    params = (_load_params_file(args.params, topo) if args.params else None)
    circ = circuit_mod.standard_circuit(
        topo, args.cycles, args.seed, params, kind=args.kind,
        no_repeat=not args.allow_repeats)
    circuit_mod.save_circuit(args.output, circ)
    inputs = [p for p in (args.params,) if p]
    if Path(args.topology).exists():
        inputs.append(args.topology)
    _write_manifest(args.output, "generate", {
        "topology": args.topology, "cycles": args.cycles, "kind": args.kind,
        "allow_repeats": args.allow_repeats,
    }, inputs, [args.output], seeds={"circuit": args.seed})
    return EXIT_OK


def _one_cut(circ, split: str, at: int | None):
    """The two `grid_parts` of one cut at row or column ``at`` (default: the
    middle line)."""
    rows = split == "row"
    size = circ.topology.rows if rows else circ.topology.cols
    cut = (size // 2 if at is None else at,)
    return circuit_mod.grid_parts(circ, *((cut, ()) if rows else ((), cut)))


def cmd_variants(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    parts = _one_cut(circ, args.split, args.at)
    if args.mode == "patch":
        out = circuit_mod.make_patch(circ, parts)
    elif args.mode == "elided":
        keep = (circuit_mod.default_elide_keep_last(circ.n_cycles)
                if args.keep_last is None else args.keep_last)
        out = circuit_mod.make_elided(circ, parts, keep)
    else:
        raise InputError(f"unknown variant mode {args.mode!r}")
    circuit_mod.save_circuit(args.output, out)
    _write_manifest(args.output, "variants", {
        "mode": args.mode, "split": args.split, "at": args.at,
        "keep_last": args.keep_last,
    }, [args.circuit], [args.output])
    return EXIT_OK


def cmd_sample(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    noise = _load_noise(args.noise)
    if args.model == "ideal":
        state = simulator.run(circ)
        samples = simulator.sample_ideal(state, args.n_samples, args.seed)
    elif args.model == "speckle":
        if args.fidelity is None:
            raise InputError("--fidelity is required for the speckle model")
        state = simulator.run(circ)
        samples = simulator.sample_noisy_speckle(
            state, args.fidelity, args.n_samples, args.seed)
    elif args.model == "trajectory":
        samples = simulator.sample_trajectory(
            circ, noise, args.n_samples, args.seed, threads=args.threads)
    else:
        raise InputError(f"unknown sampling model {args.model!r}")
    if args.readout:
        samples = simulator.apply_readout_error(samples, noise, args.seed)
    save_samples(args.output, samples, meta={"circuit_sha256": _sha256(args.circuit)})
    inputs = [args.circuit] + ([args.noise] if args.noise else [])
    _write_manifest(args.output, "sample", {
        "model": args.model, "fidelity": args.fidelity,
        "n_samples": args.n_samples, "readout": args.readout,
        "noise": args.noise,
    }, inputs, [args.output, sidecar_path(args.output)],
        seeds={"sampling": args.seed})
    return EXIT_OK


def _cdf_rows(part: int, rec, points: int = 512):
    """Up to ``points`` (part, x, empirical CDF, model CDF) rows of one
    part's scaled probabilities x = D*p, the model at the part's fidelity."""
    fidelity = xeb.linear_xeb(rec).fidelity
    x = np.sort(rec.dim * rec.probs)
    n = x.size
    for i in np.unique(np.linspace(0, n - 1, min(points, n)).astype(int)):
        yield part, x[i], (i + 1) / n, float(xeb.pt_cdf(x[i], fidelity))


def cmd_analyze(args) -> int:
    rng.check_seed(args.seed)  # before any work: the bootstrap may not draw
    circ = circuit_mod.load_circuit(args.circuit)
    xeb.scored_parts(circ)  # the memory check, before the samples are read
    samples = load_samples(args.samples)
    if samples.n_qubits != circ.n_qubits:
        raise InputError(
            f"{args.samples} holds {samples.n_qubits}-bit samples but "
            f"{args.circuit} has {circ.n_qubits} qubits")
    est, records = xeb.measured_xeb(circ, samples)
    ks_entries = []
    failures = []
    for rec in records:
        stat_fhat, p_fhat = xeb.ks_test(rec, xeb.linear_xeb(rec).fidelity)
        stat_zero, p_zero = xeb.ks_test(rec, 0.0)
        ks_entries.append({
            "n_qubits": rec.n_qubits,
            "statistic_at_fhat": stat_fhat, "p_at_fhat": p_fhat,
            "statistic_at_zero": stat_zero, "p_at_zero": p_zero,
        })
        if args.min_p_fhat is not None and p_fhat < args.min_p_fhat:
            failures.append(f"{args.samples}: p(F=Fhat) {p_fhat:.3g} < {args.min_p_fhat}")
        if args.max_p_zero is not None and p_zero > args.max_p_zero:
            failures.append(f"{args.samples}: p(F=0) {p_zero:.3g} > {args.max_p_zero}")
    doc = {
        "circuit": args.circuit,
        "samples": args.samples,
        "n_qubits": samples.n_qubits,
        "n_samples": samples.n_samples,
        "variant": circ.variant,
        "fidelity": est.fidelity,
        "sigma": est.sigma,
        "ks": ks_entries[0],
        "ks_records": ks_entries,
    }
    if args.bootstrap:
        sigma_boot, _ = xeb.bootstrap_xeb(records, args.bootstrap, args.seed)
        doc["sigma_bootstrap"] = sigma_boot
        doc["bootstrap_resamples"] = args.bootstrap
    _dump_json(args.output, {"format": "rcsbench.analysis.v1", "instances": [doc],
                             "hypothesis_failures": failures})
    outputs = [args.output]
    if args.csv:
        _write_csv(args.csv, ("part", "x", "empirical_cdf", "model_cdf"),
                   (row for k, rec in enumerate(records) for row in _cdf_rows(k, rec)))
        outputs.append(args.csv)
    _write_manifest(args.output, "analyze", {
        "bootstrap": args.bootstrap, "min_p_fhat": args.min_p_fhat,
        "max_p_zero": args.max_p_zero,
    }, [args.circuit, args.samples], outputs, seeds={"bootstrap": args.seed})
    if failures:
        for line in failures:
            print(f"hypothesis failure: {line}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_calibrate(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    # --patches 4 adds a row cut to the column cut; argparse allows only 2 or 4
    row_cuts = (circ.topology.rows // 2,) if args.patches == 4 else ()
    _, patch_circuits = calibration.split_grid_patches(
        circ, row_cuts, (circ.topology.cols // 2,))
    if len(args.train) != len(patch_circuits):
        raise InputError(
            f"{len(patch_circuits)} patches need {len(patch_circuits)} "
            f"--train files, got {len(args.train)}")
    # every patch's training histogram is held until the last patch is solved
    simulator.check_memory(
        sum(calibration.histogram_bytes(c.n_qubits) for c in patch_circuits),
        f"the training histograms of {len(patch_circuits)} patches")
    histograms = [calibration.load_histogram(path, c.n_qubits)
                  for path, c in zip(args.train, patch_circuits)]
    trainable = tuple(args.trainable.split(",")) if args.trainable else calibration.PARAM_NAMES
    config = calibration.OptimizerConfig(
        max_iters=args.max_iters, grad_tol=args.grad_tol)
    result = calibration.calibrate_patches(
        circ, patch_circuits, histograms, config=config, trainable=trainable, threads=args.threads)

    doc = {
        "format": "rcsbench.calibration.v1",
        "trainable": list(trainable),
        "params": {
            f"{a}-{b}": list(p.as_tuple())
            for (a, b), p in sorted(result.params.items())
        },
        "patches": [
            {
                "couplers": [f"{a}-{b}" for a, b in p.couplers],
                "before_loss": p.before_loss,
                "after_loss": p.after_loss,
                "iterations": int(p.trace.size - 1),
                "status": p.status,
            }
            for p in result.patches
        ],
    }
    _dump_json(args.output, doc)
    outputs = [args.output]
    if args.trace_csv:
        _write_csv(args.trace_csv, ("patch", "iteration", "loss"),
                   ((i, k, value) for i, p in enumerate(result.patches)
                    for k, value in enumerate(p.trace)))
        outputs.append(args.trace_csv)
    _write_manifest(args.output, "calibrate", {
        "patches": args.patches, "trainable": list(trainable),
        "max_iters": args.max_iters, "grad_tol": args.grad_tol,
    }, [args.circuit] + list(args.train), outputs)
    return EXIT_OK


def cmd_cost_tnc(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    if not 0 <= args.open_qubits <= len(circ.qubits):
        raise InputError(f"--open-qubits {args.open_qubits} is outside "
                         f"0..{len(circ.qubits)}, the circuit's qubit count")
    if args.max_rank < 0:
        raise InputError(f"--max-rank {args.max_rank} is negative")
    if args.restarts < 1:
        raise InputError(f"--restarts {args.restarts} is below 1")
    rng.check_seed(args.seed)
    if (args.n_samples is None) != (args.fidelity is None):
        missing = "--fidelity" if args.fidelity is None else "--n-samples"
        raise InputError("the sampling cost needs both --n-samples and "
                         f"--fidelity; {missing} is missing")
    reference = (args.reference_flops, args.reference_seconds)
    if args.n_samples is not None:  # reject bad sampling flags before the search
        costmodel.estimate_sampling_cost(0.0, args.n_samples, args.fidelity, reference)
    open_qubits = circ.qubits[: args.open_qubits]
    tn = costmodel.circuit_to_tn(circ, open_qubits)
    path, restart_costs = costmodel.find_path_greedy_full(
        tn, seed=args.seed, restarts=args.restarts)
    sliced = costmodel.slice_network(tn, path, args.max_rank)
    doc = {
        "format": "rcsbench.cost.v1",
        "mode": "tnc",
        "n_tensors": len(tn.tensors),
        "open_qubits": list(open_qubits),
        "restarts": args.restarts,
        "flops_per_sample": sliced.total_flops,
        "path": {
            "total_flops": path.total_flops,
            "largest_intermediate_rank": path.largest_intermediate_rank,
        },
        "slicing": {
            "max_rank": args.max_rank,
            "sliced_indices": list(sliced.sliced_indices),
            "n_slices": sliced.n_slices,
            "per_slice_flops": sliced.per_slice_flops,
            "largest_intermediate_rank": sliced.largest_intermediate_rank,
        },
    }
    if args.n_samples is not None:
        report = costmodel.estimate_sampling_cost(
            sliced.total_flops, args.n_samples, args.fidelity, reference)
        doc["sampling"] = {
            "n_samples": args.n_samples,
            "fidelity": args.fidelity,
            "total_flops": report.total_flops,
            "runtime_seconds": report.runtime_seconds,
            "runtime_years": report.runtime_years,
            "reference": list(report.reference),
        }
    _dump_json(args.output, doc)
    outputs = [args.output]
    if args.restarts_csv:
        _write_csv(args.restarts_csv, ("restart", "total_flops"), enumerate(restart_costs))
        outputs.append(args.restarts_csv)
    _write_manifest(args.output, "cost tnc", {
        "open_qubits": args.open_qubits, "max_rank": args.max_rank,
        "restarts": args.restarts, "n_samples": args.n_samples,
        "fidelity": args.fidelity, "reference_flops": args.reference_flops,
        "reference_seconds": args.reference_seconds,
    }, [args.circuit], outputs, seeds={"path_search": args.seed})
    return EXIT_OK


def _sfa_runtime(flops_per_sample: float, args) -> costmodel.CostReport:
    """`costmodel.estimate_sampling_cost` on ``--cores`` cores of
    ``--core-flops`` each, a reference machine that does their product of
    flops in one second."""
    if not (args.cores > 0 and args.core_flops > 0):
        raise InputError("--cores and --core-flops must be positive")
    return costmodel.estimate_sampling_cost(
        flops_per_sample, args.n_samples, args.fidelity, (args.cores * args.core_flops, 1.0))


def cmd_cost_sfa(args) -> int:
    """Split-simulation cut census and speedup.  ``--fidelity`` is both the
    truncation budget of `costmodel.sfa_speedup` (retained weight at least
    1 - budget) and the fidelity multiplier of the ``--n-samples`` runtime."""
    if args.circuit:
        circ = circuit_mod.load_circuit(args.circuit)
        if args.n_samples is not None:  # reject bad runtime flags before the cut
            _sfa_runtime(0.0, args)
        parts = _one_cut(circ, args.split, args.at)
        cut = costmodel.sfa_cut(circ, parts)
        inputs = [args.circuit]
    elif args.g is not None:
        if args.delta_theta is None or args.g < 0:
            raise InputError("synthetic mode needs --g >= 0 and --delta-theta")
        if args.n_samples is not None:
            raise InputError("the runtime extrapolation (--n-samples) needs "
                             "--circuit; synthetic mode has no halves to run")
        params = FsimParams(theta=math.pi / 2 - args.delta_theta, phi=args.phi)
        cut = costmodel.cut_analysis(
            [params] * args.g, [abs(args.delta_theta)] * args.g)
        inputs = []
    else:
        raise InputError("need --circuit or synthetic --g/--delta-theta flags")

    speedup = costmodel.sfa_speedup(cut, args.fidelity)
    doc = {
        "format": "rcsbench.cost.v1",
        "mode": "sfa",
        "g": cut.g,
        "fidelity_budget": args.fidelity,
        "delta_theta_mean": (
            float(np.mean(cut.delta_theta)) if cut.delta_theta else 0.0),
        "path_count": cut.path_count,
        "speedup": speedup,
        "spectra_mean": (
            [float(v) for v in np.mean(np.array(cut.spectra), axis=0)]
            if cut.spectra else []),
    }
    if args.n_samples is not None:
        report = _sfa_runtime(costmodel.sfa_flops(cut, parts, speedup), args)
        doc["runtime_extrapolation"] = {
            "n_samples": args.n_samples,
            "cores": args.cores,
            "flops_per_core": args.core_flops,
            "total_flops": report.total_flops,
            "runtime_seconds": report.runtime_seconds,
            "runtime_years": report.runtime_years,
        }
    _dump_json(args.output, doc)
    _write_manifest(args.output, "cost sfa", {
        "g": args.g, "delta_theta": args.delta_theta, "phi": args.phi,
        "fidelity": args.fidelity, "split": args.split, "at": args.at,
        "n_samples": args.n_samples, "cores": args.cores,
        "core_flops": args.core_flops,
    }, inputs, [args.output])
    return EXIT_OK


def cmd_report(args) -> int:
    paths = sorted(Path(args.dir).glob("*.analysis.json"))
    if not paths:
        raise InputError(f"no *.analysis.json files in {args.dir}")
    estimates = []
    rows = []
    for path in paths:
        with open(path) as fh:
            doc = json_object(json.load(fh), f"analysis file {path}")
        with reading(f"analysis file {path}"):
            for inst in doc.get("instances", []):
                estimates.append(xeb.XebEstimate(
                    inst["fidelity"], inst["sigma"], inst["n_samples"]))
                rows.append((str(path), inst["fidelity"], inst["sigma"],
                             inst["ks"]["p_at_fhat"], inst["ks"]["p_at_zero"]))
    combined = xeb.combine_inverse_variance(estimates)
    doc = {
        "format": "rcsbench.report.v1",
        "n_instances": len(estimates),
        "fidelity": combined.fidelity,
        "sigma": combined.sigma,
        "instances": [
            {"analysis": r[0], "fidelity": r[1], "sigma": r[2],
             "p_at_fhat": r[3], "p_at_zero": r[4]}
            for r in rows
        ],
    }
    _dump_json(args.output, doc)
    outputs = [args.output]
    if args.csv:
        _write_csv(args.csv, ("analysis", "fidelity", "sigma", "p_at_fhat", "p_at_zero"), rows)
        outputs.append(args.csv)
    _write_manifest(args.output, "report", {"dir": args.dir},
                    [str(p) for p in paths], outputs)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcsbench",
        description="Random-circuit-sampling workbench: generation, "
                    "simulation, XEB analysis, calibration, cost models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random circuit")
    p.add_argument("--topology", required=True,
                   help="topology JSON path, 'demo60', or 'grid:RxC'")
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--kind", choices=("standard", "deep22"), default="standard")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--params", help="gate-parameter JSON file")
    p.add_argument("--allow-repeats", action="store_true",
                   help="allow a qubit to repeat its single-qubit gate")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("variants", help="derive patch/elided circuits")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", choices=("patch", "elided"), required=True)
    p.add_argument("--split", choices=("col", "row"), default="col")
    p.add_argument("--at", type=int, help="split boundary (default midline)")
    p.add_argument("--keep-last", type=int,
                   help="elided: cycles keeping cross gates (default 6 for "
                        "deep circuits)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("sample", help="sample bitstrings from a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--model", choices=("ideal", "speckle", "trajectory"),
                   default="ideal")
    p.add_argument("--fidelity", type=float, help="speckle mixture fidelity")
    p.add_argument("--noise", help="noise JSON file (e1, e2, e_r0, e_r1)")
    p.add_argument("--readout", action="store_true",
                   help="apply readout errors after sampling")
    p.add_argument("-n", "--n-samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="only --model trajectory uses these worker threads; "
                        "the ideal and speckle models draw on one")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="XEB fidelity report for one sample file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--bootstrap", type=int, default=2500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-p-fhat", type=float,
                   help="fail (exit 3) if the KS p-value at F=Fhat is below")
    p.add_argument("--max-p-zero", type=float,
                   help="fail (exit 3) if the KS p-value at F=0 is above")
    p.add_argument("--csv", help="write (part, x, empirical CDF, model CDF) rows "
                                 "for every scored part")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("calibrate", help="patch-wise gate-parameter fit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--train", action="append", default=[],
                   help="training sample file, one per patch")
    p.add_argument("--patches", type=int, choices=(2, 4), default=4)
    p.add_argument("--trainable", help="comma list, e.g. theta,phi")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--grad-tol", type=float, default=1e-5)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trace-csv", help="write per-iteration losses")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("cost", help="classical-cost estimation")
    cost_sub = p.add_subparsers(dest="cost_mode", required=True)

    q = cost_sub.add_parser("tnc", help="tensor-network contraction cost")
    q.add_argument("--circuit", required=True)
    q.add_argument("--open-qubits", type=int, default=0,
                   help="leave this many qubits open (lowest indices); open "
                        "qubits may be sliced, computing the amplitude batch "
                        "in parts")
    q.add_argument("--max-rank", type=int, default=30,
                   help="largest allowed intermediate tensor rank (>= 0); a "
                        "rank-r intermediate holds 2^r amplitudes; a cap below "
                        "--open-qubits is met by slicing open qubits")
    q.add_argument("--restarts", type=int, default=64)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--n-samples", type=float)
    q.add_argument("--fidelity", type=float)
    q.add_argument("--reference-flops", type=float,
                   default=costmodel.SUMMIT_REFERENCE[0])
    q.add_argument("--reference-seconds", type=float,
                   default=costmodel.SUMMIT_REFERENCE[1])
    q.add_argument("--restarts-csv", help="write per-restart path costs")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_cost_tnc)

    q = cost_sub.add_parser("sfa", help="split-simulation cut analysis")
    q.add_argument("--circuit")
    q.add_argument("--split", choices=("col", "row"), default="col")
    q.add_argument("--at", type=int)
    q.add_argument("--g", type=int, help="synthetic mode: cross-gate count")
    q.add_argument("--delta-theta", type=float,
                   help="synthetic mode: uniform |theta - pi/2|")
    q.add_argument("--phi", type=float, default=math.pi / 18)
    q.add_argument("--fidelity", type=float, required=True,
                   help="truncation fidelity budget (retained Schmidt weight "
                        ">= 1 - budget); with --n-samples also the fidelity "
                        "that multiplies the sampling cost")
    q.add_argument("--n-samples", type=float)
    q.add_argument("--cores", type=float, default=costmodel.FUGAKU_CORES)
    q.add_argument("--core-flops", type=float, default=1e9,
                   help="per-core throughput, FLOPs per second")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_cost_sfa)

    p = sub.add_parser("report", help="combine analysis JSONs")
    p.add_argument("--dir", required=True)
    p.add_argument("--csv")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"resource limit: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
