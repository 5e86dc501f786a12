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

from . import calibration, circuit as circuit_mod, costmodel, simulator, xeb
from .errors import InputError, ResourceLimitError
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


def _load_params_file(path: str, topology) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    default = doc.get("default")
    base = FsimParams.from_tuple(default) if default else DEFAULT_FSIM
    params = {c.key: base for c in topology.enabled_couplers}
    for key, values in doc.get("couplers", {}).items():
        params[_coupler_key(key)] = FsimParams.from_tuple(values)
    return params


def _load_noise(path: str | None) -> simulator.NoiseModel:
    if path is None:
        return simulator.NoiseModel()
    with open(path) as fh:
        doc = json.load(fh)
    return simulator.NoiseModel(
        e1=doc.get("e1", 0.0), e2=doc.get("e2", 0.0),
        e_r0=doc.get("e_r0", 0.0), e_r1=doc.get("e_r1", 0.0))


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


def cmd_variants(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    parts = circuit_mod.grid_bipartition(circ, args.split, args.at)
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
        state = simulator.run(circ, limit=args.limit)
        samples = simulator.sample_ideal(state, args.n_samples, args.seed)
    elif args.model == "speckle":
        if args.fidelity is None:
            raise InputError("--fidelity is required for the speckle model")
        state = simulator.run(circ, limit=args.limit)
        samples = simulator.sample_noisy_speckle(
            state, args.fidelity, args.n_samples, args.seed)
    elif args.model == "trajectory":
        samples = simulator.sample_trajectory(
            circ, noise, args.n_samples, args.seed,
            limit=args.limit, threads=args.threads)
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


def _write_cdf_csv(path: str, rec, fidelity: float, points: int = 512) -> None:
    x = np.sort(rec.dim * rec.probs)
    n = x.size
    take = np.unique(np.linspace(0, n - 1, min(points, n)).astype(int))
    with open(path, "w") as fh:
        fh.write("x,empirical_cdf,model_cdf\n")
        for i in take:
            fh.write(f"{x[i]:.17g},{(i + 1) / n:.17g},"
                     f"{float(xeb.pt_cdf(x[i], fidelity)):.17g}\n")


def cmd_analyze(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
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
    if args.bootstrap and len(records) == 1:
        sigma_boot, _ = xeb.bootstrap_xeb(records[0], args.bootstrap, args.seed)
        doc["sigma_bootstrap"] = sigma_boot
        doc["bootstrap_resamples"] = args.bootstrap
    _dump_json(args.output, {"format": "rcsbench.analysis.v1", "instances": [doc],
                             "hypothesis_failures": failures})
    outputs = [args.output]
    if args.csv:
        _write_cdf_csv(args.csv, records[0], xeb.linear_xeb(records[0]).fidelity)
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
    trains = [load_samples(p) for p in args.train]
    trainable = tuple(args.trainable.split(",")) if args.trainable else calibration.PARAM_NAMES
    config = calibration.OptimizerConfig(
        max_iters=args.max_iters, grad_tol=args.grad_tol)
    result = calibration.calibrate_patches(
        circ, patch_circuits, trains, config=config, trainable=trainable, threads=args.threads)

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
        with open(args.trace_csv, "w") as fh:
            fh.write("patch,iteration,loss\n")
            for i, p in enumerate(result.patches):
                for k, value in enumerate(p.trace):
                    fh.write(f"{i},{k},{value:.17g}\n")
        outputs.append(args.trace_csv)
    _write_manifest(args.output, "calibrate", {
        "patches": args.patches, "trainable": list(trainable),
        "max_iters": args.max_iters, "grad_tol": args.grad_tol,
    }, [args.circuit] + list(args.train), outputs)
    return EXIT_OK


def cmd_cost_tnc(args) -> int:
    circ = circuit_mod.load_circuit(args.circuit)
    if args.open_qubits >= 0:
        open_qubits = circ.qubits[: args.open_qubits]
    else:
        raise InputError("--open-qubits must be nonnegative")
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
    if args.n_samples and args.fidelity is not None:
        report = costmodel.estimate_sampling_cost(
            sliced.total_flops, args.n_samples, args.fidelity,
            reference=(args.reference_flops, args.reference_seconds))
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
        with open(args.restarts_csv, "w") as fh:
            fh.write("restart,total_flops\n")
            for i, cost in enumerate(restart_costs):
                fh.write(f"{i},{cost:.17g}\n")
        outputs.append(args.restarts_csv)
    _write_manifest(args.output, "cost tnc", {
        "open_qubits": args.open_qubits, "max_rank": args.max_rank,
        "restarts": args.restarts, "n_samples": args.n_samples,
        "fidelity": args.fidelity,
    }, [args.circuit], outputs, seeds={"path_search": args.seed})
    return EXIT_OK


def cmd_cost_sfa(args) -> int:
    if args.circuit:
        circ = circuit_mod.load_circuit(args.circuit)
        parts = circuit_mod.grid_bipartition(circ, args.split, args.at)
        cut = costmodel.sfa_cut(circ, parts)
        inputs = [args.circuit]
        halves = (len(parts[0]), len(parts[1]))
    elif args.g is not None:
        if args.delta_theta is None or args.g < 0:
            raise InputError("synthetic mode needs --g >= 0 and --delta-theta")
        params = FsimParams(theta=math.pi / 2 - args.delta_theta, phi=args.phi)
        cut = costmodel.cut_analysis(
            (), [params] * args.g, [abs(args.delta_theta)] * args.g)
        inputs = []
        halves = None
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
    if halves and args.n_samples:
        # modeled runtime: effective paths times both halves' statevector work
        n_a, n_b = halves
        per_path = 4.0 * (2.0 ** n_a + 2.0 ** n_b)
        effective_paths = 4.0 ** cut.g / speedup
        total = effective_paths * per_path * args.n_samples * args.fidelity
        seconds = total / (args.cores * args.core_flops)
        doc["runtime_extrapolation"] = {
            "n_samples": args.n_samples,
            "cores": args.cores,
            "flops_per_core": args.core_flops,
            "total_flops": total,
            "runtime_seconds": seconds,
            "runtime_years": seconds / costmodel.YEAR_SECONDS,
        }
    _dump_json(args.output, doc)
    _write_manifest(args.output, "cost sfa", {
        "g": args.g, "delta_theta": args.delta_theta, "phi": args.phi,
        "fidelity": args.fidelity, "split": args.split, "at": args.at,
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
            doc = json.load(fh)
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
        with open(args.csv, "w") as fh:
            fh.write("analysis,fidelity,sigma,p_at_fhat,p_at_zero\n")
            for r in rows:
                fh.write(f"{r[0]},{r[1]:.17g},{r[2]:.17g},{r[3]:.17g},{r[4]:.17g}\n")
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
    p.add_argument("--limit", type=int, default=simulator.DEFAULT_QUBIT_LIMIT)
    p.add_argument("--threads", type=int, default=1)
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
    p.add_argument("--csv", help="write (x, empirical CDF, model CDF) rows")
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
                        "cap below --open-qubits is met by slicing open qubits")
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
                   help="truncation fidelity budget")
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
