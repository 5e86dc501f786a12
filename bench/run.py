"""rcsbench benchmark: one workload per process, driven through the real
user path ``rcsbench.cli.main(argv)`` in-process.

    python3 bench/run.py --workload xeb20 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

The program is imported from ``src/`` of the checkout that holds this file.
A run makes its inputs from ``--seed`` (set-up, repeated in fresh
interpreters; the median counts), then runs the workload's CLI stages one
"pass" at a time: a warm-up pass, which is checked but not timed, and then
timed passes until ``--seconds`` would be exceeded, at least two of them.
Every pass is checked, and every pass's manifests must equal the warm-up's
byte for byte.  The warm-up keeps the first pass of a process, which can run
faster or slower than the later ones, out of the figures, so they do not
depend on how many passes fit in ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median timed
pass), ``setup_s`` (median over ``SETUP_REPEATS`` fresh interpreters of the
time from the first statement of this script, imports included, until the
inputs are written) and ``peak_rss_mb`` (the process's ``ru_maxrss``; hence
one workload per process).  ``--trace 1`` alternates untraced and traced
timed passes and reports per-layer figures per traced pass,
``trace.overhead_frac`` from the two kinds of pass, and the roofline
microbenchmarks; the spans go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts every stage run and every check made; ``failed`` those that failed.
The process uses at most two threads: the CLI's ``--threads 2`` pools, and
BLAS pinned to one thread.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("xeb20", "traj16", "calib9", "cost60")
SETUP_REPEATS = 3
MIN_TIMED_PASSES = 2

_loaded = False


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Import rcsbench from this checkout's ``src/``, and the benchmark's own
    modules."""
    global _loaded
    if not _loaded:
        if not (SRC / "rcsbench" / "__init__.py").is_file():
            raise ProgramMissing(f"no rcsbench package under {SRC}")
        sys.path.insert(0, str(SRC))
        import rcsbench.cli  # noqa: F401
        if SRC not in Path(rcsbench.cli.__file__).resolve().parents:
            raise ProgramMissing(f"rcsbench imported from {rcsbench.cli.__file__}")
        import machine  # noqa: F401
        import tracing  # noqa: F401
        import workloads  # noqa: F401
        _loaded = True


@dataclass
class PassResult:
    wall: float
    traced: bool
    stage_seconds: dict
    checks: list
    info: dict


def run_pass(workload, inputs: Path, out: Path, seed: int, tracer,
             first_manifests: dict | None) -> tuple[PassResult, dict]:
    import rcsbench.cli
    import tracing
    from workloads import Check

    stage_seconds, checks = {}, []
    with tracing.installed(tracer) if tracer else nullcontext():
        for stage in workload.stages(inputs, out, seed):
            start = time.perf_counter()
            try:
                code = rcsbench.cli.main(list(stage.argv))
            except Exception:  # a crash counts as a failed stage; keep measuring
                traceback.print_exc()
                code = None
            stage_seconds[stage.name] = time.perf_counter() - start
            checks.append(Check(f"stage_{stage.name}", code == 0, f"exit {code}"))
    try:
        checks += workload.check(inputs, out, seed)
        info = workload.info(out, stage_seconds)
    except Exception as exc:  # unreadable or missing outputs fail the pass
        checks.append(Check("outputs", False, repr(exc)))
        info = {}
    manifests = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*.manifest.json"))}
    if first_manifests is not None:
        checks.append(Check("digests_identical", manifests == first_manifests,
                            f"{len(manifests)} manifests against the warm-up pass"))
    return PassResult(sum(stage_seconds.values()), tracer is not None,
                      stage_seconds, checks, info), manifests


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _emit(result: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


def setup_seconds(args, inputs: Path) -> float:
    """Write the inputs into ``inputs`` from a fresh interpreter, and return
    the seconds from that interpreter's first statement of this script
    (imports included) until they were written."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--setup-into", str(inputs)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up exited {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_setup(args) -> int:
    load_program()
    from workloads import WORKLOADS

    inputs = Path(args.setup_into)
    inputs.mkdir(parents=True)
    WORKLOADS[args.workload](tiny=args.tiny).setup(inputs, args.seed)
    print(repr(time.perf_counter() - _T0))
    return 0


def run_workload(args) -> int:
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import machine
    import tracing
    from workloads import INFO_UNITS, WORKLOADS

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    lines = [f"rcsbench benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} tiny={int(args.tiny)}",
             "env: " + json.dumps(machine.record(args.seed), sort_keys=True),
             f"workload {workload.name}: {workload.why}"]
    try:
        setup_times = []
        for k in range(SETUP_REPEATS if not args.tiny else 1):
            setup_times.append(setup_seconds(args, work / f"inputs{k}"))
        inputs = work / "inputs0"
        out = work / "out"
        out.mkdir()

        tracer = tracing.Tracer() if args.trace else None
        warmup, first_manifests = run_pass(workload, inputs, out, args.seed, None, None)
        passes: list[PassResult] = []  # the timed ones
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            result, _ = run_pass(workload, inputs, out, args.seed,
                                 tracer if traced else None, first_manifests)
            passes.append(result)
            elapsed = time.perf_counter() - begin
            typical = statistics.median(p.wall for p in passes)
            if len(passes) >= MIN_TIMED_PASSES and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [c for p in [warmup] + passes for c in p.checks]
    failed = [c for c in checks if not c.ok]
    for i, p in enumerate([warmup] + passes):
        kind = "warm-up" if i == 0 else "traced" if p.traced else "untraced"
        stages = " ".join(f"{k}={v:.3f}" for k, v in p.stage_seconds.items())
        lines.append(f"pass {i}: {p.wall:.4f} s {kind} ({stages})")
    last = passes[-1].checks
    for c in last + [c for c in failed if c not in last]:
        lines.append(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")

    untraced = [p.wall for p in passes if not p.traced]
    info = {}
    for name in INFO_UNITS:
        values = [p.info[name] for p in passes if name in p.info]
        if values:
            info[name] = statistics.median(values)
    if args.trace:
        traced_walls = [p.wall for p in passes if p.traced]
        metrics = tracing.layer_metrics(tracer.spans, len(traced_walls))
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced) - 1.0, "frac")
        for name, unit in INFO_UNITS.items():
            metrics[name] = (info.get(name, 0.0), unit)
        rates, notes = machine.roofline(*((10, 3, 16 << 20) if args.tiny else ()))
        metrics.update(rates)
        lines += [f"roofline: {note}" for note in notes]
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(span_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "thread": s.thread, "attrs": s.attrs}) + "\n")
        lines.append(f"spans: {len(tracer.spans)} written to {span_path.relative_to(ROOT)}")
    else:
        q1, q3 = _quartiles(untraced)
        metrics = {
            "wall_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB"),
        }
        lines.append(f"wall_s over {len(untraced)} timed passes: median "
                     f"{metrics['wall_s'][0]:.4f} q1 {q1:.4f} q3 {q3:.4f} s")
        lines.append("setup_s over fresh interpreters: "
                     + " ".join(f"{t:.4f}" for t in setup_times) + " s")
        for name, value in info.items():
            lines.append(f"{name} {value:.6g} {INFO_UNITS[name]}")
    lines.append(f"ops_failed_frac {len(failed) / len(checks):.6g} "
                 f"({len(failed)} of {len(checks)} stages and checks)")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit}")
    _emit({"correct": not failed, "attempted": len(checks), "failed": len(failed),
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
          lines)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is per workload."""
    if not (SRC / "rcsbench" / "__init__.py").is_file():
        print(f"error: no rcsbench package under {SRC}", file=sys.stderr)
        return 2
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    _emit(summary, ["summary:"] + [
        f"  {k} {v['value']:.6g} {v['unit']}" for k, v in summary["metrics"].items()])
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for the smoke test; not a measurement")
    parser.add_argument("--setup-into", metavar="DIR",
                        help="only write the workload's inputs into DIR and print "
                             "the seconds that took, imports included")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_into:
        return run_setup(args)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
