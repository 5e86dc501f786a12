"""The machine record printed with every run, and the roofline
microbenchmarks of the traced run.

The rooflines time the public gate kernels ``simulator.apply_single`` and
``simulator.apply_two`` on the 2^20-amplitude state that ``xeb20`` simulates,
against two plain copies: one of the same size, which fits in L3, and one
whose array is at least four times the L3, which streams from DRAM.
"""
from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from rcsbench import gates, simulator

MIB = 1 << 20
# Per-core L2 and shared L3, used where sysfs reports none.
DEFAULT_CACHE = {"L2": 2 * MIB, "L3": 300 * MIB}
AMP_BYTES = np.dtype(np.complex128).itemsize


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict[str, int]:
    """Per-level data/unified cache sizes of cpu0, in bytes."""
    sizes = dict(DEFAULT_CACHE)
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def record(seed: int) -> dict:
    """nproc, CPU, caches, RAM, interpreter and library versions, BLAS, seed."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": cache_sizes(),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "seed": seed,
    }


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def roofline(n_qubits: int = 20, repeats: int = 3,
             dram_bytes: int | None = None) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Amplitudes per second of the gate kernels and of the two copies, plus
    lines that state each array's size against the caches."""
    caches = cache_sizes()
    state = simulator.zero_state(n_qubits)
    dim = state.dim
    u1 = gates.sq_matrix(gates.SingleQubitGate.SQRT_X)
    u2 = gates.fsim_matrix(gates.DEFAULT_FSIM)

    def singles():
        for q in range(n_qubits):
            simulator.apply_single(state, q, u1)

    def pairs():
        for q in range(n_qubits - 1):
            simulator.apply_two(state, (q, q + 1), u2)

    single_rate = n_qubits * dim / _median_seconds(singles, repeats)
    two_rate = (n_qubits - 1) * dim / _median_seconds(pairs, repeats)

    src = np.ones(dim, dtype=np.complex128)
    dst = np.empty_like(src)
    copy_rate = dim / _median_seconds(lambda: np.copyto(dst, src), 10 * repeats)
    del src, dst

    # One array at least 4x the L3; its first half is copied onto its second.
    dram_bytes = 4 * caches["L3"] if dram_bytes is None else dram_bytes
    big = np.ones(dram_bytes // AMP_BYTES, dtype=np.complex128)
    half = big.size // 2
    dram_rate = half / _median_seconds(
        lambda: np.copyto(big[half:2 * half], big[:half]), repeats)
    del big

    state_bytes = dim * AMP_BYTES
    notes = [
        f"state 2^{n_qubits} amps = {state_bytes / MIB:.1f} MiB = "
        f"{state_bytes / caches['L2']:.2f}x L2 ({caches['L2'] / MIB:.0f} MiB), "
        f"{state_bytes / caches['L3']:.3f}x L3 ({caches['L3'] / MIB:.0f} MiB)",
        f"cache copy: 2 x {state_bytes / MIB:.1f} MiB, fits in L3",
        f"dram copy: one {dram_bytes / MIB:.0f} MiB array "
        f"({dram_bytes / caches['L3']:.2f}x L3), half copied onto half",
        "simulator.run_amp_ops_per_s is computed: sum over run calls of "
        "gates * 2^n, divided by their summed time",
    ]
    return {
        "simulator.apply_single_amps_per_s": (single_rate, "amps/s"),
        "simulator.apply_two_amps_per_s": (two_rate, "amps/s"),
        "simulator.copy_amps_per_s": (copy_rate, "amps/s"),
        "simulator.copy_dram_amps_per_s": (dram_rate, "amps/s"),
    }, notes
