"""Exact state-vector simulation with ideal and noisy bitstring sampling.

Conventions: qubit 0 is the most significant bit of the state index, and the
sampled word equals that index.  For a two-qubit gate the first qubit argument
is the high bit of the 4x4 matrix basis.  Amplitudes are complex128 by
default (complex64 on request); the qubit limit (default 30) guards against
accidental huge allocations.

A circuit is compiled once (`compile_circuit`) into a program of fused ops.
Within a cycle every single-qubit gate comes before the two-qubit layer, so
the cycle is a product of blocks: ``fsim @ kron(u_i, u_j)`` for a two-qubit
gate on (i, j), with the single-qubit gates of its qubits absorbed, and
``u_i`` alone for a qubit with no partner.  The blocks are packed in qubit
order into groups of at most ``_GROUP_QUBITS`` qubits, and each group is one
dense 2^k x 2^k op.  Two-qubit gates of one cycle that share a qubit are kept
in their order and never fused into the same op.

The state is held as flat amplitudes in a rotating layout (Haener & Steiger,
arXiv:1704.01127): the layout lists the qubit of each bit, most significant
first.  An op whose qubits lead the layout is one GEMM,
``psi(K, R)^T @ M^T -> (R, K)``, which reads its qubits at the front and
writes them to the back.  The ops of a cycle run in runs of consecutive ops
on disjoint qubits; the first op of a run transposes the state once so that
the run's qubits lead in the run's order (``_Op.perm``), and every later op
of the run finds its qubits in front.  A run over every qubit ends in the
layout it started from, so a cycle costs at most one transpose, plus one for
each further run that a layer of two-qubit gates sharing a qubit needs.  The
layouts depend only on the circuit and are fixed at compile time; the
program starts from |0...0>, which reads the same in every layout, and one
transpose at the end restores the canonical order.  The executor alternates
between two flat work buffers and never writes into the state it is given:
`execute` allocates them once per run, and each trajectory worker thread
once.  `run`, the trajectory replay and the calibration loss (both on a
compiled program with gate sites swapped in, `Program.with_sites`),
`apply_single`, `apply_two` (one-op programs) and the forward sweep of
`adjoint_gradient` all use the same layouts and GEMMs; its backward sweep
applies the adjoints of the same ops.

Two noise models ship: a speckle mixture (each sample comes from the ideal
distribution with probability F, uniform otherwise) and Pauli-trajectory
injection (after each gate site, that is each single-qubit gate and each
two-qubit gate, an error with the per-gate probability inserts a uniformly
random non-identity Pauli on the touched qubits; one bitstring is drawn per
trajectory).  Trajectories run on ``threads`` workers, the calling thread
among them (`fan_out`, which calibration's patches also use): each worker
takes the next trajectory index from one shared iterator, and each
trajectory draws from its own substream, so the words do not depend on the
thread count.
"""
from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import rng
from .circuit import Circuit
from .errors import InputError, ResourceLimitError
from .gates import GATE_KINDS, fsim_matrix, sq_matrix
from .samples import SampleSet, pack_bits

DEFAULT_QUBIT_LIMIT = 30

# Qubits of the largest fused op.  An op costs 2^k complex multiply-adds per
# amplitude, and the rotating layout moves no data between the ops of a
# cycle, so fewer, larger ops only pay while the GEMM is not flop-bound.  Of
# 3 to 6, with single-threaded OpenBLAS on a 2-core Xeon, 4 ran a 16-qubit,
# 8-cycle circuit and 200 noisy trajectories of it fastest and tied 3 on a
# 20-qubit, 8-cycle circuit; 5 and 6 were slower on all three.
_GROUP_QUBITS = 4

# Checkpoint budget for trajectory replay (bytes of saved cycle states).
_CHECKPOINT_BUDGET = 512 << 20

_PAULIS = (
    np.eye(2, dtype=complex),                         # I
    np.array([[0, 1], [1, 0]], dtype=complex),        # X
    np.array([[0, -1j], [1j, 0]], dtype=complex),     # Y
    np.array([[1, 0], [0, -1]], dtype=complex),       # Z
)

_SQ_MATRICES = {g: sq_matrix(g) for g in GATE_KINDS}  # read-only


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate Pauli error rates and per-bit readout error rates."""

    e1: float = 0.0
    e2: float = 0.0
    e_r0: float = 0.0  # readout error given true 0
    e_r1: float = 0.0  # readout error given true 1

    def __post_init__(self) -> None:
        for name, v in (("e1", self.e1), ("e2", self.e2),
                        ("e_r0", self.e_r0), ("e_r1", self.e_r1)):
            if not 0.0 <= v <= 1.0:
                raise InputError(f"noise rate {name}={v} outside [0, 1]")


def zero_state(n_qubits: int, dtype=np.complex128) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=dtype)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


@dataclass(frozen=True)
class GateSite:
    """One gate of the circuit; a trajectory error can follow each site."""

    cycle: int
    qubits: tuple[int, ...]  # positions in circuit.qubits; first = high bit
    matrix: np.ndarray       # 2x2 or 4x4, complex128


@dataclass(frozen=True)
class _Block:
    """The gates of one cycle on one qubit or one gate pair, as one matrix:
    the absorbed single-qubit sites, then the two-qubit site if any."""

    qubits: tuple[int, ...]
    singles: tuple[int | None, ...]  # absorbed single-qubit site per qubit
    two: int | None


@dataclass(frozen=True)
class _Op:
    perm: tuple[int, ...] | None  # transpose that brings the op's qubits to
                                  # the front, or None if they lead already
    matrix: np.ndarray            # 2^k x 2^k
    blocks: tuple[_Block, ...]    # disjoint; the matrix is their kron in order
    sites: frozenset[int]         # gate sites fused into this op


@dataclass(frozen=True)
class Program:
    """A circuit compiled into fused ops, one tuple of ops per cycle.

    ``sites`` lists every gate site in circuit order: per cycle the
    single-qubit gates by position, then the two-qubit gates.  ``layout``
    is the qubit of each bit of the amplitude index, most significant first,
    after the last op.
    """

    dtype: np.dtype
    sites: tuple[GateSite, ...]
    cycles: tuple[tuple[_Op, ...], ...]
    layout: tuple[int, ...]

    def with_sites(self, replaced: dict[int, np.ndarray]) -> Program:
        """The program with the given gate sites' matrices replaced; only the
        ops that hold a replaced site are re-fused."""
        sites = list(self.sites)
        for s, matrix in replaced.items():
            sites[s] = replace(sites[s], matrix=matrix)
        cycles = tuple(
            tuple(replace(op, matrix=_fuse(op.blocks, sites, {}, self.dtype))
                  if op.sites.intersection(replaced) else op
                  for op in ops)
            for ops in self.cycles)
        return replace(self, sites=tuple(sites), cycles=cycles)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices, without its per-call overhead."""
    m, n = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * n, m * n)


def _block_matrix(block: _Block, sites, replaced: dict) -> np.ndarray:
    mats = [_PAULIS[0] if s is None else replaced.get(s, sites[s].matrix)
            for s in block.singles]
    u = reduce(_kron, mats)
    if block.two is not None:
        u = replaced.get(block.two, sites[block.two].matrix) @ u
    return u


def _fuse(blocks, sites, replaced: dict, dtype) -> np.ndarray:
    """Kronecker product of disjoint blocks, as an op tensor."""
    mats = [_block_matrix(block, sites, replaced) for block in blocks]
    return reduce(_kron, mats).astype(dtype, copy=False)


def _op(perm: tuple[int, ...] | None, matrix: np.ndarray,
        blocks: tuple[_Block, ...] = ()) -> _Op:
    sites = frozenset(s for b in blocks for s in (*b.singles, b.two) if s is not None)
    return _Op(perm, matrix, blocks, sites)


def _work_buffers(n: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    return np.empty(1 << n, dtype), np.empty(1 << n, dtype)


def _execute(ops, psi: np.ndarray, work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply ops to flat amplitudes, alternating between the two ``work``
    buffers; returns the buffer that holds the result.  Writes into ``psi``
    only if it is one of the work buffers."""
    for op in ops:
        if op.perm is not None:
            out = work[1] if psi is work[0] else work[0]
            shape = (2,) * len(op.perm)
            np.copyto(out.reshape(shape), psi.reshape(shape).transpose(op.perm))
            psi = out
        out = work[1] if psi is work[0] else work[0]
        k = len(op.matrix)
        np.matmul(psi.reshape(k, -1).T, op.matrix.T, out=out.reshape(-1, k))
        psi = out
    return psi


def _canonical(psi: np.ndarray, layout: tuple[int, ...]) -> np.ndarray:
    """Amplitudes in the canonical qubit order from amplitudes in ``layout``."""
    return psi.reshape((2,) * len(layout)).transpose(np.argsort(layout)).reshape(-1)


def _cycle_blocks(cycle, c: int, pos: dict, sites: list) -> list[_Block]:
    """Append the cycle's gate sites and return its blocks in execution
    order: by dependency depth, then by lowest qubit."""
    first = len(sites)
    sites.extend(GateSite(c, (i,), _SQ_MATRICES[g]) for i, g in enumerate(cycle.single))
    free = {i: first + i for i in range(len(cycle.single))}
    depth: dict[int, int] = {}
    ranked = []
    for a, b, p in cycle.two_qubit:
        i, j = pos[a], pos[b]
        two = len(sites)
        sites.append(GateSite(c, (i, j), fsim_matrix(p)))
        si, sj = free.pop(i, None), free.pop(j, None)
        d = max(depth.get(i, 0), depth.get(j, 0))
        depth[i] = depth[j] = d + 1
        ranked.append((d, min(i, j), _Block((i, j), (si, sj), two)))
    for i, s in free.items():
        ranked.append((0, i, _Block((i,), (s,), None)))
    ranked.sort(key=lambda r: r[:2])
    return [blk for _, _, blk in ranked]


def compile_circuit(circuit: Circuit, dtype=np.complex128) -> Program:
    """Compile the circuit into fused ops of at most ``_GROUP_QUBITS`` qubits."""
    n = circuit.n_qubits
    dtype = np.dtype(dtype)
    pos = {q: i for i, q in enumerate(circuit.qubits)}
    sites: list[GateSite] = []
    layout = None  # |0...0> reads the same in every layout
    cycles = []
    for c, cyc in enumerate(circuit.cycles):
        groups: list[list[_Block]] = []
        used: set[int] = set()
        for blk in _cycle_blocks(cyc, c, pos, sites):
            if (not groups or used.intersection(blk.qubits)
                    or len(used) + len(blk.qubits) > _GROUP_QUBITS):
                groups.append([])
                used = set()
            groups[-1].append(blk)
            used.update(blk.qubits)
        ops = []
        for run in _disjoint_runs(groups):
            # one transpose puts the run's qubits in front, in its order; each
            # op then rotates its own qubits from the front to the back
            order = tuple(q for blocks in run for b in blocks for q in b.qubits)
            start = order + tuple(q for q in (layout or range(n)) if q not in order)
            perm = None if layout in (None, start) else tuple(map(layout.index, start))
            for blocks in run:
                ops.append(_op(perm, _fuse(blocks, sites, {}, dtype), tuple(blocks)))
                perm = None
            layout = start[len(order):] + order
        cycles.append(tuple(ops))
    return Program(dtype, tuple(sites), tuple(cycles), layout or tuple(range(n)))


def _disjoint_runs(groups: list[list[_Block]]) -> list[list[list[_Block]]]:
    """The groups split into runs of consecutive groups on disjoint qubits."""
    runs: list[list[list[_Block]]] = []
    used: set[int] = set()
    for blocks in groups:
        qubits = {q for b in blocks for q in b.qubits}
        if not runs or used & qubits:
            runs.append([])
            used = set()
        runs[-1].append(blocks)
        used |= qubits
    return runs


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise InputError(f"qubit {qubit} out of range for n={state.n_qubits}")


def _apply(state: StateVector, qubits: tuple[int, ...], u) -> StateVector:
    """Run the one-op program ``u`` on ``qubits``, writing back in place."""
    n = state.n_qubits
    dtype = state.amplitudes.dtype
    k = len(qubits)
    rest = tuple(q for q in range(n) if q not in qubits)
    perm = None if qubits == tuple(range(k)) else qubits + rest
    op = _op(perm, np.asarray(u, dtype=dtype).reshape(1 << k, 1 << k))
    psi = _execute((op,), state.amplitudes, _work_buffers(n, dtype))
    state.amplitudes.reshape((2,) * n)[...] = (
        psi.reshape((2,) * n).transpose(np.argsort(rest + qubits)))
    return state


def apply_single(state: StateVector, qubit: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary in place on the given qubit."""
    _check_qubit(state, qubit)
    return _apply(state, (qubit,), u)


def apply_two(state: StateVector, qubits: tuple[int, int], u: np.ndarray) -> StateVector:
    """Apply a 4x4 unitary in place; the first qubit is the high basis bit."""
    q1, q2 = qubits
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    if q1 == q2:
        raise InputError(f"two-qubit gate needs distinct qubits, got ({q1}, {q2})")
    return _apply(state, (q1, q2), u)


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise ResourceLimitError(
            f"circuit has {n} qubits, exceeding the simulator limit {limit}")


def run(circuit: Circuit, limit: int = DEFAULT_QUBIT_LIMIT,
        dtype=np.complex128) -> StateVector:
    """Evolve |0...0> through every cycle of the circuit.

    The circuit is compiled once into fused ops (see `compile_circuit`),
    which the executor applies cycle by cycle.  ``dtype`` may be
    ``numpy.complex64`` for speed at reduced precision; the fused matrices
    are formed in double precision and then rounded.
    """
    _check_limit(circuit.n_qubits, limit)
    return StateVector(circuit.n_qubits, execute(compile_circuit(circuit, dtype)))


def execute(program: Program) -> np.ndarray:
    """Final amplitudes, in canonical order, of the program run on |0...0>."""
    n = len(program.layout)
    work = _work_buffers(n, program.dtype)
    psi = zero_state(n, program.dtype).amplitudes
    for ops in program.cycles:
        psi = _execute(ops, psi, work)
    return _canonical(psi, program.layout)


def adjoint_gradient(program: Program, cotangent, derivatives: dict[int, list[np.ndarray]]):
    """A real function of the final state and its derivatives by gate-site
    matrices, from one forward and one backward sweep over the program.

    ``cotangent`` maps the final amplitudes, in canonical order, to the
    function's value L and the cotangent lambda = dL/dpsi* (canonical order).
    ``derivatives`` maps a gate site to derivative matrices dG of its matrix.
    The forward sweep runs the executor's layouts and GEMMs and keeps each
    op's GEMM input psi_in, a K x R matrix with the op's 2^k = K amplitudes
    of its qubits in front (one state per op).  The backward sweep carries
    lambda, an R x K matrix in the layout after the op, back through each op
    in reverse order: lambda <- M^H @ lambda^T, followed by the inverse of the
    op's transpose.  At an op holding requested sites, the K x K environment
    is E = lambda^H @ psi_in^T, and each dG contributes
    dL = 2 Re sum(dM * E), where dM is the op re-fused with the site's matrix
    replaced by dG.  Returns L and, per requested site, one derivative per dG.
    """
    n = len(program.layout)
    ops = [op for cycle in program.cycles for op in cycle]
    inputs = []
    psi = zero_state(n, program.dtype).amplitudes
    for op in ops:
        if op.perm is not None:
            psi = psi.reshape((2,) * n).transpose(op.perm).reshape(-1)
        inputs.append(psi)
        k = len(op.matrix)
        psi = np.matmul(psi.reshape(k, -1).T, op.matrix.T).reshape(-1)
    value, lam = cotangent(_canonical(psi, program.layout))
    lam = lam.reshape((2,) * n).transpose(program.layout)
    grads = {s: np.zeros(len(d)) for s, d in derivatives.items()}
    for op, psi_in in zip(reversed(ops), reversed(inputs)):
        k = len(op.matrix)
        lam = lam.reshape(-1, k)
        wanted = op.sites.intersection(derivatives)
        if wanted:
            env = lam.conj().T @ psi_in.reshape(k, -1).T
            for s in wanted:
                for j, dg in enumerate(derivatives[s]):
                    dm = _fuse(op.blocks, program.sites, {s: dg}, program.dtype)
                    grads[s][j] = 2.0 * float(np.sum(dm * env).real)
        lam = op.matrix.conj().T @ lam.T
        if op.perm is not None:
            lam = lam.reshape((2,) * n).transpose(np.argsort(op.perm))
    return value, grads


def probabilities(state: StateVector) -> np.ndarray:
    """Born probabilities |amp|^2 over all bitstrings."""
    return np.abs(state.amplitudes) ** 2


def _draw_words(probs: np.ndarray, n_draws: int, gen: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(probs)
    cum /= cum[-1]
    return np.searchsorted(cum, gen.random(n_draws), side="right").astype(np.uint64)


def sample_ideal(state: StateVector, n_samples: int, seed: int) -> SampleSet:
    """i.i.d. draws from the Born distribution; deterministic per seed."""
    if n_samples < 1:
        raise InputError(f"need at least one sample, got {n_samples}")
    gen = rng.stream(seed, rng.Stream.IDEAL_SAMPLING)
    words = _draw_words(probabilities(state), n_samples, gen)
    return SampleSet(state.n_qubits, words, meta={"model": "ideal", "seed": seed})


def sample_noisy_speckle(
    state: StateVector, fidelity: float, n_samples: int, seed: int
) -> SampleSet:
    """Mixture sampling: ideal with probability ``fidelity``, else uniform."""
    if not 0.0 <= fidelity <= 1.0:
        raise InputError(f"fidelity {fidelity} outside [0, 1]")
    if n_samples < 1:
        raise InputError(f"need at least one sample, got {n_samples}")
    gen = rng.stream(seed, rng.Stream.SPECKLE)
    ideal_mask = gen.random(n_samples) < fidelity
    n_ideal = int(ideal_mask.sum())
    words = np.empty(n_samples, dtype=np.uint64)
    if n_ideal:
        words[ideal_mask] = _draw_words(probabilities(state), n_ideal, gen)
    n_unif = n_samples - n_ideal
    if n_unif:
        words[~ideal_mask] = gen.integers(0, state.dim, n_unif, dtype=np.uint64)
    return SampleSet(state.n_qubits, words,
                     meta={"model": "speckle", "fidelity": fidelity, "seed": seed})


def _cumulative(amps: np.ndarray, layout: tuple[int, ...]) -> np.ndarray:
    """Normalised cumulative Born probabilities, in canonical order, of
    amplitudes held in ``layout``."""
    probs = np.abs(amps).astype(np.float64, copy=False)
    np.square(probs, out=probs)
    cum = np.cumsum(_canonical(probs, layout))
    cum /= cum[-1]
    return cum


def sample_trajectory(
    circuit: Circuit,
    noise: NoiseModel,
    n_samples: int,
    seed: int,
    limit: int = DEFAULT_QUBIT_LIMIT,
    threads: int = 1,
    dtype=np.complex128,
) -> SampleSet:
    """Pauli-trajectory sampling, one bitstring per trajectory.

    After each gate site (see `Program.sites`), with probability e1 (e2) a
    uniformly random non-identity Pauli is applied to the touched qubit(s);
    two-qubit errors draw from the 15 non-identity Pauli pairs.  Each
    trajectory uses its own derived substream, so results do not depend on
    evaluation order or thread count.  A trajectory draws, in this order,
    one uniform per gate site (an error where it falls below the site's
    rate), one Pauli per error site in circuit order, and the uniform that
    picks its bitstring.

    The ideal pass keeps the state at cycle boundaries, in the compiled
    layout of that boundary, every stride-th cycle within a memory budget.
    An errorful trajectory resumes from the last checkpoint before the cycle
    of its first error, and replays the rest with each Pauli folded into the
    fused op that holds its site.
    """
    n = circuit.n_qubits
    _check_limit(n, limit)
    if n_samples < 1:
        raise InputError(f"need at least one sample, got {n_samples}")

    program = compile_circuit(circuit, dtype)
    n_cycles = len(program.cycles)
    e_vec = np.array([noise.e2 if len(s.qubits) == 2 else noise.e1
                      for s in program.sites])

    stride = 1
    state_bytes = (1 << n) * program.dtype.itemsize
    while (stride < n_cycles
           and state_bytes * len(range(0, n_cycles, stride)) > _CHECKPOINT_BUDGET):
        stride *= 2
    # Checkpoint i is the state before cycle i * stride, copied out of the
    # work buffers; the replays only read them.
    checkpoints = []
    work = _work_buffers(n, program.dtype)
    psi = zero_state(n, program.dtype).amplitudes
    for c, ops in enumerate(program.cycles):
        if c % stride == 0:
            checkpoints.append(psi.copy())
        psi = _execute(ops, psi, work)
    ideal_cum = _cumulative(psi, program.layout)
    del work, psi

    any_noise = len(e_vec) > 0 and float(e_vec.max()) > 0.0
    local = threading.local()  # each worker thread's work buffers
    words = np.empty(n_samples, dtype=np.uint64)

    def one_trajectory(t: int) -> None:
        gen = rng.stream(seed, rng.Stream.TRAJECTORY, index=t)
        err_at = np.nonzero(gen.random(len(e_vec)) < e_vec)[0] if any_noise else ()
        if len(err_at) == 0:
            words[t] = np.searchsorted(ideal_cum, gen.random(), side="right")
            return
        faulty: dict[int, np.ndarray] = {}  # site -> matrix with its Pauli
        for s in err_at:
            site = program.sites[s]
            if len(site.qubits) == 2:
                p1, p2 = divmod(int(gen.integers(0, 15)) + 1, 4)
                pauli = _kron(_PAULIS[p1], _PAULIS[p2])
            else:
                pauli = _PAULIS[int(gen.integers(0, 3)) + 1]
            faulty[int(s)] = pauli @ site.matrix
        k = program.sites[err_at[0]].cycle // stride
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = _work_buffers(n, program.dtype)
        amps = checkpoints[k]
        for ops in program.with_sites(faulty).cycles[k * stride:]:
            amps = _execute(ops, amps, work)
        cum = _cumulative(amps, program.layout)
        words[t] = np.searchsorted(cum, gen.random(), side="right")

    fan_out(one_trajectory, n_samples, threads)
    return SampleSet(n, words, meta={"model": "trajectory", "seed": seed})


def fan_out(task, n: int, threads: int) -> None:
    """Run ``task(i)`` for every i in ``range(n)`` on ``threads`` workers, the
    calling thread and up to ``threads - 1`` started ones, each in a copy of
    the caller's context.  Each worker takes the next index from one shared
    iterator, whose ``next`` is atomic under the interpreter lock, so every
    index runs once and no future is made per index.  After a task raises,
    the workers stop taking indices, and the first exception is re-raised.
    """
    if threads < 1:
        raise InputError(f"need at least one thread, got {threads}")
    indices = iter(range(n))
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for i in indices:
                task(i)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            for _ in indices:  # drain, so the other workers stop
                pass

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(min(threads, n) - 1)]
    for w in workers:
        w.start()
    work()
    for w in workers:
        w.join()
    if errors:
        raise errors[0]


def apply_readout_error(samples: SampleSet, noise: NoiseModel, seed: int) -> SampleSet:
    """Flip each measured bit independently: 0->1 with e_r0, 1->0 with e_r1."""
    gen = rng.stream(seed, rng.Stream.READOUT)
    bits = samples.bits()
    u = gen.random(bits.shape)
    flip = np.where(bits == 0, u < noise.e_r0, u < noise.e_r1)
    flipped = bits ^ flip.astype(np.uint8)
    meta = dict(samples.meta)
    meta["readout_error"] = {"e_r0": noise.e_r0, "e_r1": noise.e_r1, "seed": seed}
    return SampleSet(samples.n_qubits, pack_bits(flipped), meta=meta)


def predicted_fidelity(circuit: Circuit, noise: NoiseModel) -> float:
    """Multiplicative fidelity prediction: (1-e1)^#1q * (1-e2)^#2q times one
    readout factor 1 - (e_r0 + e_r1)/2 per measured qubit."""
    e_r = (noise.e_r0 + noise.e_r1) / 2.0
    return float(
        (1.0 - noise.e1) ** circuit.n_single_gates
        * (1.0 - noise.e2) ** circuit.n_two_qubit_gates
        * (1.0 - e_r) ** circuit.n_qubits
    )
