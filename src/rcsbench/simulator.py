"""Exact state-vector simulation with ideal and noisy bitstring sampling.

Conventions: qubit 0 is the most significant bit of the state index, and the
sampled word equals that index.  For a two-qubit gate the first qubit argument
is the high bit of the 4x4 matrix basis.  Amplitudes are complex128.

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
`execute` allocates them once per run, writes |0...0> into the first and
returns the other with the final transpose, and each trajectory worker
thread allocates them once.  `run`, the trajectory replay, the calibration
loss (on programs with gate sites swapped in, `Program.with_sites`),
`apply_single`, `apply_two` (one-op programs) and `adjoint_gradient`'s
forward sweep all run `_execute`; its backward sweep undoes the same GEMMs.

Ideal and speckle draws invert the cumulative Born distribution through an
index table (Chen & Asau 1974): with m the largest power of two <= min(2^n,
draws), entry k is the first outcome whose cumulative probability exceeds
k/m, so a uniform u looks up bucket floor(u m), checks its first outcome and
bisects only within the bucket; each word equals a binary search over the
whole distribution.  Sampling from a state holds the state plus one float64
per outcome (the probabilities, made cumulative in place) plus the draws: the
8-byte words, the table (at most one entry per draw) and a fixed chunk of
uniforms at a time (`_DRAW_CHUNK`).

Memory, in states of 2^n amplitudes: `run`, sampling from its state,
`xeb.measured_xeb` (per part) and the calibration loss hold 2, the work
buffers.  Trajectories hold their checkpoints (none for cycle 0: a replay
from it writes |0...0> into a work buffer), 2^n float64 for the ideal
cumulative distribution (1/2 state), and 2 per worker; each
replay builds its cumulative distribution in its worker's buffers.  The
adjoint sweep holds 4, two pairs of conj(psi) and conj(lambda), at any
depth.  Before it allocates, each path adds up these bytes
(`memory_need`) and raises `ResourceLimitError` if they exceed the
machine's physical memory (`check_memory`): a run of 28 qubits needs
8 GiB, and one of 40 qubits 32 TiB.

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
import numbers
import os
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng
from .circuit import Circuit
from .errors import InputError, ResourceLimitError
from .gates import GATE_KINDS, fsim_matrix, sq_matrix
from .samples import SampleSet, pack_bits

# The machine's physical memory in bytes, read once: the most that a path
# may plan to hold (see `check_memory`).
_MEMORY_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

# Qubits of the largest fused op.  An op costs 2^k complex multiply-adds per
# amplitude, and the rotating layout moves no data between the ops of a
# cycle, so fewer, larger ops only pay while the GEMM is not flop-bound.  Of
# 3 to 6, with single-threaded OpenBLAS on a 2-core Xeon, 4 ran a 16-qubit,
# 8-cycle circuit and 200 noisy trajectories of it fastest and tied 3 on a
# 20-qubit, 8-cycle circuit; 5 and 6 were slower on all three.
_GROUP_QUBITS = 4

# Checkpoint budget for trajectory replay (bytes of saved cycle states).
_CHECKPOINT_BUDGET = 512 << 20

# Uniforms drawn and looked up per pass of `_draw_words`: its temporaries
# are a few arrays of this many elements, whatever the number of draws.
_DRAW_CHUNK = 1 << 14

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
            if not (isinstance(v, numbers.Real) and 0.0 <= v <= 1.0):
                raise InputError(f"noise rate {name}={v!r} is not a number in [0, 1]")


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(1 << n_qubits, dtype=complex)
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
    matrix: np.ndarray            # 2^k x 2^k, the kron of ``mats``
    blocks: tuple[_Block, ...]    # disjoint, in kron order
    singles: tuple[np.ndarray, ...]  # per block, the kron S of its single sites
    mats: tuple[np.ndarray, ...]  # per block, G @ S with its two-qubit site G, or S
    sites: frozenset[int]         # gate sites fused into this op


@dataclass(frozen=True)
class Program:
    """A circuit compiled into fused ops, one tuple of ops per cycle.

    ``sites`` lists every gate site in circuit order: per cycle the
    single-qubit gates by position, then the two-qubit gates.  ``layout``
    is the qubit of each bit of the amplitude index, most significant first,
    after the last op.
    """

    sites: tuple[GateSite, ...]
    cycles: tuple[tuple[_Op, ...], ...]
    layout: tuple[int, ...]

    def with_sites(self, replaced: dict[int, np.ndarray]) -> Program:
        """The program with the given gate sites' matrices replaced; only the
        ops that hold a replaced site are re-fused, and only the blocks with
        a replaced single-qubit site recompute their S.  `adjoint_gradient`
        needs them unitary, as fSims and Paulis times gates are."""
        sites = list(self.sites)
        for s, matrix in replaced.items():
            sites[s] = GateSite(sites[s].cycle, sites[s].qubits, matrix)

        def refused(op: _Op) -> _Op:
            singles = tuple(u if replaced.keys().isdisjoint(b.singles) else _singles(b, sites)
                            for b, u in zip(op.blocks, op.singles))
            return _op(op.perm, op.blocks, singles, sites, op.sites)

        cycles = tuple(
            tuple(refused(op) if op.sites.intersection(replaced) else op for op in ops)
            for ops in self.cycles)
        return Program(tuple(sites), cycles, self.layout)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices, without its per-call overhead."""
    m, n = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * n, m * n)


def _singles(block: _Block, sites) -> np.ndarray:
    """Kronecker product S of the block's single-qubit sites."""
    return reduce(_kron, [_PAULIS[0] if s is None else sites[s].matrix
                          for s in block.singles])


def _op(perm, blocks: tuple[_Block, ...], singles, sites, fused) -> _Op:
    mats = tuple(u if b.two is None else sites[b.two].matrix @ u for b, u in zip(blocks, singles))
    return _Op(perm, reduce(_kron, mats), blocks, singles, mats, fused)


def _work_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.empty(1 << n, complex), np.empty(1 << n, complex)


def _spare(work: tuple[np.ndarray, np.ndarray], psi: np.ndarray) -> np.ndarray:
    """The work buffer that does not hold ``psi``."""
    return work[1] if psi is work[0] else work[0]


def _vacuum(work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """|0...0>, which reads the same in every layout, in the first buffer."""
    psi = work[0]
    psi.fill(0)
    psi[0] = 1
    return psi


def _execute(ops, psi: np.ndarray, work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply ops to flat amplitudes, alternating between the two ``work``
    buffers; returns the buffer that holds the result.  Writes into ``psi``
    only if it is one of the work buffers."""
    for op in ops:
        if op.perm is not None:
            out = _spare(work, psi)
            shape = (2,) * len(op.perm)
            np.copyto(out.reshape(shape), psi.reshape(shape).transpose(op.perm))
            psi = out
        out = _spare(work, psi)
        k = len(op.matrix)
        np.matmul(psi.reshape(k, -1).T, op.matrix.T, out=out.reshape(-1, k))
        psi = out
    return psi


def _canonical(psi: np.ndarray, layout: tuple[int, ...], out: np.ndarray) -> np.ndarray:
    """Copy ``psi``, held in ``layout``, into ``out`` in canonical qubit order."""
    shape = (2,) * len(layout)
    np.copyto(out.reshape(shape), psi.reshape(shape).transpose(np.argsort(layout)))
    return out


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


def compile_circuit(circuit: Circuit) -> Program:
    """Compile the circuit into fused ops of at most ``_GROUP_QUBITS`` qubits."""
    n = circuit.n_qubits
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
                singles = tuple(_singles(b, sites) for b in blocks)
                fused = frozenset(s for b in blocks for s in (*b.singles, b.two) if s is not None)
                ops.append(_op(perm, tuple(blocks), singles, sites, fused))
                perm = None
            layout = start[len(order):] + order
        cycles.append(tuple(ops))
    return Program(tuple(sites), tuple(cycles), layout or tuple(range(n)))


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
    k = len(qubits)
    rest = tuple(q for q in range(n) if q not in qubits)
    perm = None if qubits == tuple(range(k)) else qubits + rest
    op = _Op(perm, np.asarray(u, dtype=complex).reshape(1 << k, 1 << k), (), (), (), frozenset())
    psi = _execute((op,), state.amplitudes, _work_buffers(n))
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


def memory_need(n_qubits: int, states: int, float64s: int = 0) -> int:
    """Bytes of ``states`` states of 2^n complex128 amplitudes and
    ``float64s`` arrays of 2^n float64."""
    return (16 * states + 8 * float64s) << n_qubits


def check_memory(need: int, what: str) -> None:
    """Raise `ResourceLimitError` if ``what`` needs more than the machine's
    physical memory; called before ``what`` allocates."""
    if need > _MEMORY_BUDGET:
        raise ResourceLimitError(
            f"{what} needs {need / 2**30:.4g} GiB, more than the "
            f"{_MEMORY_BUDGET / 2**30:.4g} GiB of physical memory")


def run(circuit: Circuit) -> StateVector:
    """Evolve |0...0> through every cycle of the circuit.

    The circuit is compiled once into fused ops (see `compile_circuit`),
    which the executor applies cycle by cycle.
    """
    n = circuit.n_qubits
    check_memory(memory_need(n, 2), f"a {n}-qubit run")
    return StateVector(n, execute(compile_circuit(circuit)))


def execute(program: Program) -> np.ndarray:
    """Final amplitudes, in canonical order, of the program run on |0...0>.
    Holds the two work buffers and returns one of them."""
    work = _work_buffers(len(program.layout))
    psi = _vacuum(work)
    for ops in program.cycles:
        psi = _execute(ops, psi, work)
    return _canonical(psi, program.layout, _spare(work, psi))


def adjoint_gradient(program: Program, cotangent, sites):
    """A real function L of the final state, and its 4x4 environment Gamma_s
    at each two-qubit gate site in ``sites``: a change dG of the site's
    matrix changes L by 2 Re sum(dG * Gamma_s).  Returns L and {s: Gamma_s}.

    ``cotangent`` maps the final amplitudes (canonical order) to L and
    lambda = dL/dpsi*, and may return lambda in their buffer.  The forward
    sweep is `_execute`.  Every op must be unitary: the backward sweep gets
    an op's GEMM input psi_in (K x R, its K = 2^k amplitudes in front) back
    from its output as M^H @ psi_out^T, so it carries conj(psi) and
    mu = conj(lambda) (R x K, in the layout after the op) as one pair:
    pair <- M^T @ pair^T, then the op's inverse transpose, between two pair
    buffers (four states at any depth).  An op's environment E = mu^T @
    psi_in^T gives dL = 2 Re sum(dM * E); for a site in block b, Gamma_s =
    E_b @ S_b^T, with E_b the contraction of E with the op's other blocks.
    """
    for s in (wanted := set(sites)):
        if not 0 <= s < len(program.sites) or len(program.sites[s].qubits) != 2:
            raise InputError(f"{s} is not a two-qubit gate site of the program")
    n = len(program.layout)
    shape = (2,) * n
    ops = [op for cycle in program.cycles for op in cycle]
    pairs = np.empty((2, 2, 1 << n), complex)
    work = (pairs[0, 0], pairs[1, 0])
    psi = _execute(ops, _vacuum(work), work)
    value, lam = cotangent(_canonical(psi, program.layout, _spare(work, psi)))
    pair, spare = pairs if psi is work[0] else pairs[::-1]
    np.conjugate(psi, out=psi)
    np.conjugate(lam.reshape(shape).transpose(program.layout), out=pair[1].reshape(shape))
    del psi, lam  # only the pair is carried back
    envs = {}
    for op in reversed(ops):
        k = len(op.matrix)
        np.matmul(op.matrix.T, pair.reshape(2, -1, k).transpose(0, 2, 1),
                  out=spare.reshape(2, k, -1))
        if not op.sites.isdisjoint(wanted):
            psi_in = np.conjugate(spare[0], out=pair[0]).reshape(k, -1)  # over conj(psi_out)
            envs.update(_block_environments(op, pair[1].reshape(-1, k).T @ psi_in.T, wanted))
        if op.perm is None:
            pair, spare = spare, pair
        else:
            inverse = (0, *(1 + np.argsort(op.perm)))
            np.copyto(pair.reshape(2, *shape), spare.reshape(2, *shape).transpose(inverse))
    return value, envs


def _block_environments(op: _Op, env: np.ndarray, wanted: set) -> dict:
    """Gamma_s of each wanted two-qubit site of the op (see `adjoint_gradient`)."""
    out, left = {}, 1
    for b, (block, u) in enumerate(zip(op.blocks, op.singles)):
        d = len(u)
        if block.two in wanted:
            env_b = env
            if len(op.mats) > 1:
                # E_b[i, j] = sum E[x i y, X j Y] O[x y, X Y], O the other blocks' kron
                right = len(env) // (left * d)
                others = reduce(_kron, op.mats[:b] + op.mats[b + 1:]).ravel()
                env_b = env.reshape(left, d, right, left, d, right).transpose(1, 4, 0, 2, 3, 5)
                env_b = (env_b.reshape(d * d, -1) @ others).reshape(d, d)
            out[block.two] = env_b @ u.T
        left *= d
    return out


def probabilities(state: StateVector) -> np.ndarray:
    """Born probabilities |amp|^2 over all bitstrings."""
    probs = np.abs(state.amplitudes)
    return np.square(probs, out=probs)


def _bucket_starts(cum: np.ndarray, n_draws: int) -> np.ndarray:
    """Index table of the inverse of the cumulative distribution ``cum``
    (Chen & Asau 1974) for ``n_draws`` draws: entry k of m + 1 is the word
    that a uniform of exactly k/m draws, the first outcome whose ``cum``
    exceeds k/m, clamped to the last outcome.  m is the largest power of two
    <= min(len(cum), n_draws), so k/m and u*m are exact and the table is
    never larger than the draws."""
    m = 1 << (min(cum.size, n_draws).bit_length() - 1)
    first = np.searchsorted(cum, np.arange(m + 1) / m, side="right")
    return np.minimum(first, cum.size - 1, out=first)


def _lookup(cum: np.ndarray, first: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cum, u, side="right")`` through the table ``first`` of
    `_bucket_starts`: a uniform u in [j/m, (j+1)/m) draws a word in
    [first[j], first[j+1]].  The bucket start is checked first; the draws it
    does not resolve, and only those, are bisected within their buckets,
    keeping cum[lo] <= u < cum[hi] until hi = lo + 1."""
    j = (u * (first.size - 1)).astype(np.intp)
    words = first[j]
    rest = np.flatnonzero(cum[words] <= u)
    lo, hi, u = words[rest], first[1:][j[rest]], u[rest]
    while rest.size:
        words[rest] = hi
        wide = np.flatnonzero(hi - lo > 1)
        rest, lo, hi, u = rest[wide], lo[wide], hi[wide], u[wide]
        mid = (lo + hi) >> 1
        above = cum[mid] > u
        lo = np.where(above, lo, mid)
        hi = np.where(above, mid, hi)
    return words


def _draw_words(probs: np.ndarray, n_draws: int, gen: np.random.Generator) -> np.ndarray:
    """``n_draws`` words from the Born probabilities ``probs``, which become
    their normalised cumulative distribution in place: each uniform u draws
    ``searchsorted(cum, u, side="right")``.  The uniforms are drawn and looked
    up ``_DRAW_CHUNK`` at a time, which takes the same doubles from ``gen``
    as one call for all of them."""
    cum = np.cumsum(probs, out=probs)
    cum /= cum[-1]
    first = _bucket_starts(cum, n_draws)
    words = np.empty(n_draws, dtype=np.uint64)
    for start in range(0, n_draws, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, n_draws)
        words[start:stop] = _lookup(cum, first, gen.random(stop - start))
    return words


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


def _float_view(buf: np.ndarray) -> np.ndarray:
    """2^n float64 in the first half of a state's buffer."""
    return buf.view(np.float64)[:buf.size]


def _cumulative(amps: np.ndarray, layout: tuple[int, ...], work, out: np.ndarray) -> np.ndarray:
    """Normalised cumulative Born probabilities, in canonical order, written
    to ``out``, of amplitudes held in ``layout`` in one of the ``work``
    buffers; the probabilities pass through the other buffer."""
    probs = np.abs(amps, out=_float_view(_spare(work, amps)))
    np.square(probs, out=probs)
    cum = _canonical(probs, layout, out)
    np.cumsum(cum, out=cum)
    cum /= cum[-1]
    return cum


def sample_trajectory(
    circuit: Circuit,
    noise: NoiseModel,
    n_samples: int,
    seed: int,
    threads: int = 1,
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
    n, n_cycles = circuit.n_qubits, circuit.n_cycles
    if n_samples < 1:
        raise InputError(f"need at least one sample, got {n_samples}")
    if threads < 1:
        raise InputError(f"need at least one thread, got {threads}")

    stride = 1
    state_bytes = memory_need(n, 1)
    while (stride < n_cycles
           and state_bytes * len(range(stride, n_cycles, stride)) > _CHECKPOINT_BUDGET):
        stride *= 2
    states = len(range(stride, n_cycles, stride)) + 2 * min(threads, n_samples)
    check_memory(memory_need(n, states, 1),
                 f"sampling {n_samples} trajectories of {n} qubits on {threads} threads")

    program = compile_circuit(circuit)
    e_vec = np.array([noise.e2 if len(s.qubits) == 2 else noise.e1
                      for s in program.sites])

    # Checkpoint i > 0 is the state before cycle i * stride, copied out of the
    # work buffers for the replays to read; a replay from cycle 0 starts at _vacuum.
    checkpoints = [None]
    work = _work_buffers(n)
    psi = _vacuum(work)
    for c, ops in enumerate(program.cycles):
        if c and c % stride == 0:
            checkpoints.append(psi.copy())
        psi = _execute(ops, psi, work)
    ideal_cum = _cumulative(psi, program.layout, work, out=np.empty(1 << n))

    any_noise = len(e_vec) > 0 and float(e_vec.max()) > 0.0
    local = threading.local()  # each worker thread's work buffers
    local.work = work          # the calling thread reuses the ideal pass's
    del psi, work
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
            work = local.work = _work_buffers(n)
        # the replay runs at least the faulty cycle, so amps ends in a work
        # buffer, which then takes the cumulative distribution
        amps = checkpoints[k] if k else _vacuum(work)
        for ops in program.with_sites(faulty).cycles[k * stride:]:
            amps = _execute(ops, amps, work)
        cum = _cumulative(amps, program.layout, work, _float_view(amps))
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
