"""Patch-wise gate-parameter calibration by loss minimization.

The full circuit is split into non-overlapping patches (quadrants by
default).  For each patch, the loss 1 - F_XEB(gamma, b_train) is minimized
over the patch's gate parameters with a quasi-Newton (BFGS) optimizer;
b_train is a set of training bitstrings sampled from the patch circuit.
`calibrate_patches` is the one entry point.  The patch circuit alone says
what a patch calibrates: its couplers are the ones that fire in it, and the
optimizer starts from their parameters in it (first firing wins).  Couplers
outside every patch keep the full circuit's parameters.
`staggered_split_pair` gives two splits whose internal couplers jointly
cover every enabled coupler, including those that cross one split's
boundaries.

The training bitstrings enter the loss only through their histogram over
the D outcomes, so a training set enters as that histogram: exact int64
counts, one per outcome.  `load_histogram` counts a sample file while
reading it a chunk at a time (`samples.word_chunks`), so no training word is
kept, and `histogram` counts an in-memory `SampleSet` by the same rule.  With
w the counts over their total, F = D * (w . p) - 1 for the candidate
distribution p.
Each patch is compiled once.  An evaluation swaps the candidate couplers'
fSim matrices into that program (`Program.with_sites`), and the optimizer
gets the loss and its exact gradient from one forward and one backward sweep
through it (`simulator.adjoint_gradient`): the loss is a function of the
final state with cotangent -(dF/dp) * psi.  The sweep's 4x4 environments
of a coupler's firings are summed, and one contraction with the analytic
fSim derivatives (`gates.fsim_derivative`) applies the chain rule per coupler.

The BFGS line search backtracks from the full step, halving it
(`_BACKTRACK`) up to `_MAX_BACKTRACKS` = 40 times, until the Armijo
condition holds with constant `_ARMIJO_C` = 1e-4.

The loss is a deterministic pure function of (gamma, counts); patch
optimizations are independent of each other and of evaluation order.  A
training histogram holds 2^n int64 counts, and a patch solve six states and
the float64 weights w; `calibrate_patches` checks that the patches its
workers may solve at once fit in physical memory before it solves any.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, ParamMap, extract_subcircuit, grid_parts, part_of
from .errors import InputError
from .gates import FsimParams, fsim_derivative, fsim_matrix
from .samples import SampleSet, read_sidecar, word_chunks
from .simulator import (
    Program,
    adjoint_gradient,
    check_memory,
    compile_circuit,
    execute,
    fan_out,
    memory_need,
)

PARAM_NAMES = ("theta", "phi", "delta_plus", "delta_minus", "delta_minus_off")

# Backtracking line search: sufficient-decrease constant, step factor per
# backtrack, and backtracks before the search fails.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200
    grad_tol: float = 1e-5         # infinity-norm convergence threshold

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise InputError("max_iters must not be negative")
        if self.grad_tol <= 0:
            raise InputError("grad_tol must be positive")


@dataclass(frozen=True)
class PatchPartition:
    """Disjoint qubit patches, their internal couplers, and the cross ones."""

    patches: tuple[tuple[int, ...], ...]
    internal: tuple[tuple[tuple[int, int], ...], ...]
    cross: tuple[tuple[int, int], ...]


@dataclass
class CalibrationProblem:
    """One patch's training problem.

    ``counts`` is the training histogram: counts[w] training bitstrings
    read w, a word over the patch qubits (sorted ascending, first qubit =
    most significant bit); see `load_histogram`.  ``couplers`` are the
    couplers that fire in ``patch_circuit``, sorted by key, and ``base`` is their parameters in
    it (first firing wins): the start point.  ``gamma`` packs the trainable
    fields of each coupler in ``couplers`` order; untrained fields come from
    ``base``.  A patch where no coupler fires has nothing to calibrate.

    The training fidelity is divided by the square root of the candidate
    distribution's ideal collision ratio D*sum(p^2) - 1.  The ratio
    converges to 1 for deep circuits, so at scale this is the plain
    linear-XEB loss; at desk-scale dimensions the normalization makes the
    generating parameters an exact stationary point, removing a finite-size
    bias that otherwise drags the optimum away from truth by ~1/sqrt(D).
    """

    patch_circuit: Circuit
    counts: np.ndarray
    trainable: tuple[str, ...] = PARAM_NAMES
    couplers: tuple[tuple[int, int], ...] = field(init=False)
    base: ParamMap = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)  # counts over their total
    program: Program = field(init=False, repr=False)     # the compiled patch
    # (gate site, coupler index) of each firing of a trained coupler
    coupler_sites: list[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = set(self.trainable)
        if not names <= set(PARAM_NAMES) or len(names) != len(self.trainable):
            raise InputError(f"trainable parameters {list(self.trainable)} are not "
                             f"distinct names among {list(PARAM_NAMES)}")
        n = self.patch_circuit.n_qubits
        check_memory(_solve_bytes(n), f"a {n}-qubit patch")
        counts = self.counts
        if not (isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"
                and counts.shape == (1 << n,)):
            raise InputError(f"a training histogram of the {n}-qubit patch is "
                             f"{1 << n} integer counts, one per outcome")
        if counts.min() < 0:
            raise InputError("the training histogram holds a negative count")
        total = int(counts.sum())
        if total < 1:
            raise InputError("training set holds no bitstrings")
        self.base = self.patch_circuit.coupler_params()
        if not self.base:
            raise InputError("no coupler fires in the patch; nothing to calibrate")
        self.couplers = tuple(sorted(self.base))
        self.weights = counts / float(total)
        self.program = compile_circuit(self.patch_circuit)
        index = {key: i for i, key in enumerate(self.couplers)}
        # site s is gate s; a single-qubit gate's 1-tuple is never a coupler key
        self.coupler_sites = [(s, index[qubits])
                              for s, (_, qubits, _) in enumerate(self.patch_circuit.gates())
                              if qubits in index]

    @property
    def dim(self) -> int:
        return len(self.couplers) * len(self.trainable)


def _solve_bytes(n_qubits: int) -> int:
    """Bytes one patch solve holds: the gradient's six states (the adjoint
    sweep's four and the cotangent's float64 temporaries) and the float64
    training weights."""
    return memory_need(n_qubits, 6, 1)


def histogram_bytes(n_qubits: int) -> int:
    """Bytes of the int64 training histogram of an n-qubit patch."""
    return memory_need(n_qubits, 0, 1)


def _count(n_qubits: int, chunks) -> np.ndarray:
    """The training histogram of the word ``chunks``: counts[w], int64, of
    each n-bit word w.  The words fit the width (`samples.check_words`), so
    their int64 view is exact."""
    check_memory(histogram_bytes(n_qubits), f"a {n_qubits}-qubit training histogram")
    counts = np.zeros(1 << n_qubits, dtype=np.int64)
    for words in chunks:
        counts += np.bincount(words.view(np.int64), minlength=counts.size)
    return counts


def histogram(samples: SampleSet) -> np.ndarray:
    """The training histogram of an in-memory sample set, by the counting
    rule of `load_histogram`."""
    return _count(samples.n_qubits, (samples.words,))


def load_histogram(path: str, n_qubits: int) -> np.ndarray:
    """The training histogram of the sample file ``path`` for an
    ``n_qubits``-qubit patch, counted while the file is read a chunk at a
    time.  The sidecar's width must be ``n_qubits``; it, the format and the
    file's size are checked before any word is read, and each chunk's words
    against the width (`samples.read_sidecar`, `samples.word_chunks`)."""
    doc = read_sidecar(path, n_qubits)
    return _count(n_qubits, word_chunks(path, doc))


def pack_params(
    params: ParamMap,
    couplers: tuple[tuple[int, int], ...],
    trainable: tuple[str, ...] = PARAM_NAMES,
) -> np.ndarray:
    values = []
    for key in couplers:
        d = params[key].as_dict()
        values.extend(d[name] for name in trainable)
    return np.array(values, dtype=float)


def unpack_params(
    gamma: np.ndarray,
    base: ParamMap,
    couplers: tuple[tuple[int, int], ...],
    trainable: tuple[str, ...] = PARAM_NAMES,
) -> ParamMap:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size != len(couplers) * len(trainable):
        raise InputError(
            f"parameter vector has {gamma.size} entries, expected "
            f"{len(couplers) * len(trainable)}")
    out = dict(base)
    k = len(trainable)
    for i, key in enumerate(couplers):
        d = base[key].as_dict()
        for j, name in enumerate(trainable):
            d[name] = float(gamma[i * k + j])
        out[key] = FsimParams(**d)
    return out


def training_fidelity(weights: np.ndarray, dist: np.ndarray):
    """Training fidelity F of the distribution ``dist`` on the training
    histogram ``weights``, and dF/dp: D * (w . p) - 1 divided by the square
    root of the collision ratio C = D * sum(p^2) - 1 (see
    `CalibrationProblem`).  C is clamped below at 1e-12; a clamped C is a
    constant, so it contributes nothing to dF/dp.
    """
    d = dist.size
    raw = d * float(weights @ dist) - 1.0
    slope = d * weights
    collision = d * float(np.sum(dist * dist)) - 1.0
    if collision <= 1e-12:
        scale = 1.0 / np.sqrt(1e-12)
        return raw * scale, slope * scale
    scale = 1.0 / np.sqrt(collision)
    slope -= (raw * d / collision) * dist  # one temporary the size of dist
    return raw * scale, slope * scale


def _candidate(gamma: np.ndarray,
               problem: CalibrationProblem) -> tuple[ParamMap, Program]:
    """The trained couplers' candidate parameters, and the patch program with
    their fSim matrices swapped in."""
    mapping = unpack_params(gamma, problem.base, problem.couplers, problem.trainable)
    matrices = [fsim_matrix(mapping[key]) for key in problem.couplers]
    program = problem.program.with_sites(
        {site: matrices[i] for site, i in problem.coupler_sites})
    return mapping, program


def loss(gamma: np.ndarray, problem: CalibrationProblem) -> float:
    """1 - F_XEB of the patch with candidate parameters, evaluated on the
    training histogram.  Deterministic given gamma and the histogram."""
    _, program = _candidate(gamma, problem)
    dist = np.abs(execute(program)) ** 2
    return 1.0 - training_fidelity(problem.weights, dist)[0]


def loss_and_gradient(gamma: np.ndarray, problem: CalibrationProblem):
    """`loss` and its exact gradient by gamma, from one forward and one
    backward sweep through the patch program."""
    mapping, program = _candidate(gamma, problem)

    def cotangent(amps: np.ndarray):
        f, slope = training_fidelity(problem.weights, np.abs(amps) ** 2)
        amps *= -slope  # the sweep's own copy, so lambda may take its buffer
        return 1.0 - f, amps

    value, envs = adjoint_gradient(program, cotangent, (s for s, _ in problem.coupler_sites))
    per_coupler = np.zeros((len(problem.couplers), 4, 4), dtype=complex)
    for site, i in problem.coupler_sites:
        per_coupler[i] += envs[site]
    derivatives = np.array([[fsim_derivative(mapping[key], name) for name in problem.trainable]
                            for key in problem.couplers])
    return value, 2.0 * np.einsum("ctij,cij->ct", derivatives, per_coupler).real.ravel()


@dataclass
class BfgsResult:
    x: np.ndarray
    fun: float
    trace: np.ndarray            # loss per accepted iterate, starting value first
    iterations: int
    status: str                  # converged | max_iters | line_search_failed


def bfgs_minimize(fun, x0: np.ndarray, config: OptimizerConfig = OptimizerConfig()) -> BfgsResult:
    """Quasi-Newton minimization with inverse-Hessian updates and a
    backtracking line search enforcing sufficient (Armijo) decrease.

    ``fun(x)`` returns the loss and its gradient.  Each line-search trial
    evaluates both, and the accepted trial's gradient is the next iterate's,
    so an iteration whose full step is accepted costs one evaluation.

    The returned point never has a larger loss than the starting point, and
    the trace is nonincreasing.  A failed line search returns the best point
    found so far with status ``line_search_failed``.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise InputError("initial point is not finite")
    dim = x.size
    f, g = fun(x)
    h_inv = np.eye(dim)
    trace = [f]
    status = "max_iters"
    for it in range(config.max_iters):
        if np.max(np.abs(g)) <= config.grad_tol:
            status = "converged"
            break
        direction = -h_inv @ g
        slope = float(g @ direction)
        if slope >= 0:  # stale curvature; fall back to steepest descent
            h_inv = np.eye(dim)
            direction = -g
            slope = float(g @ direction)
        alpha, accepted = 1.0, False
        for _ in range(_MAX_BACKTRACKS):
            f_new, g_new = fun(x + alpha * direction)
            if f_new <= f + _ARMIJO_C * alpha * slope:
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted:
            status = "line_search_failed"
            break
        s = alpha * direction
        x_new = x + s
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            if it == 0:
                h_inv *= sy / float(y @ y)
            rho = 1.0 / sy
            v = np.eye(dim) - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        trace.append(f)
    return BfgsResult(x=x, fun=f, trace=np.array(trace),
                      iterations=len(trace) - 1, status=status)


def split_grid_patches(
    circuit: Circuit,
    row_cuts: tuple[int, ...] = (),
    col_cuts: tuple[int, ...] = (),
) -> tuple[PatchPartition, tuple[Circuit, ...]]:
    """Split active qubits into the `grid_parts` patches and extract one
    standalone circuit per patch (internal couplers only).

    Rejects degenerate splits: every patch must contain at least one qubit
    and at least one internal coupler, otherwise it has nothing to calibrate.
    """
    patches = grid_parts(circuit, row_cuts, col_cuts)
    label = part_of(patches)
    ends = [(label[c.a], label[c.b], c.key)
            for c in circuit.topology.enabled_couplers]
    internal = tuple(tuple(sorted(key for a, b, key in ends if a == b == i))
                     for i in range(len(patches)))
    for i, cs in enumerate(internal):
        if not cs:
            raise InputError(
                f"patch {i} has no internal couplers; nothing to calibrate")
    partition = PatchPartition(patches, internal,
                               tuple(sorted(key for a, b, key in ends if a != b)))
    patch_circuits = tuple(extract_subcircuit(circuit, qs) for qs in patches)
    return partition, patch_circuits


def staggered_split_pair(circuit: Circuit) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Two 4-way splits offset by one row and one column.  A coupler crossing
    the first split's boundary lies strictly inside the second's bands, so
    the union of internal couplers covers every enabled coupler."""
    topo = circuit.topology
    r0, c0 = topo.rows // 2, topo.cols // 2
    if r0 + 1 >= topo.rows or c0 + 1 >= topo.cols or r0 < 1 or c0 < 1:
        raise InputError(
            f"{topo.rows}x{topo.cols} grid too small for a staggered split pair")
    return (((r0,), (c0,)), ((r0 + 1,), (c0 + 1,)))


@dataclass
class PatchResult:
    couplers: tuple[tuple[int, int], ...]
    before_loss: float
    after_loss: float
    trace: np.ndarray
    status: str


@dataclass
class CalibrationResult:
    params: ParamMap
    patches: list[PatchResult] = field(default_factory=list)


def calibrate_patches(
    circuit: Circuit,
    patch_circuits: tuple[Circuit, ...],
    histograms: list[np.ndarray],
    config: OptimizerConfig = OptimizerConfig(),
    trainable: tuple[str, ...] = PARAM_NAMES,
    threads: int = 1,
) -> CalibrationResult:
    """Independently minimize each patch's loss, on ``threads`` workers (see
    `simulator.fan_out`), and merge the optimized parameters into
    ``circuit``'s; a patch modifies only the couplers that fire in its
    circuit.  ``histograms`` holds each patch's training histogram
    (`load_histogram`, `histogram`)."""
    if len(histograms) != len(patch_circuits):
        raise InputError(
            f"{len(patch_circuits)} patches but {len(histograms)} training sets")

    # the largest patches that ``threads`` workers may solve at once (none
    # for threads < 1, which `fan_out` rejects)
    at_once = sorted((_solve_bytes(c.n_qubits) for c in patch_circuits),
                     reverse=True)[:max(threads, 0)]
    check_memory(sum(at_once), f"solving {len(at_once)} patches at once")

    solved: list[tuple[PatchResult, ParamMap]] = [None] * len(patch_circuits)

    def solve(i: int) -> None:
        problem = CalibrationProblem(patch_circuits[i], histograms[i], trainable)
        couplers = problem.couplers
        x0 = pack_params(problem.base, couplers, trainable)
        res = bfgs_minimize(lambda g: loss_and_gradient(g, problem), x0, config)
        optimized = unpack_params(res.x, problem.base, couplers, trainable)
        # trace[0] is the loss at x0
        solved[i] = (
            PatchResult(couplers, float(res.trace[0]), res.fun, res.trace, res.status),
            optimized,
        )

    fan_out(solve, len(patch_circuits), threads)

    merged = circuit.coupler_params()
    result = CalibrationResult(params=merged)
    for patch_result, optimized in solved:
        merged.update(optimized)
        result.patches.append(patch_result)
    return result
