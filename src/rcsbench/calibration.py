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

The training bitstrings enter the loss only through their histogram w over
the D outcomes, so F = D * (w . p) - 1 for the candidate distribution p.
Each patch is compiled once.  An evaluation swaps the candidate couplers'
fSim matrices into that program (`Program.with_sites`), and the optimizer
gets the loss and its exact gradient from one forward and one backward sweep
through it (`simulator.adjoint_gradient`): the loss is a function of the
final state with cotangent -(dF/dp) * psi, and each coupler's gradient sums
the analytic fSim derivatives (`gates.fsim_derivative`) over every cycle in
which the coupler fires.

The BFGS line search backtracks from the full step, halving it
(`_BACKTRACK`) up to `_MAX_BACKTRACKS` = 40 times, until the Armijo
condition holds with constant `_ARMIJO_C` = 1e-4.

The loss is a deterministic pure function of (gamma, b_train); patch
optimizations are independent of each other and of evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, ParamMap, extract_subcircuit
from .errors import InputError
from .gates import FsimParams, fsim_derivative, fsim_matrix
from .samples import SampleSet
from .simulator import (
    DEFAULT_QUBIT_LIMIT,
    Program,
    _check_limit,
    adjoint_gradient,
    compile_circuit,
    execute,
    fan_out,
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

    ``b_train`` bitstrings are over the patch qubits (sorted ascending, first
    qubit = most significant bit).  ``couplers`` are the couplers that fire
    in ``patch_circuit``, sorted by key, and ``base`` is their parameters in
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
    b_train: SampleSet
    trainable: tuple[str, ...] = PARAM_NAMES
    couplers: tuple[tuple[int, int], ...] = field(init=False)
    base: ParamMap = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)  # training histogram
    program: Program = field(init=False, repr=False)     # the compiled patch
    # (gate site, coupler index) of each firing of a trained coupler
    coupler_sites: list[tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        unknown = set(self.trainable) - set(PARAM_NAMES)
        if unknown:
            raise InputError(f"unknown trainable parameters: {sorted(unknown)}")
        if self.b_train.n_qubits != self.patch_circuit.n_qubits:
            raise InputError("training bitstring width does not match the patch")
        if self.b_train.n_samples < 1:
            raise InputError("training set holds no bitstrings")
        _check_limit(self.patch_circuit.n_qubits, DEFAULT_QUBIT_LIMIT)
        self.base = self.patch_circuit.coupler_params()
        if not self.base:
            raise InputError("no coupler fires in the patch; nothing to calibrate")
        self.couplers = tuple(sorted(self.base))
        # SampleSet words fit the bitstring width, so the int64 view is exact.
        counts = np.bincount(self.b_train.words.view(np.int64),
                             minlength=1 << self.patch_circuit.n_qubits)
        self.weights = counts / float(self.b_train.n_samples)
        self.program = compile_circuit(self.patch_circuit)
        index = {key: i for i, key in enumerate(self.couplers)}
        # A site's qubits mapped back to circuit qubits; a single-qubit
        # site's 1-tuple is never a coupler key.
        qubits = self.patch_circuit.qubits
        keys = (tuple(qubits[i] for i in site.qubits) for site in self.program.sites)
        self.coupler_sites = [(s, index[key]) for s, key in enumerate(keys)
                              if key in index]

    @property
    def dim(self) -> int:
        return len(self.couplers) * len(self.trainable)


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
    return raw * scale, (slope - raw * d * dist / collision) * scale


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
    training bitstrings.  Deterministic given (gamma, b_train)."""
    _, program = _candidate(gamma, problem)
    dist = np.abs(execute(program)) ** 2
    return 1.0 - training_fidelity(problem.weights, dist)[0]


def loss_and_gradient(gamma: np.ndarray, problem: CalibrationProblem):
    """`loss` and its exact gradient by gamma, from one forward and one
    backward sweep through the patch program."""
    mapping, program = _candidate(gamma, problem)
    per_coupler = [[fsim_derivative(mapping[key], name) for name in problem.trainable]
                   for key in problem.couplers]
    derivatives = {site: per_coupler[i] for site, i in problem.coupler_sites}

    def cotangent(amps: np.ndarray):
        f, slope = training_fidelity(problem.weights, np.abs(amps) ** 2)
        return 1.0 - f, -slope * amps

    value, site_grads = adjoint_gradient(program, cotangent, derivatives)
    k = len(problem.trainable)
    grad = np.zeros(problem.dim)
    for site, i in problem.coupler_sites:
        grad[i * k:(i + 1) * k] += site_grads[site]
    return value, grad


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


def _patch_bands(cuts: tuple[int, ...], size: int) -> list[range]:
    bounds = (0,) + tuple(cuts) + (size,)
    if list(bounds) != sorted(set(bounds)):
        raise InputError(f"cut positions {cuts} not strictly inside 0..{size}")
    return [range(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def split_grid_patches(
    circuit: Circuit,
    row_cuts: tuple[int, ...] = (),
    col_cuts: tuple[int, ...] = (),
) -> tuple[PatchPartition, tuple[Circuit, ...]]:
    """Split active qubits into grid-aligned patches and extract one
    standalone circuit per patch (internal couplers only).

    Rejects degenerate splits: every patch must contain at least one qubit
    and at least one internal coupler, otherwise it has nothing to calibrate.
    """
    topo = circuit.topology
    row_bands = _patch_bands(row_cuts, topo.rows)
    col_bands = _patch_bands(col_cuts, topo.cols)

    def patch_of(q: int) -> int:
        r, c = divmod(q, topo.cols)
        ri = next(i for i, band in enumerate(row_bands) if r in band)
        ci = next(i for i, band in enumerate(col_bands) if c in band)
        return ri * len(col_bands) + ci

    n_patches = len(row_bands) * len(col_bands)
    members: list[list[int]] = [[] for _ in range(n_patches)]
    for q in circuit.qubits:
        members[patch_of(q)].append(q)
    for i, qs in enumerate(members):
        if not qs:
            raise InputError(f"patch {i} contains no active qubits")

    internal: list[list[tuple[int, int]]] = [[] for _ in range(n_patches)]
    cross: list[tuple[int, int]] = []
    for c in topo.enabled_couplers:
        pa, pb = patch_of(c.a.linear), patch_of(c.b.linear)
        if pa == pb:
            internal[pa].append(c.key)
        else:
            cross.append(c.key)
    for i, cs in enumerate(internal):
        if not cs:
            raise InputError(
                f"patch {i} has no internal couplers; nothing to calibrate")

    partition = PatchPartition(
        patches=tuple(tuple(sorted(qs)) for qs in members),
        internal=tuple(tuple(sorted(cs)) for cs in internal),
        cross=tuple(sorted(cross)),
    )
    patch_circuits = tuple(extract_subcircuit(circuit, qs) for qs in partition.patches)
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
    trains: list[SampleSet],
    config: OptimizerConfig = OptimizerConfig(),
    trainable: tuple[str, ...] = PARAM_NAMES,
    threads: int = 1,
) -> CalibrationResult:
    """Independently minimize each patch's loss, on ``threads`` workers (see
    `simulator.fan_out`), and merge the optimized parameters into
    ``circuit``'s; a patch modifies only the couplers that fire in its
    circuit."""
    if len(trains) != len(patch_circuits):
        raise InputError(
            f"{len(patch_circuits)} patches but {len(trains)} training sets")

    solved: list[tuple[PatchResult, ParamMap]] = [None] * len(patch_circuits)

    def solve(i: int) -> None:
        problem = CalibrationProblem(patch_circuits[i], trains[i], trainable)
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
