"""Independent reference implementations used only to check the package.

These deliberately avoid the package's computational kernels: circuits are
evaluated by building explicit 2^n x 2^n gate matrices (stored sparse, so
that 16-qubit circuits fit) and multiplying them into the state, gradients
are taken by central finite differences of the function itself, and
contraction costs are minimized by exhaustive search over set partitions.
Paths are replayed by counting each index's occurrences (open indices get
one phantom occurrence) instead of by the package's symmetric-difference
rule, and the slicing oracle replays the whole path that way after every
sliced index instead of reusing one replay.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np
from scipy import optimize, sparse

from rcsbench.costmodel import SliceResult
from rcsbench.errors import InputError
from rcsbench.gates import fsim_matrix, sq_matrix


def dense_single(n: int, qubit: int, u: np.ndarray) -> sparse.csr_matrix:
    """Full-space matrix for a 2x2 gate; qubit 0 is the most significant."""
    left = sparse.identity(1 << qubit)
    right = sparse.identity(1 << (n - qubit - 1))
    return sparse.kron(sparse.kron(left, u), right, format="csr")


def dense_two(n: int, q1: int, q2: int, u: np.ndarray) -> sparse.csr_matrix:
    """Full-space matrix for a 4x4 gate on (q1, q2); q1 is the high gate bit."""
    d = 1 << n
    s1, s2 = n - 1 - q1, n - 1 - q2
    index = np.arange(d)
    base = index[((index >> s1) | (index >> s2)) & 1 == 0]
    rows, cols, vals = [], [], []
    for c1, c2 in itertools.product((0, 1), repeat=2):
        col = base | (c1 << s1) | (c2 << s2)
        for b1, b2 in itertools.product((0, 1), repeat=2):
            rows.append(base | (b1 << s1) | (b2 << s2))
            cols.append(col)
            vals.append(np.full(base.size, u[(b1 << 1) | b2, (c1 << 1) | c2], dtype=complex))
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d, d))


def dense_run(circuit) -> np.ndarray:
    """Final state via explicit full-matrix products."""
    n = circuit.n_qubits
    pos = {q: i for i, q in enumerate(circuit.qubits)}
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for cyc in circuit.cycles:
        for i, g in enumerate(cyc.single):
            state = dense_single(n, i, sq_matrix(g)) @ state
        for a, b, p in cyc.two_qubit:
            state = dense_two(n, pos[a], pos[b], fsim_matrix(p)) @ state
    return state


def gradient_fd(fn, x: np.ndarray, h: float) -> np.ndarray:
    """Central differences per coordinate: (f(x+h e_k) - f(x-h e_k)) / 2h."""
    if h <= 0:
        raise InputError(f"finite-difference step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        grad[k] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def fit_gaussian_sigma(values: np.ndarray, bins: int = 50) -> float:
    """Width of a least-squares Gaussian fit to the histogram of ``values``."""
    counts, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2

    def gauss(x, a, mu, sig):
        return a * np.exp(-((x - mu) ** 2) / (2 * sig**2))

    p0 = (counts.max(), float(np.mean(values)), float(np.std(values)))
    popt, _ = optimize.curve_fit(gauss, centers, counts, p0=p0, maxfev=10000)
    return float(abs(popt[2]))


def exhaustive_min_cost(tn) -> float:
    """Minimum contraction cost by depth-first search over set partitions,
    memoized on the frozenset of remaining tensor groups."""
    dims = tn.indices
    open_set = frozenset(tn.open_indices)
    leaves = [frozenset(idx) for _, idx in tn.tensors]
    n = len(leaves)

    def indices_of(group: frozenset[int]) -> frozenset[str]:
        inside = set()
        for i in group:
            inside |= leaves[i]
        outside = set()
        for i in range(n):
            if i not in group:
                outside |= leaves[i]
        return frozenset(x for x in inside if x in outside or x in open_set)

    @lru_cache(maxsize=None)
    def indices_cached(group):
        return indices_of(group)

    def size(indices) -> float:
        out = 1.0
        for x in indices:
            out *= dims[x]
        return out

    memo: dict[frozenset, float] = {}

    def best(groups: frozenset) -> float:
        if len(groups) == 1:
            return 0.0
        if groups in memo:
            return memo[groups]
        groups_list = sorted(groups, key=sorted)
        out = np.inf
        for i in range(len(groups_list)):
            for j in range(i + 1, len(groups_list)):
                a, b = groups_list[i], groups_list[j]
                merged = a | b
                cost = size(indices_cached(a) | indices_cached(b))
                rest = (groups - {a, b}) | {merged}
                out = min(out, cost + best(frozenset(rest)))
        memo[groups] = out
        return out

    return best(frozenset(frozenset((i,)) for i in range(n)))


def matrix_chain_min_cost(chain_dims: list[int]) -> float:
    """Classic matrix-chain DP; cost of (p,q)x(q,r) is p*q*r."""
    n = len(chain_dims) - 1
    cost = [[0.0] * n for _ in range(n)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            cost[i][j] = min(
                cost[i][k] + cost[k + 1][j]
                + chain_dims[i] * chain_dims[k + 1] * chain_dims[j + 1]
                for k in range(i, j)
            )
    return cost[0][n - 1]


def replay_by_occupancy(tn, merges, sliced=frozenset()):
    """Replay a path by occurrence counts: a merge result keeps each index of
    its operands that some other tensor still carries, and every unsliced
    open index carries one phantom occurrence so it is never summed out.
    Returns what `replay_path` returns: (step costs, total cost, largest
    result rank, per-step result index sets, final index set)."""
    dims = tn.indices
    n = len(tn.tensors)
    tensors = [frozenset(idx) - sliced for _, idx in tn.tensors]
    occ = Counter()
    for fs in tensors:
        occ.update(fs)
    for name in frozenset(tn.open_indices) - sliced:
        occ[name] += 1
    costs = []
    largest = 0
    for a, b in merges:
        union = tensors[a] | tensors[b]
        costs.append(float(math.prod(dims[name] for name in union)))
        for name in tensors[a]:
            occ[name] -= 1
        for name in tensors[b]:
            occ[name] -= 1
        keep = frozenset(name for name in union if occ[name] >= 1)
        for name in keep:
            occ[name] += 1
        tensors.append(keep)
        largest = max(largest, len(keep))
    return costs, float(sum(costs)), largest, tensors[n:], tensors[-1]


def slice_by_replay(tn, path, cap: int) -> SliceResult:
    """Slice by the most-voted index among over-cap intermediates (ties by
    name), replaying the path by occurrence counts with the sliced set after
    every step."""
    sliced: set[str] = set()
    while True:
        _, total, largest, results, _ = replay_by_occupancy(
            tn, path.merges, frozenset(sliced))
        if largest <= cap:
            break
        votes = Counter(name for fs in results if len(fs) > cap for name in fs)
        sliced.add(min(votes, key=lambda k: (-votes[k], k)))
    n_slices = math.prod(tn.indices[name] for name in sliced)
    return SliceResult(tuple(sorted(sliced)), n_slices, float(n_slices) * total,
                       total, largest)
