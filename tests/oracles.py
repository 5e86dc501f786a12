"""Independent reference implementations used only to check the package.

These deliberately avoid the package's computational kernels: circuits are
evaluated by building explicit 2^n x 2^n gate matrices (stored sparse, so
that 16-qubit circuits fit) and multiplying them into the state, gradients
are taken by central finite differences of the function itself, the
Porter-Thomas CDF is checked against its density, ideal samples are drawn
by one binary search over the whole cumulative distribution per uniform, and
contraction costs are minimized by exhaustive search over set partitions
or by dynamic programming over tensor subsets, and the greedy path search
is checked against its index-set form (frozensets and per-index holders).
The adjoint gradient is checked against a sweep that stores every op's
input: `adjoint_stored` runs a compiled program's fused matrices with plain
numpy matmuls and transposes, not the package's executor, and keeps each
op's input instead of recomputing it from the op's output.
Every size is the exact integer product of the dimensions.  Paths are
replayed by counting each index's occurrences (open indices get
one phantom occurrence) instead of by the package's symmetric-difference
rule, and the slicing oracle replays the whole path that way after every
sliced index instead of reusing one replay.
"""
from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, defaultdict
from functools import lru_cache

import numpy as np
from scipy import optimize, sparse

from rcsbench import rng
from rcsbench.costmodel import ContractionPath, SliceResult
from rcsbench.errors import InputError, ResourceLimitError
from rcsbench.gates import fsim_matrix, sq_matrix
from rcsbench.simulator import _block_environments


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
    return dense_run_sites(circuit, {})


def dense_run_sites(circuit, replaced: dict[int, np.ndarray]) -> np.ndarray:
    """`dense_run` with the given gate sites' matrices replaced by arbitrary
    ones.  Sites count the gates as `Program.sites` does: per cycle the
    single-qubit gates by position, then the two-qubit gates in order."""
    n = circuit.n_qubits
    pos = {q: i for i, q in enumerate(circuit.qubits)}
    site = itertools.count()
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for cyc in circuit.cycles:
        for i, g in enumerate(cyc.single):
            u = replaced.get(next(site), sq_matrix(g))
            state = dense_single(n, i, u) @ state
        for a, b, p in cyc.two_qubit:
            u = replaced.get(next(site), fsim_matrix(p))
            state = dense_two(n, pos[a], pos[b], u) @ state
    return state


def adjoint_stored(program, cotangent, sites):
    """`simulator.adjoint_gradient` by a forward sweep that keeps each op's
    GEMM input, so it needs no unitarity and holds one state per op; the
    backward sweep carries mu = conj(lambda) back alone.  Only the split of
    an op's environment into its blocks is the package's."""
    n = len(program.layout)
    ops = [op for cycle in program.cycles for op in cycle]
    inputs = []
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1
    for op in ops:
        if op.perm is not None:
            psi = psi.reshape((2,) * n).transpose(op.perm).reshape(-1)
        inputs.append(psi)
        k = len(op.matrix)
        psi = np.matmul(psi.reshape(k, -1).T, op.matrix.T).reshape(-1)
    psi = psi.reshape((2,) * n).transpose(np.argsort(program.layout)).reshape(-1)
    value, lam = cotangent(psi)
    mu = np.conjugate(lam.reshape((2,) * n).transpose(program.layout), order="C")
    wanted, envs = set(sites), {}
    for op, psi_in in zip(reversed(ops), reversed(inputs)):
        k = len(op.matrix)
        mu = mu.reshape(-1, k)
        if not op.sites.isdisjoint(wanted):
            envs.update(_block_environments(op, mu.T @ psi_in.reshape(k, -1).T, wanted))
        mu = op.matrix.T @ mu.T
        if op.perm is not None:
            mu = mu.reshape((2,) * n).transpose(np.argsort(op.perm))
    return value, envs


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


def draw_words_by_searchsorted(probs: np.ndarray, n_draws: int,
                               gen: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws: one uniform per word, each placed by a binary
    search over the whole normalised cumulative distribution."""
    cum = np.cumsum(probs)
    cum /= cum[-1]
    return np.searchsorted(cum, gen.random(n_draws), side="right").astype(np.uint64)


def fit_gaussian_sigma(values: np.ndarray, bins: int = 50) -> float:
    """Width of a least-squares Gaussian fit to the histogram of ``values``."""
    counts, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2

    def gauss(x, a, mu, sig):
        return a * np.exp(-((x - mu) ** 2) / (2 * sig**2))

    p0 = (counts.max(), float(np.mean(values)), float(np.std(values)))
    popt, _ = optimize.curve_fit(gauss, centers, counts, p0=p0, maxfev=10000)
    return float(abs(popt[2]))


def pt_pdf(x, fidelity: float):
    """Density (F*x + (1 - F)) * exp(-x) of the scaled probability x = D*p at
    fidelity F; the reference for `xeb.pt_cdf`'s derivative."""
    x = np.asarray(x, dtype=float)
    return (fidelity * x + (1.0 - fidelity)) * np.exp(-x)


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


def _size(indices, dims) -> float:
    return float(math.prod(dims[name] for name in indices))


def find_path_optimal(tn, max_tensors: int = 12) -> ContractionPath:
    """Exhaustive minimum-cost contraction tree by dynamic programming over
    tensor subsets (same cost convention as the greedy search)."""
    tn.validate()
    n = len(tn.tensors)
    if n > max_tensors:
        raise ResourceLimitError(
            f"optimal search limited to {max_tensors} tensors, got {n}")
    dims = tn.indices
    full = (1 << n) - 1
    # A subset's open indices, filled in as the masks are visited by size:
    # the symmetric difference of its tensors' (the two-holder invariant).
    indices: dict[int, frozenset[str]] = {
        1 << i: frozenset(idx) for i, (_, idx) in enumerate(tn.tensors)}
    best: dict[int, float] = {1 << i: 0.0 for i in range(n)}
    split: dict[int, int] = {}
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(2, n + 1):
        for mask in masks_by_size[size]:
            lowest = mask & -mask
            indices[mask] = indices[lowest] ^ indices[mask ^ lowest]
            best_cost, best_sub = math.inf, 0
            sub = (mask - 1) & mask
            while sub:
                if sub & lowest:  # canonical halving: keep the lowest bit left
                    other = mask ^ sub
                    cost = (
                        best[sub]
                        + best[other]
                        + _size(indices[sub] | indices[other], dims)
                    )
                    if cost < best_cost:
                        best_cost, best_sub = cost, sub
                sub = (sub - 1) & mask
            best[mask] = best_cost
            split[mask] = best_sub

    merges: list[tuple[int, int]] = []
    node_of_mask: dict[int, int] = {1 << i: i for i in range(n)}

    def build(mask: int) -> int:
        if mask not in node_of_mask:
            merges.append((build(split[mask]), build(mask ^ split[mask])))
            node_of_mask[mask] = n + len(merges) - 1
        return node_of_mask[mask]

    build(full)
    path = tuple(merges)
    costs, total, largest, _, _ = replay_by_occupancy(tn, path)
    return ContractionPath(path, tuple(costs), total, largest)


def greedy_by_index_sets(tn, seed: int, restarts: int):
    """The randomized-greedy search on frozensets of index names with a
    holder set per index: a merge result is ``A ^ B``, and its neighbours
    are the other holders of its indices.  Restart 0 takes the best score,
    restart r > 0 draws among the 4 best from the path-search stream
    ``(seed, r)``.  Returns (best path, every restart's total)."""
    dims = tn.indices
    leaves = [frozenset(idx) for _, idx in tn.tensors]
    holders = defaultdict(set)
    for i, fs in enumerate(leaves):
        for name in fs:
            holders[name].add(i)
    pairs = {tuple(sorted(h)) for h in holders.values() if len(h) == 2}
    best, totals = None, []
    for r in range(restarts):
        gen = rng.stream(seed, rng.Stream.PATH_SEARCH, index=r) if r else None
        nodes = dict(enumerate(leaves))
        size = [_size(fs, dims) for fs in leaves]
        heap = [(_size(leaves[a] ^ leaves[b], dims) - size[a] - size[b], a, b)
                for a, b in pairs]
        heapq.heapify(heap)
        owners = {name: set(h) for name, h in holders.items()}
        merges, costs, largest = [], [], 0
        while len(nodes) > 1:
            popped = []
            while heap and len(popped) < (4 if gen is not None else 1):
                entry = heapq.heappop(heap)
                if entry[1] in nodes and entry[2] in nodes:
                    popped.append(entry)
            if popped:
                choice = popped[0] if gen is None else popped[int(gen.integers(0, len(popped)))]
                for entry in popped:
                    if entry is not choice:
                        heapq.heappush(heap, entry)
                a, b = choice[1], choice[2]
            else:
                a, b = sorted(sorted(nodes, key=lambda i: (size[i], i))[:2])
            c = len(size)
            ta, tb = nodes.pop(a), nodes.pop(b)
            keep = nodes[c] = ta ^ tb
            size.append(_size(keep, dims))
            merges.append((a, b))
            costs.append(_size(ta | tb, dims))
            largest = max(largest, len(keep))
            neighbours = set()
            for name in keep:
                h = owners[name]
                h -= {a, b}
                neighbours |= h
                h.add(c)
            for j in neighbours:
                heapq.heappush(heap, (_size(nodes[j] ^ keep, dims) - size[j] - size[c], j, c))
        total = float(sum(costs))
        totals.append(total)
        if best is None or total < best.total_flops:
            best = ContractionPath(tuple(merges), tuple(costs), total, largest)
    return best, tuple(totals)
