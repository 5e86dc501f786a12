"""Classical-cost estimation: tensor-network contraction paths with slicing,
sampling-cost extrapolation, and split-simulation (Schroedinger-Feynman
style) cut analysis with operator-Schmidt truncation.

Cost convention: merging two tensors costs the product of the dimensions of
the union of their indices, counting one complex multiply-add as one
operation.  An index is summed out of a merge result when no other tensor
carries it and it is not open.  Slicing fixes index values to bound the
largest intermediate tensor, multiplying the work by the slice count.
Slicing an open index computes the amplitude batch in parts, one part per
slice; ``total_flops`` counts all parts.

In a valid network every index sits on exactly two live tensors, or on one
if it is open, and a merge keeps it so.  Hence the result of merging A and
B is their symmetric difference ``A ^ B``: the shared indices are summed
out and every other index still has its second holder (or is open).  The
merge costs the size of ``A | B``.  A size is the exact integer product of
the dimensions, made a float once, so it does not depend on set order.

The greedy search holds each live tensor's index set as an integer bitmask
(bit k is the k-th index of ``TensorNetwork.indices``) and each live
tensor's neighbours, the tensors it shares an index with, as a set.  By the
same invariant the neighbours of the result of merging a and b are those of
a and of b, less a and b.

Paths are in single-assignment form: the network's tensors are 0..n-1 and
the k-th merge (from 0) makes tensor n+k, so a merge names its operands by
id and every id is merged at most once.  Slicing an index removes it from
every intermediate and leaves every other index on its two holders, so one
replay of a path gives the intermediates under any sliced set.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import rng
from .circuit import Circuit, _normalize_bipartition
from .errors import InputError, ResourceLimitError
from .gates import FsimParams, fsim_matrix

YEAR_SECONDS = 365.25 * 86400.0

# Throughput anchor (contraction FLOPs, wall seconds) for one perfect sample
# on the Summit supercomputer; used by runtime extrapolation.
SUMMIT_REFERENCE = (6.66e18, 833.75)

# Core count of the Fugaku supercomputer, the default split-simulation
# reference machine.
FUGAKU_CORES = 7_630_848

_ZERO_WEIGHT = 1e-12

# Randomized greedy restarts pick uniformly among this many best merges.
_GREEDY_TOP_K = 4


@dataclass(frozen=True)
class TensorNetwork:
    """Structural tensor network: ids, index lists, index dimensions.

    Every index must appear on exactly two tensors (contracted) or on exactly
    one tensor and in ``open_indices`` (open).
    """

    tensors: tuple[tuple[str, tuple[str, ...]], ...]
    indices: dict[str, int]
    open_indices: tuple[str, ...]

    def validate(self) -> None:
        occ = Counter()
        for _, idx in self.tensors:
            if len(set(idx)) != len(idx):
                raise InputError("tensor repeats an index")
            occ.update(idx)
        open_set = set(self.open_indices)
        if len(open_set) != len(self.open_indices):
            raise InputError("duplicate open index")
        for name in occ:
            if name not in self.indices:
                raise InputError(f"index {name} has no dimension")
        for name, count in occ.items():
            expected = 1 if name in open_set else 2
            if count != expected:
                raise InputError(
                    f"index {name} appears on {count} tensors, expected {expected}")
        for name in open_set:
            if occ[name] != 1:
                raise InputError(f"open index {name} missing from the network")


@dataclass(frozen=True)
class ContractionPath:
    """Ordered pairwise merges in single-assignment form: merge k, (a, b),
    contracts tensors a and b into tensor n+k, where tensors 0..n-1 are the
    network's; a tensor is merged once and only after it is made."""

    merges: tuple[tuple[int, int], ...]
    step_costs: tuple[float, ...]
    total_flops: float
    largest_intermediate_rank: int


@dataclass(frozen=True)
class SliceResult:
    sliced_indices: tuple[str, ...]
    n_slices: int
    total_flops: float          # slice count times the per-slice path cost
    per_slice_flops: float
    largest_intermediate_rank: int


@dataclass(frozen=True)
class CutAnalysis:
    """Cross-cut gate census for a split simulation of the circuit."""

    bipartition: tuple[int, ...]
    g: int                                   # cross-cut two-qubit gate count
    spectra: tuple[tuple[float, float, float, float], ...]
    delta_theta: tuple[float, ...]           # |theta - pi/2| per cross gate
    path_count: float                        # product of retained ranks


@dataclass(frozen=True)
class CostReport:
    flops_per_sample: float
    n_samples: float
    fidelity: float
    total_flops: float
    reference: tuple[float, float]
    runtime_seconds: float
    runtime_years: float


def circuit_to_tn(circuit: Circuit, open_qubits=()) -> TensorNetwork:
    """Structural network of a circuit: one rank-1 tensor per initial |0>,
    one rank-2/rank-4 tensor per gate, a rank-1 projector on every closed
    output, and one open index per open qubit."""
    open_set = {int(q) for q in open_qubits}
    unknown = open_set - set(circuit.qubits)
    if unknown:
        raise InputError(f"open qubits not in the circuit: {sorted(unknown)}")

    wire = {q: 0 for q in circuit.qubits}
    dims: dict[str, int] = {}

    def fresh(q: int) -> str:
        name = f"q{q}.{wire[q]}"
        wire[q] += 1
        dims[name] = 2
        return name

    def current(q: int) -> str:
        return f"q{q}.{wire[q] - 1}"

    tensors: list[tuple[str, tuple[str, ...]]] = []
    for q in circuit.qubits:
        tensors.append((f"in:{q}", (fresh(q),)))
    gate_no = 0
    for cyc in circuit.cycles:
        for q in circuit.qubits:
            prev = current(q)
            tensors.append((f"g{gate_no}", (prev, fresh(q))))
            gate_no += 1
        for a, b, _ in cyc.two_qubit:
            pa, pb = current(a), current(b)
            tensors.append((f"g{gate_no}", (pa, pb, fresh(a), fresh(b))))
            gate_no += 1
    open_indices = []
    for q in circuit.qubits:
        if q in open_set:
            open_indices.append(current(q))
        else:
            tensors.append((f"out:{q}", (current(q),)))
    tn = TensorNetwork(tuple(tensors), dims, tuple(open_indices))
    tn.validate()
    return tn


def _as_float(count: int) -> float:
    """An exact integer size or slice count as a float.  A count beyond the
    float range raises `ResourceLimitError`."""
    try:
        return float(count)
    except OverflowError:
        raise ResourceLimitError(
            f"a tensor size or slice count of 2^{count.bit_length() - 1} or more "
            "exceeds the float range") from None


def _size(indices, dims) -> float:
    """Entry count of a tensor over ``indices``: the exact integer product of
    their dimensions, so it does not depend on the iteration order."""
    return _as_float(math.prod(dims[name] for name in indices))


def replay_path(
    tn: TensorNetwork,
    merges: tuple[tuple[int, int], ...],
    sliced: frozenset[str] = frozenset(),
):
    """Execute a path structurally on a valid network (see
    `TensorNetwork.validate`; the callers validate it).  Returns (step costs,
    total cost, largest result rank, per-step result index sets, final index
    set).  Raises `InputError` unless the path has n-1 merges, each of two
    distinct tensors that exist and are not yet merged."""
    dims = tn.indices
    n = len(tn.tensors)
    if len(merges) != n - 1:
        raise InputError(f"path has {len(merges)} merges, expected {n - 1}")
    tensors = [frozenset(idx) - sliced for _, idx in tn.tensors]
    used = [False] * (2 * n - 1)
    costs: list[float] = []
    largest = 0
    for a, b in merges:
        if a == b or not (0 <= a < len(tensors) and 0 <= b < len(tensors)):
            raise InputError(f"bad merge ({a}, {b}) making tensor {len(tensors)}")
        if used[a] or used[b]:
            raise InputError(f"merge ({a}, {b}) reuses a merged tensor")
        used[a] = used[b] = True
        ta, tb = tensors[a], tensors[b]
        costs.append(_size(ta | tb, dims))
        keep = ta ^ tb
        tensors.append(keep)
        largest = max(largest, len(keep))
    return costs, float(sum(costs)), largest, tensors[n:], tensors[-1]


def find_path_greedy_full(
    tn: TensorNetwork, seed: int = 0, restarts: int = 64
) -> tuple[ContractionPath, tuple[float, ...]]:
    """Randomized-greedy path search; returns the best path plus every
    restart's total cost (for cost-distribution reporting).

    The greedy score of a merge is the size growth of the result; restart 0
    always takes the best-scoring merge, later restarts pick uniformly among
    the ``_GREEDY_TOP_K`` best candidates.  Disconnected components are
    contracted independently and joined by outer products at the end.
    Deterministic per (seed, restarts): ties and the final winner resolve by
    (cost, restart).  The network's neighbour pairs are scored once; each
    restart starts from a copy of that heap and costs its own merges, so no
    restart is replayed.

    A live tensor's index set is an integer bitmask (bit k is the k-th index
    of ``tn.indices``), and its size is the exact product of its dimensions,
    as `replay_path` counts it.  Each live tensor keeps the set of tensors it
    shares an index with; by the two-holder invariant the neighbours of the
    result of merging a and b are those of a and of b, less a and b.
    """
    tn.validate()
    if restarts < 1:
        raise InputError("need at least one restart")
    bits = {name: 1 << k for k, name in enumerate(tn.indices)}
    by_dim: dict[int, int] = {}
    for name, dim in tn.indices.items():
        by_dim[dim] = by_dim.get(dim, 0) | bits[name]
    dim_masks = tuple(by_dim.items())

    def size(mask: int) -> float:
        out = 1
        for dim, dim_mask in dim_masks:
            out *= dim ** (mask & dim_mask).bit_count()
        return _as_float(out)

    n = len(tn.tensors)
    leaves = [sum(bits[name] for name in idx) for _, idx in tn.tensors]
    sizes = [size(mask) for mask in leaves]
    holders: dict[str, list[int]] = defaultdict(list)
    for i, (_, idx) in enumerate(tn.tensors):
        for name in idx:
            holders[name].append(i)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for h in holders.values():
        if len(h) == 2:
            nbrs[h[0]].add(h[1])
            nbrs[h[1]].add(h[0])
    heap = [(size(leaves[a] ^ leaves[b]) - sizes[a] - sizes[b], a, b)
            for a in range(n) for b in nbrs[a] if a < b]
    heapq.heapify(heap)
    best: ContractionPath | None = None
    totals = []
    for r in range(restarts):
        gen = rng.stream(seed, rng.Stream.PATH_SEARCH, index=r) if r else None
        merges, costs, largest = _greedy_once(leaves, sizes, nbrs, heap, size, gen)
        total = float(sum(costs))
        totals.append(total)
        if best is None or total < best.total_flops:
            best = ContractionPath(merges, tuple(costs), total, largest)
    return best, tuple(totals)


def _greedy_once(leaves, sizes, nbrs, heap, size, gen):
    """One greedy contraction of the tensors with index bitmasks ``leaves``,
    sizes ``sizes`` and neighbour sets ``nbrs``, from the scored initial
    ``heap`` of ``(score, i, j)`` entries, i < j; the arguments are not
    modified.  Returns the merges, each merge's cost (as `replay_path` counts
    it) and the largest result rank."""
    masks = list(leaves)
    sizes = list(sizes)
    nbrs = [set(s) for s in nbrs]
    heap = list(heap)
    live = [True] * len(masks)
    top_k = _GREEDY_TOP_K if gen is not None else 1
    merges: list[tuple[int, int]] = []
    costs: list[float] = []
    largest = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    for _ in range(len(masks) - 1):
        popped = []
        while heap and len(popped) < top_k:
            entry = heappop(heap)
            if live[entry[1]] and live[entry[2]]:
                popped.append(entry)
        if popped:
            choice = popped[0] if gen is None else popped[int(gen.integers(0, len(popped)))]
            for entry in popped:
                if entry is not choice:
                    heappush(heap, entry)
            _, a, b = choice
        else:
            # disconnected components: join the two smallest by outer product
            ids = [i for i, alive in enumerate(live) if alive]
            a, b = sorted(sorted(ids, key=lambda i: (sizes[i], i))[:2])
        c = len(masks)
        ma, mb = masks[a], masks[b]
        keep = ma ^ mb
        size_c = size(keep)
        masks.append(keep)
        sizes.append(size_c)
        live[a] = live[b] = False
        live.append(True)
        merges.append((a, b))
        costs.append(size(ma | mb))
        largest = max(largest, keep.bit_count())
        near = nbrs[a]
        near |= nbrs[b]
        near.discard(a)
        near.discard(b)
        nbrs[a] = nbrs[b] = None
        nbrs.append(near)
        for j in near:
            others = nbrs[j]
            others.discard(a)
            others.discard(b)
            others.add(c)
            heappush(heap, (size(masks[j] ^ keep) - sizes[j] - size_c, j, c))
    return tuple(merges), costs, largest


def slice_network(
    tn: TensorNetwork, path: ContractionPath, max_intermediate_rank: int
) -> SliceResult:
    """Greedily fix indices until every intermediate along the path has rank
    at most ``max_intermediate_rank``.  Each step slices the index carried
    by the most over-cap intermediates (ties by name).  Open indices may be
    sliced too: that computes the amplitude batch in parts, one part per
    slice, and ``total_flops`` counts every part.  Any cap of zero or more is
    reachable; a negative cap is rejected.

    Slicing removes an index from every intermediate and leaves the rest
    unchanged, so the over-cap intermediates come from one unsliced replay
    and lose each sliced index in place; a second replay gives the costs.
    """
    cap = max_intermediate_rank
    if cap < 0:
        raise InputError(f"cap {cap} is negative")
    tn.validate()
    _, _, _, results, _ = replay_path(tn, path.merges)
    over = [set(fs) for fs in results if len(fs) > cap]
    votes = Counter(name for fs in over for name in fs)
    sliced: list[str] = []
    while over:
        name = min(votes, key=lambda k: (-votes[k], k))
        sliced.append(name)
        del votes[name]
        still = []
        for fs in over:
            if name in fs:
                fs.remove(name)
                if len(fs) <= cap:
                    votes.subtract(fs)
                    continue
            still.append(fs)
        over = still
        votes = +votes
    costs, total, largest, _, _ = replay_path(tn, path.merges, frozenset(sliced))
    n_slices = math.prod(tn.indices[name] for name in sliced)
    return SliceResult(
        sliced_indices=tuple(sorted(sliced)),
        n_slices=n_slices,
        total_flops=_as_float(n_slices) * total,
        per_slice_flops=total,
        largest_intermediate_rank=largest,
    )


def estimate_sampling_cost(
    flops_per_sample: float,
    n_samples: float,
    fidelity: float,
    reference: tuple[float, float] = SUMMIT_REFERENCE,
) -> CostReport:
    """Fidelity-weighted total cost and runtime extrapolation.

    total = flops_per_sample * n_samples * fidelity (the perfect-sample
    equivalent count); runtime scales the reference machine's seconds by
    total / reference flops.
    """
    if flops_per_sample < 0 or n_samples < 0 or not 0 <= fidelity <= 1:
        raise InputError("cost inputs must be nonnegative, fidelity in [0, 1]")
    flops_ref, seconds_ref = reference
    if flops_ref <= 0 or seconds_ref <= 0:
        raise InputError("reference throughput must be positive")
    total = flops_per_sample * n_samples * fidelity
    seconds = total / flops_ref * seconds_ref
    return CostReport(
        flops_per_sample=flops_per_sample,
        n_samples=n_samples,
        fidelity=fidelity,
        total_flops=total,
        reference=reference,
        runtime_seconds=seconds,
        runtime_years=seconds / YEAR_SECONDS,
    )


def schmidt_values(u: np.ndarray) -> np.ndarray:
    """Operator-Schmidt values of a two-qubit unitary: singular values of the
    reshuffled matrix M[(i,i'),(j,j')] = U[(i,j),(i',j')].  Their squares sum
    to 4 (the squared Frobenius norm)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise InputError(f"expected a 4x4 matrix, got {u.shape}")
    if np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-10:
        raise InputError("matrix is not unitary to 1e-10")
    reshuffled = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return np.linalg.svd(reshuffled, compute_uv=False)


def cut_analysis(bipartition: tuple[int, ...], gates, delta_theta) -> CutAnalysis:
    """Census of the two-qubit gates ``gates`` (their `FsimParams`) that
    cross a cut, with their swap angle deviations ``delta_theta``: the
    operator-Schmidt spectrum per gate, and the path count, the product of
    each gate's Schmidt rank (terms of weight above ``_ZERO_WEIGHT``)."""
    spectra_cache: dict[FsimParams, tuple[float, ...]] = {}
    spectra: list[tuple[float, float, float, float]] = []
    for p in gates:
        s = spectra_cache.get(p)
        if s is None:
            s = spectra_cache[p] = tuple(float(v) for v in schmidt_values(fsim_matrix(p)))
        spectra.append(s)
    path_count = 1.0
    for s in spectra:
        path_count *= sum(1 for v in s if v * v / 4.0 > _ZERO_WEIGHT)
    return CutAnalysis(
        bipartition=bipartition,
        g=len(spectra),
        spectra=tuple(spectra),
        delta_theta=tuple(delta_theta),
        path_count=path_count,
    )


def sfa_cut(circuit: Circuit, bipartition) -> CutAnalysis:
    """`cut_analysis` of the two-qubit gates crossing a bipartition of the
    circuit, with swap angle deviations |theta - pi/2|."""
    side = _normalize_bipartition(circuit, bipartition)
    cross = [p for cyc in circuit.cycles for a, b, p in cyc.two_qubit
             if (a in side) != (b in side)]
    return cut_analysis(tuple(sorted(side)), cross,
                        [abs(p.theta - np.pi / 2) for p in cross])


def sfa_speedup(cut: CutAnalysis, fidelity_budget: float) -> float:
    """Speedup over the balanced 4^g path count from truncating low-weight
    Schmidt terms.

    Per gate, the normalized squared Schmidt weights sum to one; terms are
    retained by descending weight.  Truncation drops the globally smallest
    retained weights while the product of per-gate retained fractions stays
    at least 1 - budget (zero-weight terms are free).  The speedup is
    4^g divided by the product of retained ranks, so balanced gates give 1 at
    zero budget and the factor is nondecreasing in the budget.
    """
    if not 0.0 <= fidelity_budget <= 1.0:
        raise InputError(f"fidelity budget {fidelity_budget} outside [0, 1]")
    weights = [sorted((v * v / 4.0 for v in s), reverse=True) for s in cut.spectra]
    ranks = []
    fractions = []
    for w in weights:
        rank = max(1, sum(1 for v in w if v > _ZERO_WEIGHT))
        ranks.append(rank)
        fractions.append(sum(w[:rank]))
    floor = 1.0 - fidelity_budget
    product = float(np.prod(fractions)) if fractions else 1.0
    while True:
        candidates = [
            (weights[i][ranks[i] - 1], i) for i in range(len(weights)) if ranks[i] > 1
        ]
        if not candidates:
            break
        w, i = min(candidates)
        new_fraction = fractions[i] - w
        new_product = product / fractions[i] * new_fraction if fractions[i] > 0 else 0.0
        if w > _ZERO_WEIGHT and new_product < floor - 1e-15:
            break
        ranks[i] -= 1
        fractions[i] = new_fraction
        product = new_product
    speedup = 4.0 ** cut.g
    for rank in ranks:
        speedup /= rank
    return float(speedup)
