"""Classical-cost estimation: tensor-network contraction paths with slicing,
sampling-cost extrapolation, and split-simulation (Schroedinger-Feynman
style) cut analysis with operator-Schmidt truncation.

Cost convention: every index is a qubit wire of dimension 2, so a tensor of
rank r has 2^r entries.  Merging tensors A and B costs 2^|A | B|, counting
one complex multiply-add as one operation.  An index is summed out of a
merge result when no other tensor carries it and it is not open.  Slicing
fixes index values to bound the largest intermediate tensor, multiplying
the work by the slice count, 2^s for s sliced indices.  Slicing an open
index computes the amplitude batch in parts, one part per slice;
``total_flops`` counts all parts.  The network's gate tensors and the cut
census take their gates from `Circuit.gates`, the one gate order: tensor
``g{k}`` is gate k, the simulator's site k.

In a valid network every index sits on exactly two live tensors, or on one
if it is open, and a merge keeps it so.  Hence the result of merging A and
B is their symmetric difference ``A ^ B``: the shared indices are summed
out and every other index still has its second holder (or is open).

The greedy search holds each live tensor's index set as an integer bitmask
(bit k is the k-th index of ``TensorNetwork.indices``) and each live
tensor's neighbours, the tensors it shares an index with, as a set.  By the
same invariant the neighbours of the result of merging a and b are those of
a and of b, less a and b.  Scored pairs wait on a heap and are dropped when
they surface dead; the few best live pairs a randomised restart did not
choose wait in a short sorted held list instead.  Each pair is one int that
packs its score above its two tensor ids, so the heap compares ints and
sorts as (score, i, j) would.  Sizes come from a table of 2^r as floats.  A
randomised restart takes its choices from buffered raw words of its stream,
the values `numpy.random.Generator.integers` would draw one call at a time.

Paths are in single-assignment form: the network's tensors are 0..n-1 and
the k-th merge (from 0) makes tensor n+k, so a merge names its operands by
id and every id is merged at most once.  Slicing an index removes it from
every intermediate and leaves every other index on its two holders, so one
replay of a path gives the intermediates under any sliced set.
"""
from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import rng
from .circuit import Circuit, check_parts
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
    """Structural tensor network: tensor ids with their index lists, and the
    open indices.  Every index is a qubit wire of dimension 2.

    Every index must appear on exactly two tensors (contracted) or on exactly
    one tensor and in ``open_indices`` (open).
    """

    tensors: tuple[tuple[str, tuple[str, ...]], ...]
    open_indices: tuple[str, ...]

    @property
    def indices(self) -> tuple[str, ...]:
        """The index names in order of first appearance."""
        return tuple(dict.fromkeys(name for _, idx in self.tensors for name in idx))

    def validate(self) -> None:
        occ = Counter()
        for _, idx in self.tensors:
            if len(set(idx)) != len(idx):
                raise InputError("tensor repeats an index")
            occ.update(idx)
        open_set = set(self.open_indices)
        if len(open_set) != len(self.open_indices):
            raise InputError("duplicate open index")
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
    one rank-2/rank-4 tensor ``g{k}`` per gate k of `Circuit.gates`, over
    its qubits' input then output indices, a rank-1 projector on every
    closed output, and one open index per open qubit."""
    open_set = {int(q) for q in open_qubits}
    unknown = open_set - set(circuit.qubits)
    if unknown:
        raise InputError(f"open qubits not in the circuit: {sorted(unknown)}")

    wire = {q: 0 for q in circuit.qubits}
    current: dict[int, str] = {}  # each qubit's latest index

    def fresh(q: int) -> str:
        name = current[q] = f"q{q}.{wire[q]}"
        wire[q] += 1
        return name

    tensors = [(f"in:{q}", (fresh(q),)) for q in circuit.qubits]
    for k, (_, qubits, _) in enumerate(circuit.gates()):
        tensors.append((f"g{k}", (*map(current.get, qubits), *map(fresh, qubits))))
    tensors += [(f"out:{q}", (current[q],)) for q in circuit.qubits if q not in open_set]
    open_indices = tuple(current[q] for q in circuit.qubits if q in open_set)
    tn = TensorNetwork(tuple(tensors), open_indices)
    tn.validate()
    return tn


def _as_float(count: int) -> float:
    """An exact integer size, slice count or path count as a float.  A count
    beyond the float range raises `ResourceLimitError`."""
    try:
        return float(count)
    except OverflowError:
        raise ResourceLimitError(
            f"a count of 2^{count.bit_length() - 1} or more "
            "exceeds the float range") from None


# Entry count 2^r of a rank-r tensor as a float, for every rank whose count
# is in the float range.
_SIZES = [float(1 << r) for r in range(1024)]


def _size(rank: int) -> float:
    """Entry count 2^rank of a rank-``rank`` tensor, as a float; a count past
    the float range raises `ResourceLimitError`."""
    try:
        return _SIZES[rank]
    except IndexError:
        raise ResourceLimitError(
            f"a count of 2^{rank} or more exceeds the float range") from None


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
        costs.append(_size(len(ta | tb)))
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
    (cost, restart); the seed is checked even if no restart draws.  The
    network's neighbour pairs are scored once; each restart starts from a
    copy of that heap and costs its own merges, so no restart is replayed.

    A live tensor's index set is an integer bitmask (bit k is the k-th index
    of ``tn.indices``), and its size is 2 to the mask's popcount, as
    `replay_path` counts it; a size past the float range raises
    `ResourceLimitError`.  Each live tensor keeps the set of tensors it
    shares an index with; by the two-holder invariant the neighbours of the
    result of merging a and b are those of a and of b, less a and b.

    A scored pair (i, j), i < j, is one packed int, ``(score << 2B) | (i <<
    B) | j`` with ``B = (2n).bit_length()`` bits per tensor id (`_pair`), so
    entries sort as ``(score, i, j)`` tuples would.  The score is computed
    in floats, as `replay_path` counts sizes, and is integer-valued, so
    ``int`` keeps its order and ties exactly.

    Each merge needs the ``_GREEDY_TOP_K`` best live pairs (one for restart
    0).  The k-1 a restart did not choose stay in a sorted held list, less
    those a merge killed; the heap is popped only while that list is short or
    the heap's best pair sorts below the worst held one, and a pair pushed
    out of the list goes back onto the heap.  The pairs are distinct, so the
    k best are the same as popping k live pairs and pushing the rest back.
    A restart's choices are the draws ``gen.integers(0, k)`` would give,
    taken from buffered raw words of its stream (`_uniform_draws`).
    """
    tn.validate()
    rng.check_seed(seed)
    if restarts < 1:
        raise InputError("need at least one restart")
    bits = {name: 1 << k for k, name in enumerate(tn.indices)}
    n = len(tn.tensors)
    id_bits = (2 * n).bit_length()
    leaves = [sum(bits[name] for name in idx) for _, idx in tn.tensors]
    sizes = [_size(mask.bit_count()) for mask in leaves]
    holders: dict[str, list[int]] = defaultdict(list)
    for i, (_, idx) in enumerate(tn.tensors):
        for name in idx:
            holders[name].append(i)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for h in holders.values():
        if len(h) == 2:
            nbrs[h[0]].add(h[1])
            nbrs[h[1]].add(h[0])
    heap = [_pair(_size((leaves[a] ^ leaves[b]).bit_count()) - sizes[a] - sizes[b],
                  a, b, id_bits)
            for a in range(n) for b in nbrs[a] if a < b]
    heapq.heapify(heap)
    best: ContractionPath | None = None
    totals = []
    for r in range(restarts):
        gen = rng.stream(seed, rng.Stream.PATH_SEARCH, index=r) if r else None
        try:
            merges, costs, largest = _greedy_once(leaves, sizes, nbrs, heap, id_bits, gen)
        except IndexError:  # a rank past the end of the size table
            raise ResourceLimitError(
                f"a tensor of rank {len(_SIZES)} or more exceeds the float range") from None
        total = float(sum(costs))
        totals.append(total)
        if best is None or total < best.total_flops:
            best = ContractionPath(merges, tuple(costs), total, largest)
    return best, tuple(totals)


# A score below every finite one, for a growth that overflowed to -inf: two
# network tensors of 2^1023 entries each.
_SCORE_FLOOR = -(1 << 1024)


def _pair(score: float, i: int, j: int, id_bits: int) -> int:
    """The heap entry of pair (i, j), i < j < 2^id_bits, of integer-valued
    growth ``score``: one int that sorts as ``(score, i, j)`` does.
    `_greedy_once` packs the pairs it makes the same way, inline."""
    key = _SCORE_FLOOR if score == -math.inf else int(score)
    return (key << 2 * id_bits) | (i << id_bits) | j


def _uniform_draws(gen: np.random.Generator):
    """A function ``draw(k)``, 1 <= k < 2^32, whose calls give the values
    successive ``gen.integers(0, k)`` calls would.  It takes 32-bit words
    from 1024 raw 64-bit words of the bit generator at a time, low half
    first, as numpy's ``next_uint32`` does, and applies numpy's bounded rule
    (Lemire's): ``m = u32 * k``, drawn again while its low 32 bits are below
    ``2^32 % k``, gives ``m >> 32``; k = 1 draws nothing.  It draws ahead,
    so ``gen`` must serve nothing else."""
    raw = gen.bit_generator.random_raw

    def uint32s():
        while True:
            for word in raw(1024).tolist():
                yield word & 0xFFFFFFFF
                yield word >> 32

    next_u32 = uint32s().__next__

    def draw(k: int) -> int:
        if k == 1:
            return 0
        m = next_u32() * k
        threshold = 0x100000000 % k
        while m & 0xFFFFFFFF < threshold:
            m = next_u32() * k
        return m >> 32

    return draw


def _greedy_once(leaves, sizes, nbrs, heap, id_bits, gen):
    """One greedy contraction of the tensors with index bitmasks ``leaves``,
    sizes ``sizes`` and neighbour sets ``nbrs``, from the scored initial
    ``heap`` of `_pair` entries with ``id_bits`` bits per id; the arguments
    are not modified.  Returns the merges, each merge's cost (as
    `replay_path` counts it) and the largest result rank.  A size past the
    float range runs off the end of ``_SIZES`` and raises `IndexError`."""
    masks = list(leaves)
    sizes = list(sizes)
    nbrs = [set(s) for s in nbrs]
    heap = list(heap)
    n = len(masks)
    live = [True] * n
    top_k = _GREEDY_TOP_K if gen is not None else 1
    draw = _uniform_draws(gen) if gen is not None else None
    id_mask = (1 << id_bits) - 1
    score_shift = 2 * id_bits
    size_of = _SIZES
    merges: list[tuple[int, int]] = []
    costs: list[float] = []
    largest = 0
    heappush, heappop = heapq.heappush, heapq.heappop
    held: list[int] = []

    for c in range(n, 2 * n - 1):
        # held + heap is every scored pair not yet chosen; held ends as the
        # top_k best live ones, sorted.
        held = [e for e in held if live[e >> id_bits & id_mask] and live[e & id_mask]]
        while heap and (len(held) < top_k or heap[0] < held[-1]):
            e = heappop(heap)
            if live[e >> id_bits & id_mask] and live[e & id_mask]:
                insort(held, e)
                if len(held) > top_k:
                    heappush(heap, held.pop())
        if held:
            e = held.pop(0 if draw is None else draw(len(held)))
            a, b = e >> id_bits & id_mask, e & id_mask
        else:
            # disconnected components: join the two smallest by outer product
            ids = [i for i, alive in enumerate(live) if alive]
            a, b = sorted(sorted(ids, key=lambda i: (sizes[i], i))[:2])
        ma, mb = masks[a], masks[b]
        keep = ma ^ mb
        rank = keep.bit_count()
        size_c = size_of[rank]
        masks.append(keep)
        sizes.append(size_c)
        live[a] = live[b] = False
        live.append(True)
        merges.append((a, b))
        costs.append(size_of[(ma | mb).bit_count()])
        if rank > largest:
            largest = rank
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
            # finite: c has neighbours only if a and b shared an index; then
            # |a | b| > rank, and that cost fit the table, so size_c <= 2^1022
            score = size_of[(masks[j] ^ keep).bit_count()] - sizes[j] - size_c
            heappush(heap, (int(score) << score_shift) | (j << id_bits) | c)
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
    n_slices = 1 << len(sliced)
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
    total / reference flops.  A NaN or infinite sample count or reference
    is an `InputError`; a total or runtime past the float range raises
    `ResourceLimitError`.
    """
    flops_ref, seconds_ref = reference
    if not all(math.isfinite(v) for v in (n_samples, flops_ref, seconds_ref)):
        raise InputError("sample count and reference throughput must be finite")
    if flops_per_sample < 0 or n_samples < 0 or not 0 <= fidelity <= 1:
        raise InputError("cost inputs must be nonnegative, fidelity in [0, 1]")
    if flops_ref <= 0 or seconds_ref <= 0:
        raise InputError("reference throughput must be positive")
    total = flops_per_sample * n_samples * fidelity
    seconds = total / flops_ref * seconds_ref
    if not math.isfinite(seconds):
        raise ResourceLimitError("the sampling cost is past the float range")
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


def cut_analysis(gates, delta_theta) -> CutAnalysis:
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
    path_count = math.prod(sum(1 for v in s if v * v / 4.0 > _ZERO_WEIGHT) for s in spectra)
    return CutAnalysis(
        g=len(spectra),
        spectra=tuple(spectra),
        delta_theta=tuple(delta_theta),
        path_count=_as_float(path_count),
    )


def sfa_cut(circuit: Circuit, parts) -> CutAnalysis:
    """`cut_analysis` of the two-qubit gates joining the two ``parts`` of
    the circuit's qubits, in the order of `Circuit.gates`, with swap angle
    deviations |theta - pi/2|."""
    parts = check_parts(circuit.qubits, parts)
    if len(parts) != 2:
        raise InputError(f"a split simulation needs two parts, got {len(parts)}")
    side = frozenset(parts[0])
    cross = [p for _, qubits, p in circuit.gates()
             if len(qubits) == 2 and (qubits[0] in side) != (qubits[1] in side)]
    return cut_analysis(cross, [abs(p.theta - np.pi / 2) for p in cross])


def balanced_paths(cut: CutAnalysis) -> float:
    """The 4^g path count of g balanced cross-cut gates, as a float; past the
    float range it raises `ResourceLimitError`."""
    return _as_float(4 ** cut.g)


def sfa_speedup(cut: CutAnalysis, fidelity_budget: float) -> float:
    """Speedup over the balanced 4^g path count from truncating low-weight
    Schmidt terms.

    Per gate, the normalized squared Schmidt weights sum to one; terms are
    retained by descending weight.  Truncation drops the globally smallest
    retained weights while the product of per-gate retained fractions stays
    at least 1 - budget (zero-weight terms are free).  The speedup is
    4^g divided by the product of retained ranks, so balanced gates give 1 at
    zero budget and the factor is nondecreasing in the budget.  ``cost sfa
    --fidelity`` passes one number here as the budget and to
    `estimate_sampling_cost` as the fidelity multiplier.
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
    speedup = balanced_paths(cut)
    for rank in ranks:
        speedup /= rank
    return float(speedup)


def sfa_flops(cut: CutAnalysis, parts, speedup: float) -> float:
    """Modelled flops per sample of a split simulation cut into ``parts``:
    effective paths, the balanced 4^g over ``speedup``, times one path's
    work, 4 * (2^|A| + 2^|B|).  No executor checks this model yet."""
    per_path = 4.0 * sum(2.0 ** len(part) for part in parts)
    return balanced_paths(cut) / speedup * per_path
