"""Linear cross-entropy benchmarking and its statistical toolkit.

The fidelity estimator is F = D * mean(p) - 1 over the ideal probabilities p
of the measured bitstrings (D = 2^n).  Its statistical uncertainty is
sigma = D * sqrt(Var(p) / N).  The scaled probability x = D*p of a sample
from a fidelity-F device follows the density (F*x + (1 - F)) * exp(-x), which
interpolates between exp(-x) at F=0 and the size-biased x*exp(-x) at F=1.

All reductions use numpy's pairwise summation, so results are deterministic
and independent of any chunking.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import rng, simulator
from .circuit import extract_subcircuit
from .errors import InputError
from .samples import SampleSet, select_bits

# Largest index matrix one bootstrap chunk draws (elements): 16 MiB of int64
# plus as much for the gathered probabilities.
_BOOTSTRAP_CHUNK = 1 << 21


@dataclass(frozen=True)
class ProbabilityRecord:
    """Ideal probabilities of each sampled bitstring."""

    probs: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 1:
            raise InputError("probabilities must be a flat array")
        if self.probs.size and (self.probs.min() < 0 or self.probs.max() > 1):
            raise InputError("probabilities outside [0, 1]")

    @property
    def n_samples(self) -> int:
        return int(self.probs.size)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class XebEstimate:
    fidelity: float
    sigma: float
    n_samples: int


def probabilities_of_samples(distribution: np.ndarray, samples: SampleSet) -> ProbabilityRecord:
    """Look up each sampled word in a full ideal distribution."""
    dist = np.asarray(distribution, dtype=float)
    if dist.size != 1 << samples.n_qubits:
        raise InputError("distribution size does not match the sample width")
    return ProbabilityRecord(dist[samples.words.astype(np.int64)], samples.n_qubits)


def xeb_sigma(rec: ProbabilityRecord) -> float:
    """Statistical uncertainty D * sqrt(Var(p) / N), unbiased variance."""
    if rec.n_samples < 2:
        raise InputError("need at least two samples for an uncertainty")
    return float(rec.dim * np.sqrt(np.var(rec.probs, ddof=1) / rec.n_samples))


def linear_xeb(rec: ProbabilityRecord) -> XebEstimate:
    """Linear XEB fidelity D * mean(p) - 1 with its uncertainty."""
    if rec.n_samples < 2:
        raise InputError("need at least two samples")
    fidelity = float(rec.dim * np.mean(rec.probs) - 1.0)
    return XebEstimate(fidelity, xeb_sigma(rec), rec.n_samples)


def pt_cdf(x, fidelity: float):
    """Closed-form CDF 1 - exp(-x) * (1 + F*x)."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-x) * (1.0 + fidelity * x)


def ks_test(rec: ProbabilityRecord, f_hypothesis: float) -> tuple[float, float]:
    """One-sample two-sided KS test of {D*p} against the fidelity-F model.

    Returns (statistic, p-value); the p-value uses the asymptotic Kolmogorov
    distribution with the standard sqrt(N) scaling.
    """
    if rec.n_samples < 10:
        raise InputError("KS test needs at least 10 samples")
    x = np.sort(rec.dim * rec.probs)
    cdf = pt_cdf(x, f_hypothesis)
    n = x.size
    grid = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
    p_value = float(special.kolmogorov(np.sqrt(n) * stat))
    return stat, p_value


def bootstrap_xeb(
    rec: ProbabilityRecord,
    n_resamples: int = 2500,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Resample the probabilities with replacement and recompute the
    fidelity; returns (std of resampled fidelities, the fidelities)."""
    if n_resamples < 100:
        raise InputError("need at least 100 bootstrap resamples")
    gen = rng.stream(seed, rng.Stream.BOOTSTRAP)
    n = rec.n_samples
    fids = np.empty(n_resamples)
    chunk = max(1, _BOOTSTRAP_CHUNK // max(n, 1))  # the draws do not depend on it
    for lo in range(0, n_resamples, chunk):
        hi = min(lo + chunk, n_resamples)
        idx = gen.integers(0, n, size=(hi - lo, n))
        fids[lo:hi] = rec.dim * rec.probs[idx].mean(axis=1) - 1.0
    return float(np.std(fids, ddof=1)), fids


def product_xeb(estimates: list[XebEstimate]) -> XebEstimate:
    """Combine per-patch estimates of a factorized circuit into one fidelity:
    the product of the patch fidelities, with first-order error propagation."""
    if not estimates:
        raise InputError("nothing to combine")
    fidelity = float(np.prod([e.fidelity for e in estimates]))
    var = 0.0
    for i, e in enumerate(estimates):
        others = np.prod([o.fidelity for j, o in enumerate(estimates) if j != i])
        var += (others * e.sigma) ** 2
    return XebEstimate(fidelity, float(np.sqrt(var)), estimates[0].n_samples)


def _normalized_estimate(dist: np.ndarray, rec: ProbabilityRecord) -> XebEstimate:
    est = linear_xeb(rec)
    collision = float(dist.size * np.sum(dist**2) - 1.0)
    return XebEstimate(est.fidelity / collision, est.sigma / collision, est.n_samples)


def measured_xeb(circuit, samples: SampleSet, limit: int | None = None):
    """Fidelity of measured samples against the circuit's own ideal
    probabilities, normalized by the ideal collision ratio D*sum(p^2) - 1 of
    each evaluated subsystem.  The ratio converges to 1 for deep circuits, so
    at scale this is the plain linear XEB; at desk sizes the normalization
    removes the per-instance finite-dimension bias.

    For patch circuits (no cross-partition gates) the state factorizes, so
    each side is evaluated in its own Hilbert space and the fidelities are
    multiplied; whole-system XEB is not normalizable for a product state.
    Returns (estimate, records) with one probability record per evaluated
    subsystem.
    """
    limit = simulator.DEFAULT_QUBIT_LIMIT if limit is None else limit
    if samples.n_qubits != circuit.n_qubits:
        raise InputError("sample width does not match the circuit")
    if circuit.variant == "patch" and circuit.bipartition:
        side_a = tuple(sorted(circuit.bipartition))
        side_b = tuple(q for q in circuit.qubits if q not in set(side_a))
        estimates, records = [], []
        pos = {q: i for i, q in enumerate(circuit.qubits)}
        for side in (side_a, side_b):
            sub = extract_subcircuit(circuit, side)
            dist = simulator.probabilities(simulator.run(sub, limit=limit))
            sub_samples = select_bits(samples, [pos[q] for q in side])
            rec = probabilities_of_samples(dist, sub_samples)
            records.append(rec)
            estimates.append(_normalized_estimate(dist, rec))
        return product_xeb(estimates), records
    dist = simulator.probabilities(simulator.run(circuit, limit=limit))
    rec = probabilities_of_samples(dist, samples)
    return _normalized_estimate(dist, rec), [rec]


def combine_inverse_variance(estimates: list[XebEstimate]) -> XebEstimate:
    """Inverse-variance weighted combination of independent estimates."""
    if not estimates:
        raise InputError("nothing to combine")
    if any(e.sigma <= 0 for e in estimates):
        raise InputError("every estimate needs a positive sigma")
    w = np.array([1.0 / e.sigma**2 for e in estimates])
    f = np.array([e.fidelity for e in estimates])
    total_w = w.sum()
    return XebEstimate(
        fidelity=float((w * f).sum() / total_w),
        sigma=float(np.sqrt(1.0 / total_w)),
        n_samples=sum(e.n_samples for e in estimates),
    )
