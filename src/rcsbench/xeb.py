"""Linear cross-entropy benchmarking and its statistical toolkit.

The fidelity estimator is F = D * mean(p) - 1 over the ideal probabilities p
of the measured bitstrings (D = 2^n).  Its statistical uncertainty is
sigma = D * sqrt(Var(p) / N).  The scaled probability x = D*p of a sample
from a fidelity-F device follows the density (F*x + (1 - F)) * exp(-x), which
interpolates between exp(-x) at F=0 and the size-biased x*exp(-x) at F=1.

The KS p-value is the Kolmogorov survival function P(K > x), summed in
closed form (Marsaglia, Tsang & Wang, J. Stat. Softw. 8(18), 2003): below
x = 0.82 the theta-function form 1 - sqrt(2 pi)/x * sum_k q^((2k-1)^2) with
q = exp(-pi^2 / (8 x^2)), from there the alternating series
2 * sum_k (-1)^(k-1) exp(-2 k^2 x^2).  Two and five terms reach double
precision on either side of the cutover: the first omitted term is below
1e-19 of the sum at x = 0.82, and less beyond.  Against a 50-digit
evaluation on [0.3, 3] the relative error is within 1.2 (1 + x^2) ulp, the
x^2 from rounding the exponent 2 k^2 x^2.  Against SciPy's
``special.kolmogorov`` on [1e-3, 30] it is within 1e-14 relative and 5e-15
absolute; the largest gaps sit just above 0.82, where SciPy's own value is
about 1e-14 off the 50-digit one, the size of the fifth term.

All reductions use numpy's pairwise summation, so results are deterministic
and independent of any chunking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng, simulator
from .circuit import extract_subcircuit
from .errors import InputError
from .samples import SampleSet, select_bits

# Largest index matrix one bootstrap chunk draws (elements): 2 MiB of int64
# plus as much for the gathered probabilities.  The resamples do not depend
# on it.
_BOOTSTRAP_CHUNK = 1 << 18


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
    """Look up each sampled word in a full ideal distribution, through an
    int64 view of the words: the size check keeps them below 2^63."""
    dist = np.asarray(distribution, dtype=float)
    if dist.size != 1 << samples.n_qubits:
        raise InputError("distribution size does not match the sample width")
    return ProbabilityRecord(dist[samples.words.view(np.int64)], samples.n_qubits)


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


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) of the Kolmogorov distribution: theta-function form below
    0.82, alternating series from there (see the module docstring)."""
    if x <= 0:
        return 1.0
    if x < 0.82:
        q = math.exp(-math.pi**2 / (8 * x * x))
        return 1.0 - math.sqrt(2 * math.pi) / x * (q + q**9)
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 6))


def ks_test(rec: ProbabilityRecord, f_hypothesis: float) -> tuple[float, float]:
    """One-sample two-sided KS test of {D*p} against the fidelity-F model.

    Returns (statistic, p-value); the p-value is the asymptotic Kolmogorov
    survival function at sqrt(N) * statistic, from the two-branch series of
    the module docstring (``_kolmogorov_sf``), which agrees with
    SciPy's ``special.kolmogorov`` within 1e-14 relative.
    """
    if rec.n_samples < 10:
        raise InputError("KS test needs at least 10 samples")
    x = np.sort(rec.dim * rec.probs)
    cdf = pt_cdf(x, f_hypothesis)
    n = x.size
    grid = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
    p_value = _kolmogorov_sf(math.sqrt(n) * stat)
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


def measured_xeb(circuit, samples: SampleSet):
    """Fidelity of measured samples against the circuit's own ideal
    probabilities, normalized by the ideal collision ratio D*sum(p^2) - 1 of
    each evaluated subsystem.  The ratio converges to 1 for deep circuits, so
    at scale this is the plain linear XEB; at desk sizes the normalization
    removes the per-instance finite-dimension bias.

    A patch circuit has no gate across its parts, so its state factorizes:
    each part is evaluated in its own Hilbert space and the fidelities are
    multiplied (whole-system XEB is not normalizable for a product state).
    Any other circuit is one part.  The memory of the largest part is
    checked before any part is simulated.  Returns (estimate, records) with
    one probability record per part.
    """
    if samples.n_qubits != circuit.n_qubits:
        raise InputError("sample width does not match the circuit")
    parts = (circuit.parts if circuit.variant == "patch" else None) or (circuit.qubits,)
    largest = max(map(len, parts))
    simulator.check_memory(simulator.memory_need(largest, 2), f"a {largest}-qubit run")
    pos = {q: i for i, q in enumerate(circuit.qubits)}
    estimates, records = [], []
    for part in parts:
        if len(parts) == 1:
            sub, sub_samples = circuit, samples
        else:
            sub = extract_subcircuit(circuit, part)
            sub_samples = select_bits(samples, [pos[q] for q in part])
        dist = simulator.probabilities(simulator.run(sub))
        records.append(probabilities_of_samples(dist, sub_samples))
        est = linear_xeb(records[-1])
        collision = float(dist.size * np.sum(dist**2) - 1.0)
        estimates.append(XebEstimate(est.fidelity / collision, est.sigma / collision,
                                     est.n_samples))
    est = estimates[0] if len(estimates) == 1 else product_xeb(estimates)
    return est, records


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
