from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, special, stats

import rcsbench as rb
from rcsbench import simulator, xeb
from rcsbench.circuit import grid_parts
from rcsbench.errors import InputError, ResourceLimitError
from rcsbench.samples import pack_bits
from rcsbench.xeb import ProbabilityRecord

from oracles import fit_gaussian_sigma, pt_pdf


def model_draws(fidelity, n, gen, n_qubits=12):
    """Exact draws from the scaled-probability law (F x + 1 - F) e^{-x}:
    a Gamma(2)/Exp(1) mixture.  Returns a record with p = x / D."""
    mask = gen.random(n) < fidelity
    x = np.where(mask, gen.gamma(2.0, size=n), gen.exponential(size=n))
    return ProbabilityRecord(np.minimum(x, (1 << n_qubits) * 0.999) / (1 << n_qubits), n_qubits)


class TestLinearXeb:
    def test_uniform_probs_give_zero(self):
        rec = ProbabilityRecord(np.full(100, 1 / 4096), 12)
        assert rb.linear_xeb(rec).fidelity == pytest.approx(0.0, abs=1e-12)

    def test_arithmetic_example(self):
        rec = ProbabilityRecord(np.array([0.5, 0.5]), 2)
        assert rb.linear_xeb(rec).fidelity == pytest.approx(1.0)

    def test_ideal_sampling_consistent(self, deep_12q_state):
        _, state, dist = deep_12q_state
        ss = rb.sample_ideal(state, 200_000, seed=20)
        est = rb.linear_xeb(rb.probabilities_of_samples(dist, ss))
        assert abs(est.fidelity - 1.0) < 3 * est.sigma

    def test_rejects_tiny_records(self):
        with pytest.raises(InputError):
            rb.linear_xeb(ProbabilityRecord(np.array([0.1]), 4))


class TestSigma:
    def test_constant_probs_zero_sigma(self):
        rec = ProbabilityRecord(np.full(50, 1 / 16), 4)
        assert rb.xeb_sigma(rec) == 0.0

    def test_sigma_shrinks_like_sqrt_n(self):
        gen = np.random.default_rng(21)
        rec1 = model_draws(0.4, 50_000, gen)
        rec2 = model_draws(0.4, 100_000, gen)
        ratio = rb.xeb_sigma(rec2) / rb.xeb_sigma(rec1)
        assert abs(ratio - 1 / np.sqrt(2)) < 0.1 / np.sqrt(2)

    def test_matches_bootstrap_within_10_percent(self, deep_12q_state):
        _, state, dist = deep_12q_state
        ss = rb.sample_noisy_speckle(state, 0.4, 50_000, seed=22)
        rec = rb.probabilities_of_samples(dist, ss)
        sigma = rb.xeb_sigma(rec)
        sigma_boot, _ = rb.bootstrap_xeb(rec, 2500, seed=23)
        assert abs(sigma_boot - sigma) / sigma < 0.10


class TestModelDistribution:
    def test_pdf_at_zero(self):
        assert pt_pdf(0.0, 0.3) == pytest.approx(0.7)

    def test_pdf_at_f0_is_exponential(self):
        x = np.linspace(0, 5, 11)
        assert np.allclose(pt_pdf(x, 0.0), np.exp(-x))

    @pytest.mark.parametrize("fidelity", [0.0, 0.3, 1.0])
    def test_pdf_integrates_to_one(self, fidelity):
        total, _ = integrate.quad(lambda x: pt_pdf(x, fidelity), 0, np.inf)
        assert abs(total - 1) < 1e-8

    def test_cdf_at_zero_and_limits(self):
        assert rb.pt_cdf(0.0, 0.5) == 0.0
        assert rb.pt_cdf(1.0, 0.0) == pytest.approx(1 - np.exp(-1))
        assert rb.pt_cdf(60.0, 1.0) == pytest.approx(1.0)

    def test_cdf_monotone(self):
        x = np.linspace(0, 20, 400)
        for f in (0.0, 0.4, 1.0):
            assert np.all(np.diff(rb.pt_cdf(x, f)) >= 0)

    def test_cdf_derivative_matches_pdf(self):
        h = 1e-6
        for f in (0.0, 0.37, 1.0):
            for x in (0.1, 0.9, 2.7, 6.0):
                deriv = (rb.pt_cdf(x + h, f) - rb.pt_cdf(x - h, f)) / (2 * h)
                assert abs(deriv - pt_pdf(x, f)) < 1e-6


def _kolmogorov_sf_50_digits(x):
    """2 * sum (-1)^(k-1) exp(-2 k^2 x^2) at 50 digits; 40 terms converge for
    x >= 0.3."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(float(x))
        return float(2 * sum((-1) ** (k - 1) * (-2 * k * k * d * d).exp()
                             for k in range(1, 41)))


class TestKolmogorovSf:
    CUT = 0.82
    AROUND_CUT = [np.nextafter(CUT, 0), CUT, np.nextafter(CUT, 1)]

    def test_matches_scipy(self):
        grid = np.unique(np.concatenate([
            np.linspace(1e-3, 30, 30_001), np.geomspace(1e-3, 30, 10_001),
            np.linspace(0.8, 0.84, 401), self.AROUND_CUT]))
        ours = np.array([xeb._kolmogorov_sf(x) for x in grid])
        ref = special.kolmogorov(grid)
        assert np.abs(ours - ref).max() <= 1e-14
        tail = ref > 1e-300
        assert (np.abs(ours - ref)[tail] / ref[tail]).max() <= 1e-13
        assert np.all(np.diff(ours) <= 0)

    def test_matches_50_digits_near_the_cutover(self):
        # Tighter than the scipy check, whose own value is about 1e-14 off
        # just above the cutover: every term of both sums shows here.  The
        # x^2 allows for the rounding of 2 k^2 x^2.
        grid = np.concatenate([np.linspace(0.3, 3, 541), self.AROUND_CUT])
        ours = np.array([xeb._kolmogorov_sf(x) for x in grid])
        ref = np.array([_kolmogorov_sf_50_digits(x) for x in grid])
        rel = np.abs(ours - ref) / ref
        assert np.all(rel <= 4 * np.finfo(float).eps * (1 + grid**2))

    @pytest.mark.parametrize("x", [0.0, -0.0, -1e-300, -2.0, -np.inf])
    def test_nonpositive_gives_one(self, x):
        assert xeb._kolmogorov_sf(x) == 1.0


class TestKsTest:
    def test_reorder_invariance(self):
        gen = np.random.default_rng(24)
        rec = model_draws(0.3, 2000, gen)
        stat1, p1 = rb.ks_test(rec, 0.3)
        shuffled = rec.probs.copy()
        gen.shuffle(shuffled)
        stat2, p2 = rb.ks_test(ProbabilityRecord(shuffled, rec.n_qubits), 0.3)
        assert stat1 == stat2 and p1 == p2

    def test_p_uniform_under_true_model(self):
        gen = np.random.default_rng(25)
        pvals = [rb.ks_test(model_draws(0.3, 5000, gen), 0.3)[1]
                 for _ in range(200)]
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

    def test_dual_hypothesis_pattern(self, deep_12q_state):
        # modest sample count: at n=12 the instance's shape deviation from
        # the chaotic-state law becomes detectable at large N_s
        _, state, dist = deep_12q_state
        ss = rb.sample_noisy_speckle(state, 0.3, 10_000, seed=27)
        rec = rb.probabilities_of_samples(dist, ss)
        est = rb.linear_xeb(rec)
        _, p_fit = rb.ks_test(rec, est.fidelity)
        _, p_zero = rb.ks_test(rec, 0.0)
        assert p_fit > 0.05
        assert p_zero < 1e-3

    def test_needs_ten_samples(self):
        with pytest.raises(InputError):
            rb.ks_test(ProbabilityRecord(np.full(5, 0.1), 4), 0.0)


class TestBootstrap:
    def test_constant_probs_zero(self):
        rec = ProbabilityRecord(np.full(1000, 1 / 4096), 12)
        sigma, fids = rb.bootstrap_xeb(rec, 200, seed=0)
        assert sigma == 0.0

    def test_deterministic_per_seed(self):
        gen = np.random.default_rng(27)
        rec = model_draws(0.5, 5000, gen)
        a = rb.bootstrap_xeb(rec, 300, seed=1)
        b = rb.bootstrap_xeb(rec, 300, seed=1)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_histogram_approximately_gaussian(self):
        gen = np.random.default_rng(28)
        rec = model_draws(0.5, 20_000, gen)
        _, fids = rb.bootstrap_xeb(rec, 2500, seed=2)
        assert stats.normaltest(fids).pvalue > 0.01

    def test_gaussian_fit_agrees(self):
        gen = np.random.default_rng(29)
        rec = model_draws(0.5, 20_000, gen)
        sigma_boot, fids = rb.bootstrap_xeb(rec, 2500, seed=3)
        sigma_fit = fit_gaussian_sigma(fids)
        assert abs(sigma_fit - sigma_boot) / sigma_boot < 0.10

    def test_chunking_does_not_change_resamples(self, monkeypatch):
        gen = np.random.default_rng(30)
        rec = model_draws(0.5, 1001, gen)
        want = rb.bootstrap_xeb(rec, 101, seed=4)
        monkeypatch.setattr(xeb, "_BOOTSTRAP_CHUNK", 2 * 1001)  # 2 rows, then 1
        got = rb.bootstrap_xeb(rec, 101, seed=4)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_rejects_few_resamples(self):
        rec = ProbabilityRecord(np.full(100, 0.01), 8)
        with pytest.raises(InputError):
            rb.bootstrap_xeb(rec, 50, seed=0)


class TestCombination:
    def test_two_identical_estimates(self):
        e = rb.XebEstimate(0.4, 0.1, 100)
        out = rb.combine_inverse_variance([e, e])
        assert out.fidelity == pytest.approx(0.4)
        assert out.sigma == pytest.approx(0.1 / np.sqrt(2))

    def test_arithmetic_example(self):
        out = rb.combine_inverse_variance(
            [rb.XebEstimate(0.2, 0.1, 10), rb.XebEstimate(0.4, 0.1, 10)])
        assert out.fidelity == pytest.approx(0.3)
        assert out.sigma == pytest.approx(0.1 / np.sqrt(2), rel=1e-6)

    def test_sigma_below_min_input(self):
        gen = np.random.default_rng(30)
        ests = [rb.XebEstimate(float(gen.uniform(0, 1)), float(gen.uniform(0.05, 0.2)), 10)
                for _ in range(6)]
        out = rb.combine_inverse_variance(ests)
        assert out.sigma <= min(e.sigma for e in ests)

    def test_k_identical_shrinks_exactly_sqrt_k(self):
        e = rb.XebEstimate(0.25, 0.08, 10)
        for k in (2, 5, 9):
            out = rb.combine_inverse_variance([e] * k)
            assert out.sigma == pytest.approx(0.08 / np.sqrt(k), rel=1e-12)

    def test_rejects_zero_sigma(self):
        with pytest.raises(InputError):
            rb.combine_inverse_variance([rb.XebEstimate(0.5, 0.0, 10)])


class TestProductXeb:
    def test_product_and_error_propagation(self):
        a = rb.XebEstimate(0.9, 0.02, 10)
        b = rb.XebEstimate(0.8, 0.05, 10)
        out = rb.product_xeb([a, b])
        assert out.fidelity == pytest.approx(0.72)
        assert out.sigma == pytest.approx(
            np.sqrt((0.8 * 0.02) ** 2 + (0.9 * 0.05) ** 2))

    def test_patch_evaluation_factorizes(self, grid_4x4):
        c = rb.standard_circuit(grid_4x4, 10, seed=3)
        patch = rb.make_patch(c, grid_parts(c, col_cuts=(2,)))
        state = rb.run(patch)
        ss = rb.sample_ideal(state, 50_000, seed=31)
        est, records = rb.measured_xeb(patch, ss)
        assert len(records) == 2
        assert abs(est.fidelity - 1.0) < 4 * est.sigma

    def test_patch_of_a_patch_scores_each_quadrant(self, grid_4x4):
        # cut by row, then by column: the state factorises over the quadrants
        c = rb.standard_circuit(grid_4x4, 12, seed=3)
        patch = rb.make_patch(rb.make_patch(c, grid_parts(c, row_cuts=(2,))),
                              grid_parts(c, col_cuts=(2,)))
        n_samples = 20_000
        bits = np.zeros((n_samples, patch.n_qubits), dtype=np.uint8)
        for i, part in enumerate(patch.parts):
            state = rb.run(rb.extract_subcircuit(patch, part))
            words = rb.sample_noisy_speckle(state, 0.5, n_samples, seed=101 + i)
            bits[:, [patch.qubits.index(q) for q in part]] = words.bits()
        est, records = rb.measured_xeb(patch, rb.SampleSet(patch.n_qubits, pack_bits(bits)))
        assert len(records) == 4
        assert abs(est.fidelity - 0.5 ** 4) < 5 * est.sigma

    def test_patch_memory_checked_before_any_part_runs(self, grid_4x4, monkeypatch):
        # parts of 4 and 12 qubits under a budget between their needs: the
        # 12-qubit part is refused before the 4-qubit part is simulated
        c = rb.standard_circuit(grid_4x4, 4, seed=3)
        patch = rb.make_patch(c, grid_parts(c, col_cuts=(1,)))
        assert sorted(map(len, patch.parts)) == [4, 12]
        samples = rb.sample_ideal(rb.run(patch), 100, seed=1)
        runs = []
        run = simulator.run

        def recorded_run(circuit):
            runs.append(circuit.n_qubits)
            return run(circuit)

        monkeypatch.setattr(simulator, "run", recorded_run)
        monkeypatch.setattr(simulator, "_MEMORY_BUDGET", simulator.memory_need(8, 2))
        with pytest.raises(ResourceLimitError):
            rb.measured_xeb(patch, samples)
        assert runs == []


class TestEstimatorUnbiasedness:
    @pytest.mark.parametrize("fidelity", [0.0, 0.25, 0.5, 1.0])
    def test_mean_over_runs(self, fidelity, deep_12q_state):
        _, state, dist = deep_12q_state
        n_runs, n_samples = 20, 50_000
        fids, sigmas = [], []
        for r in range(n_runs):
            ss = rb.sample_noisy_speckle(state, fidelity, n_samples, seed=300 + r)
            est = rb.linear_xeb(rb.probabilities_of_samples(dist, ss))
            fids.append(est.fidelity)
            sigmas.append(est.sigma)
        mean = float(np.mean(fids))
        tol = 3 * float(np.mean(sigmas)) / np.sqrt(n_runs)
        assert abs(mean - fidelity) < tol
