import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgd.grid import Field, GridSpec
from pgd.priors import (
    GaussianDenoiser,
    GaussianPrior,
    GmmDenoiser,
    NoiseSchedule,
    fit_empirical_prior,
    load_prior,
    save_prior,
    score,
)

SPEC_4X4 = GridSpec(4, 4, 1, 1.0)  # flattened dimension 16


def unit_prior(mean=None):
    mu = Field.zeros(SPEC_4X4) if mean is None else mean
    return GaussianPrior(mu, "scalar", 1.0)


def test_schedule_endpoints_exact():
    sched = NoiseSchedule(sigma_max=80.0, sigma_min=0.002, steps=10, rho=7.0)
    assert sched.sigma_at(10) == 80.0
    assert sched.sigma_at(0) == 0.002
    with pytest.raises(ValueError):
        sched.sigma_at(11)


def test_schedule_midpoint_frozen_value():
    # frozen from a direct evaluation of the warp formula in a separate script
    sched = NoiseSchedule(sigma_max=80.0, sigma_min=0.002, steps=10, rho=7.0)
    assert sched.sigma_at(5) == pytest.approx(2.515218976147159, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    steps=st.integers(2, 300),
    rho=st.floats(1.0, 9.0),
    sigma_max=st.floats(1.0, 100.0),
)
def test_schedule_strictly_decreasing(steps, rho, sigma_max):
    sched = NoiseSchedule(sigma_max=sigma_max, sigma_min=0.002, steps=steps, rho=rho)
    sig = sched.sigmas()
    assert np.all(np.diff(sig) > 0)  # increasing in k means decreasing toward k=0
    assert sig[0] == sched.sigma_min and sig[-1] == sched.sigma_max


def test_gaussian_denoise_unit_prior_halves():
    x = np.linspace(-2, 2, 16)
    out = GaussianDenoiser(unit_prior()).denoise(x, sigma=1.0)
    assert np.allclose(out, x / 2.0)


def test_gaussian_denoise_sigma_zero_identity():
    x = np.arange(16.0)
    assert np.allclose(GaussianDenoiser(unit_prior()).denoise(x, 0.0), x)


def test_gaussian_denoise_degenerate_prior_returns_mean():
    rng = np.random.default_rng(0)
    mu = Field(SPEC_4X4, rng.standard_normal((1, 4, 4)))
    prior = GaussianPrior(mu, "scalar", 0.0)
    x = rng.standard_normal(16)
    assert np.allclose(GaussianDenoiser(prior).denoise(x, 0.7), mu.flat())


def test_gaussian_denoiser_limit_to_identity_at_small_sigma():
    rng = np.random.default_rng(1)
    cov = rng.standard_normal((16, 16))
    cov = cov @ cov.T + 0.5 * np.eye(16)
    prior = GaussianPrior(Field.zeros(SPEC_4X4), "dense", cov)
    den = GaussianDenoiser(prior)
    x = rng.standard_normal(16)
    assert np.max(np.abs(den.denoise(x, 1e-8) - x)) < 1e-6


def test_gaussian_score_matches_conjugate_formula():
    rng = np.random.default_rng(2)
    cov = rng.standard_normal((16, 16))
    cov = cov @ cov.T + 0.5 * np.eye(16)
    mu = rng.standard_normal(16)
    prior = GaussianPrior(Field.from_flat(SPEC_4X4, mu), "dense", cov)
    den = GaussianDenoiser(prior)
    x = rng.standard_normal(16)
    sigma = 0.8
    got = score(den, x, sigma)
    want = -np.linalg.solve(cov + sigma**2 * np.eye(16), x - mu)
    assert np.allclose(got, want, atol=1e-10)
    assert np.allclose(score(den, mu, sigma), 0.0, atol=1e-12)


def test_score_rejects_sigma_zero():
    with pytest.raises(ValueError):
        score(GaussianDenoiser(unit_prior()), np.zeros(16), 0.0)


def test_gaussian_denoiser_is_contraction():
    # operator norm of S (S + sigma^2 I)^{-1} is at most 1; power iteration spot check
    rng = np.random.default_rng(3)
    cov = rng.standard_normal((16, 16))
    cov = cov @ cov.T
    den = GaussianDenoiser(GaussianPrior(Field.zeros(SPEC_4X4), "dense", cov))
    for sigma in (0.1, 1.0, 10.0):
        v = rng.standard_normal(16)
        for _ in range(50):
            v = den.vjp(None, sigma, v)
            v /= np.linalg.norm(v)
        top = np.linalg.norm(den.vjp(None, sigma, v))
        assert top <= 1.0 + 1e-10
        assert den.jacobian_operator_norm(sigma) <= 1.0 + 1e-12


def test_gmm_single_component_equals_gaussian():
    rng = np.random.default_rng(4)
    mu = rng.standard_normal(16)
    x = rng.standard_normal(16)
    got = GmmDenoiser(np.array([1.0]), mu[None], np.array([0.49])).denoise(x, 0.9)
    prior = GaussianPrior(Field.from_flat(SPEC_4X4, mu), "scalar", 0.49)
    assert np.allclose(got, GaussianDenoiser(prior).denoise(x, 0.9), atol=1e-12)


def test_gmm_symmetric_midpoint_outputs_zero():
    mu = np.zeros(16)
    mu[0] = 2.0
    den = GmmDenoiser([0.5, 0.5], np.stack([mu, -mu]), [0.25, 0.25])
    x = np.zeros(16)  # equidistant from both components
    assert np.allclose(den.denoise(x, 0.7), 0.0, atol=1e-12)


def test_gmm_rejects_bad_mixtures():
    with pytest.raises(ValueError):
        GmmDenoiser([], np.zeros((0, 4)), [])
    with pytest.raises(ValueError):
        GmmDenoiser([0.6, 0.6], np.zeros((2, 4)), [1.0, 1.0])


def test_gmm_vjp_matches_finite_differences():
    rng = np.random.default_rng(5)
    d = 16
    means = rng.standard_normal((2, d)) * 2.0
    den = GmmDenoiser([0.3, 0.7], means, [0.5, 1.5])
    x = rng.standard_normal(d)
    cot = rng.standard_normal(d)
    sigma = 0.8
    got = den.vjp(x, sigma, cot)
    eps = 1e-6
    fd = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = eps
        fd[i] = (den.denoise(x + e, sigma) - den.denoise(x - e, sigma)) @ cot / (2 * eps)
    scale = np.max(np.abs(got)) + 1e-12
    assert np.max(np.abs(got - fd)) / scale < 1e-5


def test_gmm_score_matches_noised_density_gradient():
    # Oracle: independent finite difference of the analytic noised mixture
    # log-density in d = 4.
    rng = np.random.default_rng(6)
    d = 4
    means = rng.standard_normal((3, d))
    den = GmmDenoiser([0.2, 0.5, 0.3], means, [0.3, 0.8, 1.2])
    x = rng.standard_normal(d)
    sigma = 0.6
    got = score(den, x, sigma)

    def logp(z):
        s = den.variances + sigma**2
        comp = (
            np.log(den.weights)
            - 0.5 * np.sum((z - den.means) ** 2, axis=1) / s
            - 0.5 * d * np.log(2 * np.pi * s)
        )
        m = comp.max()
        return m + np.log(np.exp(comp - m).sum())

    eps = 1e-6
    fd = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = eps
        fd[i] = (logp(x + e) - logp(x - e)) / (2 * eps)
    assert np.max(np.abs(got - fd)) / (np.max(np.abs(got)) + 1e-12) < 1e-5


def test_gmm_denoiser_identity_holds_exactly():
    # (denoise(x) - x)/sigma^2 equals the analytic noised score for mixtures
    rng = np.random.default_rng(7)
    d = 6
    means = rng.standard_normal((2, d))
    den = GmmDenoiser([0.4, 0.6], means, [0.5, 0.9])
    x = rng.standard_normal(d)
    sigma = 1.1
    s = den.variances + sigma**2
    diff = x[None] - den.means
    logr = np.log(den.weights) - 0.5 * np.sum(diff**2, 1) / s - 0.5 * d * np.log(s)
    r = np.exp(logr - logr.max())
    r /= r.sum()
    analytic = -(r[:, None] * diff / s[:, None]).sum(0)
    assert np.allclose(score(den, x, sigma), analytic, atol=1e-12)


def test_fit_identical_fields_gives_identity_covariance():
    f = Field.from_flat(SPEC_4X4, np.full(16, 2.5))
    prior = fit_empirical_prior([f, f, f], lam=0.5, cov_kind="dense")
    assert np.allclose(prior.mean.flat(), 2.5)
    # zero empirical part; unit fallback trace scale
    assert np.allclose(prior.cov, 0.5 * np.eye(16))


def test_fit_full_shrinkage_is_scaled_identity():
    rng = np.random.default_rng(8)
    fields = [Field(SPEC_4X4, rng.standard_normal((1, 4, 4))) for _ in range(20)]
    prior = fit_empirical_prior(fields, lam=1.0, cov_kind="dense")
    offdiag = prior.cov - np.diag(np.diag(prior.cov))
    assert np.allclose(offdiag, 0.0)
    assert np.allclose(np.diag(prior.cov), prior.cov[0, 0])


def test_fit_recovers_synthetic_gaussian_mean():
    rng = np.random.default_rng(12)
    true_mean = rng.standard_normal(16)
    n = 2000
    fields = [Field.from_flat(SPEC_4X4, true_mean + rng.standard_normal(16)) for _ in range(n)]
    prior = fit_empirical_prior(fields, lam=0.05, cov_kind="dense")
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(prior.mean.flat() - true_mean) < 3 * se + 1e-9)


def test_fit_dimension_cap():
    spec = GridSpec(65, 64, 1, 1.0)  # 4160 > 4096
    fields = [Field.zeros(spec)]
    with pytest.raises(ValueError):
        fit_empirical_prior(fields, lam=0.5, cov_kind="dense")
    prior = fit_empirical_prior(fields, lam=0.5, cov_kind="auto")
    assert prior.cov_kind == "diagonal"


def test_fit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fit_empirical_prior([], 0.5)
    with pytest.raises(ValueError):
        fit_empirical_prior([Field.zeros(SPEC_4X4)], 0.0)


@pytest.mark.parametrize("cov_kind", ["scalar", "diagonal", "dense"])
def test_prior_round_trip(tmp_path, cov_kind):
    rng = np.random.default_rng(10)
    mean = Field(SPEC_4X4, rng.standard_normal((1, 4, 4)))
    if cov_kind == "scalar":
        cov = 1.7
    elif cov_kind == "diagonal":
        cov = rng.uniform(0.5, 2.0, 16)
    else:
        raw = rng.standard_normal((16, 16))
        cov = raw @ raw.T + np.eye(16)
    prior = GaussianPrior(mean, cov_kind, cov, shrinkage=0.25)
    save_prior(prior, tmp_path / "prior")
    back = load_prior(tmp_path / "prior")
    assert back.cov_kind == cov_kind
    assert back.shrinkage == 0.25
    assert np.array_equal(back.mean.values, prior.mean.values)
    assert np.allclose(back.cov, prior.cov)


def test_gaussian_score_via_denoiser_matches_analytic_everywhere():
    rng = np.random.default_rng(11)
    diag = rng.uniform(0.2, 3.0, 16)
    prior = GaussianPrior(Field.zeros(SPEC_4X4), "diagonal", diag)
    den = GaussianDenoiser(prior)
    x = rng.standard_normal(16)
    for sigma in (0.05, 0.7, 4.0):
        want = -x / (diag + sigma**2)
        assert np.allclose(score(den, x, sigma), want, atol=1e-10)
