import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgd.grid import Field, GridSpec
from pgd.priors import FactoredCov, GaussianDenoiser, GaussianPrior, GmmDenoiser, NoiseSchedule, fit_empirical_prior

SPEC_4X4 = GridSpec(4, 4, 1, 1.0)  # flattened dimension 16


def unit_prior(mean=None):
    mu = Field.zeros(SPEC_4X4) if mean is None else mean
    return GaussianPrior(mu, "diagonal", np.full(16, 1.0))


def score(den, x, sigma):
    """Ascent direction of the noised log-density, (D(x, sigma) - x) / sigma^2."""
    return (den.denoise(x, sigma) - x) / sigma**2


def dense_matrix(cov):
    """The matrix iso * I + basis^T diag(evals - iso) basis of a factored covariance."""
    d = cov.basis.shape[1]
    return cov.iso * np.eye(d) + cov.basis.T @ np.diag(cov.evals - cov.iso) @ cov.basis


def shrunk_cov_apply(samples, lam, v):
    """S v for S = (1 - lam) C^T C / n + lam t I, with C the centred samples and t = tr(C^T C / n) / d."""
    c = samples - samples.mean(axis=0)
    n, d = c.shape
    t = np.sum(c**2) / (n * d) or 1.0
    return (1.0 - lam) * c.T @ (c @ v) / n + lam * t * v


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
    sig = np.array([sched.sigma_at(k) for k in range(steps + 1)])
    assert np.all(np.diff(sig) > 0)  # increasing in k means decreasing toward k=0
    assert sig[0] == sched.sigma_min and sig[-1] == sched.sigma_max


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma_max=np.inf),
        dict(rho=np.nan),  # levels [0.002, nan, nan, nan, 80]
        dict(rho=np.inf),  # levels [0.002, 1, 1, 1, 80]
        dict(sigma_max=1.0 + 1e-15, sigma_min=1.0, steps=10),  # levels round to a flat run
        dict(sigma_min=0.0, rho=400.0),  # sigma_1 ~ 1e-239, whose square underflows to sigma_0^2 = 0
    ],
    ids=["sigma_max-inf", "rho-nan", "rho-inf", "flat-levels", "underflowing-square"],
)
def test_schedule_rejects_a_zero_variance_step(kwargs):
    # every step variance sigma_k^2 - sigma_{k-1}^2 is positive, checked once here
    with pytest.raises(ValueError):
        NoiseSchedule(**{"steps": 4, **kwargs})


@pytest.mark.parametrize("steps", [0, 2.5])
def test_schedule_rejects_a_step_count_that_is_not_a_positive_integer(steps):
    with pytest.raises(ValueError, match="steps must be an integer >= 1"):
        NoiseSchedule(steps=steps)
    assert NoiseSchedule(steps=np.int64(3)).sigma_at(3) == NoiseSchedule().sigma_max


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
    prior = GaussianPrior(mu, "diagonal", np.full(16, 0.0))
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
        # the dense Jacobian's largest singular value
        assert np.linalg.norm(den.vjp(None, sigma, np.eye(16)), 2) <= 1.0 + 1e-12


def test_gmm_single_component_equals_gaussian():
    rng = np.random.default_rng(4)
    mu = rng.standard_normal(16)
    x = rng.standard_normal(16)
    got = GmmDenoiser(np.array([1.0]), mu[None], np.array([0.49])).denoise(x, 0.9)
    prior = GaussianPrior(Field.from_flat(SPEC_4X4, mu), "diagonal", np.full(16, 0.49))
    assert np.allclose(got, GaussianDenoiser(prior).denoise(x, 0.9), atol=1e-12)


@pytest.mark.parametrize(
    "means,variances,match",
    [
        (np.full((2, 4), np.nan), [1.0, 1.0], "means must be finite"),
        (np.array([[0.0, np.inf, 0.0, 0.0], [0.0] * 4]), [1.0, 1.0], "means must be finite"),
        (np.zeros((2, 4)), [1.0, np.nan], "variances must be finite and positive"),
    ],
    ids=["nan-means", "inf-mean", "nan-variance"],
)
def test_gmm_rejects_non_finite_means_and_variances(means, variances, match):
    with pytest.raises(ValueError, match=match):
        GmmDenoiser([0.5, 0.5], means, variances)


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


def broadcast_gmm(den, x, sigma, cot):
    """denoise and vjp of a GmmDenoiser in the direct form, over (..., J, d) arrays: the products form's reference."""
    s = den.variances + sigma**2
    diff = x[..., None, :] - den.means
    log_r = np.log(den.weights) - 0.5 * np.sum(diff**2, axis=-1) / s - 0.5 * den.dim * np.log(s)
    r = np.exp(log_r - log_r.max(axis=-1, keepdims=True))
    r /= r.sum(axis=-1, keepdims=True)
    g = -diff / s[:, None]
    shrink = den.variances / s
    post = den.means + shrink[:, None] * diff
    g_bar = np.sum(r[..., None] * g, axis=-2)
    proj = np.sum(post * cot[..., None, :], axis=-1)
    vjp = np.sum((r * proj)[..., None] * (g - g_bar[..., None, :]), axis=-2)
    vjp += np.sum(r * shrink, axis=-1)[..., None] * cot
    return np.sum(r[..., None] * post, axis=-2), vjp


def gmm_and_states(spread=1.0, seed=9, n=6, j=12, d=24):
    """A mixture with means of scale ``spread``, and states next to a mean, between two means and at random.

    Every value is a multiple of 2^-20, and at spread 1 each is far below 2^10 in size, so adding 2^10 is exact.
    """
    rng = np.random.default_rng(seed)
    grid = lambda v: np.round(v * 2.0**20) / 2.0**20
    w = rng.random(j)
    means = grid(spread * rng.standard_normal((j, d)))
    x = grid(np.concatenate([means[:n] + 0.01 * rng.standard_normal((n, d)), 0.5 * (means[:n] + means[1 : n + 1]),
                             2.0 * spread * rng.standard_normal((n, d))]))
    return GmmDenoiser(w / w.sum(), means, rng.uniform(0.05, 1.0, j)), x, rng.standard_normal(x.shape)


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [0.002, "smallest variance", 1.0, 80.0])
def test_gmm_products_form_matches_the_broadcast_reference(sigma):
    den, x, cot = gmm_and_states()
    sigma = np.sqrt(den.variances.min()) if sigma == "smallest variance" else sigma
    want_denoise, want_vjp = broadcast_gmm(den, x, sigma, cot)
    assert max_rel(den.denoise(x, sigma), want_denoise) <= 1e-12
    assert max_rel(den.vjp(x, sigma, cot), want_vjp) <= 1e-12
    # a single state against many cotangents, as jacobian_block calls it
    assert max_rel(den.vjp(x[0], sigma, cot), broadcast_gmm(den, x[0], sigma, cot)[1]) <= 1e-12


@pytest.mark.parametrize("sigma", [0.002, 1.0, 10.0, 80.0])
def test_gmm_products_form_holds_its_digits_at_states_of_large_norm_next_to_a_mean(sigma):
    # the expanded |x - m|^2 - 2 (x - m).(mu_j - m) + |mu_j - m|^2 cancels when |x - m| is large:
    # means spread far apart keep the direct form's digits to 1e-12 ...
    den, x, cot = gmm_and_states(spread=100.0)
    want_denoise, want_vjp = broadcast_gmm(den, x, sigma, cot)
    assert max_rel(den.denoise(x, sigma), want_denoise) <= 1e-12
    assert max_rel(den.vjp(x, sigma, cot), want_vjp) <= 1e-12
    # ... and an offset that every mean shares costs none: the shift by 2^10 is exact, so the
    # shifted mixture's answers are the unshifted ones, which the direct form gets right
    den, x, cot = gmm_and_states()
    want_denoise, want_vjp = broadcast_gmm(den, x, sigma, cot)
    far = GmmDenoiser(den.weights, den.means + 2.0**10, den.variances)
    assert max_rel(far.denoise(x + 2.0**10, sigma) - 2.0**10, want_denoise) <= 1e-12
    assert max_rel(far.vjp(x + 2.0**10, sigma, cot), want_vjp) <= 1e-12


def test_gmm_builds_no_state_by_component_by_dimension_array():
    # one (N, J, d) float array is 67 MB here; the products form needs a few (N, J) and (N, d) ones,
    # and the bound, eight of each (3.1 MB), is under 5% of it
    rng = np.random.default_rng(10)
    n, j, d = 64, 256, 512
    den = GmmDenoiser(np.full(j, 1 / j), rng.standard_normal((j, d)), rng.uniform(0.05, 1.0, j))
    x, cot = rng.standard_normal((2, n, d))
    tracemalloc.start()
    try:
        den.denoise(x, 1.0)
        den.vjp(x, 1.0, cot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * (j + d) * 8, f"peak {peak} bytes"


def test_gmm_keeps_its_own_copy_of_the_means():
    # the centred means and their norms, cached at construction, would go stale if the caller's
    # array were aliased and then changed
    means = np.array([[1.0, 0.0], [-1.0, 0.0]])
    den = GmmDenoiser([0.5, 0.5], means, [0.1, 0.1])
    x = np.array([0.4, 0.3])
    before = den.denoise(x, 0.5)
    means += 5.0
    np.testing.assert_array_equal(den.denoise(x, 0.5), before)


def test_fit_identical_fields_gives_identity_covariance():
    f = Field.from_flat(SPEC_4X4, np.full(16, 2.5))
    prior = fit_empirical_prior([f, f, f], lam=0.5, cov_kind="dense")
    assert np.allclose(prior.mean.flat(), 2.5)
    # zero empirical part; unit fallback trace scale
    assert np.allclose(dense_matrix(prior.cov), 0.5 * np.eye(16))


def test_fit_full_shrinkage_is_scaled_identity():
    rng = np.random.default_rng(8)
    fields = [Field(SPEC_4X4, rng.standard_normal((1, 4, 4))) for _ in range(20)]
    prior = fit_empirical_prior(fields, lam=1.0, cov_kind="dense")
    cov = dense_matrix(prior.cov)
    offdiag = cov - np.diag(np.diag(cov))
    assert np.allclose(offdiag, 0.0)
    assert np.allclose(np.diag(cov), cov[0, 0])


def test_fit_recovers_synthetic_gaussian_mean():
    rng = np.random.default_rng(12)
    true_mean = rng.standard_normal(16)
    n = 2000
    fields = [Field.from_flat(SPEC_4X4, true_mean + rng.standard_normal(16)) for _ in range(n)]
    prior = fit_empirical_prior(fields, lam=0.05, cov_kind="dense")
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(prior.mean.flat() - true_mean) < 3 * se + 1e-9)


def test_fit_beyond_the_old_dense_cap_keeps_a_correlated_prior():
    # d = 8192 was over the retired 4096 dense cap. The fitted Jacobian
    # J = S (S + sigma^2 I)^{-1} must satisfy (S + sigma^2 I) J v = S v, with S v
    # built from the samples alone, so no d x d matrix appears anywhere.
    rng = np.random.default_rng(13)
    spec = GridSpec(64, 64, 2, 1.0)
    fields = [Field(spec, rng.standard_normal((2, 64, 64)).cumsum(axis=2)) for _ in range(12)]
    lam = 0.2
    prior = fit_empirical_prior(fields, lam=lam)
    assert prior.cov_kind == "dense"
    den = GaussianDenoiser(prior)
    samples = np.stack([f.flat() for f in fields])
    v = rng.standard_normal(spec.size)
    sv = shrunk_cov_apply(samples, lam, v)
    for sigma in (0.0, 0.3, 5.0):
        jv = den.vjp(None, sigma, v)
        lhs = shrunk_cov_apply(samples, lam, jv) + sigma**2 * jv
        assert np.linalg.norm(lhs - sv) <= 1e-12 * np.linalg.norm(sv)


@pytest.mark.parametrize(("n", "lam"), [(5, 0.3), (40, 0.3), (9, 1.0)], ids=["n<d", "n>d", "lam=1"])
def test_fitted_dense_denoiser_matches_the_shrunk_covariance(n, lam):
    # Oracle: mu + S (S + sigma^2 I)^{-1} (x - mu) with S formed explicitly
    # from the samples; d = 16.
    rng = np.random.default_rng(14)
    mix = rng.standard_normal((16, 16))
    fields = [Field.from_flat(SPEC_4X4, 1.5 + mix @ rng.standard_normal(16)) for _ in range(n)]
    prior = fit_empirical_prior(fields, lam=lam, cov_kind="dense")
    den = GaussianDenoiser(prior)
    samples = np.stack([f.flat() for f in fields])
    mu = samples.mean(axis=0)
    cov = shrunk_cov_apply(samples, lam, np.eye(16))
    x = rng.standard_normal((3, 16))
    cot = rng.standard_normal((3, 16))
    for sigma in (0.0, 0.3, 5.0):
        jac = cov @ np.linalg.inv(cov + sigma**2 * np.eye(16))
        want = mu + (x - mu) @ jac.T
        assert np.allclose(den.denoise(x, sigma), want, rtol=1e-10, atol=1e-10)
        assert np.allclose(den.vjp(x, sigma, cot), cot @ jac, rtol=1e-10, atol=1e-10)


def test_dense_prior_rejects_a_non_symmetric_matrix():
    cov = np.eye(16)
    cov[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        GaussianPrior(Field.zeros(SPEC_4X4), "dense", cov)


def test_dense_prior_rejects_an_indefinite_matrix():
    cov = np.eye(16)
    cov[3, 3] = -0.2
    with pytest.raises(ValueError, match="positive semidefinite"):
        GaussianPrior(Field.zeros(SPEC_4X4), "dense", cov)


def test_dense_prior_rejects_a_malformed_factored_cov():
    basis = np.eye(16)[:3]
    for cov in (
        FactoredCov(0.1, basis[:, :8], np.ones(3)),  # basis rows are not of length d
        FactoredCov(0.1, basis, np.ones(2)),  # one eigenvalue short
        FactoredCov(-0.1, basis, np.ones(3)),
        FactoredCov(0.1, basis, np.array([1.0, -1.0, 1.0])),
    ):
        with pytest.raises(ValueError, match="factored"):
            GaussianPrior(Field.zeros(SPEC_4X4), "dense", cov)


@pytest.mark.parametrize("kind,cov", [("diagonal", np.ones(9)), ("dense", np.eye(9))], ids=["diagonal", "dense"])
def test_prior_rejects_a_batched_mean(kind, cov):
    # a (2, 1, 3, 3) mean would make the denoiser broadcast one (9,) state to (2, 9)
    mean = Field(GridSpec(3, 3, 1, 1.0), np.zeros((2, 1, 3, 3)))
    with pytest.raises(ValueError, match="mean must be one field"):
        GaussianPrior(mean, kind, cov)


def test_diagonal_prior_rejects_a_nan_variance():
    with pytest.raises(ValueError, match="diagonal covariance must be finite"):
        GaussianPrior(Field.zeros(SPEC_4X4), "diagonal", np.full(16, np.nan))


def test_diagonal_prior_rejects_an_infinite_variance():
    cov = np.ones(16)
    cov[7] = np.inf
    with pytest.raises(ValueError, match="diagonal covariance must be finite"):
        GaussianPrior(Field.zeros(SPEC_4X4), "diagonal", cov)


def test_dense_prior_rejects_a_non_finite_factored_cov():
    basis = np.eye(16)[:3]
    nan_basis = basis.copy()
    nan_basis[1, 4] = np.nan
    for cov in (
        FactoredCov(np.nan, basis, np.ones(3)),
        FactoredCov(0.1, basis, np.array([1.0, np.inf, 1.0])),
        FactoredCov(0.1, nan_basis, np.ones(3)),
    ):
        with pytest.raises(ValueError, match="dense covariance must be finite"):
            GaussianPrior(Field.zeros(SPEC_4X4), "dense", cov)


def test_fit_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fit_empirical_prior([], 0.5)
    with pytest.raises(ValueError):
        fit_empirical_prior([Field.zeros(SPEC_4X4)], 0.0)


@pytest.mark.parametrize(
    "other", [GridSpec(8, 8, 2, 1 / 5), GridSpec(6, 8, 2, 1 / 9)], ids=["spacing", "size"]
)
@pytest.mark.parametrize("cov_kind", ["dense", "diagonal"])
def test_fit_rejects_samples_on_different_grids(other, cov_kind):
    # the prior would silently take the first sample's grid
    first = GridSpec(8, 8, 2, 1 / 9)
    with pytest.raises(ValueError, match="different grids") as err:
        fit_empirical_prior([Field.zeros(first), Field.zeros(first), Field.zeros(other)], 0.5, cov_kind)
    assert str(first) in str(err.value) and str(other) in str(err.value)


def test_gaussian_score_via_denoiser_matches_analytic_everywhere():
    rng = np.random.default_rng(11)
    diag = rng.uniform(0.2, 3.0, 16)
    prior = GaussianPrior(Field.zeros(SPEC_4X4), "diagonal", diag)
    den = GaussianDenoiser(prior)
    x = rng.standard_normal(16)
    for sigma in (0.05, 0.7, 4.0):
        want = -x / (diag + sigma**2)
        assert np.allclose(score(den, x, sigma), want, atol=1e-10)
