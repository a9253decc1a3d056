"""The denoiser's vjp acts on each row alone, bit for bit.

``smc_run`` pulls a level's guidance back through the denoiser before the
step's resample gathers the drawn rows, so a row's guidance must not depend
on which other rows share its batch. Each test compares the vjp of a whole
population, gathered by an ancestor draw with repeats, against the vjp of the
gathered population, for both forms of the likelihood gradient: (N, m) values
at the observed entries with their index, and a full (N, d) cotangent.
"""

import numpy as np
import pytest

from pgd.grid import Field, GridSpec
from pgd.priors import GaussianDenoiser, GaussianPrior, GmmDenoiser, fit_empirical_prior

SPEC = GridSpec(8, 4, 2, 1 / 9)
INDEX = np.array([3, 40, 17, 62, 8, 33, 51, 0, 25, 44])


def denoisers():
    rng = np.random.default_rng(51)
    d = SPEC.size
    mean = Field.from_flat(SPEC, rng.standard_normal(d))
    root = rng.standard_normal((d, d))
    samples = [Field.from_flat(SPEC, rng.standard_normal(d)) for _ in range(12)]
    return {
        "diagonal": GaussianDenoiser(GaussianPrior(mean, "diagonal", rng.uniform(0.1, 2.0, d))),
        "fitted": GaussianDenoiser(fit_empirical_prior(samples, 0.1, "dense")),
        "matrix": GaussianDenoiser(GaussianPrior(mean, "dense", root @ root.T / d)),
        "gmm": GmmDenoiser([0.2, 0.5, 0.3], rng.standard_normal((3, d)), [0.4, 1.0, 2.5]),
    }


@pytest.mark.parametrize("kind", ["diagonal", "fitted", "matrix", "gmm"])
@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("sigma", [0.3, 5.0])
@pytest.mark.parametrize("indexed", [True, False], ids=["index", "full"])
def test_vjp_of_gathered_rows_is_the_gathered_vjp(kind, n, sigma, indexed):
    den = denoisers()[kind]
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, den.dim))
    index = INDEX if indexed else None
    g = rng.standard_normal((n, INDEX.size if indexed else den.dim))
    a = rng.choice(n, size=n, p=rng.dirichlet(np.full(n, 0.5)))
    assert np.unique(a).size < n  # a draw with repeats, as a resample makes
    np.testing.assert_array_equal(den.vjp(x, sigma, g, index)[a], den.vjp(x[a], sigma, g[a], index))
