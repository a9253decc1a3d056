"""The denoiser and the proposal cores never write to an array they are given.

They work in place on arrays they allocate themselves; each test hands them
inputs, keeps copies, and checks every input bit for bit after the call.
"""

import numpy as np
import pytest

from pgd.grid import Field, GridSpec, Mask
from pgd.guidance import GuidanceContext, GuidanceWeights
from pgd.priors import FactoredCov, GaussianDenoiser, GaussianPrior, GmmDenoiser
from pgd.residuals import PdeSystem, default_layout
from pgd.samplers import gem_core, heun_core
from pgd.solvers import Observations

SPEC = GridSpec(4, 5, 2, 1 / 6)  # poisson layout: coefficient channel 0, solution channel 1
N = 3


def denoisers():
    rng = np.random.default_rng(21)
    d = SPEC.size
    mean = Field(SPEC, rng.standard_normal(d))
    basis = np.linalg.qr(rng.standard_normal((d, 4)))[0].T
    root = rng.standard_normal((d, d))
    return {
        "scalar": GaussianDenoiser(GaussianPrior(mean, "scalar", 0.7)),
        "diagonal": GaussianDenoiser(GaussianPrior(mean, "diagonal", rng.uniform(0.1, 2.0, d))),
        "dense": GaussianDenoiser(GaussianPrior(mean, "dense", root @ root.T / d)),
        "factored": GaussianDenoiser(
            GaussianPrior(mean, "dense", FactoredCov(0.3, basis, np.array([2.0, 1.0, 0.5, 0.0])))
        ),
        "gmm": GmmDenoiser([0.4, 0.6], rng.standard_normal((2, d)), [0.5, 1.5]),
    }


def context(jacobian_mode):
    rng = np.random.default_rng(22)
    cells = SPEC.with_channels(1)
    obs = Observations(
        Mask.from_indices(cells, [1, 7, 12]),
        rng.standard_normal((1, 3)),
        Mask.from_indices(cells, [0, 6, 13, 19]),
        rng.standard_normal((1, 4)),
        0.1,
    )
    weights = GuidanceWeights(beta=4.0, gamma=2.0, omega=0.3, jacobian_mode=jacobian_mode)
    return GuidanceContext(obs, PdeSystem.poisson(), default_layout("poisson"), weights)


def assert_untouched(call, *inputs):
    """Run ``call(*inputs)`` and check that every input is bit-equal afterwards."""
    before = [a.copy() for a in inputs]
    call(*inputs)
    for got, want in zip(inputs, before):
        np.testing.assert_array_equal(got, want)


def rows(seed):
    return np.random.default_rng(seed).standard_normal((N, SPEC.size))


@pytest.mark.parametrize("kind", ["scalar", "diagonal", "dense", "factored", "gmm"])
@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_denoise_and_vjp_leave_their_inputs_untouched(kind, sigma):
    den = denoisers()[kind]
    assert_untouched(lambda x: den.denoise(x, sigma), rows(1))
    assert_untouched(lambda x, c: den.vjp(x, sigma, c), rows(2), rows(3))


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
@pytest.mark.parametrize("jacobian_mode", ["exact", "identity"])
def test_proposal_cores_leave_their_inputs_untouched(kind, jacobian_mode):
    den, ctx = denoisers()[kind], context(jacobian_mode)
    sigma_k, sigma_next = 1.3, 0.9
    for grad in (np.zeros((N, SPEC.size)), rows(7)):  # the unguided step, then a guided one
        assert_untouched(
            lambda x, z, dn, g: gem_core(x, z, sigma_k, sigma_next, den, ctx, dn, g),
            rows(4), rows(5), rows(6), grad,
        )
    for nxt in (sigma_next, 0.0):
        assert_untouched(lambda x, z: heun_core(x, z, sigma_k, nxt, den, 0.2, ctx), rows(4), rows(5))
