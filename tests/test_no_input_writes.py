"""The denoiser's methods (``denoise``, ``vjp`` and ``jacobian_block``), the
proposal cores and the reaction-diffusion time stepper never write to an
array they are given.

They work in place on arrays they allocate themselves; each test hands them
inputs, keeps copies, and checks every input bit for bit after the call.
``simulate_rd`` is checked through the arrays that its fields wrap (a
:class:`~pgd.grid.Field` of C-contiguous float64 values holds the caller's
array itself): it steps a species-first copy of the state in place, and a
single field's or a one-sample batch's species-first view is already
contiguous, so a copy made only when needed would step the caller's state.
"""

import numpy as np
import pytest

from pgd.grid import PERIODIC, Field, GridSpec, Mask
from pgd.guidance import GuidanceContext, GuidanceWeights
from pgd.priors import FactoredCov, GaussianDenoiser, GaussianPrior, GmmDenoiser
from pgd.residuals import RD_SPECIES, PdeSystem, default_layout
from pgd.samplers import gem_core, heun_core
from pgd.solvers import Observations, simulate_rd

SPEC = GridSpec(4, 5, 2, 1 / 6)  # poisson layout: coefficient channel 0, solution channel 1
N = 3


def denoisers():
    rng = np.random.default_rng(21)
    d = SPEC.size
    mean = Field.from_flat(SPEC, rng.standard_normal(d))
    basis = np.linalg.qr(rng.standard_normal((d, 4)))[0].T
    root = rng.standard_normal((d, d))
    return {
        "diagonal": GaussianDenoiser(GaussianPrior(mean, "diagonal", rng.uniform(0.1, 2.0, d))),
        "dense": GaussianDenoiser(GaussianPrior(mean, "dense", root @ root.T / d)),
        "factored": GaussianDenoiser(
            GaussianPrior(mean, "dense", FactoredCov(0.3, basis, np.array([2.0, 1.0, 0.5, 0.0])))
        ),
        "gmm": GmmDenoiser([0.4, 0.6], rng.standard_normal((2, d)), [0.5, 1.5]),
    }


def context():
    rng = np.random.default_rng(22)
    cells = SPEC.with_channels(1)
    obs = Observations(
        Mask.from_indices(cells, [1, 7, 12]),
        rng.standard_normal((1, 3)),
        Mask.from_indices(cells, [0, 6, 13, 19]),
        rng.standard_normal((1, 4)),
        0.1,
    )
    weights = GuidanceWeights(beta=4.0, gamma=2.0, omega=0.3)
    return GuidanceContext(obs, PdeSystem.poisson(), default_layout("poisson"), weights)


def assert_untouched(call, *inputs):
    """Run ``call(*inputs)`` and check that every input is bit-equal afterwards."""
    before = [a.copy() for a in inputs]
    call(*inputs)
    for got, want in zip(inputs, before):
        np.testing.assert_array_equal(got, want)


def rows(seed):
    return np.random.default_rng(seed).standard_normal((N, SPEC.size))


@pytest.mark.parametrize("kind", ["diagonal", "dense", "factored", "gmm"])
@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_denoise_and_vjp_leave_their_inputs_untouched(kind, sigma):
    den = denoisers()[kind]
    assert_untouched(lambda x: den.denoise(x, sigma), rows(1))
    assert_untouched(lambda x, c: den.vjp(x, sigma, c), rows(2), rows(3))
    assert_untouched(lambda i, x: den.jacobian_block(i, sigma, x), np.array([3, 27, 11, 39]), rows(4))


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_proposal_cores_leave_their_inputs_untouched(kind):
    den, ctx = denoisers()[kind], context()
    sigma_k, sigma_next = 1.3, 0.9
    for grad in (np.zeros((N, SPEC.size)), rows(7)):  # the unguided step, then a guided one
        assert_untouched(
            lambda x, z, dn, g: gem_core(x, z, sigma_k, sigma_next, den, dn, g),
            rows(4), rows(5), rows(6), grad,
        )
    for nxt in (sigma_next, 0.0):
        assert_untouched(lambda x, z: heun_core(x, z, sigma_k, nxt, den, 0.2, ctx), rows(4), rows(5))


RD_SYSTEMS = {
    "gray_scott_2": PdeSystem.gray_scott(),
    "competitive_3": PdeSystem.competitive([[0.0, 1.5, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]]),
}


@pytest.mark.parametrize("kind", sorted(RD_SYSTEMS))
@pytest.mark.parametrize("batch", [(), (1,), (3,)], ids=["single", "one-sample", "three-sample"])
def test_simulate_rd_leaves_its_inputs_untouched(kind, batch):
    spec = GridSpec(6, 5, RD_SPECIES[kind], 1 / 6, PERIODIC)
    shape = batch + (spec.channels, spec.height, spec.width)
    rng = np.random.default_rng(23)
    assert_untouched(
        lambda d, x: simulate_rd(RD_SYSTEMS[kind], Field(spec, d), Field(spec, x), 1e-2, 5),
        rng.uniform(1e-4, 3e-4, shape), rng.uniform(0.1, 0.9, shape),
    )
