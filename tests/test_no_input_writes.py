"""The denoiser's methods (``denoise``, ``vjp`` and ``jacobian_block``),
``gem_core``, the reaction-diffusion time stepper and the residual kernel
never write to an array they are given, and the denoiser and the residual
kernel return arrays that their caller owns.

They work in place on arrays they allocate themselves or that the denoiser
returned to them; each test hands them inputs, keeps copies, and checks every
input bit for bit after the call.
``simulate_rd`` is checked through the arrays that its fields wrap (a
:class:`~pgd.grid.Field` of C-contiguous float64 values holds the caller's
array itself): it steps a species-first copy of the state in place, and a
single field's or a one-sample batch's species-first view is already
contiguous, so a copy made only when needed would step the caller's state.
The gray_scott_2 residual kernel works in a species-first copy of its state
in the same way.

``heun_core`` writes only the buffers that :func:`~pgd.smc.smc_run` gives up
to it: its states, whose buffer takes the new states, its draw, and what the
denoiser returned. Neither proposal core writes the denoiser's own arrays or
the context's.
"""

import numpy as np
import pytest

from pgd.grid import PERIODIC, Field, GridSpec, Mask
from pgd.guidance import GuidanceContext, GuidanceWeights
from pgd.priors import FactoredCov, GaussianDenoiser, GaussianPrior, GmmDenoiser, fit_empirical_prior
from pgd.residuals import KINDS, RD_SPECIES, PdeSystem, default_layout, residual_sq_grad
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
        "fitted": GaussianDenoiser(
            fit_empirical_prior([Field.from_flat(SPEC, rng.standard_normal(d)) for _ in range(6)], 0.1, "dense")
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
    assert_untouched(lambda x, c, i: den.vjp(x, sigma, c, i), rows(2), rows(3)[:, :4], np.array([3, 27, 11, 39]))
    assert_untouched(lambda i, x: den.jacobian_block(i, sigma, x), np.array([3, 27, 11, 39]), rows(4))


def held_arrays(obj) -> list[np.ndarray]:
    """Every array that ``obj`` holds, through its attributes and theirs."""
    if isinstance(obj, np.ndarray):
        return [obj]
    return [a for value in getattr(obj, "__dict__", {}).values() for a in held_arrays(value)]


@pytest.mark.parametrize("kind", ["diagonal", "dense", "factored", "fitted", "gmm"])
@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_denoise_and_vjp_return_arrays_the_caller_owns(kind, sigma):
    # heun_core writes into what denoise and vjp return, so no output may alias an input or the denoiser
    den = denoisers()[kind]
    x, cot, index = rows(2), rows(3), np.array([3, 27, 11, 39])
    theirs = [x, cot, index, *held_arrays(den)]
    assert len(theirs) >= 6  # the walk reaches the prior's or the mixture's arrays
    outputs = (den.denoise(x, sigma), den.dense_vjp(x, sigma, cot), den.vjp(x, sigma, cot))
    for out in (*outputs, den.vjp(x, sigma, cot[:, :4], index)):
        assert out.shape == x.shape and not any(np.shares_memory(out, a) for a in theirs)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_proposal_cores_leave_their_inputs_untouched(kind):
    # gem_core writes none of its inputs. heun_core writes only the buffers that smc_run gives up: its new
    # states come back in the states' buffer. Neither core writes the denoiser's own arrays or the context's.
    den, ctx = denoisers()[kind], context()
    sigma_k, sigma_next = 1.3, 0.9
    theirs = held_arrays(den) + held_arrays(ctx)
    assert len(theirs) >= 10  # the walk reaches the prior's arrays and the observation operator's
    before = [a.copy() for a in theirs]
    for guidance in (np.zeros((N, SPEC.size)), den.vjp(rows(4), sigma_k, rows(7))):  # unguided, then guided
        assert_untouched(
            lambda x, z, dn, g: gem_core(x, z, sigma_k, sigma_next, dn, g), rows(4), rows(5), rows(6), guidance
        )
    for nxt in (sigma_next, 0.0):
        x = rows(4)
        assert np.shares_memory(heun_core(x, rows(5), sigma_k, nxt, den, 0.2, ctx), x)
    for got, want in zip(theirs, before):
        np.testing.assert_array_equal(got, want)


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


KERNEL_SYSTEMS = {
    **RD_SYSTEMS,
    "darcy": PdeSystem.darcy(),
    "poisson": PdeSystem.poisson(),
    "helmholtz": PdeSystem.helmholtz(1.3),
    "divergence_free": PdeSystem.divergence_free(),
}
BATCHES = [(), (1,), (3,)]


def kernel_problem(kind, batch):
    """(system, spec, states) on a non-square grid; a one-state batch's species-first view is contiguous."""
    spec = GridSpec(4, 5, default_layout(kind).channel_count, 1 / 6, KINDS[kind].boundary or PERIODIC)
    states = np.random.default_rng(24).uniform(0.1, 0.9, batch + (spec.channels, spec.height, spec.width))
    return KERNEL_SYSTEMS[kind], spec, states


@pytest.mark.parametrize("grad", [False, True], ids=["value", "grad"])
@pytest.mark.parametrize("batch", BATCHES, ids=["single", "one-sample", "three-sample"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_residual_kernel_leaves_its_input_untouched_and_returns_arrays_the_caller_owns(kind, batch, grad):
    # log_likelihood scales a row-ordered gradient in place, so neither array may alias the state
    system, spec, x = kernel_problem(kind, batch)
    out = []
    assert_untouched(lambda s: out.extend(residual_sq_grad(system, spec, s, grad=grad)), x)
    res, gradient = out
    assert (gradient is not None) == grad
    assert res.shape == batch + (len(KINDS[kind].solution_channels), spec.height, spec.width)
    assert not any(np.shares_memory(a, x) for a in out if a is not None)


@pytest.mark.parametrize("grad", [False, True], ids=["value", "grad"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_strided_state_gives_the_residual_and_gradient_of_its_contiguous_copy(kind, grad):
    system, spec, x = kernel_problem(kind, (3,))
    want = residual_sq_grad(system, spec, x, grad=grad)
    wide = np.zeros(x.shape[:-1] + (2 * spec.width,))
    wide[..., ::2] = x
    species_first = np.moveaxis(np.moveaxis(x, -3, 0).copy(), 0, -3)  # its species-first view is contiguous
    for strided in (wide[..., ::2], species_first, np.repeat(x, 2, axis=-3)[:, ::2]):
        got = []
        assert_untouched(lambda s: got.extend(residual_sq_grad(system, spec, s, grad=grad)), strided)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
