"""Fixed-seed golden outputs of ``smc_run``.

``smc_golden.json`` holds the final states, log-weights and log-evidence of
seven small runs: one per proposal/scheme pairing in use (poisson gem/pbs
with a PDE term, a dense Gaussian prior under gem/tds, and gray_scott_2
sosag/pbs), plus one per remaining system with a PDE term (darcy gem/pbs,
helmholtz gem/tds, divergence_free sosag/pbs and competitive_3 gem/pbs).
The latter use non-square grids, so a stencil acting on a swapped axis
changes them. Refactors of the sampler must reproduce them to a relative
tolerance of 1e-12. The file was written once by running this module as a
script (``PYTHONPATH=src python tests/test_smc_golden.py``); rewrite it only
for a change that is meant to alter the sampler's arithmetic.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pgd.grid import DIRICHLET, PERIODIC, Field, GridSpec, Mask
from pgd.guidance import GuidanceWeights
from pgd.priors import GaussianDenoiser, GaussianPrior, NoiseSchedule
from pgd.residuals import PdeSystem, StateLayout, default_layout
from pgd.smc import SmcConfig, smc_run
from pgd.solvers import Observations

GOLDEN = Path(__file__).with_name("smc_golden.json")
PARTICLES, STEPS = 4, 6


def _observations(rng, spec, layout, idx_a, idx_u):
    cells = spec.with_channels(1)
    return Observations(
        mask_a=Mask.from_indices(cells, idx_a),
        values_a=rng.standard_normal((len(layout.coeff_channels), len(idx_a))),
        mask_u=Mask.from_indices(cells, idx_u),
        values_u=rng.standard_normal((len(layout.solution_channels), len(idx_u))),
        sigma_o=0.1,
    )


def _dense_prior(rng, spec, mean_scale=0.1):
    d = spec.size
    b = rng.standard_normal((d, d))
    cov = b @ b.T / d + 0.1 * np.eye(d)
    mean = mean_scale * rng.standard_normal((spec.channels, spec.height, spec.width))
    return GaussianPrior(Field(spec, mean), "dense", cov)


def poisson_gem_pbs():
    rng = np.random.default_rng(101)
    spec = GridSpec(4, 4, 2, 1 / 5, DIRICHLET)
    layout = StateLayout.scalar_pair()
    prior = _dense_prior(rng, spec)
    obs = _observations(rng, spec, layout, [1, 6, 11], [0, 5, 10, 15])
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-3)
    return GaussianDenoiser(prior), obs, PdeSystem.poisson(), layout, w, "gem", "pbs"


def dense_gem_tds():
    rng = np.random.default_rng(102)
    spec = GridSpec(3, 3, 1, 1.0)
    layout = StateLayout(coeff_channels=(), solution_channels=(0,))
    prior = _dense_prior(rng, spec, mean_scale=0.0)
    obs = _observations(rng, spec, layout, [], [0, 4, 8])
    w = GuidanceWeights(beta=20.0, gamma=0.0, omega=0.0)
    return GaussianDenoiser(prior), obs, None, layout, w, "gem", "tds"


def gray_scott_sosag_pbs():
    rng = np.random.default_rng(103)
    spec = GridSpec(4, 4, 6, 1 / 4, PERIODIC)
    layout = default_layout("gray_scott_2")
    mean = 0.5 + 0.1 * rng.standard_normal((6, 4, 4))
    prior = GaussianPrior(Field(spec, mean), "diagonal", rng.uniform(0.01, 0.05, spec.size))
    obs = _observations(rng, spec, layout, [2, 7, 13], [0, 9])
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-3)
    return GaussianDenoiser(prior), obs, PdeSystem.gray_scott(), layout, w, "sosag", "pbs"


def darcy_gem_pbs():
    rng = np.random.default_rng(104)
    spec = GridSpec(4, 5, 2, 1 / 6, DIRICHLET)
    layout = StateLayout.scalar_pair()
    prior = _dense_prior(rng, spec)
    obs = _observations(rng, spec, layout, [1, 8, 17], [0, 6, 12, 19])
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-3)
    return GaussianDenoiser(prior), obs, PdeSystem.darcy(), layout, w, "gem", "pbs"


def helmholtz_gem_tds():
    rng = np.random.default_rng(105)
    spec = GridSpec(5, 4, 2, 1 / 6, DIRICHLET)
    layout = StateLayout.scalar_pair()
    prior = _dense_prior(rng, spec)
    obs = _observations(rng, spec, layout, [2, 9, 15], [0, 7, 13, 18])
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-3)
    return GaussianDenoiser(prior), obs, PdeSystem.helmholtz(2.0), layout, w, "gem", "tds"


def divergence_free_sosag_pbs():
    rng = np.random.default_rng(106)
    spec = GridSpec(3, 4, 4, 1 / 4, PERIODIC)
    layout = default_layout("divergence_free")
    prior = GaussianPrior(Field.zeros(spec), "diagonal", rng.uniform(0.5, 1.5, spec.size))
    obs = _observations(rng, spec, layout, [1, 6], [0, 5, 11])
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-2)
    return GaussianDenoiser(prior), obs, PdeSystem.divergence_free(), layout, w, "sosag", "pbs"


def competitive_gem_pbs():
    rng = np.random.default_rng(107)
    spec = GridSpec(4, 3, 9, 1 / 4, PERIODIC)
    layout = default_layout("competitive_3")
    mean = 0.5 + 0.1 * rng.standard_normal((9, 4, 3))
    prior = GaussianPrior(Field(spec, mean), "diagonal", rng.uniform(0.01, 0.05, spec.size))
    obs = _observations(rng, spec, layout, [2, 7], [0, 4, 10])
    w = GuidanceWeights(beta=10.0, gamma=10.0, omega=1e-3)
    system = PdeSystem.competitive([[0.0, 1.5, 0.6], [0.4, 0.0, 1.7], [1.3, 0.5, 0.0]])
    return GaussianDenoiser(prior), obs, system, layout, w, "gem", "pbs"


CASES = {
    f.__name__: f
    for f in (
        poisson_gem_pbs,
        dense_gem_tds,
        gray_scott_sosag_pbs,
        darcy_gem_pbs,
        helmholtz_gem_tds,
        divergence_free_sosag_pbs,
        competitive_gem_pbs,
    )
}


def run_case(name):
    den, obs, system, layout, w, proposal, scheme = CASES[name]()
    sched = NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=STEPS, rho=3.0)
    cfg = SmcConfig(PARTICLES, sched, w, proposal, scheme, s_churn=2.0, seed=17)
    pop, diag = smc_run(cfg, den, obs, system, layout)
    return {
        "states": pop.states.tolist(),
        "log_weights": pop.log_weights.tolist(),
        "log_evidence": diag.log_evidence,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_smc_run_matches_golden_outputs(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = run_case(name)
    for key in ("states", "log_weights", "log_evidence"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run_case(name) for name in sorted(CASES)}, indent=1) + "\n")
