"""Fixed-seed golden outputs of ``smc_run``.

``smc_golden.json`` holds the final states, log-weights and log-evidence of
three small runs, one per proposal/scheme pairing in use: poisson gem/pbs
with a PDE term, a dense Gaussian prior under gem/tds, and gray_scott_2
sosag/pbs. Refactors of the sampler must reproduce them to a relative
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


CASES = {f.__name__: f for f in (poisson_gem_pbs, dense_gem_tds, gray_scott_sosag_pbs)}


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
