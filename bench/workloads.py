"""The four benchmark workloads.

Each workload builds its problems from a seed (``setup``), runs one timed
operation on a problem (``op``) and checks the operation's output
(``check``), which returns the output's quality numbers or raises
:class:`CheckFailed`. Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pgd.grid import DIRICHLET, PERIODIC, Field, GridSpec, Mask
from pgd.guidance import GuidanceWeights
from pgd.priors import GaussianDenoiser, GaussianPrior, NoiseSchedule, fit_empirical_prior
from pgd.residuals import PdeSystem, StateLayout, default_layout, residual
from pgd.smc import SmcConfig, point_estimate, smc_run
from pgd.solvers import DatasetSpec, Observations, generate_dataset, make_observations


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for one problem or operation, fixed by the workload seed and a key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class SamplerProblem:
    denoiser: GaussianDenoiser
    obs: Observations
    system: PdeSystem | None
    layout: StateLayout
    truth: np.ndarray  # flat held-out state
    oracle: np.ndarray | None = None  # flat closed-form posterior mean


class SamplerWorkload:
    """One ``smc_run`` per operation; quality is judged on the weighted mean."""

    setups = 5  # problems built per run; operations cycle over them
    trace_ops = 2  # traced operations that the per-layer metrics are taken from
    work_unit = "particle-step"

    def __init__(self, name: str, particles: int, schedule: NoiseSchedule, weights: GuidanceWeights,
                 proposal: str, scheme: str):
        self.name = name
        self.particles = particles
        self.schedule = schedule
        self.weights = weights
        self.proposal = proposal
        self.scheme = scheme

    @property
    def steps(self) -> int:
        return self.schedule.steps

    def config(self, seed: int) -> SmcConfig:
        return SmcConfig(self.particles, self.schedule, self.weights, self.proposal, self.scheme, seed=seed)

    def denoiser(self, problem: SamplerProblem) -> GaussianDenoiser:
        return problem.denoiser

    def op(self, problem: SamplerProblem, seed: int):
        out = smc_run(self.config(seed), problem.denoiser, problem.obs, problem.system, problem.layout)
        return out, self.particles * self.steps

    def check(self, problem: SamplerProblem, out) -> dict[str, float]:
        pop, diag = out
        if not (np.all(np.isfinite(pop.states)) and np.all(np.isfinite(pop.normalized_weights()))):
            raise CheckFailed("final population is not finite")
        est = point_estimate(pop, "weighted_mean").flat()
        q = {
            "rel_err_truth": float(np.linalg.norm(est - problem.truth) / np.linalg.norm(problem.truth)),
            "ess_min_frac": float(min(diag.ess_trace)) / self.particles,
            "log_z": float(diag.log_evidence),
        }
        if problem.oracle is not None:
            q["rel_err_oracle"] = float(np.linalg.norm(est - problem.oracle) / np.linalg.norm(problem.oracle))
        if problem.system is not None:
            r = residual(problem.system, problem.layout, Field.from_flat(pop.spec, est)).values
            q["residual_rms"] = float(np.sqrt(np.mean(r**2)))
        return q


def _pde_problem(system: PdeSystem, grid: GridSpec, train: int, cov_kind: str, seed: int) -> SamplerProblem:
    """Empirical prior fit to ``train`` generated samples; truth is one more, held out."""
    layout = default_layout(system.kind)
    data = generate_dataset(DatasetSpec(system, grid, train + 1, rng_seed=seed))
    prior = fit_empirical_prior(data[:train], 0.1, cov_kind)
    truth = data[train]
    obs = make_observations(truth, layout, 16, 0.01, np.random.default_rng(seed))
    return SamplerProblem(GaussianDenoiser(prior), obs, system, layout, truth.flat())


class DarcyGemPbs(SamplerWorkload):
    def __init__(self):
        super().__init__("darcy_gem_pbs", 64, NoiseSchedule(steps=50),
                         GuidanceWeights(beta=100.0, gamma=100.0, omega=1e-3), "gem", "pbs")

    def setup(self, seed: int) -> SamplerProblem:
        return _pde_problem(PdeSystem.darcy(), GridSpec(16, 16, 2, 1 / 17, DIRICHLET), 64, "dense", seed)


class GrayScottSosag(SamplerWorkload):
    setups = 3  # each set-up simulates 17 reaction-diffusion samples

    def __init__(self):
        super().__init__("grayscott_sosag", 64, NoiseSchedule(steps=50),
                         GuidanceWeights(beta=100.0, gamma=100.0, omega=1e-3), "sosag", "pbs")

    def setup(self, seed: int) -> SamplerProblem:
        grid = GridSpec(16, 16, 6, 1 / 16, PERIODIC)
        return _pde_problem(PdeSystem.gray_scott(), grid, 16, "diagonal", seed)


CONJ_SIDE = 8
CONJ_OBS = 12
CONJ_SIGMA_O = 0.1


def rbf_kernel(side: int, length: float) -> np.ndarray:
    """Dense RBF covariance over the cells of a side x side grid, plus 1e-6 I."""
    rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pts = np.stack([rows.ravel(), cols.ravel()], axis=1).astype(float)
    dist2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    return np.exp(-dist2 / (2 * length**2)) + 1e-6 * np.eye(side * side)


def posterior_mean(cov: np.ndarray, idx: np.ndarray, y: np.ndarray, sigma_o: float) -> np.ndarray:
    """Closed-form mean of N(0, cov) conditioned on y = x[idx] + N(0, sigma_o^2 I).

    Computed with NumPy alone in the gain form and cross-checked against the
    information form; the two must agree to 1e-6 relative.
    """
    gain = cov[:, idx] @ np.linalg.solve(cov[np.ix_(idx, idx)] + sigma_o**2 * np.eye(idx.size), y)
    sel = np.zeros((idx.size, cov.shape[0]))
    sel[np.arange(idx.size), idx] = 1.0
    info = np.linalg.solve(np.linalg.inv(cov) + sel.T @ sel / sigma_o**2, sel.T @ y / sigma_o**2)
    if not np.linalg.norm(gain - info) <= 1e-6 * np.linalg.norm(gain):
        raise CheckFailed("oracle posterior mean: gain and information forms disagree")
    return gain


class ConjugateGemTds(SamplerWorkload):
    setups = 9  # set-up is cheap, so more problems per run
    trace_ops = 4

    def __init__(self):
        beta = CONJ_OBS / (2 * CONJ_SIGMA_O**2)
        super().__init__("conjugate_gem_tds", 256, NoiseSchedule(sigma_max=3.0, sigma_min=0.01, steps=60, rho=2.0),
                         GuidanceWeights(beta=beta, gamma=0.0, omega=0.0), "gem", "tds")

    def setup(self, seed: int) -> SamplerProblem:
        rng = np.random.default_rng(seed)
        d = CONJ_SIDE * CONJ_SIDE
        cov = rbf_kernel(CONJ_SIDE, 2.0)
        truth = np.linalg.cholesky(cov) @ rng.standard_normal(d)
        idx = np.sort(rng.choice(d, size=CONJ_OBS, replace=False))
        y = truth[idx] + CONJ_SIGMA_O * rng.standard_normal(CONJ_OBS)
        spec = GridSpec(CONJ_SIDE, CONJ_SIDE, 1, 1.0)
        obs = Observations(
            mask_a=Mask.from_indices(spec, []),
            values_a=np.zeros((0, 0)),
            mask_u=Mask.from_indices(spec, idx),
            values_u=y[None, :],
            sigma_o=CONJ_SIGMA_O,
        )
        denoiser = GaussianDenoiser(GaussianPrior(Field.zeros(spec), "dense", cov))
        layout = StateLayout(coeff_channels=(), solution_channels=(0,))
        return SamplerProblem(denoiser, obs, None, layout, truth, posterior_mean(cov, idx, y, CONJ_SIGMA_O))


ELLIPTIC_GRID = GridSpec(48, 48, 2, 1 / 49, DIRICHLET)
# system, samples per pass: helmholtz is one dense solve; poisson and darcy are CG
ELLIPTIC_MIX = ((PdeSystem.poisson(), 8), (PdeSystem.helmholtz(3.0), 1), (PdeSystem.darcy(), 8))
SOLVE_REL_RESIDUAL = 1e-9


class EllipticDatagen:
    """One pass of ``generate_dataset`` over the elliptic mix per operation."""

    name = "elliptic_datagen"
    setups = 3  # warm-up passes: there is no state to build
    trace_ops = 4
    work_unit = "solve"
    particles = 0
    steps = 0

    def denoiser(self, problem):
        return None

    def setup(self, seed: int):
        self.op(None, seed)

    def op(self, problem, seed: int):
        out = [
            (system, generate_dataset(DatasetSpec(system, ELLIPTIC_GRID, count, rng_seed=derive_seed(seed, k))))
            for k, (system, count) in enumerate(ELLIPTIC_MIX)
        ]
        return out, sum(count for _, count in ELLIPTIC_MIX)

    def check(self, problem, out) -> dict[str, float]:
        """Every solve's residual, recomputed by ``pgd.residuals.residual``, is small."""
        worst = 0.0
        layout = StateLayout.scalar_pair()
        for system, samples in out:
            for x in samples:
                r = residual(system, layout, x).values
                rhs = np.full(x.spec.cells, system.source) if system.kind == "darcy" else x.values[0]
                rel = float(np.linalg.norm(r) / np.linalg.norm(rhs))
                if not rel <= SOLVE_REL_RESIDUAL:
                    raise CheckFailed(f"{system.kind} solve has relative residual {rel:.3g}")
                worst = max(worst, rel)
        return {"solve_rel_residual_max": worst}


WORKLOADS = {w.name: w for w in (DarcyGemPbs(), ConjugateGemTds(), EllipticDatagen(), GrayScottSosag())}
