"""Noise schedules, denoisers with exact linear-map access, and priors.

The denoiser abstraction is the pluggable stand-in for a trained model: the
analytic implementations here (Gaussian and Gaussian-mixture posterior means)
realize the optimal denoiser exactly, which makes every downstream quantity
(scores, guidance gradients, samplers) checkable against closed forms. A
neural implementation only needs ``denoise`` and ``vjp``.

All denoiser operations act on flattened states of shape (..., d) so particle
populations batch through the same code path.
"""

from __future__ import annotations

import hashlib
import json
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Field, read_field, write_field

DENSE_COVARIANCE_DIM_CAP = 4096


@dataclass(frozen=True)
class NoiseSchedule:
    """Warped noise levels sigma_K > ... > sigma_0, indexed by step k in 0..K.

    sigma_k interpolates sigma_min^(1/rho) .. sigma_max^(1/rho) linearly in
    k/K and raises to the rho-th power, so k = K sits at sigma_max and k = 0
    at sigma_min.
    """

    sigma_max: float = 80.0
    sigma_min: float = 0.002
    steps: int = 200
    rho: float = 7.0

    def __post_init__(self):
        if not (self.sigma_max > self.sigma_min >= 0):
            raise ValueError("need sigma_max > sigma_min >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    def sigma_at(self, k: int) -> float:
        if not 0 <= k <= self.steps:
            raise ValueError(f"step index {k} outside 0..{self.steps}")
        if k == 0:
            return self.sigma_min
        if k == self.steps:
            return self.sigma_max
        lo = self.sigma_min ** (1.0 / self.rho)
        hi = self.sigma_max ** (1.0 / self.rho)
        return float((lo + (k / self.steps) * (hi - lo)) ** self.rho)

    def sigmas(self) -> np.ndarray:
        return np.array([self.sigma_at(k) for k in range(self.steps + 1)])


class Denoiser(ABC):
    """Map (x, sigma) -> estimate of the clean state, with exact vjp access."""

    dim: int

    @abstractmethod
    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Posterior-mean estimate of the clean state; batches over leading axes."""

    @abstractmethod
    def vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray) -> np.ndarray:
        """J(x, sigma)^T @ cotangent for J the Jacobian of denoise in x."""


def score(denoiser: Denoiser, x: np.ndarray, sigma: float) -> np.ndarray:
    """Ascent direction of the noised log-density: (denoise(x, sigma) - x) / sigma^2.

    For a Gaussian prior N(mu, S) this equals -(S + sigma^2 I)^{-1} (x - mu).
    """
    if sigma <= 0:
        raise ValueError("score requires sigma > 0")
    return (denoiser.denoise(x, sigma) - np.asarray(x, dtype=float)) / sigma**2


# ---------------------------------------------------------------------------
# Gaussian priors.
# ---------------------------------------------------------------------------

COV_KINDS = ("scalar", "diagonal", "dense")


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian over flattened states: mean field plus scalar/diagonal/dense covariance."""

    mean: Field
    cov_kind: str
    cov: float | np.ndarray
    shrinkage: float | None = None

    def __post_init__(self):
        if self.cov_kind not in COV_KINDS:
            raise ValueError(f"cov_kind must be one of {COV_KINDS}")
        d = self.mean.spec.size
        if self.cov_kind == "scalar":
            if float(self.cov) < 0:
                raise ValueError("scalar covariance must be nonnegative")
            object.__setattr__(self, "cov", float(self.cov))
        elif self.cov_kind == "diagonal":
            arr = np.asarray(self.cov, dtype=float)
            if arr.shape != (d,) or np.any(arr < 0):
                raise ValueError("diagonal covariance must be a nonnegative (d,) vector")
            object.__setattr__(self, "cov", arr)
        else:
            arr = np.asarray(self.cov, dtype=float)
            if arr.shape != (d, d):
                raise ValueError("dense covariance must be (d, d)")
            if not np.allclose(arr, arr.T, atol=1e-10):
                raise ValueError("dense covariance must be symmetric")

    @property
    def dim(self) -> int:
        return self.mean.spec.size


class GaussianDenoiser(Denoiser):
    """Exact posterior-mean denoiser mu + S (S + sigma^2 I)^{-1} (x - mu).

    Dense covariances are eigendecomposed once at construction; eigenvalues
    clipped at zero guard against tiny negative round-off modes.
    """

    def __init__(self, prior: GaussianPrior):
        self.prior = prior
        self.dim = prior.dim
        self._mu = prior.mean.flat()
        if prior.cov_kind == "dense":
            evals, evecs = np.linalg.eigh(prior.cov)
            if np.min(evals) < -1e-8 * max(np.max(np.abs(evals)), 1.0):
                raise ValueError("dense covariance is not positive semidefinite")
            self._evals = np.maximum(evals, 0.0)
            self._evecs = evecs

    def _factors(self, sigma: float) -> np.ndarray:
        """Per-mode shrinkage factors s/(s + sigma^2); at sigma=0 modes with s>0 pass through."""
        kind = self.prior.cov_kind
        if kind == "scalar":
            s = self.prior.cov
            lam = np.array([s])
        elif kind == "diagonal":
            lam = self.prior.cov
        else:
            lam = self._evals
        denom = lam + sigma**2
        with np.errstate(invalid="ignore", divide="ignore"):
            f = np.where(denom > 0, lam / np.where(denom > 0, denom, 1.0), 0.0)
        return f

    def _apply_jacobian(self, vec: np.ndarray, sigma: float) -> np.ndarray:
        f = self._factors(sigma)
        kind = self.prior.cov_kind
        if kind == "scalar":
            return f[0] * vec
        if kind == "diagonal":
            return vec * f
        return (vec @ self._evecs) * f @ self._evecs.T

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._mu + self._apply_jacobian(x - self._mu, sigma)

    def vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray) -> np.ndarray:
        # the Jacobian S (S + sigma^2 I)^{-1} is symmetric and x-independent
        return self._apply_jacobian(np.asarray(cotangent, dtype=float), sigma)

    def jacobian_operator_norm(self, sigma: float) -> float:
        return float(np.max(self._factors(sigma)))


# ---------------------------------------------------------------------------
# Gaussian-mixture denoiser (desk-scale multimodal oracle).
# ---------------------------------------------------------------------------


class GmmDenoiser(Denoiser):
    """Exact denoiser for a mixture of isotropic Gaussians.

    Components are (weight, mean, scalar variance). The denoiser is the
    responsibility-weighted combination of per-component posterior means; the
    vjp uses the closed-form Jacobian including responsibility derivatives.
    """

    def __init__(self, weights, means, variances):
        w = np.asarray(weights, dtype=float)
        mu = np.asarray(means, dtype=float)
        var = np.asarray(variances, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("mixture must have at least one component")
        if np.any(w <= 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("weights must be positive and sum to 1")
        if mu.ndim != 2 or mu.shape[0] != w.size:
            raise ValueError("means must be (components, d)")
        if var.shape != w.shape or np.any(var <= 0):
            raise ValueError("variances must be positive, one per component")
        self.weights, self.means, self.variances = w, mu, var
        self.dim = mu.shape[1]

    def _responsibilities(self, x: np.ndarray, sigma: float):
        """r_j(x) for the noised mixture plus the per-component pulls g_j = -(x - mu_j)/s_j."""
        x = np.asarray(x, dtype=float)
        s = self.variances + sigma**2  # (J,)
        diff = x[..., None, :] - self.means  # (..., J, d)
        sq = np.sum(diff**2, axis=-1)  # (..., J)
        log_r = np.log(self.weights) - 0.5 * sq / s - 0.5 * self.dim * np.log(s)
        log_r -= log_r.max(axis=-1, keepdims=True)
        r = np.exp(log_r)
        r /= r.sum(axis=-1, keepdims=True)
        g = -diff / s[:, None]  # (..., J, d)
        return r, g, diff, s

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        r, _, diff, s = self._responsibilities(x, sigma)
        shrink = self.variances / s  # (J,)
        post = self.means + shrink[:, None] * diff  # (..., J, d)
        return np.sum(r[..., None] * post, axis=-2)

    def vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray) -> np.ndarray:
        r, g, diff, s = self._responsibilities(x, sigma)
        cot = np.asarray(cotangent, dtype=float)
        shrink = self.variances / s
        post = self.means + shrink[:, None] * diff
        g_bar = np.sum(r[..., None] * g, axis=-2)
        # J = sum_j r_j [ post_j (g_j - g_bar)^T + shrink_j I ]
        proj = np.sum(post * cot[..., None, :], axis=-1)  # (..., J) = post_j . cot
        out = np.sum((r * proj)[..., None] * (g - g_bar[..., None, :]), axis=-2)
        out += np.sum(r * shrink, axis=-1)[..., None] * cot
        return out


# ---------------------------------------------------------------------------
# Fitting and persistence.
# ---------------------------------------------------------------------------


def fit_empirical_prior(dataset: list[Field], lam: float, cov_kind: str = "auto") -> GaussianPrior:
    """Shrunk empirical Gaussian: (1 - lam) * empirical + lam * (trace/d) * identity.

    Dense covariance is only permitted up to state dimension 4096; ``auto``
    picks dense when allowed and diagonal otherwise. A zero-trace empirical
    covariance (identical samples) falls back to a unit trace scale so the
    result stays positive definite for lam > 0.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if not 0 < lam <= 1:
        raise ValueError("shrinkage must lie in (0, 1]")
    spec = dataset[0].spec
    mat = np.stack([f.flat() for f in dataset])
    d = mat.shape[1]
    if cov_kind == "auto":
        cov_kind = "dense" if d <= DENSE_COVARIANCE_DIM_CAP else "diagonal"
    if cov_kind == "dense" and d > DENSE_COVARIANCE_DIM_CAP:
        raise ValueError(f"dense covariance capped at dimension {DENSE_COVARIANCE_DIM_CAP}, got {d}")
    mean = mat.mean(axis=0)
    centered = mat - mean
    if cov_kind == "dense":
        emp = centered.T @ centered / mat.shape[0]
        trace_scale = np.trace(emp) / d
        if trace_scale == 0.0:
            trace_scale = 1.0
        cov = (1.0 - lam) * emp + lam * trace_scale * np.eye(d)
        return GaussianPrior(Field.from_flat(spec, mean), "dense", cov, shrinkage=lam)
    if cov_kind == "diagonal":
        emp = np.mean(centered**2, axis=0)
        trace_scale = emp.mean() if emp.mean() > 0 else 1.0
        cov = (1.0 - lam) * emp + lam * trace_scale
        return GaussianPrior(Field.from_flat(spec, mean), "diagonal", cov, shrinkage=lam)
    raise ValueError(f"cannot fit cov_kind {cov_kind!r}")


_COV_HEADER = struct.Struct("<BI")
_COV_CODES = {"scalar": 0, "diagonal": 1, "dense": 2}
_COV_NAMES = {v: k for k, v in _COV_CODES.items()}


def save_prior(prior: GaussianPrior, out_dir: str | Path, dataset_manifest: str | Path | None = None) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_field(prior.mean, out / "mean.pgdf")
    cov = np.atleast_1d(np.asarray(prior.cov, dtype=float))
    with open(out / "cov.bin", "wb") as fh:
        fh.write(_COV_HEADER.pack(_COV_CODES[prior.cov_kind], prior.dim))
        fh.write(cov.astype("<f8").tobytes())
    manifest_hash = None
    if dataset_manifest is not None:
        manifest_hash = hashlib.sha256(Path(dataset_manifest).read_bytes()).hexdigest()
    meta = {
        "cov_kind": prior.cov_kind,
        "shrinkage": prior.shrinkage,
        "dataset_manifest_sha256": manifest_hash,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out


def load_prior(out_dir: str | Path) -> GaussianPrior:
    out = Path(out_dir)
    mean = read_field(out / "mean.pgdf")
    meta = json.loads((out / "meta.json").read_text())
    with open(out / "cov.bin", "rb") as fh:
        code, dim = _COV_HEADER.unpack(fh.read(_COV_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8")
    kind = _COV_NAMES[code]
    if kind == "scalar":
        cov: float | np.ndarray = float(data[0])
    elif kind == "diagonal":
        cov = data.copy()
    else:
        cov = data.reshape(dim, dim).copy()
    return GaussianPrior(mean, kind, cov, shrinkage=meta.get("shrinkage"))
