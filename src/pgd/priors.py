"""Noise schedules, denoisers with exact linear-map access, and priors.

The denoiser abstraction is the pluggable stand-in for a trained model: the
analytic implementations here (Gaussian and Gaussian-mixture posterior means)
realize the optimal denoiser exactly, so every downstream quantity (scores,
guidance gradients, samplers) is checkable against closed forms. A neural
implementation only needs ``denoise`` and ``dense_vjp``, the vjp of a full
(..., d) cotangent: by default ``vjp`` of a cotangent at m observed entries,
as the likelihood's gradient is without a PDE term, scatters it into zeros for
``dense_vjp``, and ``jacobian_block`` is one such vjp.

All denoiser operations act on flattened states of shape (..., d) so particle
populations batch through the same code path. They never write to their
inputs: :class:`GaussianDenoiser` works in place only on the arrays it
allocates. :class:`GmmDenoiser` works from (..., J) products of the states with
its J means, with no (..., J, d) array; its precision note is on the class.

A ``"dense"`` covariance is stored factored, as :class:`FactoredCov`: an
isotropic level plus r orthonormal eigenpairs, so the denoiser applies it in
O(d r) per state and no d x d matrix is kept. A fitted prior has r <= n (the
sample count), with no cap on d; a hand-built (d, d) matrix has r = d.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import is_count, is_real
from .grid import Field


@dataclass(frozen=True)
class NoiseSchedule:
    """Warped noise levels sigma_K > ... > sigma_0, indexed by step k in 0..K.

    sigma_k interpolates sigma_min^(1/rho) .. sigma_max^(1/rho) linearly in
    k/K and raises to the rho-th power, so k = K sits at sigma_max and k = 0
    at sigma_min. Construction checks that sigma_k^2 strictly increases in k,
    so every step variance sigma_k^2 - sigma_{k-1}^2 is positive.
    """

    sigma_max: float = 80.0
    sigma_min: float = 0.002
    steps: int = 200
    rho: float = 7.0

    def __post_init__(self):
        if not (is_real(self.sigma_max) and is_real(self.sigma_min) and np.isfinite(self.sigma_max)
                and self.sigma_max > self.sigma_min >= 0):
            raise ValueError("need finite sigma_max > sigma_min >= 0")
        if not is_count(self.steps):
            raise ValueError("steps must be an integer >= 1")
        if not (is_real(self.rho) and np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be finite and positive")
        if not np.all(np.diff(np.square([self.sigma_at(k) for k in range(self.steps + 1)])) > 0):
            raise ValueError(f"noise levels do not strictly increase in k at rho={self.rho}")

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


class Denoiser(ABC):
    """Map (x, sigma) -> estimate of the clean state, with exact vjp access.

    ``denoise``, ``vjp`` and ``dense_vjp`` return arrays the caller owns: they
    share no memory with the inputs or with the denoiser's own arrays, so the
    proposal cores may write into them.
    """

    dim: int

    @abstractmethod
    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Posterior-mean estimate of the clean state; batches over leading axes."""

    @abstractmethod
    def dense_vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray) -> np.ndarray:
        """J(x, sigma)^T @ cotangent for J the Jacobian of denoise in x and a full (..., d) cotangent."""

    def vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """J(x, sigma)^T A^T cotangent, (..., d), for the one-hot rows A at the distinct entries ``index``.

        The cotangent is (..., m), its values at ``index``; without ``index`` it
        is the full (..., d) cotangent (A = I). This default scatters it into
        zeros and runs :meth:`dense_vjp`; a denoiser whose Jacobian has
        structure overrides it to work from the m entries. Its callers pass the
        pair of :func:`~pgd.guidance.log_likelihood`: ``smc_run``'s level
        evaluation, ``heun_core``, and :meth:`jacobian_block` with A itself.
        """
        if index is not None:
            full = np.zeros(np.shape(cotangent)[:-1] + (self.dim,))
            full[..., index] = cotangent
            cotangent = full
        return self.dense_vjp(x, sigma, cotangent)

    def jacobian_block(self, index: np.ndarray, sigma: float, states: np.ndarray) -> np.ndarray:
        """A J A^T, (m, m), for the one-hot rows A at the distinct entries ``index``: one vjp of A at the mean state."""
        return self.vjp(states.mean(axis=0), sigma, np.eye(index.size), index)[:, index]


# ---------------------------------------------------------------------------
# Gaussian priors.
# ---------------------------------------------------------------------------

COV_KINDS = ("diagonal", "dense")


@dataclass(frozen=True)
class FactoredCov:
    """Dense covariance iso * I + basis^T diag(evals - iso) basis.

    ``basis`` is (r, d) with orthonormal rows and ``evals`` holds their r
    eigenvalues; every direction orthogonal to the rows has eigenvalue ``iso``.
    This is the probabilistic-PCA form (Tipping & Bishop, 1999).
    """

    iso: float
    basis: np.ndarray
    evals: np.ndarray


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian over flattened states: one mean field plus finite diagonal or dense covariance.

    A diagonal covariance is a nonnegative (d,) vector; an isotropic prior is
    the diagonal ``np.full(d, s)``. A dense covariance may be given as a
    symmetric positive semidefinite (d, d) matrix. It is checked and
    eigendecomposed once here and stored as a :class:`FactoredCov` with
    iso = 0 and r = d; eigenvalues are clipped at zero against tiny negative
    round-off modes.
    """

    mean: Field
    cov_kind: str
    cov: np.ndarray | FactoredCov

    def __post_init__(self):
        if self.cov_kind not in COV_KINDS:
            raise ValueError(f"cov_kind must be one of {COV_KINDS}")
        if self.mean.batch_shape:
            raise ValueError(f"the mean must be one field, got a batch of shape {self.mean.batch_shape}")
        d = self.mean.spec.size
        cov = self.cov
        parts = (cov.iso, cov.evals, cov.basis) if isinstance(cov, FactoredCov) else (cov,)
        if not all(np.all(np.isfinite(p)) for p in parts):
            raise ValueError(f"{self.cov_kind} covariance must be finite")
        if self.cov_kind == "diagonal":
            arr = None if isinstance(cov, FactoredCov) else np.asarray(cov, dtype=float)
            if arr is None or arr.shape != (d,) or np.any(arr < 0):
                raise ValueError("diagonal covariance must be a nonnegative (d,) vector")
            object.__setattr__(self, "cov", arr)
        elif isinstance(self.cov, FactoredCov):
            shaped = (isinstance(cov.basis, np.ndarray) and isinstance(cov.evals, np.ndarray)
                      and cov.evals.ndim == 1 and cov.basis.shape == (cov.evals.size, d))
            if not (shaped and is_real(cov.iso)) or cov.iso < 0 or np.any(cov.evals < 0):
                raise ValueError("factored covariance needs an (r, d) basis array, an (r,) evals array, "
                                 "and nonnegative iso and evals")
            if np.any(np.abs(cov.basis @ cov.basis.T - np.eye(cov.evals.size)) > 1e-10):
                raise ValueError("factored covariance needs a basis with orthonormal rows")
        else:
            arr = np.asarray(self.cov, dtype=float)
            if arr.shape != (d, d):
                raise ValueError("dense covariance must be (d, d)")
            if not np.allclose(arr, arr.T, atol=1e-10):
                raise ValueError("dense covariance must be symmetric")
            evals, evecs = np.linalg.eigh(arr)
            if np.min(evals) < -1e-8 * max(np.max(np.abs(evals)), 1.0):
                raise ValueError("dense covariance is not positive semidefinite")
            object.__setattr__(self, "cov", FactoredCov(0.0, evecs.T, np.maximum(evals, 0.0)))

    @property
    def dim(self) -> int:
        return self.mean.spec.size


def _shrink(lam, sigma: float) -> np.ndarray:
    """Per-mode shrinkage factors lam/(lam + sigma^2); at sigma=0 modes with lam>0 pass through."""
    lam = np.asarray(lam)
    denom = lam + sigma**2
    if sigma**2 > 0:  # every denominator is positive, since lam >= 0
        return lam / denom
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, lam / np.where(denom > 0, denom, 1.0), 0.0)


class GaussianDenoiser(Denoiser):
    """Exact posterior-mean denoiser mu + S (S + sigma^2 I)^{-1} (x - mu).

    The Jacobian S (S + sigma^2 I)^{-1} shares the eigenvectors of S. A dense S applies through its
    factored form as f_iso v + ((v basis^T) (f_r - f_iso)) basis, at O(d r) per state; the f_iso v
    term is skipped where f_iso is 0, as for every covariance given as a (d, d) matrix (iso = 0).
    """

    def __init__(self, prior: GaussianPrior):
        self.prior = prior
        self.dim = prior.dim
        self._mu = prior.mean.flat()

    def _apply_jacobian(self, vec: np.ndarray, sigma: float, own: bool = False) -> np.ndarray:
        """J vec; with ``own`` the caller gives up ``vec``, and it is scaled in place."""
        cov = self.prior.cov
        scratch = vec if own else None
        if self.prior.cov_kind != "dense":
            return np.multiply(vec, _shrink(cov, sigma), out=scratch)
        f, f_iso = _shrink(cov.evals, sigma), float(_shrink(cov.iso, sigma))  # r modes and the isotropic level
        out = ((vec @ cov.basis.T) * (f - f_iso)) @ cov.basis
        if f_iso:  # 0 for a covariance given as a (d, d) matrix
            out += np.multiply(f_iso, vec, out=scratch)
        return out

    def _scaled_columns(self, index: np.ndarray, sigma: float) -> tuple[np.ndarray, float]:
        """cols^T diag(f_r - f_iso), (m, r), for the basis columns cols at ``index``, and f_iso: the dense J's
        rows at ``index`` are f_iso A + that times the basis."""
        cov = self.prior.cov
        f_iso = float(_shrink(cov.iso, sigma))
        return cov.basis[:, index].T * (_shrink(cov.evals, sigma) - f_iso), f_iso

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self._apply_jacobian(x - self._mu, sigma, own=True)
        out += self._mu
        return out

    def dense_vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray) -> np.ndarray:
        # the Jacobian S (S + sigma^2 I)^{-1} is symmetric and x-independent
        return self._apply_jacobian(np.asarray(cotangent, dtype=float), sigma)

    def vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """J^T A^T g from the m entries of g; ``x`` is unread.

        A dense S gives f_iso A^T g + (g scaled) basis, with ``scaled`` from
        :meth:`_scaled_columns`, and multi_dot orders that product by its shapes: at N rows
        (g scaled) basis costs N r (m + d) multiply-adds and g (scaled basis) m d (N + r), against
        2 N d r for :meth:`dense_vjp` of the scattered g. A diagonal S, or no ``index``, takes the
        base class's scatter and :meth:`dense_vjp`.
        """
        if index is None or self.prior.cov_kind != "dense":
            return super().vjp(x, sigma, cotangent, index)
        g = np.asarray(cotangent, dtype=float)
        lead = g.shape[:-1]
        scaled, f_iso = self._scaled_columns(index, sigma)
        out = np.linalg.multi_dot([g.reshape(math.prod(lead), index.size), scaled, self.prior.cov.basis])
        out = out.reshape(lead + (self.dim,))
        if f_iso:  # 0 for a covariance given as a (d, d) matrix
            out[..., index] += f_iso * g
        return out

    def jacobian_block(self, index: np.ndarray, sigma: float, states: np.ndarray) -> np.ndarray:
        """A J A^T from the shrink factors and the basis columns at ``index``, in O(m^2 r); ``states`` is unread."""
        if self.prior.cov_kind != "dense":
            return super().jacobian_block(index, sigma, states)
        scaled, f_iso = self._scaled_columns(index, sigma)
        block = scaled @ self.prior.cov.basis[:, index]
        block.flat[:: index.size + 1] += f_iso  # the diagonal
        return block


# ---------------------------------------------------------------------------
# Gaussian-mixture denoiser (desk-scale multimodal oracle).
# ---------------------------------------------------------------------------


class GmmDenoiser(Denoiser):
    """Exact denoiser for a mixture of isotropic Gaussians.

    Components are (weight, mean, scalar variance). The denoiser is the
    responsibility-weighted combination of per-component posterior means; the
    vjp uses the closed-form Jacobian including responsibility derivatives.

    Both work from (..., J) products with the (J, d) means about their centroid m, and form no (..., J, d)
    array. The expanded |x - m|^2 - 2 (x - m).(mu_j - m) + |mu_j - m|^2 gives log r_j an error of about
    eps |x - m|^2 / (variance_j + sigma^2) against the direct form; an offset all means share costs no digits.
    """

    def __init__(self, weights, means, variances):
        w = np.asarray(weights, dtype=float)
        mu = np.array(means, dtype=float)  # a copy, so the centred means cannot go stale
        var = np.asarray(variances, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("mixture must have at least one component")
        if np.any(w <= 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("weights must be positive and sum to 1")
        if mu.ndim != 2 or mu.shape[0] != w.size or not np.isfinite(mu).all():
            raise ValueError("means must be finite, (components, d)")
        if var.shape != w.shape or not np.all((var > 0) & np.isfinite(var)):
            raise ValueError("variances must be finite and positive, one per component")
        self.weights, self.means, self.variances = w, mu, var
        self.dim = mu.shape[1]
        self._centre, self._centred = mu.mean(axis=0), mu - mu.mean(axis=0)  # (d,), (J, d)
        self._centred_sq = np.vecdot(self._centred, self._centred)  # (J,)

    def _responsibilities(self, x: np.ndarray, sigma: float):
        """r_j, (..., J), for the noised mixture at the centred states x, and s_j = variance_j + sigma^2."""
        s = self.variances + sigma**2  # (J,)
        sq = np.vecdot(x, x)[..., None] - 2.0 * (x @ self._centred.T) + self._centred_sq  # (..., J)
        log_r = np.log(self.weights) - 0.5 * sq / s - 0.5 * self.dim * np.log(s)
        r = np.exp(log_r - log_r.max(axis=-1, keepdims=True))
        r /= r.sum(axis=-1, keepdims=True)
        return r, s

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = np.asarray(x, dtype=float) - self._centre
        r, s = self._responsibilities(x, sigma)
        shrink = self.variances / s  # (J,)
        return (r * (1.0 - shrink)) @ self._centred + (r @ shrink)[..., None] * x + self._centre

    def dense_vjp(self, x: np.ndarray, sigma: float, cotangent: np.ndarray) -> np.ndarray:
        # J = sum_j r_j [post_j (g_j - g_bar)^T + shrink_j I], g_j = (mu_j - x)/s_j, so J^T cot = (r . shrink) cot
        # + sum_j a_j (mu_j - x), a_j = (c_j - r_j sum_k c_k)/s_j, c_j = r_j post_j . cot (any centre cancels in a)
        x, cot = np.asarray(x, dtype=float) - self._centre, np.asarray(cotangent, dtype=float)
        r, s = self._responsibilities(x, sigma)
        shrink = self.variances / s
        c = r * ((1.0 - shrink) * (cot @ self._centred.T) + shrink * np.vecdot(x, cot)[..., None])
        a = (c - c.sum(axis=-1, keepdims=True) * r) / s
        return a @ self._centred - a.sum(axis=-1)[..., None] * x + (r @ shrink)[..., None] * cot


# ---------------------------------------------------------------------------
# Fitting.
# ---------------------------------------------------------------------------


def fit_empirical_prior(dataset: list[Field], lam: float, cov_kind: str = "dense") -> GaussianPrior:
    """Shrunk empirical Gaussian: (1 - lam) * empirical + lam * (trace/d) * identity.

    The shrinkage target is that of Ledoit & Wolf (2004). A ``"dense"`` fit
    comes from the thin SVD C = U diag(s) V of the n centred samples and is
    stored as :class:`FactoredCov`: iso = lam * trace/d, basis = V and
    evals = (1 - lam) s^2/n + iso. No d x d matrix is formed, so any d is
    allowed and storage is O(min(n, d) d). A zero-trace empirical covariance
    (one sample, or identical samples) falls back to a unit trace scale so the
    result stays positive definite for lam > 0.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    if not (is_real(lam) and 0 < lam <= 1):
        raise ValueError("shrinkage lam must be a real number in (0, 1]")
    spec = dataset[0].spec
    if other := next((f.spec for f in dataset if f.spec != spec), None):
        raise ValueError(f"cannot fit samples on different grids: {spec} and {other}")
    mat = np.stack([f.flat() for f in dataset])
    n, d = mat.shape
    mean = mat.mean(axis=0)
    centered = mat - mean
    if cov_kind == "dense":
        _, s, basis = np.linalg.svd(centered, full_matrices=False)
        emp = s**2 / n
        trace_scale = emp.sum() / d
        if trace_scale == 0.0:
            trace_scale = 1.0
        iso = lam * trace_scale
        cov = FactoredCov(iso, basis, (1.0 - lam) * emp + iso)
        return GaussianPrior(Field.from_flat(spec, mean), "dense", cov)
    if cov_kind == "diagonal":
        emp = np.mean(centered**2, axis=0)
        trace_scale = emp.mean() if emp.mean() > 0 else 1.0
        cov = (1.0 - lam) * emp + lam * trace_scale
        return GaussianPrior(Field.from_flat(spec, mean), "diagonal", cov)
    raise ValueError(f"cannot fit cov_kind {cov_kind!r}")
