"""Per-layer tracing of ``pgd`` from outside the package.

The tracer replaces public names with timing wrappers at the places where
callers look them up. ``from .x import y`` copies ``y`` into the importing
module, so a name is wrapped in the module that calls it, not where it is
defined. ``pgd.grid.shift`` is looked up as a module global at each call, so
calls from inside ``grid`` and the function-local import in ``solvers`` are
seen too. The denoiser's ``denoise`` and ``vjp`` are wrapped on the instance.

Spans are kept in memory as parallel arrays (name id, parent index, start,
end) and aggregated when asked. A span's self time is its duration minus the
durations of its direct children. Everything is restored on ``uninstall``.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

_STENCILS = ("laplacian_2d", "diff_2d", "flux_divergence_2d", "flux_divergence_2d_adjoint_coef")
_SOLVER_STENCILS = ("laplacian_2d", "flux_divergence_2d")

STENCIL_SPANS = tuple(f"grid.{s}" for s in _STENCILS)

# (module, attribute, span name): every name wrapped where its caller binds it.
MODULE_TARGETS = (
    ("pgd.smc", "gem_core", "samplers.gem_core"),
    ("pgd.smc", "heun_core", "samplers.heun_core"),
    ("pgd.smc", "log_likelihood", "guidance.log_likelihood"),
    ("pgd.smc", "tds_transition_term", "guidance.tds_transition_term"),
    ("pgd.smc", "multinomial_resample", "smc.multinomial_resample"),
    ("pgd.samplers", "data_log_likelihood_grad", "guidance.data_log_likelihood_grad"),
    ("pgd.guidance", "residual", "residuals.residual"),
    ("pgd.guidance", "residual_sq_grad", "residuals.residual_sq_grad"),
    # the residual that residual_sq_grad recomputes, looked up in its own module
    ("pgd.residuals", "residual", "residuals.residual"),
    *(("pgd.residuals", s, f"grid.{s}") for s in _STENCILS),
    *(("pgd.solvers", s, f"grid.{s}") for s in _SOLVER_STENCILS),
    ("pgd.grid", "shift", "grid.shift"),
    ("pgd.solvers", "solve_elliptic", "solvers.solve_elliptic"),
    ("pgd.solvers", "simulate_rd", "solvers.simulate_rd"),
)
DENOISER_TARGETS = (("denoise", "priors.denoise"), ("vjp", "priors.vjp"))


class Tracer:
    """Records nested spans of wrapped ``pgd`` calls and benchmark-level spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.ancestor_fracs: list[tuple[int, float]] = []  # (span, unique ancestors / N)
        self.rd_steps: list[int] = []  # time steps per simulate_rd call
        self.solve_cells: list[tuple[str, int]] = []  # (system kind, grid cells) per solve

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span; yields its index."""
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, observe=None, label=None):
        """Trace ``fn`` as ``name``, or as ``name.<label(args)>`` when a label is given.

        ``observe(span, args, result)`` runs after each call that returns.
        """
        nid = self._id(name)
        open_, close, ids = self._open, self._close, self._id

        def traced(*args, **kwargs):
            idx = open_(nid if label is None else ids(f"{name}.{label(args)}"))
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(idx, args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def install(self, denoiser=None) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from pgd.grid import Field

        hooks = {
            "smc.multinomial_resample": {
                "observe": lambda idx, args, pop: self.ancestor_fracs.append(
                    (idx, len(np.unique(pop.ancestors)) / pop.count)
                )
            },
            "solvers.simulate_rd": {"observe": lambda idx, args, out: self.rd_steps.append(int(args[4]))},
            "solvers.solve_elliptic": {
                "label": lambda args: args[0].kind,
                "observe": lambda idx, args, out: self.solve_cells.append((args[0].kind, args[1].spec.cells)),
            },
        }
        for module, attr, name in MODULE_TARGETS:
            self._patch(importlib.import_module(module), attr, name, **hooks.get(name, {}))
        # the dataclass __init__ looks __post_init__ up on the class
        self._patch(Field, "__post_init__", "grid.Field.__post_init__")
        if denoiser is not None:
            for attr, name in DENOISER_TARGETS:
                self._patch(denoiser, attr, name)

    def uninstall(self) -> None:
        """Put back every original, in reverse order; instance wrappers are deleted."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def active(self, denoiser=None):
        self.install(denoiser)
        try:
            yield self
        finally:
            self.uninstall()

    def subtree(self, idx: int) -> range:
        """Indices of span ``idx`` and all its descendants (they are contiguous)."""
        start = np.frombuffer(self.start, dtype=float)
        stop = int(np.searchsorted(start, self.end[idx], side="left"))
        return range(idx, max(stop, idx + 1))

    def aggregate(self, idx: int) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total s, self s)`` over the subtree of span ``idx``."""
        rng = self.subtree(idx)
        lo, hi = rng.start, rng.stop
        names = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = np.frombuffer(self.end, dtype=float)[lo:hi] - np.frombuffer(self.start, dtype=float)[lo:hi]
        child = np.zeros(hi - lo)
        inner = parents >= lo
        np.add.at(child, parents[inner] - lo, dur[inner])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            self.names[i]: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i in range(k)
            if calls[i]
        }

    def find(self, idx: int, name: str) -> list[int]:
        """Spans named ``name`` in the subtree of span ``idx``."""
        nid = self._ids.get(name)
        return [j for j in self.subtree(idx) if self.name[j] == nid]
