"""Exception types shared across the package, the located finiteness check, and the checks of settings."""

import numpy as np


class NumericalError(RuntimeError):
    """Numerical failure during solving or sampling."""


class SolverConvergenceError(NumericalError):
    """Iterative solver exhausted its iteration budget."""


class SingularOperatorError(NumericalError):
    """Direct solve requested for a (near-)singular operator."""


class BlowUpError(NumericalError):
    """Non-finite values encountered during time stepping or sampling.

    ``step`` is the time or sampler step and ``particle`` the index of the
    first particle affected, when known.
    """

    def __init__(self, message: str, step: int | None = None, particle: int | None = None):
        super().__init__(message)
        self.step = step
        self.particle = particle


def is_count(value, minimum: int = 1) -> bool:
    """Whether ``value`` is a Python or NumPy integer, not a bool, of at least ``minimum``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)) and value >= minimum


def is_real(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer or float, not a bool; finiteness is the caller's check."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, (bool, np.bool_))


def require_default(owner: str, name: str, value, default) -> None:
    """Raise unless ``value`` is ``default``, or a real number equal to it: ``owner`` does not read ``name``."""
    if not (value is default or is_real(value) and value == default):
        raise ValueError(f"{owner} does not read {name}; leave it at its default {default}")


def require_finite(rows: np.ndarray, step: int, what: str, unit: str = "particle") -> None:
    """Raise :class:`BlowUpError` at the first of the (N,) values or (N, ...) rows that is not finite.

    All-finite rows cost one pass; the bad row is located only on failure.
    """
    if np.isfinite(rows).all():
        return
    index = int(np.flatnonzero(~np.isfinite(rows).reshape(len(rows), -1).all(axis=1))[0])
    raise BlowUpError(f"non-finite {what} for {unit} {index} at step {step}", step=step, particle=index)
