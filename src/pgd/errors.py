"""Exception types shared across the package."""


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
