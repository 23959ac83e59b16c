"""Exception and warning types shared across the package."""


class CoulombiumError(Exception):
    """Base class for package-specific errors."""


class GridMismatchError(CoulombiumError):
    """Operands live on different meshes."""


class NonZeroMeanError(CoulombiumError):
    """The negative-kernel inner product requires zero-mean arguments."""


class NotNormalizedError(CoulombiumError):
    """Wave function does not carry unit L2 mass."""


class NegativeInputError(CoulombiumError):
    """Rearrangement input must be a nonnegative density."""


class UnderResolvedError(CoulombiumError):
    """Grid spacing is too coarse for the requested feature scale."""


class GridTooSmallError(CoulombiumError):
    """Domain half-width is too small for the requested construction."""


class SolverError(CoulombiumError):
    """Base class for solver failures. Carries the iteration history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class NoConvergenceError(SolverError):
    """Eigenpair computation failed."""


class MaxIterExceededError(SolverError):
    """Iteration budget exhausted before reaching the tolerances."""


class DivergingEnergyError(SolverError):
    """No bound state (charge ratio z < 1): ``solver.require_bound_state``, CLI exit 1."""


class LineSearchStalledError(SolverError):
    """Backtracking could not find a descent step."""


class NormalizationWarning(UserWarning):
    """A density was passed where unit mass was expected."""
