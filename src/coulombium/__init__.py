"""Variational ground states of the 1-D Schrodinger-Coulomb system.

A mobile charge density u^2 of unit mass binds to a fixed background
charge (point -z delta_0 or a sampled nonpositive density) through the
one-dimensional Coulomb kernel -|x-y|.  The package evaluates the energy
functional and its kernel identities by exact prefix-sum quadrature,
computes ground states by Anderson-mixed SCF eigen-iteration or
preconditioned projected gradient descent, and verifies the
rearrangement, positivity and quartic-norm inequalities the theory
predicts.
"""

from .background import (
    BackgroundCharge,
    PointCharge,
    SampledCharge,
    background_potential,
    delta_approximant,
    load_background,
    recenter_shift,
    total_charge,
)
from .diagnostics import (
    UnboundednessScanResult,
    counterexample_un,
    grid_for_counterexample,
    moment,
    unboundedness_scan,
)
from .energy import (
    EnergyBreakdown,
    effective_potential,
    el_residual,
    solver_objective,
    total_energy,
)
from .errors import (
    CoulombiumError,
    DivergingEnergyError,
    GridMismatchError,
    GridTooSmallError,
    LineSearchStalledError,
    MaxIterExceededError,
    NegativeInputError,
    NoConvergenceError,
    NonZeroMeanError,
    NormalizationWarning,
    NotNormalizedError,
    SolverError,
    UnderResolvedError,
)
from .grid import (
    Grid,
    Samples,
    from_function,
    integrate,
    kinetic_energy,
    normalize,
)
from .kernel import (
    b_form,
    b_norm,
    c_functional,
    c_plus,
    coulomb_pair_energy,
    neg_kernel_inner_product,
    potential_from_density,
)
from .rearrange import symmetric_decreasing_rearrangement
from .solver import (
    GroundState,
    SolverConfig,
    default_initial_guess,
    gradient_solve,
    ground_eigenpair,
    scf_solve,
)

__version__ = "0.1.0"
