"""Bounded-window spatial birth-and-death dynamics with coupled spin diffusions."""

from .birth_death import (
    BirthKernel,
    BoundViolationError,
    ConstantBirthKernel,
    EstablishmentBirthKernel,
    Event,
    FecundityBirthKernel,
    GlauberBirthKernel,
    RadialPotential,
    Trajectory,
    gaussian_potential,
    sample_driving_process,
    simulate,
    step_potential,
    verify_domination,
)
from .geometry import (
    Box,
    Configuration,
    Window,
    poisson_configuration,
)
from .marked_process import (
    MarkedTrajectory,
    Observable,
    cadlag_check,
    combine,
    counting_observable,
    mark_sum_observable,
)
from .scales import (
    ScaleParams,
    check_gronwall_inequality,
    check_moment_growth,
    gronwall_series_constant,
)
from .spin_sde import (
    CoefficientSet,
    InitialMarkPolicy,
    IntegratorConfig,
    MarkPath,
    check_drift_diffusion_bounds,
    cutoff_convergence_study,
    finite_volume_solve,
    integrate_marks,
)

__version__ = "0.1.0"
