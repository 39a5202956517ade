"""Desk-scale numerics for bipartite spin dynamics and permanent hardness.

Subpackages cover the model Hamiltonians and their moments, exact time
evolution, matrix permanents, robust polynomial regression, Trotter
circuit planning, anticoncentration Monte Carlo, and a seeded CLI.
"""

__version__ = "0.1.0"

from .anticon import (  # noqa: F401
    AnticonThresholds,
    MomentRecord,
    equilibration_curve,
    moment_statistics,
    paley_zygmund_bound,
    ratio_r,
)
from .core import (  # noqa: F401
    Basis,
    BitString,
    CouplingMatrix,
    HamiltonianSpec,
    Kind,
    Polynomial,
    Rng,
    SampleSet,
    StateVector,
    hamming_class,
    hamming_class_members,
    model_class,
    sample_coupling,
)
from .evolve import (  # noqa: F401
    DecompositionError,
    KrylovConvergenceError,
    Propagator,
    evolve_exact,
    output_probability,
    time_average,
)
from .hamiltonian import (  # noqa: F401
    DenseMemoryError,
    dense_matrix,
    moment_table,
    natural_basis,
    symmetry_blocks,
)
from .hardness import (  # noqa: F401
    anticoncentration_thresholds,
    extract_permanent_from_dynamics,
    gaussian_rescaling_tvd,
    interpolation_recovery_bound,
    interpolation_tvd,
    short_time_xi_bound,
    stockmeyer_error,
    truncation_error,
    worst_to_average_demo,
    xi_square_negligible,
)
from .permanent import (  # noqa: F401
    gaussian_permanent_variance_check,
    permanent_bruteforce,
    permanent_ryser,
    permanents,
    submatrix_for_outcome,
)
from .polyfit import (  # noqa: F401
    RecoveryError,
    berlekamp_welch_recover,
    extract_coefficient,
    robust_median_fit,
)
from .trotter import (  # noqa: F401
    CALIBRATED_PREFACTOR,
    Gate,
    GateSequence,
    build_trotter,
    estimate_prefactor,
    gate_count_plan,
    l1_unitary_bound_check,
    trotter_error_grid,
    trotter_operator_error,
    trotter_operator_errors,
    upsilon,
)
