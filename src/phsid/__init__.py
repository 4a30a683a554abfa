"""phsid: identification and structure-preserving simulation of linear
port-Hamiltonian systems from time-domain input-output data."""

from .calibration import (
    PSD_MODES,
    PSD_NONE,
    PSD_PROJECT,
    ArmijoStep,
    CalibrationConfig,
    CalibrationResult,
    armijo_search,
    calibrate,
    cost,
)
from .data_io import (
    NoiseSpec,
    generate_input,
    generate_reference,
    load_config,
    load_history_csv,
    load_model,
    load_signal_csv,
    load_trajectory_csv,
    save_history_csv,
    save_model,
    save_result,
    save_signal_csv,
    save_trajectory_csv,
    standard_normals,
)
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    InvalidModelError,
    LineSearchError,
    MalformedFileError,
    PhsidError,
    UnsupportedDirectionError,
)
from .matrices import (
    PSD_EIG_TOL,
    PSDMatrix,
    SPDMatrix,
    SkewSymmetricMatrix,
    SymmetricMatrix,
    project_psd,
)
from .sensitivity import (
    STRUCTURE_DIAGONAL_R,
    STRUCTURE_FULL,
    STRUCTURES,
    BasisSet,
    Gradient,
    ParameterPoint,
    TangentDirection,
    assemble_gradient,
    coefficients_agree,
    directional_derivative,
    finite_difference_gradient,
    sensitivity_coefficients,
    solve_sensitivity,
    tangent_basis,
)
from .systems import (
    PHSystem,
    ReducedPHSystem,
    Signal,
    TimeGrid,
    Trajectory,
    cholesky_reduce,
    energy_balance_residual,
    hamiltonian,
    midpoint_output,
    output,
    simulate_discrete_gradient,
    simulate_euler,
)

__version__ = "0.1.0"
