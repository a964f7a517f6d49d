"""Stochastic interacting wave-function ensembles for continuously
monitored open quantum systems: coupled pure-state trajectories whose
outer-product sum is the measurement-conditioned mixed state, cross-checked
against direct conditioned-density integration, the reweighted linear
route, and the deterministic mean evolution.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DensityMatrixError,
    DimensionMismatchError,
    NormViolationError,
    NotHermitianError,
    ReconstructionError,
    SiwfError,
    StepFailureError,
    TrajectoryExtinctError,
)
from .linalg import (
    assert_density_matrix,
    hermitian_eig,
    hermitize,
)
from .model import (
    BoxParams,
    ModelSpec,
    RabiParams,
    annihilation,
    box_model,
    build_gksl_generator,
    make_model,
    qubit_model,
    rabi_model,
    validate_model,
)
from .noise import NoisePath, coarsen, generate_noise, generate_noise_block
from .observables import KNOWN_OBSERVABLES, resolve_observable
from .states import (
    InitialDecomposition,
    TrajectoryRecord,
    assemble_density,
    decompose_density,
    init_ensemble,
)
from .steppers import (
    SCHEMES,
    StepContext,
    belavkin_step_batch,
    linear_step_batch,
    siwf_step_batch,
    step_gksl,
    step_nonlinear_sse,
)
from .trajectories import (
    FunctionalSamples,
    MeanSeries,
    gksl_solve,
    monte_carlo_mean,
    observable_series,
    run_belavkin_trajectory,
    run_gksl_trajectory,
    run_linear_route,
    run_nonlinear_trajectory,
    run_siwf_trajectory,
    sample_functionals,
    weight_paths,
)
from .verify import (
    CheckReport,
    as_negative_control,
    check_decomposition_invariance,
    check_gksl_mean,
    check_linear_route_equivalence,
    check_martingale,
    check_model_identities,
    check_norm_conservation,
    check_record_consistency,
    check_siwf_vs_belavkin,
    default_suite,
    format_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
