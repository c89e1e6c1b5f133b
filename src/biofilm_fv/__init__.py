"""Entropy-stable finite-volume solver for a saturation-limited
cross-diffusion model of multi-species biofilm growth."""

__version__ = "0.1.0"

from .mesh import (  # noqa: F401
    AdmissibilityError,
    Mesh,
    MeshError,
    TopologyError,
    build_interval_mesh,
    build_rectangle_mesh,
    load_triangle_mesh,
    load_triangle_mesh_file,
    read_triangle_mesh_file,
    validate_regularity,
    write_triangle_mesh_file,
)
from .model import (  # noqa: F401
    ModelDomainError,
    ModelError,
    ModelFunctions,
    ModelParams,
    entropy_density,
    get_model,
    model_case1,
    model_case2,
    model_generic,
)
from .scheme import (  # noqa: F401
    BoundaryData,
    InvariantViolation,
    NewtonConfig,
    NewtonFailure,
    SolverFailure,
    State,
    StepReport,
    advance,
    evaluate,
    jacobian,
    max_principle_bound,
    newton_step,
    project_initial,
    residual,
)
from .diagnostics import (  # noqa: F401
    discrete_entropy,
    dissipation,
    entropy_production_beta_bound,
)
from .harness import (  # noqa: F401
    ConfigurationError,
    ConvergenceResult,
    ExperimentSpec,
    IndicatorDatum,
    build_named_initial_datum,
    run_convergence_study,
    run_evolution,
    run_steady_state_study,
)
