"""TCL2 open-system evolution, Lindblad limit, and canonical Kraus extraction."""

from .baths import (
    DiscreteBath,
    MarkovianBath,
    OhmicBath,
    double_time_integral,
    thermal_occupation,
)
from .channel import (
    CPViolationError,
    ChannelMatrix,
    KrausSet,
    apply_channel,
    assemble_channel,
    canonical_kraus,
    channel_at,
    channel_matrix_from_kraus,
    damping_term,
    jump_term,
    kraus_equivalent,
    to_schrodinger,
)
from .dephasing import (
    BornValidityError,
    DephasingModel,
    kraus_pair,
    pair_weight,
)
from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SystemHamiltonian,
    ValidationError,
    check_density_matrix,
    commutator,
    hermitize,
    matrix_from_json,
    matrix_to_json,
    partial_trace_bath,
    trace_distance,
)
from .oracle import (
    TotalSystem,
    TruncatedBath,
    TruncationError,
    bath_correlation_exact,
    evolve_exact,
)
from .quadrature import QuadratureError
from .scenario import Scenario, ScenarioError, load_scenario, run_scenario
from .tcl import (
    IntegrationError,
    LindbladGenerator,
    Tcl2Generator,
    Trajectory,
    integrate,
    reduce_to_lindblad,
)

__version__ = "0.1.0"
