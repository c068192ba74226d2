"""Worker and firm effects from linked employer-employee panels.

Estimation of the additive two-way fixed-effects wage model, variance
decomposition into worker / firm / sorting / residual components, limited-
mobility bias corrections (homoskedastic trace and heteroskedastic
leave-out), connectivity handling, diagnostics, and a simulator with known
ground truth.
"""

__version__ = "0.1.0"

from .correct import (
    CorrectionResult,
    LeverageTable,
    QuadraticForm,
    compute_leverages,
    correct_homoskedastic,
    correct_leave_out,
    corrected_decomposition,
)
from .decompose import (
    BetweenWithinSplit,
    ChangeTable,
    Decomposition,
    between_within_split,
    compare_decompositions,
    decompose_variance,
)
from .diagnose import EventStudyTable, SubsamplePoint, event_study, subsample_plot
from .errors import (
    CollinearCovariateError,
    ConfigError,
    DataError,
    NumericalError,
    TwoWayError,
)
from .network import (
    ConnectedSet,
    MobilityGraph,
    build_graph,
    connected_set_summary,
    largest_connected_set,
    leave_one_out_connected_set,
)
from .panel import (
    Observation,
    Panel,
    ValidationReport,
    load_panel,
    restrict_panel,
    write_panel,
)
from .simulate import SimConfig, SimTruth, simulate_panel, truth_components
from .solver import (
    Estimates,
    SolverConfig,
    estimate,
    estimate_first_differences,
    predict,
)
