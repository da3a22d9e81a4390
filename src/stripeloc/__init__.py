"""stripeloc: bounds and estimators for localization with distributed antenna stripes."""

from .channel import DmcParams, Material, Scatterer, disturbance_covariance
from .errors import (
    DegenerateGeometry,
    KernelEmpty,
    NumericalFailure,
    RankDeficient,
    SchemaError,
    SearchFailure,
    SemanticError,
    SingularFim,
    StripelocError,
    ZeroAggregate,
)
from .estimators import (
    EstimateReport,
    NstConfig,
    SearchConfig,
    WantedParams,
    coarse_clock_offset,
    cp_cost_slice,
    estimate_phase_offset,
    jml_amplitudes,
    jml_cost,
    jml_refine,
    nst_kernels,
    nst_map_scatterers,
    rml_ncp_amplitudes_and_cost,
    rml_position_search,
    run_pipeline,
)
from .fim import (
    BoundsReport,
    FimOptions,
    SyncMode,
    bounds,
    bw_thresholds,
    compute_bounds,
    efim,
    global_fim,
    peb_heatmap,
)
from .geometry import SPEED_OF_LIGHT, PathGeometry, PathKind, Stripe, Wall, enumerate_paths
from .harness import (
    MetricsTable,
    StageMetrics,
    multipath_case,
    run_bounds_sweep,
    run_heatmap,
    run_monte_carlo,
)
from .scenario import (
    Scenario,
    canonical_scenario,
    estimation_scenario,
    load_scenario,
    retune,
    with_antennas,
    with_bandwidth,
    with_sdnr,
)
from .signal import (
    ObservationSet,
    Waveform,
    dump_observations,
    pt_for_sdnr,
    sdnr_db,
    synthesize,
)

__version__ = "0.1.0"
