"""Gaussian energy models on spin configurations.

Covariance rules (pair, order-p, mixed, independent, tree-structured,
custom), exhaustive audits of the projection condition, reproducible
disorder sampling, quenched free-energy estimation, and the interpolation
machinery connecting a system to its sub-systems.
"""

__version__ = "0.1.0"

from .audit import (
    AuditResult,
    ConditionReport,
    PsdReport,
    check_condition,
    condition_gap,
    gap_expansion,
    gap_matrix,
    validate_psd,
)
from .disorder import (
    CholeskySampler,
    DisorderDraw,
    JointDraw,
    SeedPolicy,
    StructuralSampler,
    TripleSampler,
    draw_disorder,
    lift,
    make_sampler,
)
from .errors import (
    DimensionMismatch,
    GaussemError,
    MissingData,
    ResourceCapExceeded,
    UnsupportedModel,
    ValidationError,
)
from .grem import (
    GremTree,
    TreeLift,
    check_lift_covariance,
    grem_covariance,
    lift_energies,
    merge_level,
    parse_tree_file,
    sample_grem,
    validate_tree,
)
from .interpolation import (
    DerivativeComparison,
    MonotonicityScan,
    TwoReplicaGibbs,
    derivative_estimator,
    finite_difference_check,
    interp_hamiltonian,
    log_partition_t,
    monotonicity_scan,
)
from .models import (
    CouplingStructure,
    CovarianceModel,
    CustomModel,
    GREMModel,
    MixedModel,
    PSpinModel,
    REMModel,
    SKModel,
)
from .spins import (
    CoordinatePartition,
    SpinConfig,
    combine,
    enumerate_configs,
    enumerate_partitions,
    overlap,
    project,
)
from .thermo import (
    QuenchedEstimate,
    SkRescalingReport,
    SuperadditivityReport,
    jensen_bound,
    log_partition,
    quenched_alpha,
    sk_rescaling_check,
    superadditivity_report,
)
