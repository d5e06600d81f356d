import types

import gaussem

PUBLIC_API = [
    "AuditResult", "CholeskySampler", "ConditionReport", "CoordinatePartition",
    "CouplingStructure", "CovarianceModel", "CustomModel", "DerivativeComparison",
    "DimensionMismatch", "DisorderDraw", "GREMModel", "GaussemError", "GremTree",
    "JointDraw", "MissingData", "MixedModel", "MonotonicityScan", "PSpinModel",
    "PsdReport", "QuenchedEstimate", "REMModel", "ResourceCapExceeded", "SKModel",
    "SeedPolicy", "SkRescalingReport", "SpinConfig", "StructuralSampler",
    "SuperadditivityReport", "TreeLift", "TripleSampler", "TwoReplicaGibbs",
    "UnsupportedModel", "ValidationError", "check_condition", "check_lift_covariance",
    "condition_gap", "derivative_estimator", "enumerate_configs", "enumerate_partitions",
    "finite_difference_check", "gap_expansion", "gap_matrix", "grem_covariance",
    "jensen_bound", "log_partition", "log_partition_t", "make_sampler", "merge_level",
    "monotonicity_scan", "overlap", "parse_tree_file", "project", "quenched_alpha",
    "sample_grem", "sk_rescaling_check", "superadditivity_report", "validate_psd",
    "validate_tree",
]


def test_public_api():
    # a name added to or dropped from the package is a deliberate change of this list
    names = sorted(
        name for name, value in vars(gaussem).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_API
