import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussem.audit import audit_partition, check_condition, validate_psd
from gaussem.disorder import SeedPolicy, StructuralSampler
from gaussem.errors import ValidationError
from gaussem.grem import (
    GremTree,
    branch_weight_matrix,
    TreeLift,
    check_lift_covariance,
    grem_covariance,
    merge_level,
    merge_level_matrix,
    parse_tree_file,
    sample_grem,
    validate_tree,
)
from gaussem.models import GREMModel
from gaussem.spins import CoordinatePartition, SpinConfig, enumerate_configs, enumerate_partitions


def cfg(text):
    return SpinConfig.from_string(text)


def test_validate_tree_accepts_valid():
    tree = validate_tree([2, 2], [0.5, 0.5], 4)
    assert tree.n_spins == 4
    assert tree.cumulative_variance == (0.0, 0.5, 1.0)
    assert tree.branch_counts == (4, 16)


def test_validate_tree_rejects_each_constraint():
    with pytest.raises(ValidationError, match="sum to 3"):
        validate_tree([2, 1], [0.5, 0.5], 4)
    with pytest.raises(ValidationError, match="variances sum"):
        validate_tree([1, 1], [0.7, 0.7], 2)
    with pytest.raises(ValidationError, match="nonnegative"):
        validate_tree([1, 1], [1.5, -0.5], 2)
    # NaN passes both x < 0 and the sum test, so finiteness is checked on its own
    with pytest.raises(ValidationError, match="finite"):
        validate_tree([1, 1], [float("nan"), 1.0], 2)
    # several problems are reported together
    with pytest.raises(ValidationError, match="sum to 3.*variances sum"):
        validate_tree([2, 1], [0.7, 0.7], 4)


def test_merge_level_examples():
    tree = validate_tree([1, 1], [0.6, 0.4], 2)
    assert merge_level(tree, cfg("++"), cfg("++")) == 2
    assert merge_level(tree, cfg("++"), cfg("+-")) == 1
    assert merge_level(tree, cfg("++"), cfg("-+")) == 0


def test_merge_level_full_iff_equal():
    tree = validate_tree([1, 2], [0.3, 0.7], 3)
    for s in enumerate_configs(3):
        for t in enumerate_configs(3):
            assert (merge_level(tree, s, t) == 2) == (s == t)


def test_merge_level_zero_width_layers():
    tree = validate_tree([1, 0, 1], [0.3, 0.2, 0.5], 2)
    # middle layer has no coordinates, so it always coincides
    assert merge_level(tree, cfg("+-"), cfg("++")) == 2
    assert merge_level(tree, cfg("++"), cfg("++")) == 3


def test_grem_covariance_values():
    tree = validate_tree([1, 1], [0.6, 0.4], 2)
    assert grem_covariance(tree, cfg("++"), cfg("++")) == 1.0
    assert grem_covariance(tree, cfg("++"), cfg("+-")) == 0.6
    assert grem_covariance(tree, cfg("++"), cfg("-+")) == 0.0


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_grem_matrices_psd(data):
    layers = data.draw(st.integers(1, 3))
    ks = [data.draw(st.integers(0, 2)) for _ in range(layers)]
    if sum(ks) == 0:
        ks[0] = 1
    raw = [data.draw(st.floats(0.01, 1.0)) for _ in range(layers)]
    total = sum(raw)
    tree = validate_tree(ks, [r / total for r in raw], sum(ks))
    matrix = GREMModel(tree).covariance_matrix()
    eigs = np.linalg.eigvalsh(matrix)  # independent oracle
    assert eigs.min() >= -1e-10
    assert validate_psd(matrix).psd


def test_sampling_covariance_matches_tree():
    tree = validate_tree([1, 1], [0.6, 0.4], 2)
    sampler = StructuralSampler(GREMModel(tree))
    policy = SeedPolicy(7)
    m = 20000
    draws = np.stack([sampler.sample(policy.stream("grem-cov", i)) for i in range(m)])
    emp = draws.T @ draws / m
    np.testing.assert_allclose(emp, GREMModel(tree).covariance_matrix(), atol=0.03)


def test_sample_grem_matches_structural_sampler():
    # layer-by-layer draws consume the stream exactly like the dense coupling map
    tree = validate_tree([1, 2], [0.3, 0.7], 3)
    policy = SeedPolicy(5)
    direct = sample_grem(tree, policy.stream("dual", 0))
    via_map = StructuralSampler(GREMModel(tree)).sample(policy.stream("dual", 0))
    np.testing.assert_array_equal(direct, via_map)


def test_structural_grem_matches_dense_coupling_map():
    # the dense branch map stays the oracle: same energies up to summation
    # order, and the layer-by-layer draw consumes exactly sum_i 2**K_i normals
    tree = validate_tree([1, 2], [0.3, 0.7], 3)
    policy = SeedPolicy(5)
    rng_layers = policy.stream("dual", 0)
    rng_dense = policy.stream("dual", 0)
    layers = StructuralSampler(GREMModel(tree)).sample(rng_layers)
    g = rng_dense.standard_normal(sum(tree.branch_counts))
    np.testing.assert_allclose(layers, branch_weight_matrix(tree) @ g,
                               rtol=4 * np.finfo(float).eps)
    assert rng_layers.standard_normal() == rng_dense.standard_normal()


def test_sampling_first_layer_only_is_block_constant():
    tree = validate_tree([1, 1], [1.0, 0.0], 2)
    sampler = StructuralSampler(GREMModel(tree))
    e = sampler.sample(SeedPolicy(3).stream("blocks", 0))
    # configurations sharing the layer-1 branch (same low bit) get equal energy
    assert e[0b00] == e[0b10]
    assert e[0b01] == e[0b11]


def test_single_layer_tree_moments_match_independent_model():
    tree = validate_tree([3], [1.0], 3)
    sampler = StructuralSampler(GREMModel(tree))
    policy = SeedPolicy(11)
    m = 20000
    draws = np.stack([sampler.sample(policy.stream("grem-rem", i)) for i in range(m)])
    emp = draws.T @ draws / m
    np.testing.assert_allclose(emp, np.eye(8), atol=5 / np.sqrt(m) * 3)
    assert np.abs(draws.mean(axis=0)).max() < 5 / np.sqrt(m)


def test_identity_lift_is_exact():
    tree = validate_tree([1, 1], [0.6, 0.4], 2)
    lift = TreeLift(tree, (1, 1))
    np.testing.assert_array_equal(lift.projection_map(), np.arange(4))
    rep = check_lift_covariance(lift)
    assert rep.ok and rep.max_violation == 0.0


@pytest.mark.parametrize("target", [(2, 1), (2, 2)])
def test_lift_inequalities_hold_exhaustively(target):
    source = validate_tree([1, 1], [0.6, 0.4], 2)
    rep = check_lift_covariance(TreeLift(source, target))
    assert rep.ok
    assert rep.max_violation <= 1e-12
    assert rep.pairs_checked == 4 ** sum(target)


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_lift_check_matches_dense_pair_grid(data):
    layers = data.draw(st.integers(1, 3))
    kt = [data.draw(st.integers(0, 7 // layers)) for _ in range(layers)]
    if sum(kt) == 0:
        kt[0] = 1
    ks = [data.draw(st.integers(0, k)) for k in kt]
    if sum(ks) == 0:
        ks[kt.index(max(kt))] = 1
    raw = [data.draw(st.integers(1, 9)) for _ in range(layers)]
    lift = TreeLift(validate_tree(ks, [r / sum(raw) for r in raw], sum(ks)), tuple(kt))
    # oracle: both covariances on every ordered pair of target leaves, with the
    # projection truncating each target layer to its first k_i(source) coordinates
    c = np.arange(1 << sum(kt), dtype=np.int64)
    proj = np.zeros_like(c)
    s_off = t_off = 0
    for k_src, k_tgt in zip(ks, kt):
        proj |= ((c >> t_off) & ((1 << k_src) - 1)) << s_off
        s_off += k_src
        t_off += k_tgt
    v_src = np.asarray(lift.source.cumulative_variance)
    v_tgt = np.asarray(lift.target.cumulative_variance)
    lifted = v_src[merge_level_matrix(lift.source, proj[:, None] ^ proj[None, :])]
    wanted = v_tgt[merge_level_matrix(lift.target, c[:, None] ^ c[None, :])]
    rep = check_lift_covariance(lift)
    assert rep.max_violation == (wanted - lifted).max()
    assert rep.pairs_checked == wanted.size == 4 ** sum(kt)
    assert rep.ok


def test_lift_rejects_shrinking_layers():
    source = validate_tree([2, 1], [0.6, 0.4], 3)
    with pytest.raises(ValidationError, match="layers \\[1\\]"):
        TreeLift(source, (1, 2))


def test_lifted_triple_condition_audit():
    # two-layer tree at size 4 against its two 2-spin sub-trees
    tree = validate_tree([2, 2], [0.5, 0.5], 4)
    lift = TreeLift(validate_tree([1, 1], [0.5, 0.5], 2), (2, 2))
    partition = CoordinatePartition(4, lift.block1_mask)
    assert partition.n1 == 2
    model = GREMModel(tree)
    assert model.submodel(partition, 1).tree.exponents == (1, 1)
    report = audit_partition(model, partition)
    assert report.holds
    assert report.max_gap <= 1e-12


def test_condition_holds_for_every_partition_small_trees():
    trees = [
        validate_tree([1, 1], [0.6, 0.4], 2),
        validate_tree([2, 1], [0.5, 0.5], 3),
        validate_tree([2, 2], [0.3, 0.7], 4),
        validate_tree([1, 2, 2], [0.2, 0.3, 0.5], 5),
    ]
    for tree in trees:
        result = check_condition(GREMModel(tree), mode="all")
        assert result.holds, tree


def test_tree_file_round_trip(tmp_path):
    tree = validate_tree([1, 2], [0.25, 0.75], 3)
    assert parse_tree_file("# a comment\n2 3\n1 2\n\n0.25 0.75\n") == tree
    with pytest.raises(ValidationError):
        parse_tree_file("1 2\n2\n")
    with pytest.raises(ValidationError):
        parse_tree_file("2 3\n2 1\n0.5 0.6\n")
