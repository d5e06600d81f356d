import io

import numpy as np
import pytest

from gaussem.disorder import (
    CholeskySampler,
    DisorderDraw,
    SeedPolicy,
    StructuralSampler,
    TripleSampler,
    draw_disorder,
    lift,
    make_sampler,
    read_draws,
    write_draws,
)
from gaussem.errors import DimensionMismatch, ResourceCapExceeded, ValidationError
from gaussem.grem import validate_tree
from gaussem.models import (
    CouplingStructure,
    CustomModel,
    GREMModel,
    MixedModel,
    PSpinModel,
    REMModel,
    SKModel,
)
from gaussem.spins import CoordinatePartition
from gaussem.util import extract_map

POLICY = SeedPolicy(20240831)


def stack_draws(sampler, experiment, m):
    return np.stack([sampler.sample(POLICY.stream(experiment, i)) for i in range(m)])


def test_streams_reproducible_and_distinct():
    a = POLICY.stream("exp", 3).standard_normal(5)
    b = POLICY.stream("exp", 3).standard_normal(5)
    c = POLICY.stream("exp", 4).standard_normal(5)
    d = POLICY.stream("other", 3).standard_normal(5)
    e = SeedPolicy(1).stream("exp", 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_draw_shape_validation():
    with pytest.raises(ValidationError):
        DisorderDraw(2, np.zeros(3), ("x", 0, 0))


def test_structural_rem_is_iid():
    draws = stack_draws(StructuralSampler(REMModel(2)), "rem", 20000)
    emp = draws.T @ draws / len(draws)
    np.testing.assert_allclose(emp, np.eye(4), atol=0.05)
    assert np.abs(draws.mean(axis=0)).max() < 0.05


def test_structural_sk_n1_perfectly_correlated():
    sampler = StructuralSampler(SKModel(1))
    for i in range(10):
        e = sampler.sample(POLICY.stream("sk1", i))
        assert e[0] == e[1]  # both configurations carry the single coupling


def test_structural_grem_never_builds_weight_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("GREM sampling built the dense coupling map")

    monkeypatch.setattr(CouplingStructure, "weight_matrix", refuse)
    tree = validate_tree([2, 1, 2], [0.5, 0.2, 0.3], 5)
    sampler = StructuralSampler(GREMModel(tree))
    e = sampler.sample(POLICY.stream("grem-nomap", 0))
    assert e.shape == (32,)
    assert np.isfinite(e).all()


@pytest.mark.parametrize(
    "model",
    [SKModel(6), PSpinModel(6, 3), MixedModel(6, {2: 0.5, 4: 0.5})],
    ids=["sk", "pspin:3", "mixed:2+4"],
)
def test_structural_overlap_never_builds_weight_matrix(monkeypatch, model):
    def refuse(self):
        raise AssertionError("overlap sampling built the dense coupling map")

    monkeypatch.setattr(CouplingStructure, "weight_matrix", refuse)
    sampler = StructuralSampler(model)
    e = sampler.sample(POLICY.stream("overlap-nomap", 0))
    assert e.shape == (64,)
    assert np.isfinite(e).all()


def test_cholesky_identity_passthrough():
    sampler = CholeskySampler(np.eye(4))
    rng = POLICY.stream("id", 0)
    expected = POLICY.stream("id", 0).standard_normal(4)
    np.testing.assert_array_equal(sampler.sample(rng), expected)


def test_cholesky_degenerate_all_ones():
    sampler = CholeskySampler(np.ones((2, 2)))
    draws = stack_draws(sampler, "ones", 20000)
    np.testing.assert_array_equal(draws[:, 0], draws[:, 1])
    assert abs(draws[:, 0].std() - 1.0) < 0.05


def test_cholesky_rejects_indefinite():
    with pytest.raises(ValidationError):
        CholeskySampler(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sk_covariance_monte_carlo_both_paths():
    model = SKModel(2)
    exact = model.covariance_matrix()
    m = 20000
    for sampler, label in (
        (StructuralSampler(model), "sk-s"),
        (CholeskySampler(exact), "sk-c"),
    ):
        draws = stack_draws(sampler, label, m)
        np.testing.assert_allclose(draws.T @ draws / m, exact, atol=5 / np.sqrt(m))


def test_structural_and_cholesky_moments_agree():
    model = GREMModel(validate_tree([1, 1], [0.6, 0.4], 2))
    m = 20000
    a = stack_draws(StructuralSampler(model), "g-s", m)
    b = stack_draws(CholeskySampler(model.covariance_matrix()), "g-c", m)
    tol = 5 / np.sqrt(m)
    assert np.abs(a.mean(axis=0) - b.mean(axis=0)).max() < 2 * tol
    assert np.abs(a.T @ a / m - b.T @ b / m).max() < 2 * tol


def test_empirical_mean_centered():
    m = 10000
    draws = stack_draws(StructuralSampler(PSpinModel(4, 3)), "centered", m)
    assert np.abs(draws.mean(axis=0)).max() < 5 / np.sqrt(m)


def test_make_sampler_dispatch():
    # the model alone picks the sampler: generated models use their coupling form
    tree = validate_tree([1, 2], [0.5, 0.5], 3)
    for model in (SKModel(3), REMModel(3), GREMModel(tree)):
        assert isinstance(make_sampler(model), StructuralSampler)
    assert isinstance(make_sampler(CustomModel(np.eye(4))), CholeskySampler)
    # 6**10 couplings are over the budget, so the dense covariance is factorized
    assert isinstance(make_sampler(PSpinModel(6, 10)), CholeskySampler)
    # past MATRIX_CAP the factorization refuses as well
    with pytest.raises(ResourceCapExceeded):
        make_sampler(PSpinModel(13, 10))


def test_module_level_sampling_helpers():
    e1 = StructuralSampler(REMModel(2)).sample(POLICY.stream("h", 0))
    e2 = CholeskySampler(np.eye(4)).sample(POLICY.stream("h", 0))
    np.testing.assert_array_equal(e1, e2)


def test_lift_fiber_constancy_and_variance():
    p = CoordinatePartition.canonical(2, 1)
    source = draw_disorder(SKModel(1), POLICY, "liftsrc", 0)
    lifted = lift(source, p, 1)
    # constant on fibers of the projection: configs 00,10 share block-1 value 0
    assert lifted.energies[0b00] == lifted.energies[0b10] == source.energies[0]
    assert lifted.energies[0b01] == lifted.energies[0b11] == source.energies[1]
    with pytest.raises(DimensionMismatch):
        lift(source, CoordinatePartition.canonical(4, 2), 1)


def test_lifted_rem_covariance():
    # independent-energies family on 2 spins lifted into 4 spins
    p = CoordinatePartition.canonical(4, 2)
    model = REMModel(2)
    m = 20000
    draws = np.stack([
        lift(draw_disorder(model, POLICY, "liftrem", i), p, 1).energies for i in range(m)
    ])
    amap = extract_map(4, p.mask)
    expected = np.eye(4)[amap[:, None], amap[None, :]]
    np.testing.assert_allclose(draws.T @ draws / m, expected, atol=5 / np.sqrt(m))
    assert abs(draws[:, 0].var() - 1.0) < 0.05  # lifting preserves unit variance


def test_joint_triple_independence_and_self_covariance():
    model = SKModel(4)
    p = CoordinatePartition.canonical(4, 2)
    sampler = TripleSampler(model, p)
    m = 20000
    full = np.empty((m, 16))
    l1 = np.empty((m, 16))
    l2 = np.empty((m, 16))
    for i in range(m):
        tr = sampler.draw(POLICY, "triple", i)
        full[i] = tr.full.energies
        l1[i] = tr.lift1.energies
        l2[i] = tr.lift2.energies
        # fiber constancy holds exactly per draw
        assert tr.lift1.energies[0b0000] == tr.lift1.energies[0b0100]
    tol = 5 / np.sqrt(m)
    assert np.abs(full.T @ l1 / m).max() < tol  # independence
    assert np.abs(full.T @ l2 / m).max() < tol
    np.testing.assert_allclose(full.T @ full / m, model.covariance_matrix(), atol=tol)
    sub = model.at_size(2).covariance_matrix()
    amap = extract_map(4, p.mask)
    np.testing.assert_allclose(l1.T @ l1 / m, sub[amap[:, None], amap[None, :]], atol=tol)


def test_joint_triple_convenience():
    tr = TripleSampler(SKModel(2), CoordinatePartition.canonical(2, 1)).draw(POLICY, "conv", 0)
    assert tr.full.n == 2 and tr.sub1.n == 1 and tr.lift1.n == 2


def test_draw_dump_round_trip():
    draws = [draw_disorder(REMModel(3), POLICY, "dump", i) for i in range(4)]
    buf = io.StringIO()
    write_draws(buf, draws)
    buf.seek(0)
    back = read_draws(buf, 3)
    assert len(back) == 4
    for d, b in zip(draws, back):
        np.testing.assert_array_equal(d.energies, b)
