import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussem.disorder import SeedPolicy, StructuralSampler
from gaussem.errors import MissingData, ResourceCapExceeded, UnsupportedModel, ValidationError
from gaussem.models import (
    COUPLING_CAP,
    CustomModel,
    GREMModel,
    MixedModel,
    PSpinModel,
    REMModel,
    SKModel,
)
from gaussem.grem import validate_tree
from gaussem.spins import CoordinatePartition, SpinConfig, enumerate_configs


def cfg(text):
    return SpinConfig.from_string(text)


def structural_cov_oracle(weights, n, s, t):
    """Independent oracle: expand E_s E_t over explicit coupling index tuples.

    Eimplements sum_p w_p * n**-p * sum_{i1..ip} s_i1 t_i1 ... s_ip t_ip with
    exact rationals, by literal enumeration of the index tuples.
    """
    sv, tv = s.values(), t.values()
    total = Fraction(0)
    for p, w in weights.items():
        acc = 0
        for idx in itertools.product(range(n), repeat=p):
            term = 1
            for i in idx:
                term *= sv[i] * tv[i]
            acc += term
        total += Fraction(w) * Fraction(acc, n**p)
    return total


def test_covariance_examples():
    assert SKModel(2).covariance(cfg("++"), cfg("+-")) == 0
    assert PSpinModel(3, 3).covariance(cfg("+++"), cfg("+--")) == Fraction(-1, 27)
    rem = REMModel(3)
    assert rem.covariance(cfg("+-+"), cfg("+-+")) == 1
    assert rem.covariance(cfg("+-+"), cfg("--+")) == 0


@pytest.mark.parametrize(
    "model",
    [
        SKModel(4),
        PSpinModel(4, 3),
        MixedModel(4, {1: Fraction(1, 4), 2: Fraction(3, 4)}),
        REMModel(4),
        GREMModel(validate_tree([2, 2], [0.5, 0.5], 4)),
    ],
)
def test_unit_diagonal_and_symmetry(model):
    configs = list(enumerate_configs(4))
    for s in configs:
        assert model.covariance(s, s) == 1
    for s in configs[:6]:
        for t in configs[-6:]:
            assert model.covariance(s, t) == model.covariance(t, s)


def test_matrix_examples():
    np.testing.assert_array_equal(REMModel(2).covariance_matrix(), np.eye(4))
    np.testing.assert_array_equal(SKModel(1).covariance_matrix(), np.ones((2, 2)))
    # pure order-1 mixture: the matrix is the overlap matrix itself
    m = MixedModel(2, {1: 1}).covariance_matrix()
    q = np.array([[1, 0, 0, -1], [0, 1, -1, 0], [0, -1, 1, 0], [-1, 0, 0, 1]], dtype=float)
    np.testing.assert_allclose(m, q)


def test_matrix_matches_pointwise_covariance():
    model = PSpinModel(3, 3)
    m = model.covariance_matrix()
    for s in enumerate_configs(3):
        for t in enumerate_configs(3):
            assert m[s.bits, t.bits] == pytest.approx(float(model.covariance(s, t)), abs=1e-15)


def test_mixed_validation():
    with pytest.raises(ValidationError):
        MixedModel(3, {2: Fraction(1, 2)})  # weights sum to 1/2
    with pytest.raises(ValidationError):
        MixedModel(3, {2: Fraction(3, 2), 4: Fraction(-1, 2)})
    with pytest.raises(ValidationError):
        MixedModel(3, {0: 1})
    with pytest.raises(ValidationError):
        MixedModel(3, {})


def test_mixed_concentrated_reproduces_pure_order():
    mixed = MixedModel(4, {4: 1})
    pure = PSpinModel(4, 4)
    for s in enumerate_configs(4):
        assert mixed.covariance(cfg("++++"), s) == pure.covariance(cfg("++++"), s)


def test_coupling_counts():
    assert SKModel(2).coupling_structure().n_couplings == 4
    assert REMModel(3).coupling_structure().n_couplings == 8
    mixed = MixedModel(2, {2: Fraction(1, 2), 4: Fraction(1, 2)})
    assert mixed.coupling_structure().n_couplings == 4 + 16


def test_structural_covariance_oracle_small():
    # the inner product of coupling coefficient vectors is the covariance, exactly
    cases = [
        (SKModel(3), {2: 1}),
        (PSpinModel(3, 3), {3: 1}),
        (MixedModel(3, {1: Fraction(1, 2), 2: Fraction(1, 2)}),
         {1: Fraction(1, 2), 2: Fraction(1, 2)}),
        (MixedModel(2, {2: Fraction(1, 2), 4: Fraction(1, 2)}),
         {2: Fraction(1, 2), 4: Fraction(1, 2)}),
    ]
    for model, weights in cases:
        n = model.n
        for s in enumerate_configs(n):
            for t in enumerate_configs(n):
                assert model.covariance(s, t) == structural_cov_oracle(weights, n, s, t)


def test_mixed_unit_self_variance_symbolically():
    weights = {2: Fraction(1, 2), 4: Fraction(1, 2)}
    s = cfg("++")
    assert structural_cov_oracle(weights, 2, s, s) == 1


@pytest.mark.parametrize(
    "model",
    [
        SKModel(6),
        PSpinModel(5, 3),
        MixedModel(4, {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}),
        REMModel(5),
        GREMModel(validate_tree([2, 2, 2], [0.5, 0.3, 0.2], 6)),
    ],
)
def test_weight_matrix_gram_equals_covariance(model):
    w = model.coupling_structure().weight_matrix()
    np.testing.assert_allclose(w @ w.T, model.covariance_matrix(), atol=1e-12)


@st.composite
def overlap_models(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["sk", "pspin", "mixed"]))
    if kind == "sk":
        return SKModel(n)
    if kind == "pspin":
        return PSpinModel(n, draw(st.integers(1, 4)))
    orders = draw(st.sets(st.integers(1, 4), min_size=1))
    parts = {p: draw(st.integers(1, 9)) for p in sorted(orders)}
    total = sum(parts.values())
    return MixedModel(n, {p: Fraction(k, total) for p, k in parts.items()})


@settings(derandomize=True, deadline=None)
@given(model=overlap_models(), draw_index=st.integers(0, 1000))
def test_character_form_matches_dense_map(model, draw_index):
    structure = model.coupling_structure()
    x, idx, coef = structure.compact()
    w = structure.weight_matrix()
    np.testing.assert_array_equal(w, x[:, idx] * coef)
    policy = SeedPolicy(7)
    rng_chars = policy.stream("chars", draw_index)
    rng_dense = policy.stream("chars", draw_index)
    e = StructuralSampler(model).sample(rng_chars)
    np.testing.assert_allclose(e, w @ rng_dense.standard_normal(structure.n_couplings),
                               rtol=0, atol=1e-13)
    assert rng_chars.standard_normal() == rng_dense.standard_normal()


def test_character_counts():
    # k = sum of C(n, s) over the subset sizes s an order-p coupling can leave
    x, idx, coef = SKModel(8).coupling_structure().compact()
    assert x.shape == (256, 29) and idx.shape == coef.shape == (64,)
    mixed = MixedModel(10, {2: Fraction(1, 2), 4: Fraction(1, 2)})
    x, idx, _ = mixed.coupling_structure().compact()
    assert x.shape == (1024, 256) and idx.shape == (10100,)
    assert np.unique(idx).size == 256


def test_coupling_maps_refuse_beyond_budget():
    # 2**20 x 191 characters: refused from the counts, nothing is allocated
    with pytest.raises(ResourceCapExceeded):
        SKModel(20).coupling_structure().compact()
    with pytest.raises(ResourceCapExceeded):
        StructuralSampler(SKModel(20))
    # the dense map would be 4096 x 20736, the character map is 4096 x 562
    model = PSpinModel(12, 4)
    assert 4096 * 20736 > COUPLING_CAP
    with pytest.raises(ResourceCapExceeded):
        model.coupling_structure().weight_matrix()
    x, _, _ = model.coupling_structure().compact()
    assert x.shape == (4096, 562)
    e = StructuralSampler(model).sample(SeedPolicy(3).stream("p4", 0))
    assert e.shape == (4096,) and np.isfinite(e).all()


def test_custom_model_checks():
    good = np.array([[1.0, 0.25], [0.25, 1.0]])
    CustomModel(good)
    with pytest.raises(ValidationError):
        CustomModel(np.array([[1.0, 0.3], [0.2, 1.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        CustomModel(np.array([[2.0, 0.0], [0.0, 1.0]]))  # diagonal
    with pytest.raises(ValidationError):
        CustomModel(np.ones((3, 3)))  # not a power of two


def test_custom_submodel_requires_family():
    base = CustomModel(np.eye(4))
    p = CoordinatePartition.canonical(2, 1)
    with pytest.raises(MissingData):
        base.submodel(p, 1)
    with_family = CustomModel(np.eye(4), family={1: np.eye(2)})
    assert with_family.submodel(p, 1).n == 1


def test_grem_is_not_size_parametric():
    model = GREMModel(validate_tree([1, 1], [0.6, 0.4], 2))
    with pytest.raises(UnsupportedModel):
        model.at_size(1)
    sub = model.submodel(CoordinatePartition(2, 0b01), 1)
    assert sub.tree.exponents == (1, 0)


def test_spec_strings_round_trip_flavor():
    assert SKModel(3).spec_string() == "sk"
    assert PSpinModel(3, 3).spec_string() == "pspin:3"
    assert REMModel(3).spec_string() == "rem"
    assert MixedModel(3, {2: Fraction(1, 2), 4: Fraction(1, 2)}).spec_string() == "mixed:2=0.5,4=0.5"
