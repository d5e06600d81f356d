import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussem import thermo
from gaussem.disorder import DisorderDraw, SeedPolicy, make_sampler
from gaussem.errors import ValidationError
from gaussem.grem import validate_tree
from gaussem.models import CustomModel, GREMModel, MixedModel, PSpinModel, REMModel, SKModel
from gaussem.spins import CoordinatePartition
from gaussem.thermo import (
    LN2,
    QuenchedEstimate,
    alpha_of_draws,
    alpha_of_energies,
    jensen_bound,
    log_partition,
    mean_and_se,
    quenched_alpha,
    sk_rescaling_check,
    superadditivity_report,
)

POLICY = SeedPolicy(77001)


def hermite_avg_ln2cosh(beta, nodes=201):
    """Quadrature oracle for the average of ln(2 cosh(beta J)), J standard normal."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    z = np.abs(beta * np.sqrt(2.0) * x)
    vals = z + np.log1p(np.exp(-2.0 * z))
    return float((w * vals).sum() / np.sqrt(np.pi))


def test_quadrature_oracle_self_consistency():
    # frozen reference value at beta=1, converged to 13 digits by 121 nodes
    assert hermite_avg_ln2cosh(1.0) == pytest.approx(1.0677143880513833, abs=1e-12)
    assert hermite_avg_ln2cosh(1.0, 121) == pytest.approx(hermite_avg_ln2cosh(1.0, 201), abs=1e-12)


def draw_of(energies):
    e = np.asarray(energies, dtype=float)
    n = e.size.bit_length() - 1
    return DisorderDraw(n, e)


def test_log_partition_values():
    assert log_partition(draw_of(np.zeros(16)), 0.0) == pytest.approx(4 * LN2, abs=1e-12)
    assert log_partition(draw_of(np.zeros(16)), 5.0) == pytest.approx(4 * LN2, abs=1e-12)
    # one spin, energies (+1, -1): ln(e + 1/e) = ln(2 cosh 1)
    val = log_partition(draw_of(np.array([-1.0, 1.0])), 1.0)
    assert val == pytest.approx(math.log(2 * math.cosh(1.0)), abs=1e-12)


def test_log_partition_rejects_nan_and_negative_beta():
    with pytest.raises(ValidationError):
        log_partition(draw_of(np.array([np.nan, 0.0])), 1.0)
    with pytest.raises(ValidationError):
        log_partition(draw_of(np.zeros(2)), -1.0)


def test_log_partition_relabeling_invariance():
    rng = np.random.default_rng(0)
    e = rng.standard_normal(32)
    perm = rng.permutation(32)
    a = log_partition(draw_of(e), 1.3)
    b = log_partition(draw_of(e[perm]), 1.3)
    assert a == pytest.approx(b, abs=1e-12)


def test_quenched_estimate_needs_two_samples():
    with pytest.raises(ValidationError):
        QuenchedEstimate(0.0, 0.0, 1, 0.0, 2, "x")


def test_mean_and_se_needs_two_values():
    for values in ([], [0.5]):
        with pytest.raises(ValidationError, match="2 samples"):
            mean_and_se(np.array(values))
    assert mean_and_se(np.array([1.0, 3.0])) == (2.0, 1.0)


def test_alpha_beta_zero_exact():
    for model in (SKModel(3), REMModel(6), PSpinModel(5, 3)):
        est = quenched_alpha(model, 0.0, 10, POLICY)
        assert est.value == LN2
        assert est.std_error == 0.0


BLOCK_MODELS = [
    SKModel,
    *(lambda n, p=p: PSpinModel(n, p) for p in (1, 2, 3, 4)),
    lambda n: MixedModel(n, {2: 0.5, 4: 0.5}),
    REMModel,
    lambda n: GREMModel(validate_tree([n // 2, n - n // 2], [0.4, 0.6], n)),
    lambda n: GREMModel(validate_tree([1] * n, [1.0 / n] * n, n)),
    lambda n: CustomModel(SKModel(n).covariance_matrix()),
]


@given(st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_alpha_of_draws_equals_per_draw_oracle(data):
    make = data.draw(st.sampled_from(BLOCK_MODELS))
    model = make(data.draw(st.integers(2, 7)))
    n = model.n
    beta = data.draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 2.0))
    rows = data.draw(st.integers(1, 5))
    samples = data.draw(st.sampled_from(
        [s for s in (2, rows - 1, rows, rows + 1, 2 * rows + 3) if s >= 2]))
    threads = data.draw(st.sampled_from([1, 2]))
    sampler = make_sampler(model)
    policy = SeedPolicy(data.draw(st.integers(0, 2**32)))
    oracle = np.array([
        alpha_of_energies(sampler.sample(policy.stream("blocks", i)), n, beta)
        for i in range(samples)
    ])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermo, "BLOCK_ENERGIES", rows << n)
        vals = alpha_of_draws(sampler.sample, n, beta, samples, policy, "blocks", threads)
    assert vals.tobytes() == oracle.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_alpha_of_draws_rejects_nan_negative_beta_and_one_sample(monkeypatch):
    monkeypatch.setattr(thermo, "BLOCK_ENERGIES", 3 << 2)
    calls = []

    def nan_on_fifth(rng):
        calls.append(1)
        e = rng.standard_normal(4)
        if len(calls) == 5:
            e[2] = np.nan
        return e

    with pytest.raises(ValidationError, match="NaN"):
        alpha_of_draws(nan_on_fifth, 2, 1.0, 7, POLICY, "nan")
    # beta = 0 times an infinite energy is NaN, as in alpha_of_energies
    with pytest.raises(ValidationError, match="NaN"):
        alpha_of_draws(lambda rng: np.full(4, np.inf), 2, 0.0, 3, POLICY, "inf")
    sample = make_sampler(SKModel(2)).sample
    with pytest.raises(ValidationError, match="beta"):
        alpha_of_draws(sample, 2, -1.0, 5, POLICY, "neg")
    with pytest.raises(ValidationError, match="2 samples"):
        alpha_of_draws(sample, 2, 1.0, 1, POLICY, "one")


def test_jensen_bound_values():
    assert jensen_bound(0.0) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert jensen_bound(1.0) == pytest.approx(1.1931471805599453, abs=1e-15)
    assert jensen_bound(2.0) == pytest.approx(LN2 + 2.0, abs=1e-15)
    with pytest.raises(ValidationError):
        jensen_bound(-0.5)


def test_random_field_alpha_matches_quadrature_oracle():
    oracle = hermite_avg_ln2cosh(1.0)
    for n in (2, 4, 6):
        est = quenched_alpha(PSpinModel(n, 1), 1.0, 3000, POLICY)
        assert abs(est.value - oracle) <= 3 * est.std_error, (n, est)


def test_rem_alpha_respects_jensen():
    est = quenched_alpha(REMModel(6), 1.0, 1500, POLICY)
    assert est.value <= jensen_bound(1.0) + 3 * est.std_error


def test_alpha_relabeling_invariance_monte_carlo():
    # permuting energies per draw must not change the estimate beyond float noise
    model = REMModel(4)
    a = quenched_alpha(model, 1.0, 200, POLICY, experiment="relabel")
    b_vals = []
    rng = np.random.default_rng(1)
    from gaussem.disorder import make_sampler
    from gaussem.thermo import alpha_of_energies

    sampler = make_sampler(model)
    for i in range(200):
        e = sampler.sample(POLICY.stream("relabel", i))
        b_vals.append(alpha_of_energies(e[rng.permutation(e.size)], 4, 1.0))
    assert np.mean(b_vals) == pytest.approx(a.value, abs=1e-12)


def test_std_error_scales_with_samples():
    small = quenched_alpha(SKModel(3), 1.0, 400, POLICY, experiment="scale")
    big = quenched_alpha(SKModel(3), 1.0, 1600, POLICY, experiment="scale")
    ratio = small.std_error / big.std_error
    assert 1.0 < ratio < 4.0  # expect about 2, allow a factor-2 band


def test_alpha_convex_in_beta():
    betas = [0.0, 0.5, 1.0, 1.5, 2.0]
    ests = [quenched_alpha(SKModel(4), b, 2500, POLICY) for b in betas]
    for i in range(1, len(betas) - 1):
        second = ests[i + 1].value - 2 * ests[i].value + ests[i - 1].value
        se = math.sqrt(
            ests[i + 1].std_error**2 + 4 * ests[i].std_error**2 + ests[i - 1].std_error**2
        )
        assert second >= -3 * se


def test_superadditivity_beta_zero_margin_exact():
    rep = superadditivity_report(
        SKModel(4), CoordinatePartition.canonical(4, 2), 0.0, 10, POLICY
    )
    assert rep.margin == 0.0
    assert rep.combined_se == 0.0
    assert rep.satisfied


def test_superadditivity_random_field_size_free():
    rep = superadditivity_report(
        PSpinModel(6, 1), CoordinatePartition.canonical(6, 3), 1.0, 3000, POLICY
    )
    assert abs(rep.margin) <= 3 * rep.combined_se
    assert rep.satisfied


def test_superadditivity_sk():
    rep = superadditivity_report(
        SKModel(6), CoordinatePartition.canonical(6, 3), 1.0, 3000, POLICY
    )
    assert rep.satisfied


def test_sk_rescaling_beta_zero_and_n1():
    rep0 = sk_rescaling_check(4, 0.0, 10, POLICY)
    assert rep0.alpha_standard.value == LN2
    assert rep0.alpha_full.value == LN2
    assert rep0.difference == 0.0
    # n=1: the triangular sum is empty, every draw gives exactly ln 2
    rep1 = sk_rescaling_check(1, 1.0, 50, POLICY)
    assert rep1.alpha_standard.value == LN2
    assert rep1.alpha_standard.std_error == 0.0
    # full model at n=1: alpha = ln 2 + beta * (mean coupling), centered at ln 2
    assert abs(rep1.alpha_full.value - LN2) <= 3 * rep1.alpha_full.std_error


def test_sk_rescaling_identity_n4():
    rep = sk_rescaling_check(4, 1.0, 4000, POLICY)
    assert rep.consistent, rep
