import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_audit import random_gap_model

from gaussem import audit
from gaussem.audit import gap_matrix
from gaussem.disorder import SeedPolicy, TripleSampler
from gaussem.errors import ValidationError
from gaussem.grem import validate_tree
from gaussem.interpolation import (
    TwoReplicaGibbs,
    _DerivativeMachine,
    blend_scales,
    derivative_estimator,
    finite_difference_check,
    interp_hamiltonian,
    log_partition_t,
    monotonicity_scan,
)
from gaussem.models import CustomModel, GREMModel, PSpinModel, REMModel, SKModel
from gaussem.spins import CoordinatePartition, SpinConfig
from gaussem.thermo import log_partition, quenched_alpha

POLICY = SeedPolicy(555001)


def test_interpolation_point_weights():
    p = CoordinatePartition.canonical(4, 1)
    tr = TripleSampler(SKModel(4), p).draw(POLICY, "weights", 0)
    expected = (math.sqrt(0.3 * 4) * tr.full.energies + math.sqrt(0.7 * 1) * tr.lift1.energies
                + math.sqrt(0.7 * 3) * tr.lift2.energies)
    assert log_partition_t(tr, 1.0, 0.3) == pytest.approx(
        np.log(np.exp(expected).sum()), abs=1e-12)
    for t in (-0.1, 1.5):
        with pytest.raises(ValidationError):
            log_partition_t(tr, 1.0, t)


def test_hamiltonian_endpoints_and_zero_energies():
    model = SKModel(4)
    p = CoordinatePartition.canonical(4, 2)
    sampler = TripleSampler(model, p)
    tr = sampler.draw(POLICY, "ham", 0)
    s = SpinConfig.from_string("+-+-")
    n = 4
    at1 = interp_hamiltonian(tr, s, 1.0)
    assert at1 == pytest.approx(-math.sqrt(n) * tr.full.energies[s.bits], abs=1e-12)
    at0 = interp_hamiltonian(tr, s, 0.0)
    expected = -(
        math.sqrt(2) * tr.lift1.energies[s.bits] + math.sqrt(2) * tr.lift2.energies[s.bits]
    )
    assert at0 == pytest.approx(expected, abs=1e-12)
    zero = type(tr)(
        partition=tr.partition,
        full=tr.full.__class__(4, np.zeros(16), ("z", 0, 0)),
        sub1=tr.sub1.__class__(2, np.zeros(4), ("z", 0, 0)),
        sub2=tr.sub2.__class__(2, np.zeros(4), ("z", 0, 0)),
        lift1=tr.lift1.__class__(4, np.zeros(16), ("z", 0, 0)),
        lift2=tr.lift2.__class__(4, np.zeros(16), ("z", 0, 0)),
    )
    for t in (0.0, 0.37, 1.0):
        assert interp_hamiltonian(zero, s, t) == 0.0


@pytest.mark.parametrize(
    "model,partition",
    [
        (SKModel(4), CoordinatePartition.canonical(4, 2)),
        (REMModel(4), CoordinatePartition.canonical(4, 1)),
        (GREMModel(validate_tree([2, 2], [0.5, 0.5], 4)), CoordinatePartition(4, 0b0101)),
    ],
)
def test_boundary_identities_per_realization(model, partition):
    sampler = TripleSampler(model, partition)
    beta = 1.0
    for i in range(30):
        tr = sampler.draw(POLICY, "bound", i)
        lhs1 = log_partition_t(tr, beta, 1.0)
        assert abs(lhs1 - log_partition(tr.full, beta)) < 1e-10
        lhs0 = log_partition_t(tr, beta, 0.0)
        rhs0 = log_partition(tr.sub1, beta) + log_partition(tr.sub2, beta)
        assert abs(lhs0 - rhs0) < 1e-10


def test_log_partition_t_beta_zero():
    tr = TripleSampler(SKModel(3), CoordinatePartition.canonical(3, 1)).draw(POLICY, "b0", 0)
    for t in (0.0, 0.5, 1.0):
        assert log_partition_t(tr, 0.0, t) == pytest.approx(3 * math.log(2), abs=1e-12)


def test_two_replica_weights_normalized():
    model = SKModel(4)
    p = CoordinatePartition.canonical(4, 2)
    sampler = TripleSampler(model, p)
    for i in range(20):
        gibbs = TwoReplicaGibbs(sampler.draw(POLICY, "gibbs", i), blend_scales(p, 1.5, [0.3]))
        assert gibbs.single.shape == (1, 16)
        assert abs(gibbs.single.sum() - 1.0) < 1e-12


def test_derivative_zero_at_beta_zero():
    est = derivative_estimator(
        SKModel(4), CoordinatePartition.canonical(4, 2), 0.0, 0.5, 50, POLICY
    )
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_derivative_identically_zero_for_random_field():
    # the gap matrix vanishes identically at p=1, so every draw contributes 0
    est = derivative_estimator(
        PSpinModel(4, 1), CoordinatePartition.canonical(4, 2), 1.0, 0.3, 50, POLICY
    )
    assert est.value == 0.0
    assert est.std_error == 0.0
    gaps = gap_matrix(PSpinModel(4, 1), CoordinatePartition.canonical(4, 2))
    assert np.all(gaps == 0.0)


def test_derivative_nonnegative_for_sk():
    est = derivative_estimator(
        SKModel(4), CoordinatePartition.canonical(4, 2), 1.0, 0.5, 3000, POLICY
    )
    assert est.value >= -3 * est.std_error
    assert est.value > 0  # strictly positive in practice at these sizes


def test_finite_difference_agrees_with_estimator():
    cmp_ = finite_difference_check(
        SKModel(4), CoordinatePartition.canonical(4, 2), 1.0, 0.5, 0.05, 4000, POLICY
    )
    assert not cmp_.h_warning
    assert cmp_.agree, cmp_
    big_h = finite_difference_check(
        SKModel(3), CoordinatePartition.canonical(3, 1), 1.0, 0.5, 0.2, 50, POLICY
    )
    assert big_h.h_warning


def test_finite_difference_validates_window():
    with pytest.raises(ValidationError):
        finite_difference_check(
            SKModel(3), CoordinatePartition.canonical(3, 1), 1.0, 0.02, 0.05, 10, POLICY
        )


def test_integral_of_derivative_matches_boundaries():
    model = SKModel(4)
    p = CoordinatePartition.canonical(4, 2)
    beta = 1.0
    grid = np.linspace(0.0, 1.0, 17)
    ders = [
        derivative_estimator(model, p, beta, float(t), 2500, POLICY, experiment="ftc")
        for t in grid
    ]
    integral = float(np.trapezoid([d.value for d in ders], grid))
    a_full = quenched_alpha(model, beta, 8000, POLICY, experiment="ftc-full")
    a_1 = quenched_alpha(model.at_size(2), beta, 8000, POLICY, experiment="ftc-b1")
    a_2 = quenched_alpha(model.at_size(2), beta, 8000, POLICY, experiment="ftc-b2")
    target = a_full.value - 0.5 * a_1.value - 0.5 * a_2.value
    se = math.sqrt(
        a_full.std_error**2
        + 0.25 * a_1.std_error**2
        + 0.25 * a_2.std_error**2
        + float(np.mean([d.std_error for d in ders])) ** 2
    )
    assert abs(integral - target) <= 3 * se + 1e-2, (integral, target, se)


def test_monotonicity_scan_sk_and_rem():
    scan = monotonicity_scan(
        SKModel(4), CoordinatePartition.canonical(4, 2), 1.0, [0.1, 0.5, 0.9], 1500, POLICY
    )
    assert scan.all_nonnegative
    scan = monotonicity_scan(
        REMModel(4), CoordinatePartition.canonical(4, 2), 1.0, [0.25, 0.75], 1500, POLICY
    )
    assert scan.all_nonnegative


def test_monotonicity_scan_detects_violating_model():
    # every off-diagonal gap of this covariance is strictly positive, so the
    # two-replica average gap is positive and the derivative negative at any
    # beta > 0; the scan must flag it
    matrix = 0.4 * np.eye(4) + 0.6 * np.ones((4, 4))
    model = CustomModel(matrix, family={1: np.eye(2)}, name="allpos")
    scan = monotonicity_scan(
        model, CoordinatePartition.canonical(2, 1), 1.0, [0.25, 0.5, 0.75], 800, POLICY
    )
    assert not scan.all_nonnegative
    assert all(p.verdict == "NEGATIVE" for p in scan.points)


def test_odd_p_scan_runs_and_reports():
    # pointwise violation (audited elsewhere) does not force a negative
    # two-replica average at these sizes; the scan just reports what it sees
    scan = monotonicity_scan(
        PSpinModel(3, 3), CoordinatePartition.canonical(3, 1), 2.0, [0.2, 0.8], 500, POLICY
    )
    assert len(scan.points) == 2
    for p in scan.points:
        assert p.verdict in ("NONNEGATIVE", "NEGATIVE")


def single_t_weights(triple, beta, t):
    """Gibbs weights of one t with scalar scales, as a draw's weights were first computed."""
    p = triple.partition
    s0 = beta * math.sqrt(t * p.n)
    s1 = beta * math.sqrt((1.0 - t) * p.n1)
    s2 = beta * math.sqrt((1.0 - t) * p.n2)
    x = s0 * triple.full.energies + s1 * triple.lift1.energies + s2 * triple.lift2.energies
    w = np.exp(x - x.max())
    w /= w.sum()
    return w


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_walsh_derivative_matches_dense_oracle(data):
    model = random_gap_model(data)
    n = model.n
    partition = CoordinatePartition(n, data.draw(st.integers(1, (1 << n) - 2)))
    beta = data.draw(st.floats(0.0, 2.0))
    ts = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    machine = _DerivativeMachine(model, partition, beta)
    triple = machine.sampler.draw(POLICY, "walsh", data.draw(st.integers(0, 1000)))
    scales = blend_scales(partition, beta, ts)
    weights = TwoReplicaGibbs(triple, scales).single
    values = machine.derivatives_of_draw(triple, scales)
    gaps = gap_matrix(model, partition)
    assert weights.shape == values.shape + (1 << n,)
    for t, row, value in zip(ts, weights, values):
        w = single_t_weights(triple, beta, t)
        np.testing.assert_array_equal(row, w)  # the t grid is a broadcast, row for row
        assert abs(value - (-(beta**2 / 2.0) * float(w @ gaps @ w))) <= 1e-14


@pytest.mark.parametrize(
    "model,partition",
    [
        (SKModel(6), CoordinatePartition.canonical(6, 3)),
        (GREMModel(validate_tree([2, 1, 2], [0.3, 0.3, 0.4], 5)), CoordinatePartition(5, 0b01101)),
    ],
)
def test_scan_never_builds_gap_matrix(model, partition, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generated models take the derivative in the Walsh basis")

    monkeypatch.setattr(audit, "gap_matrix", refuse)
    scan = monotonicity_scan(model, partition, 1.0, [0.2, 0.8], 50, POLICY)
    assert len(scan.points) == 2
    assert derivative_estimator(model, partition, 1.0, 0.5, 20, POLICY).samples == 20
