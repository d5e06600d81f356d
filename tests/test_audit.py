import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaussem.audit import (
    VERDICT_HOLDS,
    VERDICT_HOLDS_WITH_EQUALITY,
    VERDICT_VIOLATED,
    audit_partition,
    check_condition,
    condition_gap,
    gap_expansion,
    gap_matrix,
    validate_psd,
)
from gaussem import audit
from gaussem.errors import MissingData, ResourceCapExceeded, ValidationError
from gaussem.grem import validate_tree
from gaussem.models import (
    CustomModel,
    GREMModel,
    MixedModel,
    PSpinModel,
    REMModel,
    SKModel,
)
from gaussem.spins import (
    CoordinatePartition,
    SpinConfig,
    enumerate_configs,
    enumerate_partitions,
    project,
)
from gaussem.util import extract_map


def cfg(text):
    return SpinConfig.from_string(text)


def brute_force_extremes(model, partition):
    """Oracle: literal loop over all ordered pairs, exact arithmetic."""
    lo = hi = None
    count = 0
    for s in enumerate_configs(model.n):
        for t in enumerate_configs(model.n):
            g = condition_gap(model, partition, s, t)
            g = g if isinstance(g, Fraction) else Fraction(g)
            hi = g if hi is None or g > hi else hi
            lo = g if lo is None or g < lo else lo
            count += 1
    return lo, hi, count


@pytest.mark.parametrize(
    "model",
    [
        SKModel(3),
        PSpinModel(3, 1),
        PSpinModel(3, 3),
        REMModel(3),
        MixedModel(3, {1: Fraction(1, 2), 3: Fraction(1, 2)}),
        PSpinModel(4, 4),
        MixedModel(4, {2: Fraction(1, 4), 3: Fraction(3, 4)}),
    ],
)
def test_audit_matches_brute_force(model):
    for partition in enumerate_partitions(model.n, "all"):
        lo, hi, count = brute_force_extremes(model, partition)
        report = audit_partition(model, partition)
        assert report.max_gap_exact == hi
        assert report.min_gap_exact == lo
        assert report.pairs_checked == count
        # the reported witness really attains the maximum
        again = condition_gap(model, partition, report.witness_sigma, report.witness_tau)
        assert again == hi


def test_rem_two_spin_witness_gap():
    gap = condition_gap(
        REMModel(2), CoordinatePartition(2, 0b01), cfg("++"), cfg("+-")
    )
    assert gap == Fraction(-1, 2)


def test_random_field_gap_is_identically_zero():
    model = PSpinModel(4, 1)
    for partition in enumerate_partitions(4, "all"):
        for s in enumerate_configs(4):
            for t in enumerate_configs(4):
                assert condition_gap(model, partition, s, t) == 0


def test_diagonal_pairs_gap_zero():
    model = SKModel(4)
    p = CoordinatePartition.canonical(4, 1)
    for s in enumerate_configs(4):
        assert condition_gap(model, p, s, s) == 0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_gap_symmetric_in_the_pair(data):
    model = data.draw(st.sampled_from([SKModel(4), PSpinModel(4, 3), REMModel(4)]))
    p = CoordinatePartition(4, data.draw(st.integers(1, 14)))
    s = SpinConfig(4, data.draw(st.integers(0, 15)))
    t = SpinConfig(4, data.draw(st.integers(0, 15)))
    assert condition_gap(model, p, s, t) == condition_gap(model, p, t, s)


def test_even_p_holds_pointwise():
    for model in (SKModel(6), PSpinModel(5, 4), PSpinModel(4, 6)):
        result = check_condition(model)
        assert result.holds
        for report in result.reports:
            assert report.max_gap_exact <= 0 or report.max_gap_exact == 0
            assert report.max_gap <= 1e-12


def test_odd_p_violation_detected():
    result = check_condition(PSpinModel(3, 3))
    assert result.verdict == VERDICT_VIOLATED
    worst = result.worst()
    assert worst.max_gap_exact == Fraction(8, 27)
    assert abs(worst.max_gap - 8 / 27) <= 1e-12
    assert (worst.witness_sigma, worst.witness_tau) == (cfg("+++"), cfg("+--"))


def test_verdict_classification():
    assert check_condition(PSpinModel(4, 1)).verdict == VERDICT_HOLDS_WITH_EQUALITY
    assert check_condition(SKModel(4)).verdict == VERDICT_HOLDS
    assert check_condition(REMModel(4)).verdict == VERDICT_HOLDS


def test_audit_cap():
    with pytest.raises(ResourceCapExceeded, match="enumeration cap"):
        check_condition(SKModel(21))
    with pytest.raises(ResourceCapExceeded, match="--mode all"):
        check_condition(SKModel(11), mode="all")
    # canonical audits of generated models are not bounded by AUDIT_CAP
    assert len(check_condition(SKModel(11)).reports) == 10


def test_custom_audit_cap_bounds_the_pair_grid(monkeypatch):
    monkeypatch.setattr(audit, "AUDIT_CAP", 2)
    custom = CustomModel(np.eye(8), family={1: np.eye(2), 2: np.eye(4)})
    with pytest.raises(ResourceCapExceeded, match="custom pair grid"):
        check_condition(custom)
    with pytest.raises(ResourceCapExceeded, match="--mode all"):
        check_condition(REMModel(3), mode="all")
    assert check_condition(REMModel(3)).holds


def test_gap_matrix_matches_condition_gap():
    cases = [
        (SKModel(4), CoordinatePartition(4, 0b0101)),
        (GREMModel(validate_tree([2, 2], [0.5, 0.5], 4)), CoordinatePartition(4, 0b0011)),
    ]
    for model, partition in cases:
        gaps = gap_matrix(model, partition)
        for s in enumerate_configs(4):
            for t in enumerate_configs(4):
                expected = float(condition_gap(model, partition, s, t))
                assert gaps[s.bits, t.bits] == pytest.approx(expected, abs=1e-14)


def random_tree(data, n):
    """Layered tree on n spins: 1..3 layers (zero-width ones allowed), random variances."""
    layers = data.draw(st.integers(1, 3))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=layers - 1,
                                     max_size=layers - 1)))
    ks = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    raw = [data.draw(st.integers(1, 9)) for _ in range(layers)]
    return validate_tree(ks, [r / sum(raw) for r in raw], n)


def random_kernel_model(data):
    n = data.draw(st.integers(2, 7))
    kind = data.draw(st.sampled_from(["sk", "pspin", "mixed", "rem", "grem"]))
    if kind == "sk":
        return SKModel(n)
    if kind == "pspin":
        return PSpinModel(n, data.draw(st.integers(1, 4)))
    if kind == "mixed":
        p, q = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
        w = Fraction(data.draw(st.integers(1, 7)), 8)
        return MixedModel(n, {p: w, q: 1 - w})
    if kind == "rem":
        return REMModel(n)
    return GREMModel(random_tree(data, n))


@given(st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_kernel_gaps_match_dense_oracle(data):
    model = random_kernel_model(data)
    n = model.n
    partition = CoordinatePartition(n, data.draw(st.integers(1, (1 << n) - 2)))
    p1 = extract_map(n, partition.mask)
    p2 = extract_map(n, partition.mask2)
    c1 = model.submodel(partition, 1).covariance_matrix()
    c2 = model.submodel(partition, 2).covariance_matrix()
    oracle = (model.covariance_matrix() - (partition.n1 / n) * c1[p1[:, None], p1[None, :]]
              - (partition.n2 / n) * c2[p2[:, None], p2[None, :]])
    np.testing.assert_array_equal(gap_matrix(model, partition), oracle)
    if isinstance(model, GREMModel):
        report = audit_partition(model, partition)
        i, j = divmod(int(np.argmax(oracle)), 1 << n)
        assert (report.max_gap, report.min_gap) == (oracle.max(), oracle.min())
        assert (report.witness_sigma.bits, report.witness_tau.bits) == (i, j)
        assert report.pairs_checked == 4**n


def random_custom_model(data):
    """Random correlation matrices for every size 1..n, so every split has its blocks."""
    n = data.draw(st.integers(2, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    family = {}
    for k in range(1, n + 1):
        a = rng.standard_normal((1 << k, int(rng.integers(1, (1 << k) + 1))))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        family[k] = a @ a.T
    return CustomModel(family[n], family)


def random_gap_model(data):
    """Every model kind: the kernel models above or a custom family."""
    if data.draw(st.booleans()):
        return random_custom_model(data)
    return random_kernel_model(data)


@given(st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_gap_expansion_matches_gap_matrix(data):
    # odd orders (pspin:1, pspin:3, mixed 1+3) and rem catch a missing chi_S(0) sign
    model = random_gap_model(data)
    n = model.n
    partition = CoordinatePartition(n, data.draw(st.integers(1, (1 << n) - 2)))
    chars, coef = gap_expansion(model, partition)
    assert chars.shape == (1 << n, coef.size)
    np.testing.assert_allclose(chars @ np.diag(coef) @ chars.T, gap_matrix(model, partition),
                               rtol=0, atol=1e-13)


def test_gap_expansion_uses_the_coupling_characters():
    # SK(10): the 1 + C(10, 2) characters of the pair couplings, not all 1024
    sk = SKModel(10)
    chars, _ = gap_expansion(sk, CoordinatePartition.canonical(10, 5))
    assert chars.shape == (1024, 46)
    # one matrix per model, shared with the structural sampler
    assert chars is sk.coupling_structure().compact()[0]
    chars, _ = gap_expansion(REMModel(4), CoordinatePartition.canonical(4, 2))
    assert chars.shape == (16, 16)


def test_gap_expansion_ignores_the_coupling_count():
    # pspin:10 at n=6 has 6**10 couplings, over the budget, but its gap lives
    # on the 32 characters with |S| in {0, 2, 4, 6}
    model = PSpinModel(6, 10)
    partition = CoordinatePartition.canonical(6, 3)
    with pytest.raises(ResourceCapExceeded):
        model.coupling_structure().compact()
    chars, coef = gap_expansion(model, partition)
    assert chars.shape == (64, 32)
    np.testing.assert_allclose(chars @ np.diag(coef) @ chars.T, gap_matrix(model, partition),
                               rtol=0, atol=1e-13)


def test_grem_audit_never_builds_gap_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the tree audit must read the gap vector")

    monkeypatch.setattr(audit, "gap_matrix", refuse)
    result = check_condition(GREMModel(validate_tree([2, 1, 2], [0.3, 0.3, 0.4], 5)),
                             mode="all")
    assert result.holds
    assert len(result.reports) == 2**5 - 2
    assert all(r.pairs_checked == 4**5 for r in result.reports)


def test_audit_never_calls_condition_gap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact audit must read the count kernels")

    monkeypatch.setattr(audit, "condition_gap", refuse)
    for model in (SKModel(6), PSpinModel(5, 3), MixedModel(6, {1: Fraction(1, 3),
                                                               4: Fraction(2, 3)}),
                  REMModel(4)):
        result = check_condition(model, mode="all")
        assert len(result.reports) == 2**model.n - 2
        assert all(r.exact for r in result.reports)


def count_kernel_model(data):
    n = data.draw(st.integers(2, 8))
    kind = data.draw(st.sampled_from(["sk", "pspin", "mixed", "rem"]))
    if kind == "sk":
        return SKModel(n)
    if kind == "pspin":
        return PSpinModel(n, data.draw(st.integers(1, 5)))
    if kind == "mixed":
        orders = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
        raw = [data.draw(st.integers(1, 9)) for _ in orders]
        return MixedModel(n, {p: Fraction(r, sum(raw)) for p, r in zip(orders, raw)})
    return REMModel(n)


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_shared_count_tables_match_the_single_partition_audit(data):
    # check_condition reuses one table per n1; audit_partition builds its own
    model = count_kernel_model(data)
    n = model.n
    reports = check_condition(model, mode="all").reports
    for _ in range(4):
        partition = CoordinatePartition(n, data.draw(st.integers(1, (1 << n) - 2)))
        report = reports[partition.mask - 1]
        assert report == audit_partition(model, partition)
        assert condition_gap(model, partition, report.witness_sigma,
                             report.witness_tau) == report.max_gap_exact


def test_count_kernels_read_once_per_block_size(monkeypatch):
    calls = []
    count_kernel = PSpinModel.count_kernel

    def counted(self):
        calls.append(self.n)
        return count_kernel(self)

    monkeypatch.setattr(PSpinModel, "count_kernel", counted)
    result = check_condition(PSpinModel(8, 3), "all")
    assert len(result.reports) == 2**8 - 2
    # the model once, then both blocks once per n1 = 1..7
    assert len(calls) <= 1 + 2 * 7


@pytest.mark.parametrize("model, verdict", [
    (SKModel(20), VERDICT_HOLDS),
    (PSpinModel(20, 3), VERDICT_VIOLATED),
    (MixedModel(20, {2: Fraction(1, 2), 4: Fraction(1, 2)}), VERDICT_HOLDS),
    (REMModel(20), VERDICT_HOLDS),
])
def test_canonical_count_audits_reach_the_enumeration_cap(model, verdict):
    result = check_condition(model)
    assert result.verdict == verdict
    assert len(result.reports) == 19
    rng = random.Random(20)
    for report in result.reports:
        partition = CoordinatePartition(20, report.mask)
        assert condition_gap(model, partition, report.witness_sigma,
                             report.witness_tau) == report.max_gap_exact
        for _ in range(200):
            s = SpinConfig(20, rng.getrandbits(20))
            t = SpinConfig(20, rng.getrandbits(20))
            gap = condition_gap(model, partition, s, t)
            assert report.min_gap_exact <= gap <= report.max_gap_exact


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_audit_refuses_bad_tolerances(tolerance):
    with pytest.raises(ValidationError, match="tolerance"):
        check_condition(PSpinModel(4, 3), tolerance=tolerance)
    with pytest.raises(ValidationError, match="tolerance"):
        audit_partition(PSpinModel(4, 3), CoordinatePartition.canonical(4, 2), tolerance)


def test_custom_model_audit_needs_family():
    base = CustomModel(np.eye(8))
    with pytest.raises(MissingData):
        check_condition(base)
    # independent-energies family expressed as custom matrices: audit runs
    family = {1: np.eye(2), 2: np.eye(4)}
    result = check_condition(CustomModel(np.eye(8), family=family))
    assert result.holds
    assert not result.reports[0].exact


def test_validate_psd_identity_and_degenerate():
    rep = validate_psd(np.eye(8))
    assert rep.psd and rep.rank == 8
    assert rep.min_eigenvalue_estimate == pytest.approx(1.0)
    rep = validate_psd(np.ones((2, 2)))
    assert rep.psd and rep.rank == 1
    assert rep.min_eigenvalue_estimate == pytest.approx(0.0, abs=1e-12)


def test_validate_psd_rejects_indefinite_and_asymmetric():
    rep = validate_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not rep.psd
    assert rep.min_eigenvalue_estimate < -0.5
    with pytest.raises(ValidationError):
        validate_psd(np.array([[1.0, 0.2], [0.1, 1.0]]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_validate_psd_refuses_bad_tolerances(tol):
    with pytest.raises(ValidationError, match="tol"):
        validate_psd(np.eye(4), tol=tol)


def test_validate_psd_agrees_with_eigen_oracle():
    rng = np.random.default_rng(5)
    mats = [
        SKModel(4).covariance_matrix(),
        REMModel(3).covariance_matrix(),
        GREMModel(validate_tree([1, 2], [0.4, 0.6], 3)).covariance_matrix(),
    ]
    a = rng.standard_normal((6, 6))
    mats.append(a @ a.T)          # PSD by construction
    sym = (a + a.T) / 2
    mats.append(sym)              # generically indefinite
    for m in mats:
        min_eig = float(np.linalg.eigvalsh(m).min())
        assert validate_psd(m).psd == (min_eig >= -1e-8 * max(m.diagonal().max(), 1.0))


def test_lifted_covariance_matrices_are_psd():
    # the covariance of a lifted family: block covariance pulled back to the full space
    for model in (SKModel(5), PSpinModel(5, 3), REMModel(5)):
        for partition in enumerate_partitions(5, "canonical"):
            sub = model.submodel(partition, 1)
            amap = extract_map(5, partition.mask)
            lifted = sub.covariance_matrix()[amap[:, None], amap[None, :]]
            assert validate_psd(lifted).psd


def test_report_fields_consistent():
    result = check_condition(REMModel(3), mode="all")
    for report in result.reports:
        assert report.pairs_checked == 4**3
        assert report.n1 == report.mask.bit_count()
        assert report.min_gap <= 0 <= report.max_gap + 1e-15
