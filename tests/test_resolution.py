import numpy as np
import pytest

from satk import linalg
from satk.decomp import dunford, single_linkage
from satk.errors import InvalidInput
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import (
    check_resolution,
    halfplane_resolution,
    limit_operator,
    modulus_resolution,
    semigroup_limit,
    vector_exponent_exact,
)

from conftest import range_oracle


def test_cluster_values_groups_gaps():
    vals = np.array([0.0, 1.0, 1.05, 3.0])
    groups = single_linkage(vals, 0.1)
    assert sorted(groups) == [[0], [1, 2], [3]]


def test_resolution_monotone_and_tops_out():
    for i in range(20):
        inst = generate_instance(8000 + i, InstanceSpec(dim=2 + i % 6))
        res = modulus_resolution(inst.decomposition)
        diag = check_resolution(res)
        assert diag.max_idempotency_residual <= 1e-8
        assert diag.max_monotonicity_violation <= 1e-8
        assert diag.top_identity_gap <= 1e-8
        assert list(res.levels) == sorted(res.levels)
        ranks = [linalg.matrix_rank(f) for f in res.projections]
        assert ranks == sorted(ranks)
        assert ranks[-1] == inst.matrix.shape[0]


def test_shared_modulus_levels_merge():
    # two eigenvalues on one circle must collapse to a single modulus level
    lam = np.diag([1.0, np.exp(1j * 2.1), 0.5]).astype(complex)
    res = modulus_resolution(dunford(lam))
    assert len(res.levels) == 2
    assert res.levels[1] == pytest.approx(1.0)
    assert linalg.matrix_rank(res.projections[0]) == 1


def test_limit_operator_fixture():
    dec = dunford(np.array([[1, 1], [0, 2]], dtype=complex))
    res = modulus_resolution(dec)
    k = limit_operator(res)
    assert linalg.norm2(k.matrix - np.diag([1.0, 2.0])) < 1e-10
    assert linalg.norm2(res.projections[0] - np.diag([1.0, 0.0])) < 1e-10
    assert k.spectrum_moduli == pytest.approx((1.0, 2.0))


def test_limit_operator_matches_ground_truth_eigs():
    # spectrum of K must be the eigenvalue moduli with multiplicity
    for i in range(10):
        inst = generate_instance(8100 + i, InstanceSpec(dim=5))
        k = limit_operator(modulus_resolution(inst.decomposition))
        expected = np.sort(np.abs(np.array(inst.eigenvalues)))
        got = np.sort(np.linalg.eigvalsh(k.matrix))
        assert np.max(np.abs(got - expected)) < 1e-8


def test_vector_exponent_exact_levels():
    inst = generate_instance(901, InstanceSpec(dim=5))
    dec = inst.decomposition
    res = modulus_resolution(dec)
    mods = np.abs(np.array(inst.eigenvalues))
    for j in range(5):
        x = inst.generalized_eigenvectors[:, j]
        lam = vector_exponent_exact(dec, x)
        assert lam == pytest.approx(mods[j], abs=1e-8)
    # a generic combination picks up the top level
    x = inst.generalized_eigenvectors.sum(axis=1)
    assert vector_exponent_exact(dec, x) == pytest.approx(res.levels[-1], abs=1e-8)


def test_vector_exponent_exact_zero_vector():
    inst = generate_instance(902, InstanceSpec(dim=3))
    assert vector_exponent_exact(inst.decomposition, np.zeros(3)) == 0.0


def test_vector_exponent_exact_dimension_mismatch():
    inst = generate_instance(903, InstanceSpec(dim=3))
    with pytest.raises(InvalidInput):
        vector_exponent_exact(inst.decomposition, np.ones(4))


def test_semigroup_limit_matches_range_oracle():
    worst = 0.0
    for i in range(50):
        dec = generate_instance(63000 + i, InstanceSpec(dim=2 + i % 7, min_real_gap=0.2)).decomposition
        k = semigroup_limit(halfplane_resolution(dec)).matrix
        worst = max(worst, linalg.norm2(k - range_oracle(dec, np.real, np.exp)))
    assert worst <= 1e-12
