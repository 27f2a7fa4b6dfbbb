import numpy as np
import pytest

from satk import decomp, linalg
from satk.decomp import dunford, single_linkage
from satk.errors import InvalidInput
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import (
    LevelResolution,
    check_resolution,
    halfplane_resolution,
    limit_operator,
    modulus_resolution,
    semigroup_limit,
    vector_exponent_exact,
)

from conftest import clear_memos, dt_like, random_complex, random_projection
from oracles import range_oracle, single_linkage_per_pair


@pytest.mark.parametrize("key", [np.abs, np.real], ids=["modulus", "real-part"])
def test_level_keys_of_an_array_are_the_keys_one_by_one(key):
    # _resolution keys all representatives in one call; a level must keep the
    # bits of the key of each representative alone
    rng = np.random.default_rng(5)
    scales = 10.0 ** rng.integers(-300, 300, (2, 20000))  # each part its own decade
    reps = rng.standard_normal(20000) * scales[0] + 1j * rng.standard_normal(20000) * scales[1]
    assert key(reps).tobytes() == np.array([key(complex(z)) for z in reps]).tobytes()


def test_cluster_values_groups_gaps():
    vals = np.array([0.0, 1.0, 1.05, 3.0])
    groups = single_linkage(vals, 0.1)
    assert sorted(groups) == [[0], [1, 2], [3]]


def test_single_linkage_matches_the_gap_by_gap_loop():
    # one array of gaps against one Python abs per gap: the same groups
    rng = np.random.default_rng(9)
    for n in (1, 2, 7, 40):
        for values in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            for tol in (1e-3, 0.1, 0.5):
                groups = single_linkage(values, tol)
                assert groups == sorted(groups) == sorted(single_linkage_per_pair(values.tolist(), tol))


def _resolved_matrices():
    for i in range(20):
        inst = generate_instance(8000 + i, InstanceSpec(dim=2 + i % 6))
        yield inst.matrix, modulus_resolution(inst.decomposition)
    # nearly equal moduli with idempotent norms up to 1e9, and an extreme scale
    for a in (dt_like(2, 32), 1e200 * np.array([[1.0, 1.0], [0.0, 0.5]])):
        yield a, modulus_resolution(dunford(a))


def test_resolution_monotone_and_tops_out():
    for a, res in _resolved_matrices():
        m = a.shape[0]
        for f in res.projections:
            assert np.linalg.norm(f @ f - f, 2) <= 1e-8
            assert np.linalg.norm(f - f.conj().T, 2) <= 1e-8
        for low, high in zip(res.projections, res.projections[1:]):
            assert np.linalg.eigvalsh(0.5 * (high + high.conj().T) - low)[0] >= -1e-8
        assert np.linalg.norm(res.projections[-1] - np.eye(m), 2) <= 1e-8
        assert check_resolution(a, res) <= 1e-12
        assert list(res.levels) == sorted(res.levels)
        ranks = [linalg.matrix_rank(f) for f in res.projections]
        assert ranks == sorted(ranks)
        assert ranks[-1] == m


def test_check_resolution_fails_off_the_invariant_subspaces():
    # orthogonal, nested and topped out, but not A-invariant: the residual sees it
    rng = np.random.default_rng(8200)
    for i in range(5):
        inst = generate_instance(8200 + i, InstanceSpec(dim=4))
        random_levels = LevelResolution(
            levels=(0.5, 1.0),
            projections=(random_projection(rng, 4, 2), np.eye(4, dtype=complex)),
        )
        assert check_resolution(inst.matrix, random_levels) > 0.1
        other = dunford(random_complex(rng, (4, 4)))
        assert check_resolution(inst.matrix, modulus_resolution(other)) > 0.1


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


def test_vector_exponent_exact_reads_the_modulus_resolution():
    # one level resolution per matrix: the exact exponent is read off the
    # memoized resolution that modulus_resolution built, so it is one of its
    # levels bit for bit
    a = generate_instance(904, InstanceSpec(dim=5)).matrix
    clear_memos()
    dec = dunford(a)
    levels = modulus_resolution(dec).levels
    assert vector_exponent_exact(dec, np.ones(5)) in levels
    assert decomp.ordered_schur.cache_info().misses == 1


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


def _homogeneity_inputs():
    yield np.diag([1.0, 0.995]).astype(complex)
    yield np.array([[1, 1], [0, 0.5]], dtype=complex)
    for i, dim in enumerate((3, 4, 5, 6, 8)):
        yield generate_instance(8400 + i, InstanceSpec(dim=dim)).matrix


def _scaled_answers(a):
    dec = dunford(a)
    mod, half = modulus_resolution(dec), halfplane_resolution(dec)
    exponents = [vector_exponent_exact(dec, x) for x in (*np.eye(a.shape[0]), np.ones(a.shape[0]))]
    multiplicities = [p.cluster.multiplicity for p in dec.idempotents]
    return multiplicities, mod.levels, half.levels, limit_operator(mod).matrix, exponents


@pytest.mark.parametrize("c", [1e-2, 1e-4, 1e-12, 1e-40, 1e-300, 1e100])
def test_every_spectral_decision_is_homogeneous(c):
    # K(cA) = c K(A): the clusters, cuts and refusals of cA are those of A at
    # every scale.  Below ||A|| = 1 they once used absolute tolerances, which
    # merged the two levels of 1e-4 diag(1, 0.995) into one
    for a in _homogeneity_inputs():
        mult, mod, half, k, exps = _scaled_answers(a)
        mult_c, mod_c, half_c, k_c, exps_c = _scaled_answers(c * a)
        assert mult_c == mult
        assert (len(mod_c), len(half_c)) == (len(mod), len(half))
        np.testing.assert_allclose(np.array(mod_c) / c, mod, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.array(half_c) / c, half, rtol=0.0, atol=1e-12)
        assert linalg.norm2(k_c / c - k) <= 1e-12
        np.testing.assert_allclose(np.array(exps_c) / c, exps, rtol=0.0, atol=1e-12)
