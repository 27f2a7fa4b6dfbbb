import numpy as np
import pytest
import scipy.linalg

from satk import linalg, powerit, semigroup
from satk.decomp import dunford
from satk.errors import InvalidInput, NumericalFailure
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import limit_operator, modulus_resolution

from conftest import clear_memos, random_complex
from oracles import scaled_matrix

GAPPED = InstanceSpec(dim=4, min_real_gap=0.2)


def test_matrix_exp_scaled_matches_expm(rng):
    for _ in range(10):
        a = random_complex(rng, (4, 4))
        for t in (0.3, 1.0, 7.5):
            sp = semigroup.matrix_exp_scaled(a, t)
            expected = scipy.linalg.expm(t * a)
            assert linalg.norm2(scaled_matrix(sp) - expected) < 1e-10 * linalg.norm2(expected)


def test_matrix_exp_scaled_t_zero_is_identity():
    sp = semigroup.matrix_exp_scaled(np.diag([1.0, 2.0]), 0.0)
    assert linalg.norm2(scaled_matrix(sp) - np.eye(2)) == 0.0


@pytest.mark.parametrize("norm", [0.5, 0.1, 1e-3])
def test_pade_step_matches_expm(norm):
    # the one degree-7 step against scipy's expm as an oracle, at every norm
    # up to the step cap
    for seed in range(100):
        a = generate_instance(6400 + seed, InstanceSpec(dim=2 + seed % 7)).matrix
        x = (norm / linalg.norm2(a)) * a
        expected = scipy.linalg.expm(x)
        assert linalg.norm2(semigroup._pade7(x) - expected) <= 1e-14 * linalg.norm2(expected)


def test_pade_step_raises_on_a_failed_solve(monkeypatch):
    monkeypatch.setattr(linalg.lapack, "zgesv", lambda a, b: (a, None, b, 1))
    with pytest.raises(NumericalFailure, match="info=1"):
        semigroup.matrix_exp_scaled(np.eye(2), 1.0)


def test_matrix_exp_scaled_large_t_stays_finite():
    sp = semigroup.matrix_exp_scaled(np.diag([3.0, -3.0]).astype(complex), 300.0)
    assert np.all(np.isfinite(sp.unit.view(np.float64)))
    log_norm = np.log(linalg.norm2(sp.unit)) + sp.exponent * np.log(2.0)
    assert log_norm == pytest.approx(900.0, rel=1e-6)


def test_matrix_exp_scaled_rejects_negative_t():
    with pytest.raises(InvalidInput):
        semigroup.matrix_exp_scaled(np.eye(2), -1.0)


def test_halfplane_resolution_monotone():
    for i in range(10):
        inst = generate_instance(6000 + i, InstanceSpec(dim=5))
        res = semigroup.halfplane_resolution(inst.decomposition)
        assert list(res.levels) == sorted(res.levels)
        ranks = [linalg.matrix_rank(g) for g in res.projections]
        assert ranks == sorted(ranks)
        assert linalg.norm2(res.projections[-1] - np.eye(5)) == 0.0


def test_semigroup_limit_spectrum_is_exp_of_real_parts():
    for i in range(10):
        inst = generate_instance(6100 + i, InstanceSpec(dim=4))
        k = semigroup.semigroup_limit(semigroup.halfplane_resolution(inst.decomposition))
        expected = np.sort(np.exp(np.real(np.array(inst.eigenvalues))))
        got = np.sort(np.linalg.eigvalsh(k.matrix))
        assert np.max(np.abs(got - expected)) < 1e-8


@pytest.mark.parametrize("c", [1e4, 709.5])
def test_semigroup_limit_refuses_overflow(c):
    # exp(c) overflows at 1e4; at 709.5 it is finite but twice it is not.
    # Any RuntimeWarning fails the test under the suite's filter.
    res = semigroup.halfplane_resolution(dunford(np.array([[c, c], [0.0, 0.5 * c]])))
    with pytest.raises(InvalidInput, match="leaves float range"):
        semigroup.semigroup_limit(res)


def test_semigroup_limit_is_discrete_limit_of_exp():
    # levels by real part for A and levels by modulus for exp(A) give one operator
    for i in range(20):
        inst = generate_instance(6300 + i, InstanceSpec(dim=2 + i % 6, min_real_gap=0.2))
        continuous = semigroup.semigroup_limit(semigroup.halfplane_resolution(inst.decomposition))
        discrete = limit_operator(modulus_resolution(dunford(scipy.linalg.expm(inst.matrix))))
        assert linalg.norm2(continuous.matrix - discrete.matrix) < 1e-9


def test_exp_growth_exact_fixture():
    dec = dunford(np.array([[1, 1], [0, 2]], dtype=complex))
    assert semigroup.exp_growth_exponent_exact(dec, [1, 0]) == pytest.approx(1.0, abs=1e-9)
    assert semigroup.exp_growth_exponent_exact(dec, [1, 1]) == pytest.approx(2.0, abs=1e-9)


def test_exp_growth_exact_rejects_zero_vector():
    dec = dunford(np.eye(2))
    with pytest.raises(InvalidInput):
        semigroup.exp_growth_exponent_exact(dec, np.zeros(2))


def test_exp_growth_estimate_diagonal():
    a = np.diag([-1.0, 0.5]).astype(complex)
    assert semigroup.exp_growth_estimate(a, [1, 0], 50.0) == pytest.approx(-1.0, abs=1e-6)
    assert semigroup.exp_growth_estimate(a, [0, 1], 50.0) == pytest.approx(0.5, abs=1e-6)
    # a mixed vector carries a log(coeff)/t bias at finite t: log(sqrt(2))/50
    assert semigroup.exp_growth_estimate(a, [1, 1], 50.0) == pytest.approx(0.5, abs=1e-2)


def test_exp_growth_estimate_small_t_matches_literal(rng):
    a = random_complex(rng, (3, 3))
    x = random_complex(rng, 3)
    t = 2.0
    lit = np.log(
        np.linalg.norm(scipy.linalg.expm(t * a) @ (x / np.linalg.norm(x)))
    ) / t
    assert semigroup.exp_growth_estimate(a, x, t) == pytest.approx(lit, abs=1e-6)


def test_exp_growth_estimate_agrees_with_exact_on_gapped_instances():
    for i in range(5):
        inst = generate_instance(6200 + i, GAPPED)
        for j in range(4):
            x = inst.generalized_eigenvectors[:, j]
            exact = semigroup.exp_growth_exponent_exact(inst.decomposition, x)
            est = semigroup.exp_growth_estimate(inst.matrix, x, 200.0)
            assert est == pytest.approx(exact, abs=1e-2)


def test_exp_growth_estimate_shares_one_flag_run():
    # every basis column reads the same propagator's flag
    inst = generate_instance(6200, GAPPED)
    clear_memos()
    for j in range(4):
        semigroup.exp_growth_estimate(inst.matrix, np.eye(4)[:, j], 200.0)
    assert powerit._flag_run.cache_info().misses == 1


def test_exp_growth_estimate_rejects_bad_input():
    with pytest.raises(InvalidInput):
        semigroup.exp_growth_estimate(np.eye(2), [1, 0], 0.0)
    with pytest.raises(InvalidInput):
        semigroup.exp_growth_estimate(np.eye(2), [0, 0], 1.0)
    # t ||A|| = 200 * 1.2e200 would take 5e202 propagator steps: refused at once
    with pytest.raises(InvalidInput, match="propagator steps"):
        semigroup.exp_growth_estimate(1e200 * np.array([[1.0, 1.0], [0.0, 0.5]]), [1, 0], 200.0)
