import numpy as np
import pytest

from satk import linalg, powerit
from satk.decomp import dunford
from satk.errors import InvalidInput
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import limit_operator, modulus_resolution

from conftest import random_complex, random_invertible

FIXTURE = np.array([[1, 1], [0, 2]], dtype=complex)


def test_scaled_power_matches_brute_force(rng):
    for _ in range(10):
        a = random_complex(rng, (4, 4), scale=0.8)
        for n in (1, 2, 3, 7, 16, 33):
            sp = powerit.scaled_power(a, n)
            assert linalg.norm2(sp.to_matrix() - powerit.brute_force_power(a, n)) < 1e-10 * np.exp(
                sp.log_scale
            )


def test_scaled_power_zero_matrix():
    sp = powerit.scaled_power(np.zeros((3, 3)), 5)
    assert sp.is_zero
    assert linalg.norm2(sp.to_matrix()) == 0.0


def test_scaled_power_nilpotent_dies():
    n = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert powerit.scaled_power(n, 3).is_zero
    assert not powerit.scaled_power(n, 2).is_zero


def test_scaled_power_extreme_exponent_no_overflow():
    sp = powerit.scaled_power(3.0 * np.eye(2), 4096)
    assert sp.log_scale == pytest.approx(4096 * np.log(3.0), rel=1e-12)
    with pytest.raises(OverflowError):
        sp.to_matrix()


def test_brute_force_power_guards():
    with pytest.raises(InvalidInput):
        powerit.brute_force_power(np.eye(2), 65)
    with pytest.raises(OverflowError):
        powerit.brute_force_power(1e200 * np.eye(2), 3)


def test_normalized_power_small_n_literal(rng):
    # n small enough for the dense oracle: |A^n|^(1/n) via abs_op + psd_power
    for _ in range(5):
        a = random_complex(rng, (4, 4))
        for n in (1, 2, 5, 12):
            lit = linalg.psd_power(linalg.abs_op(powerit.brute_force_power(a, n)), 1.0 / n)
            assert linalg.norm2(powerit.normalized_power(a, n) - lit) < 1e-7


def test_normalized_power_is_psd(rng):
    a = random_complex(rng, (5, 5))
    for n in (3, 100, 600):
        h = powerit.normalized_power(a, n)
        assert np.min(np.linalg.eigvalsh(h)) >= -1e-10


def test_normalized_power_flag_agrees_with_exact_midrange(rng):
    # modest spectral spread keeps the exact path valid at n = 64, so the two
    # kernels can be compared head to head
    s = random_invertible(rng, 2, delta=0.1)
    a = np.linalg.solve(s, np.diag([1.0, 0.8]).astype(complex)) @ s
    n = 64
    sp = powerit.scaled_power(a, n)
    u, sv, vh = np.linalg.svd(sp.unit)
    assert sv[-1] > 1e-10 * sv[0]  # exact path trustworthy here
    exact = vh.conj().T @ ((np.exp(sp.log_scale / n) * sv ** (1.0 / n))[:, None] * vh)
    q, levels = powerit._right_flag(a, n)
    flag = (q * levels) @ q.conj().T
    assert linalg.norm2(flag - exact) < 5e-2  # both near K; transient separates them


def test_estimators_share_one_flag_run():
    a = generate_instance(5, InstanceSpec(dim=5)).matrix
    powerit._flag_run.cache_clear()
    powerit.normalized_power(a, 4096)
    powerit.yamamoto_limits(a, 4096)
    powerit.vector_exponent_estimates(a, np.eye(5), 4096)
    info = powerit._flag_run.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_flag_run_arrays_are_read_only():
    q, levels = powerit._right_flag(FIXTURE, 256)
    with pytest.raises(ValueError):
        q[0, 0] = 0.0
    with pytest.raises(ValueError):
        levels[0] = 0.0


def test_normalized_power_nilpotent_is_zero():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert linalg.norm2(powerit.normalized_power(n, 8)) == 0.0
    assert np.all(powerit.yamamoto_limits(n, 8) == 0.0)


def test_yamamoto_fixture():
    assert powerit.yamamoto_limits(FIXTURE, 4096) == pytest.approx([2.0, 1.0], abs=1e-3)


def test_yamamoto_small_n_matches_svd(rng):
    a = random_complex(rng, (4, 4))
    n = 10
    s = np.linalg.svd(powerit.brute_force_power(a, n), compute_uv=False)
    assert powerit.yamamoto_limits(a, n) == pytest.approx(s ** (1.0 / n), rel=1e-10)


def test_vector_exponent_zero_vector_exact_zero():
    assert powerit.vector_exponent_estimate(FIXTURE, np.zeros(2), 4096) == 0.0


def test_vector_exponent_dead_orbit_exact_zero():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert powerit.vector_exponent_estimate(n, [1.0, 0.0], 50) == 0.0
    assert powerit.vector_exponent_estimate(n, [1.0, 0.0], 500) == 0.0


def test_vector_exponent_fixture():
    assert powerit.vector_exponent_estimate(FIXTURE, [1, 0], 4096) == pytest.approx(1.0, abs=1e-3)
    assert powerit.vector_exponent_estimate(FIXTURE, [1, 1], 4096) == pytest.approx(2.0, abs=1e-3)


def test_vector_exponent_small_n_is_literal(rng):
    a = random_complex(rng, (3, 3))
    x = random_complex(rng, 3)
    n = 20
    # the estimator normalizes x first, so the literal oracle does too
    lit = (np.linalg.norm(powerit.brute_force_power(a, n) @ x) / np.linalg.norm(x)) ** (1.0 / n)
    assert powerit.vector_exponent_estimate(a, x, n) == pytest.approx(lit, rel=1e-10)


def test_vector_exponent_batch_matches_single(rng):
    inst = generate_instance(77, InstanceSpec(dim=4))
    xs = random_complex(rng, (4, 6))
    batch = powerit.vector_exponent_estimates(inst.matrix, xs, 512)
    for j in range(6):
        assert batch[j] == pytest.approx(
            powerit.vector_exponent_estimate(inst.matrix, xs[:, j], 512), abs=1e-12
        )


def test_convergence_study_decreasing_error():
    # exact-path regime, where the 1/n error law has not yet hit the floor
    inst = generate_instance(9, InstanceSpec(dim=3))
    k = limit_operator(modulus_resolution(inst.decomposition))
    report = powerit.convergence_study(inst.matrix, [8, 16, 32, 64], k.matrix)
    assert report.errors[-1] <= 1e-2
    assert report.errors[-1] < report.errors[0]
    assert report.estimated_rate < 0.0


def test_convergence_study_rejects_bad_schedule():
    with pytest.raises(InvalidInput):
        powerit.convergence_study(np.eye(2), [16, 16], np.eye(2))


def test_similarity_equivalence_matches_literal_small_n(rng):
    # With G = (S* (T^n)* T^n S)^(1/2n), operator monotonicity of x^(1/2n) gives
    # ||S||^(-1/n) G <= |(S^-1 T S)^n|^(1/n) <= ||S^-1||^(1/n) G: both sides
    # share one limit.  Checked at small n against dense literal powers.
    n = 12
    for i in range(5):
        t = generate_instance(1300 + i, InstanceSpec(dim=4)).matrix
        s = random_invertible(rng, 4)
        a = np.linalg.solve(s, t @ s)
        side1 = powerit.normalized_power(a, n)
        literal = linalg.psd_power(linalg.abs_op(powerit.brute_force_power(a, n)), 1.0 / n)
        assert linalg.norm2(side1 - literal) < 1e-9
        tn = powerit.brute_force_power(t, n)
        side2 = linalg.psd_power(s.conj().T @ tn.conj().T @ tn @ s, 1.0 / (2 * n))
        lo = linalg.norm2(s) ** (-1.0 / n)
        hi = linalg.norm2(np.linalg.inv(s)) ** (1.0 / n)
        assert linalg.loewner_leq(lo * side2, side1, 1e-9)
        assert linalg.loewner_leq(side1, hi * side2, 1e-9)


def test_similarity_equivalence_large_n_converges():
    inst = generate_instance(13, InstanceSpec(dim=3))
    s = random_invertible(np.random.default_rng(5), 3, delta=0.1)
    a = np.linalg.solve(s, inst.matrix @ s)
    k = limit_operator(modulus_resolution(dunford(a)))
    assert linalg.norm2(powerit.normalized_power(a, 2048) - k.matrix) < 1e-2
