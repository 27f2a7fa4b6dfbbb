"""The benchmark's references on matrices whose limits are known in closed form.

Run with ``python3 -m pytest bench``.  For a normal matrix A = U diag(lam) U*,
|A^n|^(1/n) = |A| = U diag(|lam|) U* for every n, and |exp(tA)|^(1/t) =
U diag(exp(Re lam)) U*; a vector's exponent is the largest level it touches.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference as ref


def unitary(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q


@pytest.mark.parametrize("lam", [[2.0, -0.5, 0.5j, 1.0], [1 + 1j, 1 - 1j, 0.25, 0.25]])
def test_diagonal(lam):
    lam = np.array(lam, dtype=np.complex128)
    v = np.eye(len(lam))
    assert np.allclose(ref.discrete_limit(lam, v), np.diag(np.abs(lam)), atol=1e-14)
    assert np.allclose(ref.continuous_limit(lam, v), np.diag(np.exp(lam.real)), atol=1e-14)
    xs = np.array([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]], dtype=complex).T
    mods = np.abs(lam)
    assert np.allclose(ref.vector_exponents(mods, v, xs), [mods[0], max(mods[1], mods[3]), max(mods[2], mods[3])])


def test_normal_matches_abs():
    rng = np.random.default_rng(7)
    lam = np.array([1.5, 1.5j, -0.4, 0.4 + 0.3j, 0.1])  # 1.5 and 1.5j share one level
    u = unitary(rng, len(lam))
    assert ref.level_values(np.abs(lam)).tolist() == pytest.approx([0.1, 0.4, 0.5, 1.5])
    k = ref.discrete_limit(lam, u)
    assert np.allclose(k, u @ np.diag(np.abs(lam)) @ u.conj().T, atol=1e-12)
    a = u @ np.diag(lam) @ u.conj().T
    w, x = np.linalg.eigh(a.conj().T @ a)
    assert np.allclose(k, (x * np.sqrt(w)) @ x.conj().T, atol=1e-12)
    g = ref.continuous_limit(lam, u)
    assert np.allclose(g, u @ np.diag(np.exp(lam.real)) @ u.conj().T, atol=1e-12)
    assert ref.spectral_data_residual(a, lam, u) < 1e-14


def test_oblique_basis_limit_is_projection_sum():
    """Non-normal A = V diag(lam) V^-1: K has eigenvalue a_j on F_j minus F_{j-1}."""
    rng = np.random.default_rng(3)
    lam = np.array([0.5, 0.5, 2.0])
    v = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    k = ref.discrete_limit(lam, v)
    assert np.allclose(np.linalg.eigvalsh(k), [0.5, 0.5, 2.0])
    low = v[:, :2]
    assert np.allclose(k @ low, 0.5 * low)
    x = v @ np.array([1.0, -2.0, 0.0])
    y = v @ np.array([0.0, 1.0, 1e-3])
    assert ref.vector_exponents(np.abs(lam), v, np.column_stack([x, y])).tolist() == [0.5, 2.0]


def test_spectral_data_residual_sees_wrong_data():
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    v = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert ref.spectral_data_residual(a, np.array([1.0, 2.0]), v) < 1e-15
    assert ref.spectral_data_residual(a, np.array([1.0, 2.5]), v) > 0.1
    # a nilpotent part is allowed only between equal eigenvalues
    jordan = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert ref.spectral_data_residual(jordan, np.array([0.5, 0.5]), np.eye(2)) == 0.0


def test_shift_facts():
    assert ref.shift_facts("constant", 1.5) == {"converged": True, "backward_converges": False, "alpha": 1.5}
    assert not ref.shift_facts("blocks")["converged"]
    assert ref.shift_facts("harmonic")["backward_converges"]


def test_metric_names_match_benchmark_json():
    """The traced run reports exactly the per-layer metrics BENCHMARK.json lists."""
    import tracing

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.metric_units()
