import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from satk import linalg
from satk.errors import InvalidInput

from conftest import random_complex, random_psd, random_projection
from oracles import (
    abs_op,
    as_hermitian,
    loewner_leq,
    psd_power,
    spectral_radius,
    weighted_psd_sum_root,
)


def test_as_matrix_rejects_non_square():
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_norm2_is_numpy_spectral_norm(rng):
    cases = [random_complex(rng, (m, m)) for m in (2, 5, 8)]
    cases += [rng.standard_normal((4, 4)), rng.integers(-9, 9, size=(3, 3))]
    cases += [np.zeros((3, 3), dtype=complex), np.array([[-2.5 + 1j]])]
    for x in cases:
        assert linalg.norm2(x) == float(np.linalg.norm(x, 2))


def _svd_cases(rng):
    for m in range(1, 9):
        for scale in (1.0, 1e150, 1e-150):
            yield random_complex(rng, (m, m), scale)
            if m > 1:  # rank m - 1: the first column repeats the last
                a = random_complex(rng, (m, m), scale)
                a[:, 0] = a[:, -1]
                yield a
        yield np.zeros((m, m), dtype=complex)


def test_svd_is_numpy_svd_byte_for_byte(rng):
    for a in _svd_cases(rng):
        assert linalg.svd(a, compute_uv=False).tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()
        for got, want in zip(linalg.svd(a), np.linalg.svd(a), strict=True):
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.dtype == want.dtype


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, -np.inf])
@pytest.mark.parametrize("compute_uv", [True, False])
def test_svd_of_non_finite_input_is_numpy_svd(bad, compute_uv):
    # NaN makes zgesdd refuse (info = -4), which numpy reports as below; an
    # infinity passes LAPACK's check and both return NaN values
    a = np.array([[1.0, 2.0], [bad, 3.0]], dtype=complex)
    if np.isnan(bad):
        for svd in (np.linalg.svd, linalg.svd):
            with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
                svd(a, compute_uv=compute_uv)
        return
    got, want = linalg.svd(a, compute_uv), np.linalg.svd(a, compute_uv=compute_uv)
    if not compute_uv:
        got, want = [got], [want]
    for x, y in zip(got, want, strict=True):
        assert np.array_equal(x, y, equal_nan=True)


def test_as_hermitian_rejects_skew(rng):
    b = random_complex(rng, (4, 4))
    with pytest.raises(InvalidInput):
        as_hermitian(b - b.conj().T + np.eye(4))


def test_abs_op_matches_sqrtm_oracle(rng):
    # |T| = (T*T)^(1/2); scipy.linalg.sqrtm is the independent oracle
    for _ in range(20):
        t = random_complex(rng, (5, 5))
        expected = scipy.linalg.sqrtm(t.conj().T @ t)
        assert np.linalg.norm(abs_op(t) - expected, 2) < 1e-10


def test_abs_op_preserves_vector_norms(rng):
    t = random_complex(rng, (6, 6))
    h = abs_op(t)
    for _ in range(10):
        x = random_complex(rng, 6)
        assert np.linalg.norm(h @ x) == pytest.approx(np.linalg.norm(t @ x), rel=1e-10)


def test_psd_power_agrees_with_eig_oracle(rng):
    h = random_psd(rng, 5)
    w, v = np.linalg.eigh(h)
    expected = v @ np.diag(w**0.5) @ v.conj().T
    assert np.linalg.norm(psd_power(h, 0.5) - expected, 2) < 1e-10


def test_psd_power_zeroes_below_rank_tol(rng):
    h = random_psd(rng, 6, rank=3)
    root = psd_power(h, 1e-3)  # tiny power amplifies any unkilled eigenvalue
    assert linalg.matrix_rank(root) == 3


def test_psd_power_identity_powers(rng):
    h = random_psd(rng, 4)
    assert np.linalg.norm(psd_power(h, 1.0) - h, 2) < 1e-10


def test_loewner_leq_basic(rng):
    h = random_psd(rng, 5)
    assert loewner_leq(np.zeros((5, 5)), h)
    assert loewner_leq(h, h + np.eye(5))
    assert not loewner_leq(h + np.eye(5), h)


def test_range_projection_idempotent_hermitian(rng):
    for rank in (1, 3, 5):
        t = random_complex(rng, (5, rank)) @ random_complex(rng, (rank, 5))
        p = linalg.range_projection(t)
        assert np.linalg.norm(p @ p - p, 2) < 1e-10
        assert np.linalg.norm(p - p.conj().T, 2) < 1e-12
        assert linalg.matrix_rank(p) == rank
        # P fixes the range of T
        assert np.linalg.norm(p @ t - t, 2) < 1e-9


def test_range_projection_zero():
    assert np.linalg.norm(linalg.range_projection(np.zeros((3, 3))), 2) == 0.0


def test_weighted_psd_sum_root_small_n_matches_direct(rng):
    terms = [(0.5, random_psd(rng, 4)), (1.0, random_psd(rng, 4))]
    n = 6
    direct = psd_power(sum(a**n * h for a, h in terms), 1.0 / n)
    assert np.linalg.norm(weighted_psd_sum_root(terms, n) - direct, 2) < 1e-10


def test_weighted_psd_sum_root_survives_underflow(rng):
    # weight ratio 0.1 at n = 512 underflows double precision; the top term
    # must still come through exactly
    e = random_projection(rng, 4, 2)
    out = weighted_psd_sum_root([(0.1, np.eye(4) - e), (1.0, e)], 512)
    assert np.all(np.isfinite(out.view(np.float64)))
    assert np.linalg.norm(out - e, 2) < 1e-12


def test_weighted_psd_sum_root_requires_increasing_weights(rng):
    h = random_psd(rng, 3)
    with pytest.raises(InvalidInput):
        weighted_psd_sum_root([(1.0, h), (0.5, h)], 4)


def test_spectral_radius(rng):
    a = np.diag([0.5, -2.0, 1.0 + 1.0j])
    assert spectral_radius(a) == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_property_abs_op_psd(m, seed):
    rng = np.random.default_rng(seed)
    t = random_complex(rng, (m, m))
    h = abs_op(t)
    assert np.min(np.linalg.eigvalsh(h)) >= -1e-10
    assert np.linalg.norm(h - h.conj().T, 2) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
def test_property_range_projection_of_projection_is_itself(m, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, m + 1))
    p = random_projection(rng, m, rank) if rank else np.zeros((m, m), dtype=complex)
    assert np.linalg.norm(linalg.range_projection(p) - p, 2) < 1e-10
