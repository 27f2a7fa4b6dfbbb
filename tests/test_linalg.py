import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from satk import decomp, linalg, powerit, resolution, semigroup
from satk.errors import InvalidInput

from conftest import clear_memos, random_complex, random_psd, random_projection
from oracles import (
    abs_op,
    as_hermitian,
    loewner_leq,
    psd_power,
    spectral_radius,
    weighted_psd_sum_root,
)


def test_as_matrix_rejects_non_square():
    # also through a memo, which validates on a miss
    for x in (np.zeros((2, 3)), np.complex128(2.0), np.ones(3)):
        for entry in (linalg.as_matrix, decomp.dunford):
            with pytest.raises(InvalidInput):
                entry(x)


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


FIXTURE = np.array([[1, 1], [0, 2]], dtype=complex)
REAL = np.array([[0.9, 1.0, 0.0], [0.0, -0.4, 2.0], [0.3, 0.0, 0.2]])


def _content(x):
    """x as comparable Python data, each array by its dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return [_content(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        return [_content(y) for y in x]
    return repr(x)


def _matrix_entries():
    """Each public function that takes a matrix, with its other arguments."""
    yield "normalized_power", lambda a: [powerit.normalized_power(a, n) for n in (12, 4096)]
    yield "yamamoto_limits", lambda a: [powerit.yamamoto_limits(a, n) for n in (12, 4096)]
    yield "vector_exponent_estimates", lambda a: [
        powerit.vector_exponent_estimates(a, np.eye(len(a)), n) for n in (16, 4096)
    ]
    yield "convergence_study", lambda a: powerit.convergence_study(a, (16, 4096), np.eye(len(a)))
    yield "scaled_power", lambda a: powerit.scaled_power(a, 7)
    yield "schur_form", decomp.schur_form
    yield "eigen_clusters", decomp.eigen_clusters
    yield "spectral_idempotent", lambda a: [
        decomp.spectral_idempotent(a, c) for c in decomp.eigen_clusters(a)
    ]
    yield "dunford", decomp.dunford
    yield "check_resolution", lambda a: resolution.check_resolution(
        a, resolution.modulus_resolution(decomp.dunford(a))
    )
    yield "matrix_exp_scaled", lambda a: semigroup.matrix_exp_scaled(a, 2.0)
    yield "exp_growth_estimate", lambda a: semigroup.exp_growth_estimate(a, np.ones(len(a)), 3.0)
    yield "range_projection", linalg.range_projection


@pytest.mark.parametrize("a", [FIXTURE, REAL], ids=["complex", "real"])
@pytest.mark.parametrize("entry", [pytest.param(f, id=name) for name, f in _matrix_entries()])
def test_matrix_entries_take_any_layout(entry, a):
    # an F-ordered input (or a transposed view) gives its C copy's bytes;
    # the memos are emptied so each layout takes the whole path
    clear_memos()
    want = _content(entry(a))
    for other in (np.asfortranarray(a), np.ascontiguousarray(a.T).T):
        clear_memos()
        assert _content(entry(other)) == want


def _memo_cases():
    """(memo, a public entry that fills it, the memo's arrays for A read back through it)."""
    yield pytest.param(
        powerit._flag_run,
        lambda a: powerit.vector_exponent_estimates(a, np.eye(2), 256),
        lambda a: [*powerit._flag_run(a.conj().T, (256,))[0]],
        id="flag_run",
    )
    yield pytest.param(  # the read-out on the exact and on the flag path
        powerit._power_roots,
        lambda a: [powerit.normalized_power(a, n) for n in (12, 4096)],
        lambda a: [x for n in (12, 4096) for x in powerit._power_roots(a, (n,))[0]],
        id="power_roots",
    )
    yield pytest.param(
        decomp.schur_form, decomp.eigen_clusters, lambda a: [*decomp.schur_form(a)[:2]], id="schur_form"
    )
    yield pytest.param(
        decomp.dunford,
        decomp.dunford,
        lambda a: [(dec := decomp.dunford(a)).matrix, *(p.matrix for p in dec.idempotents)],
        id="dunford",
    )
    yield pytest.param(
        decomp.ordered_schur,
        lambda a: resolution.modulus_resolution(decomp.dunford(a)),
        lambda a: [x for part in decomp.ordered_schur(a, np.abs)[1::2] for x in part],
        id="ordered_schur",
    )


@pytest.mark.parametrize("memo, entry, held", list(_memo_cases()))
def test_matrix_memo_contract(memo, entry, held):
    clear_memos()
    a = FIXTURE.copy()
    entry(a)
    arrays = held(a)
    # the memo holds its own read-only copy: no caller can write into it
    assert not any(np.shares_memory(x, a) for x in arrays)
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x.flat[0] = 0.0
    # writing into the caller's array moves nothing the memo holds
    before = [x.tobytes() for x in arrays]
    a[0, 1] = 5
    assert [x.tobytes() for x in arrays] == before
    repeat = held(FIXTURE)
    assert all(x is y for x, y in zip(repeat, arrays))
    assert [x.tobytes() for x in repeat] == before
    assert not any(x is y for x, y in zip(held(a), arrays))
    # an F-ordered copy of the input is a hit
    info = memo.cache_info()
    entry(np.asfortranarray(FIXTURE))
    after = memo.cache_info()
    assert after.misses == info.misses and after.hits > info.hits


def test_dunford_parts_are_fresh_arrays():
    # D and N are formed from the memo's idempotents on each read: writing
    # into one read leaves the memo and the next read as they were
    clear_memos()
    dec = decomp.dunford(FIXTURE)
    for part in ("scalar_part", "nilpotent_part"):
        x = getattr(dec, part)
        before = x.tobytes()
        x[0, 1] = 5
        assert getattr(decomp.dunford(FIXTURE), part).tobytes() == before


def test_norm2_is_numpy_spectral_norm(rng):
    # a real or integer matrix is taken as complex128, as every caller passes it
    cases = [random_complex(rng, (m, m)) for m in (2, 5, 8)]
    cases += [rng.standard_normal((4, 4)), rng.integers(-9, 9, size=(3, 3))]
    cases += [np.zeros((3, 3), dtype=complex), np.array([[-2.5 + 1j]])]
    for x in cases:
        assert linalg.norm2(x) == float(np.linalg.norm(x.astype(complex), 2))


def test_binary_unit_is_binary_split_over_every_entry(rng):
    # one exponent for the whole matrix: the rule binary_split applies to
    # one column, here the column of every entry; any layout, subnormal and
    # near-maximal entries, and zero (e = 0)
    exact = [random_complex(rng, (m, m), scale) for m in (1, 3, 8) for scale in (1.0, 1e300, 1e-300)]
    exact += [np.array([[3e-320j]]), np.zeros((3, 3), dtype=complex)]
    cases = [*exact, np.diag([0.65e308 * (1 + 1j), 5e-320])]  # 5e-320 * 2^-1023 is 0
    for x in cases + [x.T for x in cases]:
        u, e = linalg.binary_unit(x)
        want_u, want_e = linalg.binary_split(np.ascontiguousarray(x).reshape(-1, 1))
        assert u.tobytes() == want_u.tobytes() and u.shape == x.shape and u.flags.c_contiguous
        assert type(e) is int and e == want_e[0]
    for x in exact:  # no entry of u is subnormal: the scaling loses no bit
        u, e = linalg.binary_unit(x)
        assert np.ldexp(u.view(np.float64), e).tobytes() == x.view(np.float64).tobytes()


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


def _bound_routine_calls():
    """(module, routine, args): each LAPACK and BLAS routine satk binds, with
    one call on random input."""
    rng = np.random.default_rng(23)
    a, b = random_complex(rng, (5, 5)), random_complex(rng, (5, 5))
    t = np.triu(a)
    qr, tau = scipy.linalg.lapack.zgeqrf(a)[:2]
    calls = [
        ("blas", "zgemm", (1.0, a, b)),
        ("lapack", "zgeqrf", (a,)),
        ("lapack", "zungqr", (qr, tau)),
        ("lapack", "zgesdd", (a,)),
        ("lapack", "zgesv", (a, b)),
        ("lapack", "zgees", (lambda w: 0, a)),
        ("lapack", "ztrsen", (np.array([0, 1, 0, 1, 1]), t, np.eye(5, dtype=complex))),
        ("lapack", "ztrsyl", (t[:2, :2], t[2:, 2:], b[:2, 2:])),
    ]
    return [pytest.param(*call, id=call[1]) for call in calls]


def test_missing_scipy_module_raises_import_error_naming_it():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._nope not found") as exc:
        linalg._scipy_linalg_extension("_nope")
    assert exc.value.name == "scipy.linalg._nope"


def test_bound_routines_are_the_checked_ones():
    src = Path(linalg.__file__).parent
    used = {m.groups() for path in src.glob("*.py") for m in re.finditer(r"\b(lapack|blas)\.(z\w+)", path.read_text())}
    assert used == {call.values[:2] for call in _bound_routine_calls()}


@pytest.mark.parametrize("module, routine, args", _bound_routine_calls())
def test_bound_routine_is_scipys(module, routine, args):
    # satk loads scipy's compiled _flapack and _fblas on their own; their
    # routines must be the ones scipy.linalg.lapack and .blas re-export
    ours, scipys = getattr(getattr(linalg, module), routine), getattr(getattr(scipy.linalg, module), routine)
    assert ours.__doc__ == scipys.__doc__
    got, want = ours(*args), scipys(*args)
    if routine == "zgemm":  # the one that returns an array, not a tuple
        got, want = (got,), (want,)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
