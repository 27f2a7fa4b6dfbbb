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
    (q, levels), = powerit._right_flag(a, (n,))
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
    (q, levels), = powerit._right_flag(FIXTURE, (256,))
    with pytest.raises(ValueError):
        q[0, 0] = 0.0
    with pytest.raises(ValueError):
        levels[0] = 0.0


def _reference_flag_run(a, ns, k):
    """(q, levels) at each n in ns from a plain loop of numpy QR steps on the
    block schedule of the kernel: QR of A^k q along the trunk, then p % k steps
    of A to each read-out point p.  The direct-LAPACK kernel must reproduce it
    bit for bit; k = 1 is the unblocked run."""
    m = a.shape[0]
    ak = np.linalg.matrix_power(a, k)
    points = set(ns) | {n - max(1, n // 4) for n in ns}
    at = {}

    def step(b, q, logs):
        q, r = np.linalg.qr(b @ q)
        return q, logs + np.log(np.abs(np.diag(r)))

    q, logs = np.eye(m, dtype=np.complex128), np.zeros(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        for trunk in range(0, max(ns) + 1, k):
            for p in points:
                if trunk <= p < trunk + k:
                    at[p] = q, logs
                    for _ in range(p - trunk):
                        at[p] = step(a, *at[p])
            q, logs = step(ak, q, logs)
        out = {}
        for n in ns:
            window = max(1, n // 4)
            tail = at[n][1] - at[n - window][1]
            tail[np.isneginf(at[n][1])] = -np.inf
            levels = np.exp(np.nan_to_num(tail, nan=-np.inf, posinf=-np.inf) / window)
            out[n] = at[n][0], np.nan_to_num(levels, nan=0.0, posinf=0.0)
    return out


def _flag_kernel_cases():
    rng = np.random.default_rng(2024)
    for m in range(1, 9):
        yield pytest.param("generic", random_complex(rng, (m, m)), id=f"generic-{m}")
    # exact zeros on the diagonal of every step's r: logs reach -inf
    singular = np.triu(random_complex(rng, (5, 5)))
    singular[4, 4] = 0.0
    yield pytest.param("singular", singular, id="singular-5")
    yield pytest.param("nilpotent", 2.0 * np.eye(4, k=1, dtype=complex), id="nilpotent-4")


@pytest.mark.parametrize("kind, a", list(_flag_kernel_cases()))
def test_flag_run_matches_numpy_qr_reference(kind, a):
    ns = (65, 1000, 4096)
    key, m = a.tobytes(), a.shape[0]
    k = powerit._block_power(a)[0]
    assert (k > 1) == (kind == "generic")
    ref = _reference_flag_run(a, ns, k)
    combined = powerit._flag_run(key, m, ns)
    for n, (q, levels) in zip(ns, combined):
        (q1, levels1), = powerit._flag_run(key, m, (n,))
        for got_q, got_levels in ((q, levels), (q1, levels1)):
            assert got_q.tobytes() == ref[n][0].tobytes(), n
            assert got_levels.tobytes() == ref[n][1].tobytes(), n
    levels = combined[-1][1]
    if kind == "singular":
        assert levels.min() == 0.0 < levels.max()
    elif kind == "nilpotent":
        assert levels.max() == 0.0


def _blocked_gate_cases():
    """14 acceptance instances (2 per dim), unitarily conjugated 6 x 6 direct
    sums of 2 x 2 blocks [[a, c], [0, b]], and DT-like matrices (eigenvalues
    uniform in the unit disc plus a strictly upper Gaussian part scaled by
    1/sqrt(2m), under a random unitary) at m = 16 and 32."""
    for i in range(14):
        inst = generate_instance(20000 + i, InstanceSpec(dim=2 + i % 7))
        yield pytest.param(inst.matrix, id=f"acceptance-{inst.seed}")
    rng = np.random.default_rng(77)
    for j in range(4):
        t = np.zeros((6, 6), dtype=complex)
        for b in range(0, 6, 2):
            diag = rng.uniform(0.3, 1.0, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
            t[b : b + 2, b : b + 2] = [[diag[0], random_complex(rng, ())], [0.0, diag[1]]]
        u, _ = np.linalg.qr(random_complex(rng, (6, 6)))
        yield pytest.param(u @ t @ u.conj().T, id=f"direct-sum-{j}")
    for m in (16, 32):
        eigs = np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
        t = np.diag(eigs) + np.triu(random_complex(rng, (m, m)), 1) / np.sqrt(2 * m)
        u, _ = np.linalg.qr(random_complex(rng, (m, m)))
        yield pytest.param(u @ t @ u.conj().T, id=f"dt-{m}")


@pytest.mark.parametrize("a", list(_blocked_gate_cases()))
def test_blocked_flag_matches_unblocked(monkeypatch, a):
    n = 4096
    b = a.conj().T
    assert powerit._block_power(b)[0] > 1
    blocked = powerit._flag_power(*powerit._right_flag(a, (n,))[0])
    # the unblocked run: the kernel at k = 1, which is the k = 1 reference
    # loop bit for bit (test_flag_run_matches_numpy_qr_reference)
    monkeypatch.setattr(powerit, "_block_power", lambda x: (1, x))
    (q, roots), = powerit._flag_run.__wrapped__(b.tobytes(), b.shape[0], (n,))
    assert linalg.norm2(blocked - powerit._flag_power(q, roots)) <= 1e-10


@pytest.mark.parametrize("c, k", [(1e200, 1), (1e-200, 1), (1e-40, 4)])
def test_flag_estimates_scale_with_the_matrix(c, k):
    # A^2 of c * A leaves float range at c = 1e±200 and A^8 is subnormal at
    # c = 1e-40, so those blocks are refused; A itself runs in blocks of 8
    a, n = np.array([[1, 1], [0, 0.5]], dtype=complex), 4096
    assert powerit._block_power(a.conj().T)[0] == 8
    assert powerit._block_power(c * a.conj().T)[0] == k
    # a run sums its logs of size |log c| per step: each sum rounds at up to
    # eps * n * |log c|, 4.2e-10 relative at c = 1e±200
    rel = n * abs(np.log(c)) * np.finfo(float).eps
    want = c * powerit.normalized_power(a, n)
    assert linalg.norm2(powerit.normalized_power(c * a, n) - want) <= rel * linalg.norm2(want)
    want = c * powerit.yamamoto_limits(a, n)
    assert powerit.yamamoto_limits(c * a, n) == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("routine", ["zgeqrf", "zungqr"])
def test_flag_step_raises_on_lapack_failure(monkeypatch, routine):
    real = getattr(powerit.lapack, routine)
    monkeypatch.setattr(powerit.lapack, routine, lambda *a, **k: (*real(*a, **k)[:-1], -1))
    with pytest.raises(np.linalg.LinAlgError, match=routine):
        powerit._flag_step(FIXTURE, np.eye(2, dtype=complex), np.zeros(2))


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
    assert powerit.vector_exponent_estimates(FIXTURE, np.zeros(2), 4096)[0] == 0.0


def test_vector_exponent_dead_orbit_exact_zero():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert powerit.vector_exponent_estimates(n, [1.0, 0.0], 50)[0] == 0.0
    assert powerit.vector_exponent_estimates(n, [1.0, 0.0], 500)[0] == 0.0


def test_vector_exponent_fixture():
    assert powerit.vector_exponent_estimates(FIXTURE, [1, 0], 4096)[0] == pytest.approx(1.0, abs=1e-3)
    assert powerit.vector_exponent_estimates(FIXTURE, [1, 1], 4096)[0] == pytest.approx(2.0, abs=1e-3)


def test_vector_exponent_small_n_is_literal(rng):
    a = random_complex(rng, (3, 3))
    x = random_complex(rng, 3)
    n = 20
    # the estimator normalizes x first, so the literal oracle does too
    lit = (np.linalg.norm(powerit.brute_force_power(a, n) @ x) / np.linalg.norm(x)) ** (1.0 / n)
    assert powerit.vector_exponent_estimates(a, x, n)[0] == pytest.approx(lit, rel=1e-10)


def test_vector_exponent_batch_matches_single(rng):
    inst = generate_instance(77, InstanceSpec(dim=4))
    xs = random_complex(rng, (4, 6))
    batch = powerit.vector_exponent_estimates(inst.matrix, xs, 512)
    for j in range(6):
        assert batch[j] == pytest.approx(
            powerit.vector_exponent_estimates(inst.matrix, xs[:, j], 512)[0], abs=1e-12
        )


def test_convergence_study_decreasing_error():
    # exact-path regime, where the 1/n error law has not yet hit the floor
    inst = generate_instance(9, InstanceSpec(dim=3))
    k = limit_operator(modulus_resolution(inst.decomposition))
    report = powerit.convergence_study(inst.matrix, [8, 16, 32, 64], k.matrix)
    assert report.errors[-1] <= 1e-2
    assert report.errors[-1] < report.errors[0]
    assert report.estimated_rate < 0.0


@pytest.mark.parametrize("seed", [1, 4, None])
def test_convergence_study_errors_match_normalized_power(seed):
    # the instances take the exact path up to n = 64 and the flag after it;
    # the close moduli 1 and 0.99 keep the exact path up to n = 1024
    if seed is None:
        a = np.array([[1.0, 1.0], [0.0, 0.99]], dtype=complex)
    else:
        a = generate_instance(seed, InstanceSpec(dim=4)).matrix
    schedule = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    on_flag = [powerit._exact_power(a, n) is None for n in schedule]
    assert any(on_flag) and not all(on_flag)
    k = limit_operator(modulus_resolution(dunford(a))).matrix
    report = powerit.convergence_study(a, schedule, k)
    per_n = [float(linalg.norm2(powerit.normalized_power(a, n) - k)) for n in schedule]
    assert np.array(report.errors).tobytes() == np.array(per_n).tobytes()


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
