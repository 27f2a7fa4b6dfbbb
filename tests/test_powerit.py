import numpy as np
import pytest
from scipy.linalg import blas, lapack

from satk import linalg, powerit, semigroup
from satk.cli import run_command
from satk.decomp import dunford
from satk.errors import InvalidInput
from satk.instances import InstanceSpec, generate_instance
from satk.records import RunConfig
from satk.resolution import limit_operator, modulus_resolution, vector_exponent_exact

from conftest import clear_memos, dt_like, random_complex, random_invertible
from oracles import (
    abs_op,
    block_power_to_8,
    brute_force_power,
    flag_run_per_point,
    loewner_leq,
    psd_power,
    scaled_matrix,
    scaled_power_per_n,
    tail_levels,
)

FIXTURE = np.array([[1, 1], [0, 2]], dtype=complex)
# the read-out of the benchmark's `schedule` workload
SCHEDULE = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def test_scaled_power_matches_brute_force(rng):
    for _ in range(10):
        a = random_complex(rng, (4, 4), scale=0.8)
        for n in (1, 2, 3, 7, 16, 33):
            power = scaled_matrix(powerit.scaled_power(a, n))
            assert linalg.norm2(power - brute_force_power(a, n)) < 1e-10 * linalg.norm2(power)


def test_scaled_power_zero_matrix():
    sp = powerit.scaled_power(np.zeros((3, 3)), 5)
    assert not sp.unit.any()
    assert linalg.norm2(scaled_matrix(sp)) == 0.0


def test_scaled_power_nilpotent_dies():
    n = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert not powerit.scaled_power(n, 3).unit.any()
    assert powerit.scaled_power(n, 2).unit.any()


def test_scaled_power_extreme_exponent_no_overflow():
    # 3^4096 is far past float range: the int exponent carries it
    sp = powerit.scaled_power(3.0 * np.eye(2), 4096)
    log_norm = np.log(linalg.norm2(sp.unit)) + sp.exponent * np.log(2.0)
    assert log_norm == pytest.approx(4096 * np.log(3.0), rel=1e-12)


def _chain_inputs():
    for i in range(0, 200, 25):  # members of the acceptance family, dims 2-8
        inst = generate_instance(20000 + i, InstanceSpec(dim=2 + i % 7))
        yield pytest.param(inst.matrix, id=f"seed-{20000 + i}")
    tail = np.array([[1.0, 1.0], [0.0, 0.5]])
    for name, a in (
        ("zero", np.zeros((3, 3))),
        ("nilpotent", np.eye(3, k=1)),
        ("3I", 3.0 * np.eye(3)),
        ("1e200", 1e200 * tail),
        ("1e-200", 1e-200 * tail),
    ):
        yield pytest.param(a.astype(complex), id=name)


@pytest.mark.parametrize("a", list(_chain_inputs()))
def test_scaled_powers_match_per_n_powering(a):
    # one squaring chain for a whole read-out gives each n the bytes of
    # powering that n on its own
    for ns in (SCHEDULE, (8, 16, 32, 64, 100, 200), (1,), (2, 3, 7, 33)):
        for n, got in zip(ns, powerit._scaled_powers(a, ns), strict=True):
            want = scaled_power_per_n(a, n)
            assert got.unit.tobytes() == want.unit.tobytes()
            assert type(got.exponent) is int
            assert got.exponent == want.exponent


def test_power_roots_share_one_squaring_chain(monkeypatch):
    # 13 chain entries A^(2^i), i = 0..12, and one product per n: 22
    # renormalizations, where powering each n from A itself takes 90; the
    # chain takes no spectral norm (the flag run renormalizes its input once)
    a = generate_instance(20003, InstanceSpec(dim=5)).matrix
    unit, norm2, units, norms = linalg.binary_unit, linalg.norm2, [], []
    monkeypatch.setattr(linalg, "binary_unit", lambda x: units.append(1) or unit(x))
    monkeypatch.setattr(linalg, "norm2", lambda x: norms.append(1) or norm2(x))
    clear_memos()
    powerit._power_roots(a, SCHEDULE)
    assert (len(units), len(norms)) == (22 + 1, 0)
    assert powerit._flag_run.cache_info().misses == 1  # the flag path ran


def test_brute_force_power_guards():
    with pytest.raises(InvalidInput):
        brute_force_power(np.eye(2), 65)
    with pytest.raises(OverflowError):
        brute_force_power(1e200 * np.eye(2), 3)


def test_normalized_power_small_n_literal(rng):
    # n small enough for the dense oracle: |A^n|^(1/n) via abs_op + psd_power
    for _ in range(5):
        a = random_complex(rng, (4, 4))
        for n in (1, 2, 5, 12):
            lit = psd_power(abs_op(brute_force_power(a, n)), 1.0 / n)
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
    exact = vh.conj().T @ ((2.0 ** (sp.exponent / n) * sv ** (1.0 / n))[:, None] * vh)
    (q, levels), = powerit._flag_run(a.conj().T, (n,))
    flag = (q * levels) @ q.conj().T
    assert linalg.norm2(flag - exact) < 5e-2  # both near K; transient separates them


def test_estimators_share_one_flag_run():
    # normalized_power and yamamoto_limits share one read-out (one squaring
    # chain, one probe SVD per n); vector_exponent_estimates reads its flag
    a = generate_instance(5, InstanceSpec(dim=5)).matrix
    clear_memos()
    powerit.normalized_power(a, 4096)
    powerit.yamamoto_limits(a, 4096)
    info = powerit._power_roots.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert powerit._flag_run.cache_info().misses == 1
    powerit.vector_exponent_estimates(a, np.eye(5), 4096)
    info = powerit._flag_run.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
    levels = tail_levels({p: logs for p, (_, logs) in at.items()}, ns)
    return {n: (at[n][0], lv) for n, lv in zip(ns, levels)}


def _unit(a):
    """(u, e) with a = u * 2**e and u's largest real or imaginary part in
    [0.5, 1): the scale a flag run steps at, by numpy's frexp."""
    a = linalg.as_matrix(a).view(np.float64)
    e = int(np.frexp(np.abs(a).max())[1])
    return np.ldexp(a, -e).view(np.complex128), e


def _flag_kernel_cases():
    """(kind, a): the kernel runs a "generic" matrix in blocks (k > 1) and
    every other kind with k = 1.  m = 1 takes numpy's dot path and m > 1 the
    zgemm product; k runs over 1, 2, 4, 8, 16 and 32; the singular and
    nilpotent cases put -inf in the logs."""
    rng = np.random.default_rng(2024)
    for m in range(1, 9):
        yield pytest.param("generic", random_complex(rng, (m, m)), id=f"generic-{m}")
    # exact zeros on the diagonal of every step's r: logs reach -inf
    singular = np.triu(random_complex(rng, (5, 5)))
    singular[4, 4] = 0.0
    yield pytest.param("singular", singular, id="singular-5")
    yield pytest.param("nilpotent", 2.0 * np.eye(4, k=1, dtype=complex), id="nilpotent-4")
    # DT-like: k = 2 at m = 16, k = 1 at m = 32
    yield pytest.param("generic", dt_like(2, 16), id="dt-16")
    yield pytest.param("spread", dt_like(2, 32), id="dt-32")
    # c * b runs at unit scale, in b's blocks of 16, at every c, where the
    # square of c * b itself leaves float range at c = 1e±200 and its 8th
    # power is subnormal at 1e-40
    b = np.array([[1, 1], [0, 0.5]], dtype=complex)
    yield pytest.param("generic", 1e200 * b, id="scaled-1e200")
    yield pytest.param("generic", 1e-200 * b, id="scaled-1e-200")
    yield pytest.param("generic", 1e-40 * b, id="scaled-1e-40")
    # at unit scale A^2 = 2^-1032 I is subnormal and A^4 = 0: the singular
    # floor refuses every block, which the spread floor alone would take
    yield pytest.param("subnormal", np.array([[0, 2.0**-1030], [1, 0]], dtype=complex), id="subnormal-square")


# (65, 1000, 4096), iterate's default schedule and the custom one of the
# record corpus: those read out at many points, several of them (6, 12, 75,
# 100, 150) off the block trunk
_FLAG_SCHEDULES = (("", (65, 1000, 4096)), ("-default", SCHEDULE), ("-custom", (8, 16, 32, 64, 100, 200)))
_FLAG_REFERENCES = {}


def _flag_kernel_runs():
    """Each kernel case, with its id, read out at each of _FLAG_SCHEDULES."""
    for case in _flag_kernel_cases():
        for suffix, ns in _FLAG_SCHEDULES:
            yield pytest.param(*case.values, ns, case.id, id=case.id + suffix)


def _shared_reference(case, a, k):
    """``_reference_flag_run`` of a kernel case at every point of its three
    schedules, run once per case: a read-out at n depends only on n and k."""
    if case not in _FLAG_REFERENCES:
        points = sorted(set().union(*(ns for _, ns in _FLAG_SCHEDULES)))
        _FLAG_REFERENCES[case] = _reference_flag_run(a, points, k)
    return _FLAG_REFERENCES[case]


@pytest.mark.parametrize("kind, a, ns, case", list(_flag_kernel_runs()))
def test_flag_run_matches_numpy_qr_reference(kind, a, ns, case):
    # the run steps on the unit u = 2^-e a and scales its levels back by 2^e
    u, e = _unit(a)
    k = powerit._block_power(u)[0]
    assert (k > 1) == (kind == "generic")
    ref = _shared_reference(case, u, k)
    combined = powerit._flag_run(a, ns)
    for n, (q, levels) in zip(ns, combined):
        (q1, levels1), = powerit._flag_run(a, (n,))
        for got_q, got_levels in ((q, levels), (q1, levels1)):
            assert got_q.tobytes() == ref[n][0].tobytes(), n
            assert got_levels.tobytes() == np.ldexp(ref[n][1], e).tobytes(), n
    levels = combined[-1][1]
    if kind == "singular":
        assert levels.min() == 0.0 < levels.max()
    elif kind == "nilpotent":
        assert levels.max() == 0.0


@pytest.mark.parametrize("ns", [(8, 16, 32, 64, 100, 200), (3,), (5, 9, 4096)])
@pytest.mark.parametrize("kind, a", list(_flag_kernel_cases()))
def test_flag_run_matches_the_per_point_read_out(kind, a, ns):
    # the trunk stopped only where a Q is read, and every n read out in one
    # pass, give the bytes of stopping at every point and reading each n on
    # its own; most of these window starts are off the blocks
    for (q, levels), (want_q, want_levels) in zip(powerit._flag_run(a, ns), flag_run_per_point(a, ns), strict=True):
        assert q.tobytes() == want_q.tobytes()
        assert levels.tobytes() == want_levels.tobytes()


def test_schedule_flag_run_stops_only_where_q_is_read(monkeypatch):
    # the schedule's flag path is n = 128 ... 4096 in blocks of 32: one stretch
    # of blocks to each n, none to its window start 3n / 4 (a whole block)
    a = generate_instance(5, InstanceSpec(dim=5)).matrix
    k = limit_operator(modulus_resolution(dunford(a))).matrix
    assert powerit._block_power(_unit(a.conj().T)[0])[0] == 32
    steps, calls = powerit._flag_steps, []
    monkeypatch.setattr(powerit, "_flag_steps", lambda *args: calls.append(len(args[2])) or steps(*args))
    clear_memos()
    powerit.convergence_study(a, SCHEDULE, k)
    assert calls == [4, 4, 8, 16, 32, 64]  # blocks per stretch


def test_singular_floor_refuses_a_subnormal_block(monkeypatch):
    # at unit scale [[0, 1], [2^-1030, 0]]* squares to the subnormal
    # 2^-1032 I and its A^4 is 0: the spread floor alone takes A^32 = 0
    u = _unit(np.array([[0, 2.0**-1030], [1, 0]]))[0]
    assert powerit._block_power(u)[0] == 1
    monkeypatch.setattr(powerit, "_BLOCK_SINGULAR_FLOOR", 0.0)
    assert powerit._block_power(u)[0] == 32


def test_flag_steps_keep_f2py_default_lwork():
    # from m = 129 zgeqrf blocks by lwork // m columns: a smaller lwork than
    # f2py's default 3 m takes its unblocked path and moves the bytes
    m = 130
    a = random_complex(np.random.default_rng(130), (m, m)) / np.sqrt(m)
    diagonals = np.empty((3, m), dtype=np.complex128)
    q = powerit._flag_steps(a, np.eye(m, dtype=np.complex128), diagonals)
    ref_q, ref_diagonals = np.eye(m, dtype=np.complex128), []
    for _ in diagonals:
        qr, tau, _, info = lapack.zgeqrf(blas.zgemm(1.0, ref_q, a.T, trans_a=1).T)
        assert info == 0
        ref_diagonals.append(qr.diagonal())
        ref_q, _, info = lapack.zungqr(qr, tau)
        assert info == 0
    assert diagonals.tobytes() == np.array(ref_diagonals).tobytes()
    assert q.tobytes() == ref_q.tobytes()


def _blocked_gate_cases():
    """14 acceptance instances (2 per dim), unitarily conjugated 6 x 6 direct
    sums of 2 x 2 blocks [[a, c], [0, b]], DT-like matrices (eigenvalues
    uniform in the unit disc plus a strictly upper Gaussian part scaled by
    1/sqrt(2m), under a random unitary) at m = 16 and 32 and
    ``dt_like(2, 16)`` (k = 2), and the propagator exp(hA) that
    ``exp_growth_estimate`` runs at t = 200 on a dim-5 instance (k = 32)."""
    for i in range(14):
        inst = generate_instance(20000 + i, InstanceSpec(dim=2 + i % 7))
        yield pytest.param(inst.matrix, id=f"acceptance-{20000 + i}")
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
    yield pytest.param(dt_like(2, 16), id="dt-like-16")
    a, t = generate_instance(1, InstanceSpec(dim=5)).matrix, 200.0
    h = t / np.ceil(t * max(linalg.norm2(a), 0.5) / semigroup._STEP_NORM_CAP)
    yield pytest.param(semigroup.matrix_exp_scaled(a, h).unit, id="propagator-1")


_BLOCKED_GATE_CASES = list(_blocked_gate_cases())


@pytest.mark.parametrize("a", _BLOCKED_GATE_CASES)
def test_blocked_flag_matches_unblocked(monkeypatch, a):
    n = 4096
    b = a.conj().T
    # the cases take every block factor _block_power chooses from
    factors = {powerit._block_power(case.values[0].conj().T)[0] for case in _BLOCKED_GATE_CASES}
    assert factors == {32, 16, 8, 4, 2}
    assert powerit._block_power(b)[0] > 1
    blocked = powerit._rebuild(*powerit._flag_run(b, (n,))[0])
    # the unblocked run: the kernel at k = 1, which is the k = 1 reference
    # loop bit for bit (test_flag_run_matches_numpy_qr_reference)
    monkeypatch.setattr(powerit, "_block_power", lambda x: (1, x))
    (q, roots), = powerit._flag_run.__wrapped__(b, (n,))
    assert linalg.norm2(blocked - powerit._rebuild(q, roots)) <= 1e-10


def test_refused_large_blocks_keep_the_factor_and_bytes_of_blocks_up_to_8():
    # 210 generated instances, 30 per dim 2-8: wherever A^32 and A^16 are
    # refused, the run steps by the factor and the A^k bytes that the rule of
    # blocks up to 8 gives, so its records keep their bytes
    kept = set()
    for seed in range(210):
        a = generate_instance(30000 + seed, InstanceSpec(dim=2 + seed % 7)).matrix.conj().T
        k, ak = powerit._block_power(a)
        if k <= 8:
            want_k, want_ak = block_power_to_8(a)
            assert (k, ak.tobytes()) == (want_k, want_ak.tobytes()), seed
            kept.add(k)
    assert kept == {4, 8}


@pytest.mark.parametrize("c", [1e200, 1e-200, 1e-160, 1e-40])
def test_flag_estimates_scale_with_the_matrix(monkeypatch, c):
    # the run steps on the unit of c * A, in A's blocks of 16, where A^2 of
    # c * A itself leaves float range at c = 1e±200 and its A^8 is subnormal
    # at c = 1e-40; no log of size |log c| is summed per step, and what is
    # left is the rounding of c's mantissa in the unit
    a, n = np.array([[1, 1], [0, 0.5]], dtype=complex), 4096
    block_power, factors = powerit._block_power, []

    def recorded(x):
        k, ak = block_power(x)
        factors.append(k)
        return k, ak

    monkeypatch.setattr(powerit, "_block_power", recorded)
    clear_memos()
    rel = 1e-11
    want = c * powerit.normalized_power(a, n)
    assert linalg.norm2(powerit.normalized_power(c * a, n) - want) <= rel * linalg.norm2(want)
    want = c * powerit.yamamoto_limits(a, n)
    assert powerit.yamamoto_limits(c * a, n) == pytest.approx(want, rel=rel)
    assert factors == [16, 16]  # one flag run on A*, one on c A*


def test_power_of_two_scaling_is_exact():
    # every power of A is unit * 2^e with an int e, and a flag run steps on
    # the unit, so each read-out of 2^j A is 2^j times that of A, bit for bit
    for dim in range(2, 9):
        a = generate_instance(20000 + dim, InstanceSpec(dim=dim)).matrix
        for j in (600, -600):
            c = 2.0**j
            for n in (16, 64, 4096):
                for read_out in (powerit.normalized_power, powerit.yamamoto_limits):
                    assert read_out(c * a, n).tobytes() == (c * read_out(a, n)).tobytes(), (dim, j, n)
                sp, sp_c = powerit.scaled_power(a, n), powerit.scaled_power(c * a, n)
                assert sp_c.unit.tobytes() == sp.unit.tobytes()
                assert sp_c.exponent == sp.exponent + j * n
            want = c * powerit.vector_exponent_estimates(a, np.eye(dim), 4096)
            assert powerit.vector_exponent_estimates(c * a, np.eye(dim), 4096).tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [1e200, 1e-200, 1e-160])
def test_orbit_estimates_scale_with_the_matrix(c):
    # the orbit's column norms are about c per step: their squares overflow
    # at 1e200, underflow at 1e-200 and are subnormal at 1e-160
    a = np.array([[1, 1], [0, 0.5]])
    want = powerit.vector_exponent_estimates(a, np.eye(2), 16)
    got = powerit.vector_exponent_estimates(c * a, np.eye(2), 16) / c
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_flag_run_refuses_more_than_max_steps(monkeypatch):
    # refused before its (n // k) x m diagonals, or anything else, are allocated
    def fail(*args, **kwargs):
        raise AssertionError("allocating")

    n = powerit._MAX_STEPS + 1
    monkeypatch.setattr(powerit, "_block_power", fail)  # the run's first step
    record = run_command(RunConfig(command="yamamoto", seed=1, params={"n": n}))
    assert [e["type"] for e in record.errors] == ["InvalidInput"]
    monkeypatch.setattr(np, "empty", fail)
    a = np.array([[1, 1], [0, 0.5]])
    with pytest.raises(InvalidInput, match="flag steps"):
        powerit.yamamoto_limits(a, n)
    with pytest.raises(InvalidInput, match="flag steps"):
        powerit.vector_exponent_estimates(a, np.eye(2), n)


@pytest.mark.parametrize("routine", ["zgeqrf", "zungqr"])
def test_flag_step_raises_on_lapack_failure(monkeypatch, routine):
    real = getattr(powerit.lapack, routine)
    monkeypatch.setattr(powerit.lapack, routine, lambda *a, **k: (*real(*a, **k)[:-1], -1))
    with pytest.raises(np.linalg.LinAlgError, match=routine):
        powerit._flag_steps(FIXTURE, np.eye(2, dtype=complex), np.empty((3, 2), dtype=complex))


@pytest.mark.parametrize("a", [1e-300, 1e-310, 5e-320])
def test_power_read_outs_of_a_matrix_with_a_subnormal_norm(a):
    # numpy divides by a norm through its reciprocal, which overflows at a
    # subnormal norm: the chain once raised LinAlgError from the SVD of inf
    assert powerit.yamamoto_limits([[a]], 16)[0] == pytest.approx(a, rel=1e-12)
    assert abs(powerit.normalized_power([[a]], 16)[0, 0]) == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize("n", [16, 4096])
def test_a_root_past_the_float_maximum_is_refused(n):
    # A is finite, but its root 2e308 is not: scaled back from the unit it
    # would be inf, and the read-outs once gave 0 for it without a word
    a = np.full((2, 2), 1e308)
    for read_out in (powerit.normalized_power, powerit.yamamoto_limits):
        with pytest.raises(InvalidInput, match="leaves float range"):
            read_out(a, n)
    with pytest.raises(InvalidInput, match="leaves float range"):
        powerit.vector_exponent_estimates(a, np.eye(2), 4096)


def test_normalized_power_nilpotent_is_zero():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert linalg.norm2(powerit.normalized_power(n, 8)) == 0.0
    assert np.all(powerit.yamamoto_limits(n, 8) == 0.0)


def test_yamamoto_fixture():
    assert powerit.yamamoto_limits(FIXTURE, 4096) == pytest.approx([2.0, 1.0], abs=1e-3)


def test_yamamoto_small_n_matches_svd(rng):
    a = random_complex(rng, (4, 4))
    n = 10
    s = np.linalg.svd(brute_force_power(a, n), compute_uv=False)
    assert powerit.yamamoto_limits(a, n) == pytest.approx(s ** (1.0 / n), rel=1e-10)


def test_vector_exponent_zero_vector_exact_zero():
    assert powerit.vector_exponent_estimates(FIXTURE, np.zeros(2), 4096)[0] == 0.0


def test_vector_exponent_dead_orbit_exact_zero():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert powerit.vector_exponent_estimates(n, [1.0, 0.0], 50)[0] == 0.0
    assert powerit.vector_exponent_estimates(n, [1.0, 0.0], 500)[0] == 0.0


def _vector_scale_cases():
    # the 2 x 2 vectors' exponents are 1, 0.5 ([1, -0.5] spans the 0.5
    # eigenspace), 1 and 1; the dim-4 instance takes random vectors
    yield pytest.param(
        np.array([[1, 1], [0, 0.5]], dtype=complex),
        np.array([[1, 0], [1, -0.5], [1, 1], [0, 1]], dtype=complex).T,
        id="fixture",
    )
    inst = generate_instance(31, InstanceSpec(dim=4))
    yield pytest.param(inst.matrix, random_complex(np.random.default_rng(31), (4, 3)), id="dim-4")


@pytest.mark.parametrize("n", ["exact", 16, 4096])
@pytest.mark.parametrize("c", [1e170, 1e-170, 1e300, 1e-300])
@pytest.mark.parametrize("a, xs", list(_vector_scale_cases()))
def test_vector_exponent_is_scale_free(a, xs, c, n):
    # ||c x|| overflows or underflows at these c, and x must not read as 0
    # or as a vector of the lowest level
    if n == "exact":
        dec = dunford(a)
        want = [vector_exponent_exact(dec, x) for x in xs.T]
        assert [vector_exponent_exact(dec, c * x) for x in xs.T] == want
    else:
        want = powerit.vector_exponent_estimates(a, xs, n)
        got = powerit.vector_exponent_estimates(a, c * xs, n)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert min(want) > 0.0


def test_vector_exponent_of_entries_whose_modulus_overflows():
    # |1.5e308 (1 + i)| is past float range though both parts are finite
    a = np.array([[1, 1], [0, 0.5]], dtype=complex)
    x = np.full(2, 1.5e308 * (1 + 1j))
    assert vector_exponent_exact(dunford(a), x) == vector_exponent_exact(dunford(a), [1, 1]) == 1.0
    for n in (16, 4096):
        want = powerit.vector_exponent_estimates(a, [1, 1], n)
        np.testing.assert_allclose(powerit.vector_exponent_estimates(a, x, n), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [1e-310, 5e-320])
def test_vector_exponent_of_a_subnormal_matrix(c):
    # the n <= 128 orbit once divided by a subnormal norm: inf + nan j
    (got,) = powerit.vector_exponent_estimates([[c]], [1.0], 16)
    assert got == pytest.approx(c, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [16, 4096])
def test_vector_exponent_refuses_three_dimensional_xs(n):
    # numpy's matmul ValueError once escaped
    with pytest.raises(InvalidInput, match="got shape"):
        powerit.vector_exponent_estimates(np.eye(2), np.ones((2, 2, 2)), n)


@pytest.mark.parametrize("x", [[np.inf, 1.0], [np.nan, 1.0], [1.0, complex(0.0, -np.inf)]])
def test_vector_exponent_refuses_non_finite_vectors(x):
    a = np.array([[1, 1], [0, 0.5]], dtype=complex)
    with pytest.raises(InvalidInput):
        powerit.vector_exponent_estimates(a, x, 4096)
    with pytest.raises(InvalidInput):
        vector_exponent_exact(dunford(a), x)


def test_vector_exponent_fixture():
    assert powerit.vector_exponent_estimates(FIXTURE, [1, 0], 4096)[0] == pytest.approx(1.0, abs=1e-3)
    assert powerit.vector_exponent_estimates(FIXTURE, [1, 1], 4096)[0] == pytest.approx(2.0, abs=1e-3)


def test_vector_exponent_small_n_is_literal(rng):
    a = random_complex(rng, (3, 3))
    x = random_complex(rng, 3)
    n = 20
    # the estimator normalizes x first, so the literal oracle does too
    lit = (np.linalg.norm(brute_force_power(a, n) @ x) / np.linalg.norm(x)) ** (1.0 / n)
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


@pytest.mark.parametrize("seed", [1, 4, None])
def test_convergence_study_errors_match_normalized_power(seed):
    # the instances take the exact path up to n = 64 and the flag after it;
    # the close moduli 1 and 0.99 keep the exact path up to n = 1024
    if seed is None:
        a = np.array([[1.0, 1.0], [0.0, 0.99]], dtype=complex)
    else:
        a = generate_instance(seed, InstanceSpec(dim=4)).matrix
    schedule = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    k = limit_operator(modulus_resolution(dunford(a))).matrix
    clear_memos()
    report = powerit.convergence_study(a, schedule, k)
    assert powerit._flag_run.cache_info().misses == 1  # one run for all flag-path n
    # each n here builds a squaring chain of its own, and each flag-path n
    # starts a flag run of its own; the exact-path n start none
    per_n = [float(linalg.norm2(powerit.normalized_power(a, n) - k)) for n in schedule]
    on_flag = powerit._flag_run.cache_info().misses - 1
    assert 0 < on_flag < len(schedule)
    assert np.array(report.errors).tobytes() == np.array(per_n).tobytes()


def _one_spectrum_cases():
    rng = np.random.default_rng(31)
    for n in (1, 12, 64):
        yield pytest.param(random_complex(rng, (4, 4)), n, False, id=f"exact-{n}")
    inst = generate_instance(20003, InstanceSpec(dim=5))
    yield pytest.param(inst.matrix, 4096, True, id="flag-4096")
    for name, a in (
        ("diag-1-0", np.diag([1.0, 0.0])),
        ("nilpotent", np.eye(3, k=1)),
        ("zero", np.zeros((3, 3))),
    ):
        for n in (1, 12, 4096):
            yield pytest.param(a.astype(complex), n, None, id=f"{name}-{n}")


@pytest.mark.parametrize("a, n, on_flag", list(_one_spectrum_cases()))
def test_normalized_power_spectrum_is_yamamoto_limits(a, n, on_flag):
    # one read-out gives both: the eigenvalues of |A^n|^(1/n) are s_j(A^n)^(1/n)
    clear_memos()
    eigs = np.sort(np.linalg.eigvalsh(powerit.normalized_power(a, n)))[::-1]
    if on_flag is not None:
        assert (powerit._flag_run.cache_info().misses == 1) == on_flag
    limits = powerit.yamamoto_limits(a, n)
    assert np.max(np.abs(eigs - limits)) <= 1e-12 * max(1.0, linalg.norm2(a))


def test_convergence_study_rejects_bad_schedule():
    with pytest.raises(InvalidInput):
        powerit.convergence_study(np.eye(2), [16, 16], np.eye(2))


def test_convergence_study_refuses_fractional_schedule():
    # int() once ran [16, 64] for this schedule
    with pytest.raises(InvalidInput, match="positive integer"):
        powerit.convergence_study(np.eye(2), [16.5, 64.2], np.eye(2))


@pytest.mark.parametrize("k", [np.eye(2), np.diag([1.0, np.nan, 0.5])])
def test_convergence_study_checks_limit_before_the_read_out(monkeypatch, k):
    def read_out(*args):
        raise AssertionError("read-out before the check")

    monkeypatch.setattr(powerit, "_power_roots", read_out)
    with pytest.raises(InvalidInput, match="limit_matrix"):
        powerit.convergence_study(np.diag([1.0, 0.7, 0.5]), [16, 4096], k)


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
        literal = psd_power(abs_op(brute_force_power(a, n)), 1.0 / n)
        assert linalg.norm2(side1 - literal) < 1e-9
        tn = brute_force_power(t, n)
        side2 = psd_power(s.conj().T @ tn.conj().T @ tn @ s, 1.0 / (2 * n))
        lo = linalg.norm2(s) ** (-1.0 / n)
        hi = linalg.norm2(np.linalg.inv(s)) ** (1.0 / n)
        assert loewner_leq(lo * side2, side1, 1e-9)
        assert loewner_leq(side1, hi * side2, 1e-9)


def test_similarity_equivalence_large_n_converges():
    inst = generate_instance(13, InstanceSpec(dim=3))
    s = random_invertible(np.random.default_rng(5), 3, delta=0.1)
    a = np.linalg.solve(s, inst.matrix @ s)
    k = limit_operator(modulus_resolution(dunford(a)))
    assert linalg.norm2(powerit.normalized_power(a, 2048) - k.matrix) < 1e-2
