"""Acceptance gate: every criterion from the release checklist, at its stated
tolerance.  The three large-n suites share one pass over a fixed family of 200
seeded instances (dims 2-8, modulus ratios >= 1.25, cond(S) <= 100) so the
expensive flag runs at n = 4096 are computed once per instance."""

import numpy as np
import pytest
import scipy.linalg

import satk
from satk import linalg, shifts
from satk.decomp import dunford, eigen_clusters
from satk.instances import InstanceSpec, generate_instance
from satk.powerit import normalized_power, vector_exponent_estimates, yamamoto_limits
from satk.resolution import limit_operator, modulus_resolution, vector_exponent_exact
from satk.semigroup import (
    exp_growth_estimate,
    exp_growth_exponent_exact,
    halfplane_resolution,
    semigroup_limit,
)
from satk.shifts import WeightSequence
from satk.cli import run_command
from satk.records import RunConfig

from conftest import (
    clear_memos,
    orthogonal_partition,
    random_complex,
    random_hermitian,
    random_invertible,
    random_projection,
    random_psd,
)
from oracles import (
    loewner_leq,
    psd_power,
    range_oracle,
    range_projection_above,
    spectral_radius,
    weighted_psd_sum_root,
)

N_MAIN = 4096
TOL_MAIN = 1e-3
SEED_BASE = 20000


@pytest.fixture(scope="module")
def main_family():
    """One pass over the 200 certified instances: all large-n errors at once,
    and the closed form against the range-projection oracle."""
    oracle_errors = []
    power_errors = []
    yamamoto_errors = []
    vector_errors = []
    for i in range(200):
        dim = 2 + i % 7
        inst = generate_instance(SEED_BASE + i, InstanceSpec(dim=dim))
        k = limit_operator(modulus_resolution(inst.decomposition))
        oracle_errors.append(linalg.norm2(k.matrix - range_oracle(inst.decomposition, np.abs, float)))
        power_errors.append(
            linalg.norm2(normalized_power(inst.matrix, N_MAIN) - k.matrix)
        )
        expected = np.sort(np.abs(np.array(inst.eigenvalues)))[::-1]
        yamamoto_errors.append(
            float(np.max(np.abs(yamamoto_limits(inst.matrix, N_MAIN) - expected)))
        )
        vec_rng = np.random.default_rng(SEED_BASE + i + 999)
        cols = [inst.generalized_eigenvectors[:, j] for j in range(dim)]
        for _ in range(5):
            c = vec_rng.standard_normal(dim) + 1j * vec_rng.standard_normal(dim)
            cols.append(inst.generalized_eigenvectors @ c)
        xs = np.stack(cols, axis=1)
        exact = np.array([vector_exponent_exact(inst.decomposition, x) for x in cols])
        est = vector_exponent_estimates(inst.matrix, xs, N_MAIN)
        vector_errors.append(float(np.max(np.abs(est - exact))))
    return power_errors, yamamoto_errors, vector_errors, oracle_errors


def test_closed_form_matches_range_oracle(main_family):
    *_, oracle_errors = main_family
    assert max(oracle_errors) <= 1e-12


def test_main_theorem_equivalence(main_family):
    power_errors, *_ = main_family
    assert len(power_errors) == 200
    assert max(power_errors) <= TOL_MAIN


def test_yamamoto_suite(main_family):
    _, yam_errors, *_ = main_family
    assert max(yam_errors) <= TOL_MAIN


def test_vector_exponent_suite(main_family):
    _, _, vec_errors, _ = main_family
    assert max(vec_errors) <= TOL_MAIN


def test_vector_exponent_degenerate_cases_exactly_zero():
    nilp = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert satk.vector_exponent_estimates(nilp, [1.0, 1.0, 1.0], N_MAIN)[0] == 0.0
    assert satk.vector_exponent_estimates(np.eye(3), np.zeros(3), N_MAIN)[0] == 0.0


# --- Operator-inequality and range-identity suite: 100 draws each, tol 1e-9 ---

INEQ_TOL = 1e-9


def _draws(seed, count=100):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, int(rng.integers(2, 7))


def test_norm_bounds_sandwich():
    for rng, m in _draws(101):
        x = random_hermitian(rng, m)
        nx = linalg.norm2(x)
        assert loewner_leq(-nx * np.eye(m), x, INEQ_TOL)
        assert loewner_leq(x, nx * np.eye(m), INEQ_TOL)


def test_positive_invertible_bounds():
    for rng, m in _draws(102):
        h = random_psd(rng, m) + 0.1 * np.eye(m)
        lo = 1.0 / linalg.norm2(np.linalg.inv(h))
        assert loewner_leq(lo * np.eye(m), h, INEQ_TOL)
        assert loewner_leq(h, linalg.norm2(h) * np.eye(m), INEQ_TOL)


def test_conjugation_preserves_order():
    for rng, m in _draws(103):
        a = random_hermitian(rng, m)
        b = a + random_psd(rng, m)
        t = random_complex(rng, (m, m))
        assert loewner_leq(
            t.conj().T @ a @ t, t.conj().T @ b @ t, INEQ_TOL * max(1.0, linalg.norm2(t) ** 2)
        )


def test_root_is_operator_monotone():
    for rng, m in _draws(104):
        h = random_psd(rng, m)
        k = h + random_psd(rng, m)
        n = int(rng.integers(1, 9))
        assert loewner_leq(psd_power(h, 1.0 / n), psd_power(k, 1.0 / n), 1e-8)


def test_shifted_power_root_bound():
    for rng, m in _draws(105):
        h = random_psd(rng, m)
        alpha = float(rng.uniform(0.0, 2.0))
        n = int(rng.integers(1, 17))
        w, v = np.linalg.eigh(h)
        hn = (v * np.maximum(w, 0.0) ** n) @ v.conj().T
        lhs = psd_power(hn + alpha**n * np.eye(m), 1.0 / n)
        assert loewner_leq(lhs, h + alpha * np.eye(m), 1e-8)


def test_range_projection_order_preserved():
    for rng, m in _draws(106):
        h = random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
        k = h + random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
        assert loewner_leq(linalg.range_projection(h), linalg.range_projection(k), 1e-8)


def test_range_of_congruence_drops_right_factor():
    for rng, m in _draws(107):
        e = random_projection(rng, m, int(rng.integers(1, m)))
        s = random_invertible(rng, m)
        lhs = linalg.range_projection(s.conj().T @ e @ s)
        rhs = linalg.range_projection(s.conj().T @ e)
        assert linalg.norm2(lhs - rhs) < INEQ_TOL * 10


def test_range_complement_rearrangement():
    for rng, m in _draws(108):
        e = random_projection(rng, m, int(rng.integers(1, m)))
        s = random_invertible(rng, m)
        lhs = range_projection_above(s.conj().T @ e @ s, 1e-8)
        rhs = np.eye(m) - range_projection_above(np.linalg.solve(s, (np.eye(m) - e) @ s), 1e-8)
        assert linalg.norm2(lhs - rhs) < INEQ_TOL


def test_psd_root_converges_geometrically_to_range():
    # H^(1/n) -> R(H); on a doubling schedule the error keeps halving
    for rng, m in _draws(109):
        h = random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
        h /= np.linalg.eigvalsh(h)[-1]  # top eigenvalue 1, range spectrum in (0, 1]
        p = linalg.range_projection(h)
        errors = [
            linalg.norm2(psd_power(h, 1.0 / n) - p) for n in (64, 128, 256, 512)
        ]
        assert errors[-1] < 0.5
        for prev, curr in zip(errors, errors[1:]):
            if prev > 1e-12:
                assert curr <= 0.6 * prev


def test_commuting_nilpotent_perturbation_spectrum():
    for rng, m in _draws(110):
        # commuting pair inside one triangularization: T block-scalar, Q
        # strictly upper within the blocks
        sizes = []
        left = m
        while left:
            take = 2 if (left >= 2 and rng.random() < 0.5) else 1
            sizes.append(take)
            left -= take
        tt = np.zeros((m, m), dtype=complex)
        qq = np.zeros((m, m), dtype=complex)
        pos = 0
        for idx, sz in enumerate(sizes):
            lam = (1.0 + idx) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            tt[pos : pos + sz, pos : pos + sz] = lam * np.eye(sz)
            if sz == 2:
                qq[pos, pos + 1] = 0.01 * rng.standard_normal()
            pos += sz
        s = random_invertible(rng, m)
        t = np.linalg.solve(s, tt) @ s
        q = np.linalg.solve(s, qq) @ s
        a_clusters = eigen_clusters(t + q)
        b_clusters = eigen_clusters(t)
        key = lambda c: (c.representative.real, c.representative.imag)
        got = [(c.representative, c.multiplicity) for c in sorted(a_clusters, key=key)]
        want = [(c.representative, c.multiplicity) for c in sorted(b_clusters, key=key)]
        assert len(got) == len(want)
        for (za, ma), (zb, mb) in zip(got, want):
            assert abs(za - zb) <= 1e-6 * max(1.0, linalg.norm2(t + q))
            assert ma == mb
        assert spectral_radius(t @ q) <= 1e-6 * linalg.norm2(t) * linalg.norm2(q)


def test_normal_plus_nilpotent_power_sandwich():
    # (1-eps)^2n (N*N)^n E' <= ((N+Q)^n)* (N+Q)^n
    #                       <= (1+eps)^2n (N*N)^n E' + (2 eps)^2n E,  n=512, eps=0.1
    eps, n = 0.1, 512
    for rng, m in _draws(111):
        u, _ = np.linalg.qr(random_complex(rng, (m, m)))
        vals = rng.uniform(0.95, 1.15, size=m)
        if rng.random() < 0.3:
            vals[0] = 0.01  # one eigenvalue inside the eps-disc
        if m >= 2:
            vals[-2] = vals[-1]  # repeated pair hosting the nilpotent
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=m))
        phases[-2] = phases[-1]
        lam = vals * phases
        nmat = (u * lam) @ u.conj().T
        q0 = np.zeros((m, m), dtype=complex)
        if m >= 2:
            q0[-2, -1] = 0.01
        q = u @ q0 @ u.conj().T
        mid_half = np.linalg.matrix_power(nmat + q, n)
        mid = mid_half.conj().T @ mid_half
        inner = (u * (np.abs(lam) ** (2 * n))) @ u.conj().T
        e_in = (u * (np.abs(lam) < eps)) @ u.conj().T
        e_out = np.eye(m) - e_in
        lhs = (1 - eps) ** (2 * n) * (inner @ e_out)
        with np.errstate(under="ignore"):
            rhs = (1 + eps) ** (2 * n) * (inner @ e_out) + (2 * eps) ** (2 * n) * e_in
        scale = max(linalg.norm2(mid), linalg.norm2(rhs))
        assert loewner_leq(lhs, mid, 1e-9 * scale)
        assert loewner_leq(mid, rhs, 1e-9 * scale)


# --- Weighted projection-sum limits -------------------------------------------


def test_weighted_projection_sum_root_agreement():
    # weights must stay within the eigensolver's n-th root resolution at n=512
    n = 512
    weights = (0.94, 0.97, 1.0)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(4, 7))
        es = orthogonal_partition(rng, m, 3)
        s = random_invertible(rng, m, delta=0.05)
        terms = [(a, s.conj().T @ e @ s) for a, e in zip(weights, es)]
        got = weighted_psd_sum_root(terms, n)
        prev = np.zeros((m, m), dtype=complex)
        want = np.zeros((m, m), dtype=complex)
        acc = np.zeros((m, m), dtype=complex)
        for a, e in zip(weights, es):
            acc = acc + e
            f = linalg.range_projection(np.linalg.solve(s, acc @ s))
            want += a * (f - prev)
            prev = f
        worst = max(worst, linalg.norm2(got - want))
    assert worst <= 1e-3


def test_hermitian_congruence_power_limit():
    n = 1024
    levels = np.array([0.97, 0.985, 1.0])
    rng = np.random.default_rng(32)
    for _ in range(20):
        m = int(rng.integers(3, 7))
        u, _ = np.linalg.qr(random_complex(rng, (m, m)))
        vals = levels[rng.integers(0, 3, size=m)]
        vals[rng.integers(0, m)] = 1.0  # make sure the top level is occupied
        h = (u * vals) @ u.conj().T
        s = random_invertible(rng, m, delta=0.05)
        hn = (u * vals**n) @ u.conj().T
        got = psd_power(s.conj().T @ hn @ s, 1.0 / n)
        # oracle: integral against F_lambda = R(S^-1 E_lambda S)
        prev = np.zeros((m, m), dtype=complex)
        want = np.zeros((m, m), dtype=complex)
        for lev in sorted(set(np.round(vals, 12))):
            e_le = (u * (vals <= lev + 1e-9)) @ u.conj().T
            f = linalg.range_projection(np.linalg.solve(s, e_le @ s))
            want += lev * (f - prev)
            prev = f
        assert linalg.norm2(got - want) <= 1e-2
        # spectrum of the limit coincides with sp(H)
        got_spec = np.sort(np.linalg.eigvalsh(want))
        assert np.max(np.abs(got_spec - np.sort(vals))) <= 1e-9


# --- Semigroup suite ----------------------------------------------------------

GAPPED = InstanceSpec(min_real_gap=0.2)


def test_semigroup_limit_spectrum_exact():
    for i in range(20):
        dim = 2 + i % 7
        inst = generate_instance(61000 + i, InstanceSpec(dim=dim))
        k = semigroup_limit(halfplane_resolution(inst.decomposition))
        expected = np.sort(np.exp(np.real(np.array(inst.eigenvalues))))
        got = np.sort(np.linalg.eigvalsh(k.matrix))
        assert np.max(np.abs(got - expected)) <= 1e-6


def test_exp_growth_estimate_t200():
    for i in range(10):
        dim = 2 + i % 4
        inst = generate_instance(
            62000 + i, InstanceSpec(dim=dim, min_real_gap=0.2)
        )
        for j in range(dim):
            x = inst.generalized_eigenvectors[:, j]
            exact = exp_growth_exponent_exact(inst.decomposition, x)
            est = exp_growth_estimate(inst.matrix, x, 200.0)
            assert abs(est - exact) <= 1e-2


def test_discrete_continuous_agreement():
    # |exp(A)^n|^(1/n) at n = 2^12 against the half-plane closed form
    for i in range(20):
        dim = 2 + i % 4
        inst = generate_instance(42000 + i, InstanceSpec(dim=dim, min_real_gap=0.3))
        k = semigroup_limit(halfplane_resolution(inst.decomposition))
        e = scipy.linalg.expm(inst.matrix)
        assert linalg.norm2(normalized_power(e, 4096) - k.matrix) <= 1e-3


# --- Shift suite --------------------------------------------------------------


def test_shift_harmonic_geometric_converge():
    for w in (WeightSequence("harmonic"), WeightSequence("geometric", ratio=0.5)):
        table = shifts.geometric_mean_table(w, 64, 256)
        det = shifts.uniform_limit_detector(table)
        assert det.converged
        assert det.alpha <= 1e-2


def test_shift_constant_converges_to_level():
    table = shifts.geometric_mean_table(WeightSequence("constant", level=1.5), 64, 256)
    det = shifts.uniform_limit_detector(table)
    assert det.converged
    assert abs(det.alpha - 1.5) <= 1e-10


def test_shift_blocks_not_converged():
    table = shifts.geometric_mean_table(WeightSequence("blocks", level=2.0), 64, 256)
    assert not shifts.uniform_limit_detector(table).converged


def test_shift_power_crosscheck_all_kinds():
    for w in (
        WeightSequence("harmonic"),
        WeightSequence("geometric", ratio=0.5),
        WeightSequence("constant", level=1.5),
        WeightSequence("blocks", level=2.0),
    ):
        assert shifts.shift_power_crosscheck(w, 256, 32) <= 1e-10
    # past n = 128, where the public vector estimator would switch to flag
    # rates; blocks keep the window means of order one, so a wrong kernel shows
    assert shifts.shift_power_crosscheck(WeightSequence("blocks", level=2.0), 400, 150) <= 1e-10


# --- Determinism --------------------------------------------------------------


def test_sweep_byte_identical_across_invocations():
    params = {"count": 6, "n": 2048, "tol": 2e-3}
    first = run_command(RunConfig(command="sweep", seed=77, params=dict(params)))
    clear_memos()  # the repeat recomputes every memoized result
    again = run_command(RunConfig(command="sweep", seed=77, params=dict(params)))
    assert again.to_json() == first.to_json()
    assert first.passed


# --- Known exact fixtures -----------------------------------------------------


def test_known_fixture_suite():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    dec = dunford(a)
    res = modulus_resolution(dec)
    k = limit_operator(res)
    assert linalg.norm2(k.matrix - np.diag([1.0, 2.0])) <= 1e-3
    assert linalg.norm2(res.projections[0] - np.diag([1.0, 0.0])) <= 1e-3
    assert linalg.norm2(normalized_power(a, 4096) - np.diag([1.0, 2.0])) <= 1e-3
    assert yamamoto_limits(a, 4096) == pytest.approx([2.0, 1.0], abs=1e-3)
    assert satk.vector_exponent_estimates(a, [1, 0], 4096)[0] == pytest.approx(1.0, abs=1e-3)
    assert satk.vector_exponent_estimates(a, [1, 1], 4096)[0] == pytest.approx(2.0, abs=1e-3)
    assert exp_growth_estimate(a, [1, 0], 200.0) == pytest.approx(1.0, abs=1e-3)
    assert exp_growth_exponent_exact(dec, [1, 0]) == pytest.approx(1.0, abs=1e-9)
