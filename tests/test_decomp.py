import numpy as np
import pytest

from satk import decomp, linalg
from satk.errors import IllConditioned
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import modulus_resolution

from conftest import clear_memos, random_complex, similar_jordan


def test_eigen_clusters_merges_close_values():
    a = np.diag([1.0, 1.0 + 1e-9, 3.0]).astype(complex)
    clusters = decomp.eigen_clusters(a)
    assert sorted(c.multiplicity for c in clusters) == [1, 2]


def test_eigen_clusters_sorted_and_separated(rng):
    a = random_complex(rng, (6, 6))
    clusters = decomp.eigen_clusters(a)
    reps = [c.representative for c in clusters]
    assert reps == sorted(reps, key=lambda z: (z.real, z.imag))
    assert sum(c.multiplicity for c in clusters) == 6


def test_spectral_idempotent_matches_ground_truth():
    # 30 certified instances: computed idempotents must match the exact ones
    worst = 0.0
    for i in range(30):
        inst = generate_instance(7000 + i, InstanceSpec(dim=2 + i % 6))
        dec = decomp.dunford(inst.matrix)
        truth = {
            (round(p.cluster.representative.real, 6), round(p.cluster.representative.imag, 6)): p.matrix
            for p in inst.decomposition.idempotents
        }
        assert len(dec.idempotents) == len(truth)
        for p in dec.idempotents:
            key = (round(p.cluster.representative.real, 6), round(p.cluster.representative.imag, 6))
            worst = max(worst, linalg.norm2(p.matrix - truth[key]))
    assert worst < 1e-7


def test_idempotents_sum_to_identity_and_annihilate(rng):
    for i in range(10):
        inst = generate_instance(7100 + i, InstanceSpec(dim=5))
        dec = decomp.dunford(inst.matrix)
        total = sum(p.matrix for p in dec.idempotents)
        assert linalg.norm2(total - np.eye(5)) < 1e-8
        for i1, p1 in enumerate(dec.idempotents):
            for i2, p2 in enumerate(dec.idempotents):
                prod = p1.matrix @ p2.matrix
                target = p1.matrix if i1 == i2 else np.zeros((5, 5))
                assert linalg.norm2(prod - target) < 1e-7


def test_dunford_properties(rng):
    for i in range(20):
        m = 2 + i % 6
        inst = generate_instance(7200 + i, InstanceSpec(dim=m))
        dec = decomp.dunford(inst.matrix)
        d, n = dec.scalar_part, dec.nilpotent_part
        assert linalg.norm2(d + n - inst.matrix) < 1e-8
        assert linalg.norm2(d @ n - n @ d) < 1e-8
        assert linalg.norm2(np.linalg.matrix_power(n, m)) < 1e-8


def test_dunford_known_fixture():
    dec = decomp.dunford(np.array([[1, 1], [0, 2]], dtype=complex))
    assert linalg.norm2(dec.scalar_part - np.array([[1, 1], [0, 2]])) < 1e-12
    assert linalg.norm2(dec.nilpotent_part) < 1e-12


def test_dunford_jordan_block():
    a = np.array([[2, 1], [0, 2]], dtype=complex)
    dec = decomp.dunford(a)
    assert linalg.norm2(dec.scalar_part - 2 * np.eye(2)) < 1e-10
    assert linalg.norm2(dec.nilpotent_part - np.array([[0, 1], [0, 0]])) < 1e-10


def test_modulus_levels_partition_identity():
    # sum_P P = I, split at every modulus level into the disc and its
    # complement; the disc idempotent is an oblique projection onto F_j
    inst = generate_instance(321, InstanceSpec(dim=6))
    dec = decomp.dunford(inst.matrix)
    res = modulus_resolution(dec)
    assert linalg.norm2(sum(p.matrix for p in dec.idempotents) - np.eye(6)) < 1e-8
    for level, f in zip(res.levels, res.projections):
        inside = sum(
            (p.matrix for p in dec.idempotents if abs(p.cluster.representative) <= level + 1e-9),
            np.zeros((6, 6)),
        )
        outside = sum(
            (p.matrix for p in dec.idempotents if abs(p.cluster.representative) > level + 1e-9),
            np.zeros((6, 6)),
        )
        assert linalg.norm2(inside + outside - np.eye(6)) < 1e-8
        assert linalg.norm2(f @ inside - inside) < 1e-8
        assert linalg.norm2(inside @ f - f) < 1e-8


def test_scalar_part_is_weighted_idempotent_sum():
    # D = sum_P lambda_P P against the certified idempotents, and D P = lambda_P P
    for i in range(10):
        inst = generate_instance(7300 + i, InstanceSpec(dim=5))
        dec = decomp.dunford(inst.matrix)
        truth = sum(p.cluster.representative * p.matrix for p in inst.decomposition.idempotents)
        assert linalg.norm2(dec.scalar_part - truth) < 1e-8
        for p in dec.idempotents:
            lam_p = p.cluster.representative * p.matrix
            assert linalg.norm2(dec.scalar_part @ p.matrix - lam_p) < 1e-8


def test_close_eigenvalues_cluster_into_usable_projector():
    # nearly defective pair: within 1e-6 ||A|| = 1, so one cluster, and as a
    # single cluster the projector is benign
    a = np.array([[1.0, 1e6], [0.0, 1.0 + 1e-4]], dtype=complex)
    clusters = decomp.eigen_clusters(a)
    assert len(clusters) == 1
    p = decomp.spectral_idempotent(a, clusters[0])
    assert linalg.norm2(p.matrix - np.eye(2)) < 1e-10


def test_dunford_makes_one_schur_form(monkeypatch):
    # three clusters (one a 2 x 2 Jordan block), one zgees call: the clusters
    # and every idempotent come from the same Schur form
    calls = []
    zgees = decomp.lapack.zgees
    monkeypatch.setattr(decomp.lapack, "zgees", lambda *args, **kw: calls.append(1) or zgees(*args, **kw))
    clear_memos()
    t = np.array([[1, 0.3, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0.5], [0, 0, 0, 3j]], dtype=complex)
    s = np.eye(4) + 0.1 * random_complex(np.random.default_rng(5), (4, 4))
    dec = decomp.dunford(np.linalg.solve(s, t @ s))
    assert len(calls) == 1
    assert sorted(p.cluster.multiplicity for p in dec.idempotents) == [1, 1, 2]
    assert linalg.norm2(sum(p.matrix for p in dec.idempotents) - np.eye(4)) < 1e-10


def test_dunford_refuses_similar_jordan_block():
    # rounding splits the Jordan eigenvalue 0.5 into clusters whose Schur
    # split has sep ~ eps ||A||: refused, with the sep as the residual, at
    # every scale s (an absolute cluster tolerance once merged the scattered
    # eigenvalues below s = 1e-2, and at 1e-8 the level 1 with them)
    for s in (1.0, 1e-2, 1e-4, 1e-8):
        a = s * similar_jordan(4)
        with pytest.raises(IllConditioned) as err:
            decomp.dunford(a)
        assert 0.0 < err.value.residual < decomp.SEP_FLOOR * linalg.norm2(a)
        # a refusal is not memoized: the repeat refuses again, with the same sep
        with pytest.raises(IllConditioned) as again:
            decomp.dunford(a)
        assert again.value.residual == err.value.residual
