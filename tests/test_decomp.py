import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satk import decomp, linalg
from satk.errors import IllConditioned, InvalidInput
from satk.instances import InstanceSpec, generate_instance
from satk.resolution import modulus_resolution

from conftest import clear_memos, dt_like, random_complex, similar_jordan
from oracles import idempotent_per_cluster, level_cuts


def test_eigen_clusters_merges_close_values():
    a = np.diag([1.0, 1.0 + 1e-9, 3.0]).astype(complex)
    clusters = decomp.eigen_clusters(a)
    assert sorted(c.multiplicity for c in clusters) == [1, 2]


def test_eigen_clusters_count_an_overflowing_gap_as_apart():
    # ||A|| is finite, |z - (-z)| is not: the gap is inf, not an OverflowError
    z = 0.65e308 * (1 + 1j)
    assert [c.members for c in decomp.eigen_clusters(np.diag([z, -z]))] == [(-z,), (z,)]


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


_PARTS = st.floats(allow_nan=False, allow_infinity=False, max_value=1e300, min_value=-1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_PARTS, _PARTS, st.integers(0, 3)), min_size=1, max_size=9),
    st.booleans(),
)
def test_cluster_means_are_numpy_means_to_the_bit(entries, real):
    # a singleton's mean too: np.mean([-0.0]) is +0.0
    values = np.array([complex(re, im) for re, im, _ in entries])
    values = values.real.copy() if real else values
    labels = [label for _, _, label in entries]
    groups = [[i for i, x in enumerate(labels) if x == label] for label in sorted(set(labels))]
    means = decomp.cluster_means(values, groups)
    assert [m.tobytes() for m in means] == [np.mean(values[g]).tobytes() for g in groups]


def test_cluster_means_refuses_a_mean_past_float_range():
    # a sum past float range is not a mean past it: the members are divided
    # by the count first; only a non-finite member leaves the mean out of range
    means = decomp.cluster_means(np.array([1.0, 1.5e308, 1e308]), [[0], [1, 2]])
    assert means.tolist() == [1.0, 1.25e308]
    with pytest.raises(InvalidInput, match="the mean of the 2 clustered values near inf leaves float range"):
        decomp.cluster_means(np.array([1.0, np.inf, 1e308]), [[0], [1, 2]])


def _ordered_pass_cases():
    """(A, tol): the acceptance family, and nearly equal moduli with
    idempotent norms up to 1e9.  At m = 32 the two constructions of an
    idempotent differ by up to 1.2e-11 ||P||, while both are 6.5e-9 to
    1.9e-7 ||P|| from a 50-digit mpmath reference: the error of the shared
    Schur form, which neither cut order changes."""
    for i in range(200):
        yield generate_instance(20000 + i, InstanceSpec(dim=2 + i % 7)).matrix, 1e-13
    for m, tol in ((16, 1e-13), (32, 1e-10)):
        for seed in (1, 2, 3, 5):
            yield dt_like(seed, m), tol


def test_ordered_pass_idempotents_match_one_reorder_per_cluster():
    # the prefix differences of the one pass are the idempotents each
    # cluster's own reorder of the unordered Schur form gives
    for a, tol in _ordered_pass_cases():
        clusters, idempotents, _, _ = decomp.ordered_schur(a, np.abs)
        for cluster, p in zip(clusters, idempotents):
            want = idempotent_per_cluster(a, cluster)
            assert linalg.norm2(p - want) <= tol * max(1.0, linalg.norm2(want))


def test_ordered_pass_keeps_the_level_cuts_before_a_shared_level():
    # up to the first level of two or more clusters the pass makes the cuts
    # of one reorder per level, so those F_j keep every byte
    shared = 0
    for a, _ in _ordered_pass_cases():
        clusters, _, levels, projections = decomp.ordered_schur(a, np.abs)
        want_levels, want, sizes = level_cuts(a, np.abs, clusters)
        assert levels == want_levels
        first = next((j for j, size in enumerate(sizes) if size > 1), len(sizes))
        shared += first < len(sizes)
        assert [f.tobytes() for f in projections[:first]] == [f.tobytes() for f in want[:first]]
        assert all(linalg.norm2(f - g) <= 1e-13 for f, g in zip(projections[first:], want[first:]))
    assert shared > 0  # the family has levels shared by two clusters
