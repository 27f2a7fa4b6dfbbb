import numpy as np
import pytest

from satk import linalg


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng, m, scale=1.0):
    b = random_complex(rng, (m, m), scale)
    return 0.5 * (b + b.conj().T)


def random_psd(rng, m, rank=None, scale=1.0):
    r = m if rank is None else rank
    b = random_complex(rng, (r, m), scale)
    return b.conj().T @ b


def random_projection(rng, m, rank):
    """Orthogonal projection of the given rank."""
    q, _ = np.linalg.qr(random_complex(rng, (m, m)))
    return q[:, :rank] @ q[:, :rank].conj().T


def random_invertible(rng, m, delta=0.3, cond_cap=50.0):
    while True:
        s = np.eye(m, dtype=np.complex128) + delta * random_complex(rng, (m, m)) / np.sqrt(m)
        if np.linalg.cond(s) <= cond_cap:
            return s
        delta *= 0.5


def similar_jordan(k):
    """S^-1 (J_k(0.5) + [1]) S with S = I + 0.1 G, G from default_rng(0)."""
    g = np.random.default_rng(0).standard_normal((k + 1, k + 1))
    s = np.eye(k + 1) + 0.1 * g
    j = np.diag(np.r_[np.full(k, 0.5), 1.0]) + np.diag(np.r_[np.ones(k - 1), 0.0], 1)
    return np.linalg.solve(s, j @ s)


def orthogonal_partition(rng, m, k):
    """Mutually orthogonal projections E_1..E_k with sum I."""
    q, _ = np.linalg.qr(random_complex(rng, (m, m)))
    cuts = sorted(rng.choice(np.arange(1, m), size=k - 1, replace=False)) if k > 1 else []
    bounds = [0, *cuts, m]
    return [
        q[:, a:b] @ q[:, a:b].conj().T
        for a, b in zip(bounds, bounds[1:])
    ]


def range_oracle(dec, key, weight):
    """sum_j w(a_j) (R(e_j) - R(e_{j-1})), with R(e_j) the range projection
    of the certified idempotent sum over the levels <= a_j."""
    keys = np.array([key(p.cluster.representative) for p in dec.idempotents])
    ordered = np.sort(keys)
    tops = [*ordered[:-1][np.diff(ordered) > 1e-9], ordered[-1]]
    m = dec.dim
    out = np.zeros((m, m), dtype=complex)
    prev = np.zeros((m, m), dtype=complex)
    below = -np.inf
    for top in tops:
        level = float(np.mean(keys[(keys > below) & (keys <= top)]))
        f = linalg.range_projection(sum(p.matrix for p, v in zip(dec.idempotents, keys) if v <= top))
        out += weight(level) * (f - prev)
        prev, below = f, top
    return out
