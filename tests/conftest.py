import importlib
import pkgutil

import numpy as np
import pytest

import satk


def satk_memos():
    """satk's stdlib memos: every attribute with ``cache_clear`` of every satk module."""
    modules = [satk] + [importlib.import_module(f"satk.{m.name}") for m in pkgutil.iter_modules(satk.__path__)]
    memos = {id(obj): obj for mod in modules for obj in vars(mod).values() if hasattr(obj, "cache_clear")}
    return list(memos.values())


def clear_memos():
    """Empty satk's stdlib memos, so a test that counts calls starts cold
    whatever ran before it."""
    for memo in satk_memos():
        memo.cache_clear()


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


def dt_like(seed, m, s=1 / np.sqrt(2)):
    """Q T Q*: T with eigenvalues uniform in the unit disc and a strictly upper
    complex Gaussian part scaled by s, Q a random unitary."""
    rng = np.random.default_rng(seed)
    eigs = np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
    g = rng.standard_normal((2, m, m))
    t = np.diag(eigs) + s * np.triu(g[0] + 1j * g[1], 1) / np.sqrt(2)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q @ t @ q.conj().T
