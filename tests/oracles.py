"""Independent oracles the tests compare satk against.

Dense operator-inequality tools (the Loewner lemmas of the paper's proof are
checked with them), literal matrix powers, binary powering of one n on its
own, a flag run stopped at every read-out point and read out one n at a
time, the range-projection form of the limit, the Schur splits made one
cluster and one level at a time, the inverses of satk's writers, and the
entry-by-entry forms of the matrix reader and the record converter that
satk's whole-array ones must match to the bit.  None of them is on a
computing path of satk, so they live here and not in ``src/``.
"""

import csv
import json
import math

import numpy as np

from satk import decomp, linalg, powerit
from satk.errors import InvalidInput, ParseError
from satk.mmio import MAX_DIM
from satk.powerit import ScaledPower

# PSD_TOL is the relative slack allowed for roundoff negativity; HERM_TOL
# bounds the skew part accepted by hermitian routines.
PSD_TOL = 1e-10
HERM_TOL = 1e-10


def as_hermitian(a, tol: float = HERM_TOL) -> np.ndarray:
    """Validate hermitianness (relative max-norm) and return the symmetrized matrix."""
    m = linalg.as_matrix(a)
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.conj().T).max() > tol * scale:
        raise InvalidInput("matrix is not hermitian within tolerance")
    return 0.5 * (m + m.conj().T)


def abs_op(t) -> np.ndarray:
    """The operator absolute value |T| = (T*T)^(1/2), via the SVD of T."""
    t = linalg.as_matrix(t)
    u, s, vh = np.linalg.svd(t)
    return vh.conj().T @ (s[:, None] * vh)


def psd_power(h, p: float, rank_tol: float | None = None) -> np.ndarray:
    """Eigenvalue power H^p of a PSD matrix, with 0^p := 0.

    Eigenvalues below ``rank_tol * lambda_max`` are treated as exact zeros so
    fractional powers do not resurrect numerical noise.
    """
    if p <= 0:
        raise InvalidInput(f"exponent must be positive, got {p}")
    h = as_hermitian(h)
    w, v = np.linalg.eigh(h)
    if rank_tol is None:  # the default cut of linalg.range_projection
        rank_tol = h.shape[0] * np.finfo(float).eps
    cut = rank_tol * max(w[-1], 0.0)
    w = np.where(w > cut, w, 0.0)
    pw = np.zeros_like(w)
    np.power(w, p, out=pw, where=w > 0)
    return (v * pw) @ v.conj().T


def range_projection_above(t, rank_tol: float) -> np.ndarray:
    """Orthogonal projection onto the left singular vectors of T whose
    singular values exceed ``rank_tol * s_max``: ``linalg.range_projection``
    with a cut of the caller's choosing."""
    u, s, _ = np.linalg.svd(linalg.as_matrix(t))
    ur = u[:, : int(np.count_nonzero(s > rank_tol * s[0]))]
    return ur @ ur.conj().T


def loewner_leq(a, b, tol: float = PSD_TOL) -> bool:
    """Whether A <= B in the Loewner order, up to ``tol`` on the smallest eigenvalue."""
    a = as_hermitian(a)
    b = as_hermitian(b)
    if a.shape != b.shape:
        raise InvalidInput(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.eigvalsh(b - a)[0]) >= -tol


def weighted_psd_sum_root(terms, n: int) -> np.ndarray:
    """(sum_i a_i^n H_i)^(1/n) for strictly increasing weights a_1 < ... < a_k >= 0.

    The top weight is factored out before summation so a_i^n never leaves the
    float range; the surviving ratios (a_i/a_k)^n underflow harmlessly to 0.
    """
    if n < 1 or int(n) != n:
        raise InvalidInput(f"n must be a positive integer, got {n}")
    weights = [float(a) for a, _ in terms]
    if not terms:
        raise InvalidInput("need at least one (weight, matrix) term")
    if any(a < 0 for a in weights):
        raise InvalidInput("weights must be non-negative")
    if any(b <= a for a, b in zip(weights, weights[1:])):
        raise InvalidInput("weights must be strictly increasing")
    mats = [as_hermitian(h) for _, h in terms]
    dim = mats[0].shape[0]
    if any(h.shape[0] != dim for h in mats):
        raise InvalidInput("all matrices must share one dimension")
    top = weights[-1]
    if top == 0.0:
        return np.zeros((dim, dim), dtype=np.complex128)
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for a, h in zip(weights, mats):
        ratio = a / top
        if ratio > 0.0:
            with np.errstate(under="ignore"):
                acc += ratio**n * h
    return top * psd_power(acc, 1.0 / n)


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus."""
    a = linalg.as_matrix(a)
    return float(np.abs(np.linalg.eigvals(a)).max())


def brute_force_power(a, n: int) -> np.ndarray:
    """Plain repeated multiplication, the independent oracle for small n."""
    a = linalg.as_matrix(a)
    if n < 1 or int(n) != n:
        raise InvalidInput(f"n must be a positive integer, got {n}")
    if n > 64:
        raise InvalidInput("brute force is limited to n <= 64")
    out = a.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(n) - 1):
            out = out @ a
            if not np.all(np.isfinite(out.view(np.float64))):
                raise OverflowError(f"entries overflowed at power {n}")
    return out


def scaled_power_per_n(a, n: int):
    """A^n by binary exponentiation from A itself, renormalized to unit spectral
    norm per multiply: the powering of one n on its own, the byte-identity
    reference for the shared squaring chain of ``powerit._scaled_powers``."""
    a = linalg.as_matrix(a)
    m = a.shape[0]

    def normalized(x, log):
        s = linalg.norm2(x)
        if s == 0.0:
            return None
        return x / s, log + np.log(s)

    base = normalized(a, 0.0)
    acc = (np.eye(m, dtype=np.complex128), 0.0)
    while n:
        if base is None:
            acc = None
            break
        if n & 1:
            acc = normalized(acc[0] @ base[0], acc[1] + base[1])
            if acc is None:
                break
        n >>= 1
        if n:
            base = normalized(base[0] @ base[0], 2.0 * base[1])
    if acc is None:
        return ScaledPower(unit=np.zeros_like(a), log_scale=0.0, is_zero=True)
    return ScaledPower(unit=acc[0], log_scale=float(acc[1]))


def scaled_matrix(sp) -> np.ndarray:
    """The matrix exp(log_scale) * unit that a ``ScaledPower`` stands for."""
    if sp.is_zero:
        return np.zeros_like(sp.unit)
    return np.exp(sp.log_scale) * sp.unit


def tail_levels(at, ns):
    """levels exp(tail / window) at each n in ns, one n at a time, from the
    logs at[p] after p steps: a dead direction's tail (-inf logs at n), nan
    and +inf go to -inf, and a non-finite level to 0."""
    out = []
    for n in ns:
        window = max(1, n // 4)
        with np.errstate(invalid="ignore"):
            tail = at[n] - at[n - window]
            tail[np.isneginf(at[n])] = -np.inf
            levels = np.exp(np.nan_to_num(tail, nan=-np.inf, posinf=-np.inf) / window)
        out.append(np.nan_to_num(levels, nan=0.0, posinf=0.0))
    return out


def flag_run_per_point(a, ns):
    """``powerit._flag_run`` with its block trunk stopped at every read-out
    point and window start p, each p branching p % k single steps of a off
    its block, and each n read out on its own (``tail_levels``)."""
    m = a.shape[0]
    k, ak = powerit._block_power(a)
    points = sorted(set(ns) | {n - max(1, n // 4) for n in ns})
    trunk = np.empty((points[-1] // k, m), dtype=np.complex128)
    q, done, branches = np.eye(m, dtype=np.complex128), 0, {}
    for p in points:
        q = powerit._flag_steps(ak, q, trunk[done : p // k])
        done = p // k
        steps = np.empty((p % k, m), dtype=np.complex128)
        branches[p] = powerit._flag_steps(a, q, steps) if p % k else q, steps
    qs, logs = {}, {}
    with np.errstate(divide="ignore"):
        trunk_logs = powerit._log_sums(np.zeros(m), trunk)
        for p, (q, steps) in branches.items():
            qs[p] = q
            logs[p] = powerit._log_sums(trunk_logs[p // k], steps)[-1] if p % k else trunk_logs[p // k]
    return [(qs[n], levels) for n, levels in zip(ns, tail_levels(logs, ns))]


def truncate_forward(w, m: int) -> np.ndarray:
    """m x m truncation of the forward shift: w_k at cell (k+1, k), 1-indexed."""
    if m < 2:
        raise InvalidInput("truncation dimension must be at least 2")
    mags = w.weights(m - 1)
    out = np.zeros((m, m), dtype=np.complex128)
    out[np.arange(1, m), np.arange(m - 1)] = mags
    return out


def truncate_backward(w, m: int) -> np.ndarray:
    """m x m truncation of the backward shift: w_k at cell (k-1, k), 1-indexed."""
    if m < 2:
        raise InvalidInput("truncation dimension must be at least 2")
    mags = w.weights(m)
    out = np.zeros((m, m), dtype=np.complex128)
    out[np.arange(m - 1), np.arange(1, m)] = mags[1:]
    return out


def range_oracle(dec, key, weight):
    """sum_j w(a_j) (R(e_j) - R(e_{j-1})), with R(e_j) the range projection
    of the certified idempotent sum over the levels <= a_j."""
    keys = np.array([key(p.cluster.representative) for p in dec.idempotents])
    ordered = np.sort(keys)
    tops = [*ordered[:-1][np.diff(ordered) > 1e-9], ordered[-1]]
    m = dec.matrix.shape[0]
    out = np.zeros((m, m), dtype=complex)
    prev = np.zeros((m, m), dtype=complex)
    below = -np.inf
    for top in tops:
        level = float(np.mean(keys[(keys > below) & (keys <= top)]))
        f = linalg.range_projection(sum(p.matrix for p, v in zip(dec.idempotents, keys) if v <= top))
        out += weight(level) * (f - prev)
        prev, below = f, top
    return out


def single_linkage_per_pair(values, tol):
    """``decomp.single_linkage`` one Python ``abs`` of a gap at a time."""
    groups = []
    for i, v in enumerate(values):
        near = [g for g in groups if any(abs(v - values[j]) <= tol for j in g)]
        groups = [g for g in groups if g not in near] + [sorted([i, *(j for g in near for j in g)])]
    return groups


def idempotent_per_cluster(a, cluster):
    """The idempotent of ``cluster`` from a reorder of its own: the entries of
    A's unordered Schur diagonal within ``CLUSTER_TOL * ||A||`` of its members
    put first, one ztrsyl, and Z [[I, Y], [0, 0]] Z*."""
    t, z, scale = decomp.schur_form(a)
    gaps = np.abs(t.diagonal()[:, None] - np.array(cluster.members)[None, :])
    select = gaps.min(axis=1) <= decomp.CLUSTER_TOL * scale
    m, k = t.shape[0], int(np.count_nonzero(select))
    if k == 0 or k == m:
        return np.eye(m, dtype=np.complex128) if k else np.zeros((m, m), dtype=np.complex128)
    t, z, k = decomp.reorder_schur(t, z, select, scale)
    y, s, info = linalg.lapack.ztrsyl(t[:k, :k], t[k:, k:], t[:k, k:], "N", "N", -1)
    assert info >= 0
    w = np.eye(k, m, dtype=np.complex128)
    w[:, k:] = y / s
    return z[:, :k] @ w @ z.conj().T


def level_cuts(a, key, clusters):
    """(levels, F_j, clusters per level) with one reorder per level cut: the
    entries of the Schur diagonal whose key is below the midpoint of two
    levels put first, and F_j = Z_1 Z_1*."""
    t, z, scale = decomp.schur_form(a)
    values = key(np.array([c.representative for c in clusters]))
    groups = decomp.single_linkage(values, decomp.CLUSTER_TOL * scale)
    levels, groups = zip(*sorted(zip(decomp.cluster_means(values, groups).tolist(), groups)))
    projections, rank = [], 0
    for j, group in enumerate(groups[:-1]):
        rank += sum(clusters[i].multiplicity for i in group)
        t, z, k = decomp.reorder_schur(t, z, key(t.diagonal()) <= 0.5 * (levels[j] + levels[j + 1]), scale)
        assert k == rank
        projections.append(z[:, :k] @ z[:, :k].conj().T)
    projections.append(np.eye(a.shape[0], dtype=np.complex128))
    return levels, projections, [len(g) for g in groups]


def read_error_csv(path):
    """Rows (n, error, log_error) of a file written by ``records.write_error_csv``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["n", "error", "log_error"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        return [(int(n), float(err), float(log_err)) for n, err, log_err in reader]


def matrix_to_json(a) -> dict:
    """Inverse of the JSON schema of ``mmio.parse_matrix``: row-major [re, im] pairs."""
    a = linalg.as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"dim": int(a.shape[0]), "entries": entries}


def jsonable(obj):
    """``records._jsonable`` entry by entry: each array is walked to its numbers."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [jsonable(float(obj.real)), jsonable(float(obj.imag))]
    if isinstance(obj, (np.floating, np.integer)):
        return jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def parse_matrix_per_entry(text: str) -> np.ndarray:
    """``mmio.parse_matrix`` of inline text, converting one entry at a time."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input", line=1)
    if stripped.lower().startswith("%%matrixmarket"):
        lines = [(no, raw) for no, raw in enumerate(text.splitlines(), start=1)]
        first = next(i for i, (_, raw) in enumerate(lines) if raw.strip())
        mat = _mm_per_entry(lines[first:])
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno)
        mat = _json_per_entry(obj)
    return linalg.as_matrix(mat)


def _check_dim(rows, cols):
    if rows != cols:
        raise InvalidInput(f"matrix is {rows}x{cols}, expected square")
    if rows > MAX_DIM:
        raise InvalidInput(f"matrix dimension {rows} exceeds the limit of {MAX_DIM}")


def _mm_per_entry(lines) -> np.ndarray:
    header = lines[0][1].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise ParseError("not a Matrix Market header", line=lines[0][0])
    _, obj, layout, field, symmetry = (tok.lower() for tok in header)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", line=lines[0][0])
    if layout not in ("array", "coordinate"):
        raise ParseError(f"unsupported layout {layout!r}", line=lines[0][0])
    if field not in ("real", "integer", "complex"):
        raise ParseError(f"unsupported field {field!r}", line=lines[0][0])
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=lines[0][0])
    body = [(no, text) for no, text in lines[1:] if not text.lstrip().startswith("%")]
    body = [(no, text) for no, text in body if text.strip()]
    if not body:
        raise ParseError("missing size line", line=lines[-1][0])
    size_no, size_text = body[0]
    sizes = size_text.split()
    if len(sizes) != (3 if layout == "coordinate" else 2):
        raise ParseError("malformed size line", line=size_no)
    try:
        sizes = [int(tok) for tok in sizes]
    except ValueError:
        raise ParseError("malformed size line", line=size_no)
    rows, cols = sizes[0], sizes[1]
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive", line=size_no)
    _check_dim(rows, cols)

    def value_of(toks, no):
        try:
            if field == "complex":
                return complex(float(toks[0]), float(toks[1]))
            return complex(float(toks[0]))
        except (ValueError, IndexError):
            raise ParseError("malformed numeric entry", line=no)

    data = body[1:]
    count = rows * cols if layout == "array" else sizes[2]
    if len(data) != count:
        raise ParseError(f"expected {count} entries, found {len(data)}", line=data[-1][0] if data else size_no)
    width = 2 if field == "complex" else 1
    out = np.zeros((rows, cols), dtype=np.complex128)
    if layout == "array":
        for idx, (no, text) in enumerate(data):
            toks = text.split()
            if len(toks) != width:
                raise ParseError("malformed numeric entry", line=no)
            out[idx % rows, idx // rows] = value_of(toks, no)
    else:
        for no, text in data:
            toks = text.split()
            if len(toks) != 2 + width:
                raise ParseError("malformed coordinate entry", line=no)
            try:
                i, j = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError("malformed coordinate entry", line=no)
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError("coordinate out of range", line=no)
            out[i - 1, j - 1] = value_of(toks[2:], no)
    return out


def _json_per_entry(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ParseError("JSON matrix needs 'dim' and 'entries' fields")
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    _check_dim(dim, dim)
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ParseError(f"'entries' must hold {dim * dim} [re, im] pairs")
    return complex_pairs_per_entry(entries).reshape(dim, dim)


def complex_pairs_per_entry(pairs, what: str = "entry") -> np.ndarray:
    """``mmio.complex_pairs``, one pair at a time."""
    out = np.empty(len(pairs), dtype=np.complex128)
    for idx, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(type(v) in (int, float) for v in pair):
            raise ParseError(f"{what} {idx} is not a [re, im] pair")
        try:
            out[idx] = complex(pair[0], pair[1])
        except OverflowError:
            raise InvalidInput(f"{what} {idx} is past float range") from None
    return out
