"""Matrix ingestion: Matrix Market files and the tool's JSON schema.

The JSON schema is {"dim": m, "entries": [[re, im], ...]} with m*m entries in
row-major order.  Matrix Market support covers array and coordinate layouts
with real, integer, or complex general matrices.  Either format is refused,
before the matrix is allocated, when it declares a matrix that is not square
or whose dimension passes ``MAX_DIM``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

from . import linalg
from .errors import InvalidInput, ParseError

# The largest dimension read.  A coordinate size line alone sets the size of
# the dense matrix, whatever the entries; 1024 x 1024 complex is 16 MB.
MAX_DIM = 1024


def _check_dim(rows, cols):
    if rows != cols:
        raise InvalidInput(f"matrix is {rows}x{cols}, expected square")
    if rows > MAX_DIM:
        raise InvalidInput(f"matrix dimension {rows} exceeds the limit of {MAX_DIM}")


def _parse_mm_lines(lines) -> np.ndarray:
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
    expected_sizes = 3 if layout == "coordinate" else 2
    if len(sizes) != expected_sizes:
        raise ParseError("malformed size line", line=size_no)
    try:
        sizes = [int(tok) for tok in sizes]
    except ValueError:
        raise ParseError("malformed size line", line=size_no)
    rows, cols = sizes[0], sizes[1]
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive", line=size_no)
    _check_dim(rows, cols)

    data = body[1:]
    count = rows * cols if layout == "array" else sizes[2]
    if len(data) != count:  # before allocating: the size line alone sets the allocation
        raise ParseError(
            f"expected {count} entries, found {len(data)}",
            line=data[-1][0] if data else size_no,
        )
    # all values in one conversion, all indices in one map; only a body that
    # fails them is scanned line by line, for its first bad line
    width = 2 if field == "complex" else 1
    stride = width if layout == "array" else 2 + width
    toks = [text.split() for _, text in data]
    tokens = list(itertools.chain.from_iterable(toks))
    try:
        if set(map(len, toks)) - {stride}:
            raise ValueError
        if layout == "coordinate":
            i, j = list(map(int, tokens[0::stride])), list(map(int, tokens[1::stride]))
            if count and not (1 <= min(i) and max(i) <= rows and 1 <= min(j) and max(j) <= cols):
                raise ValueError
            del tokens[0::stride], tokens[0::stride - 1]  # each line's i, then its j
        parts = np.array(tokens, dtype=np.float64)
    except ValueError:
        raise _bad_mm_entry(data, layout, width, rows, cols) from None
    # a real entry gets the imaginary part +0
    values = parts.view(np.complex128) if width == 2 else parts.astype(np.complex128)
    if layout == "array":  # column-major, one entry per line
        return values.reshape(cols, rows).T
    # of a repeated coordinate the last entry wins: each cell keeps its last line
    cells = dict(zip([(r - 1) * cols + c - 1 for r, c in zip(i, j)], range(count)))
    out = np.zeros((rows, cols), dtype=np.complex128)
    out.reshape(-1)[list(cells)] = values[list(cells.values())]
    return out


def _bad_mm_entry(data, layout, width, rows, cols) -> ParseError:
    """The error of the first line that does not read, of a Matrix Market
    body whose whole-body read failed."""
    for no, text in data:
        toks = text.split()
        if layout == "array":
            if len(toks) != width:
                return ParseError("malformed numeric entry", line=no)
        else:
            if len(toks) != 2 + width:
                return ParseError("malformed coordinate entry", line=no)
            try:
                i, j = int(toks[0]), int(toks[1])
            except ValueError:
                return ParseError("malformed coordinate entry", line=no)
            if not (1 <= i <= rows and 1 <= j <= cols):
                return ParseError("coordinate out of range", line=no)
            toks = toks[2:]
        try:
            [float(tok) for tok in toks]
        except ValueError:
            return ParseError("malformed numeric entry", line=no)


def _parse_json_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ParseError("JSON matrix needs 'dim' and 'entries' fields")
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:  # JSON true is no dimension
        raise ParseError("'dim' must be a positive integer")
    _check_dim(dim, dim)
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ParseError(f"'entries' must hold {dim * dim} [re, im] pairs")
    return complex_pairs(entries).reshape(dim, dim)


def complex_pairs(pairs, what: str = "entry") -> np.ndarray:
    """[re, im] pairs of JSON numbers, not bools, as complex128; an error names ``what`` and its index."""
    try:
        parts = np.array(pairs, dtype=np.float64).reshape(len(pairs), 2)
        numeric = {int, float}.issuperset(map(type, itertools.chain.from_iterable(pairs)))
    except (ValueError, TypeError, OverflowError):
        numeric = False
    if not numeric:  # only a list that fails is scanned, for its first bad pair
        raise _bad_pair(pairs, what)
    return parts.view(np.complex128).reshape(len(pairs))


def _bad_pair(pairs, what: str) -> ValueError:
    """The error of the first pair that does not read, of pairs whose whole read failed."""
    for idx, pair in enumerate(pairs):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(type(v) in (int, float) for v in pair)
        ):
            return ParseError(f"{what} {idx} is not a [re, im] pair")
        try:
            float(pair[0]), float(pair[1])
        except OverflowError:  # an integer past float range
            return InvalidInput(f"{what} {idx} is past float range")


def read_source(source) -> str:
    """The contents of the file ``source`` names, or ``source`` itself as inline text.

    A directory is not read: its name comes back as inline text, and so does
    text that cannot name a file (too long, or holding a NUL)."""
    text = str(source)
    if isinstance(source, (str, Path)) and os.path.isfile(text):
        with open(text) as fh:
            return fh.read()
    return text


def parse_matrix(source) -> np.ndarray:
    """Load and validate a square complex matrix from a file path or text.

    Matrix Market input is recognized by its %%MatrixMarket banner; anything
    else must be the JSON schema.
    """
    text = read_source(source)
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input", line=1)
    if stripped.lower().startswith("%%matrixmarket"):
        lines = [(no, raw) for no, raw in enumerate(text.splitlines(), start=1)]
        first = next(i for i, (_, raw) in enumerate(lines) if raw.strip())
        mat = _parse_mm_lines(lines[first:])
    else:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno)
        mat = _parse_json_obj(obj)
    return linalg.as_matrix(mat)

