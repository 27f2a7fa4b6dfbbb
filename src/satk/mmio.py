"""Matrix ingestion: Matrix Market files and the tool's JSON schema.

The JSON schema is {"dim": m, "entries": [[re, im], ...]} with m*m entries in
row-major order.  Matrix Market support covers array and coordinate layouts
with real, integer, or complex general matrices.  Either format is refused,
before the matrix is allocated, when it declares a matrix that is not square
or whose dimension passes ``MAX_DIM``.
"""

from __future__ import annotations

import json
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

    def value_of(toks, no):
        try:
            if field == "complex":
                return complex(float(toks[0]), float(toks[1]))
            return complex(float(toks[0]))
        except (ValueError, IndexError):
            raise ParseError("malformed numeric entry", line=no)

    data = body[1:]
    count = rows * cols if layout == "array" else sizes[2]
    if len(data) != count:  # before allocating: the size line alone sets the allocation
        raise ParseError(
            f"expected {count} entries, found {len(data)}",
            line=data[-1][0] if data else size_no,
        )
    value_width = 2 if field == "complex" else 1
    out = np.zeros((rows, cols), dtype=np.complex128)

    if layout == "array":
        # column-major scan, one entry per line
        for idx, (no, text) in enumerate(data):
            toks = text.split()
            if len(toks) != value_width:
                raise ParseError("malformed numeric entry", line=no)
            out[idx % rows, idx // rows] = value_of(toks, no)
    else:
        for no, text in data:
            toks = text.split()
            if len(toks) != 2 + value_width:
                raise ParseError("malformed coordinate entry", line=no)
            try:
                i, j = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError("malformed coordinate entry", line=no)
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError("coordinate out of range", line=no)
            out[i - 1, j - 1] = value_of(toks[2:], no)
    return out


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
    out = np.empty(len(pairs), dtype=np.complex128)
    for idx, pair in enumerate(pairs):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(type(v) in (int, float) for v in pair)
        ):
            raise ParseError(f"{what} {idx} is not a [re, im] pair")
        try:
            out[idx] = complex(pair[0], pair[1])
        except OverflowError:  # an integer past float range
            raise InvalidInput(f"{what} {idx} is past float range") from None
    return out


def read_source(source) -> str:
    """The contents of the file ``source`` names, or ``source`` itself as inline text.

    A directory is not read: its name comes back as inline text."""
    text = str(source)
    try:
        is_file = isinstance(source, (str, Path)) and Path(text).is_file()
    except OSError:  # e.g. inline text longer than a legal file name
        is_file = False
    return Path(text).read_text() if is_file else text


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

