"""Matrix Market reading and writing.

Supports the subset used by descriptor-system data sets: ``matrix`` objects
in ``coordinate`` or ``array`` format, ``real``/``integer``/``complex``
fields, and ``general``/``symmetric`` symmetry. The data lines are parsed by
one ``np.loadtxt`` call, and ``%`` starts a comment anywhere on the size line
or a data line. Parse failures, indices out of range or above a symmetric
diagonal, non-finite values (``nan``, ``inf``) and a wrong entry count
report the offending line number.
"""

from __future__ import annotations

import io
import warnings

import numpy as np
import scipy.sparse as sp

from .sparsela import SparseMatrix

__all__ = [
    "MatrixMarketError",
    "read_matrix_market",
    "read_vector",
    "write_coordinate",
    "write_array",
]

_FIELDS = ("real", "integer", "complex")
_SYMMETRIES = ("general", "symmetric")


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input."""

    def __init__(self, message, path=None, line=None):
        prefix = ""
        if path is not None:
            prefix = str(path)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = path
        self.line = line


def _parse_header(line, path):
    tokens = line.split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise MatrixMarketError("missing or malformed %%MatrixMarket header", path, 1)
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object type '{obj}'", path, 1)
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format '{fmt}'", path, 1)
    if field not in _FIELDS:
        raise MatrixMarketError(f"unsupported field '{field}'", path, 1)
    if symmetry not in _SYMMETRIES:
        raise MatrixMarketError(f"unsupported symmetry '{symmetry}'", path, 1)
    return fmt, field, symmetry


def _parse(texts, dtype):
    """Parse each of ``texts`` by ``np.loadtxt``, up to the first that fails.

    Returns the parsed arrays, fewer than ``texts`` when one does not fit
    ``dtype``. numpy releases that read ``1.0`` into an integer column with
    only a DeprecationWarning count that as a failure too.
    """
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        for text in texts:
            try:
                out.append(np.loadtxt(io.StringIO(text), dtype=dtype, comments="%", ndmin=1))
            except (ValueError, DeprecationWarning):
                break
    return out


def _data_lines(body, lineno):
    """(line number, text) of each line of ``body``, which follows line ``lineno``,
    that holds data, as ``np.loadtxt`` sees it."""
    numbered = enumerate(body.split("\n"), start=lineno + 1)
    return [(k, text) for k, text in numbered if text.split("%", 1)[0].strip()]


def read_matrix_market(path):
    """Read a Matrix Market file into a SparseMatrix.

    Symmetric storage is the lower triangle, expanded to both; an entry above
    it is an error. Coordinate indices are validated against the declared
    dimensions, and the declared entry count must match the number of data
    lines exactly. Array files store no zeros.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header:
            raise MatrixMarketError("empty file", path, 1)
        fmt, field, symmetry = _parse_header(header, path)
        size_lineno, size = 1, []
        while not size:
            text = fh.readline()
            if not text:
                raise MatrixMarketError("missing size line", path, size_lineno)
            size_lineno += 1
            size = text.split("%", 1)[0].split()
        body = fh.read()

    coordinate = fmt == "coordinate"
    if len(size) != (3 if coordinate else 2):
        form = "'nrows ncols nnz'" if coordinate else "'nrows ncols'"
        raise MatrixMarketError(f"{fmt} size line must be {form}", path, size_lineno)
    try:
        nrows, ncols, *declared = (int(t) for t in size)
    except ValueError:
        raise MatrixMarketError("non-integer size entry", path, size_lineno) from None
    if symmetry == "symmetric" and nrows != ncols:
        raise MatrixMarketError("symmetric matrix must be square", path, size_lineno)
    if coordinate:
        (declared,) = declared
    elif symmetry == "symmetric":
        declared = nrows * (nrows + 1) // 2
    else:
        declared = nrows * ncols

    names = ["i", "j"] if coordinate else []
    names += ["re", "im"] if field == "complex" else ["re"]
    dtype = np.dtype([(n, np.int64 if n in ("i", "j") else np.float64) for n in names])
    lines = []  # (line number, text) of each data line, split only on a fault
    parsed = _parse([body], dtype)
    if not parsed:
        # the rows before the first line that does not parse on its own,
        # found block by block, then line by line in the failing block
        lines = _data_lines(body, size_lineno)
        texts, step = [text for _, text in lines], 512
        blocks = ("\n".join(texts[b : b + step]) for b in range(0, len(texts), step))
        parsed = _parse(blocks, dtype)
        start = step * len(parsed)
        parsed += _parse(texts[start : start + step], dtype)
    rec = np.concatenate([np.empty(0, dtype)] + parsed)

    n = len(rec)
    finite = np.isfinite(rec["re"])
    if field == "complex":
        finite &= np.isfinite(rec["im"])
    ok = finite & (np.arange(n) < declared)
    if coordinate:
        i, j = rec["i"] - 1, rec["j"] - 1
        inside = (0 <= i) & (i < nrows) & (0 <= j) & (j < ncols)
        ok &= inside
        if symmetry == "symmetric":  # stored as its lower triangle only
            ok &= i >= j
    bad = np.flatnonzero(~ok)
    if bad.size or n < len(lines):
        # the earliest fault in file order: a failed check, else the unparsed line
        k = bad[0] if bad.size else n
        lineno, text = (lines or _data_lines(body, size_lineno))[k]
        fields = text.split("%", 1)[0].split()
        value = " ".join(fields[2:] if coordinate else fields)
        if k == n and len(fields) != len(names):
            message = f"expected fields '{' '.join(names)}', found '{' '.join(fields)}'"
        elif k == n and coordinate and not _parse([" ".join(fields[:2])], np.int64):
            if all(f.isdigit() for f in fields[:2]):  # an integer past int64
                message = f"index ({fields[0]}, {fields[1]}) outside {nrows}x{ncols}"
            else:
                message = "non-integer coordinate index"
        elif k == n:
            message = f"cannot parse {field} value from '{value}'"
        elif coordinate and not inside[k]:
            message = f"index ({i[k] + 1}, {j[k] + 1}) outside {nrows}x{ncols}"
        elif coordinate and symmetry == "symmetric" and i[k] < j[k]:
            message = f"symmetric entry ({i[k] + 1}, {j[k] + 1}) above the diagonal"
        elif not finite[k]:
            message = f"non-finite value '{value}'"
        else:
            message = f"entry count mismatch: expected {declared} entries"
        raise MatrixMarketError(message, path, lineno)
    if n != declared:
        raise MatrixMarketError(
            f"entry count mismatch: expected {declared} entries, file has {n}",
            path,
            size_lineno + len(body.splitlines()),
        )

    values = rec["re"].astype(np.complex128)
    if field == "complex":
        values.imag = rec["im"]
    if coordinate:
        rows, cols = i, j
    else:
        # column-major, the lower triangle only when symmetric
        if symmetry == "symmetric":
            cols, rows = np.triu_indices(nrows)
        else:
            cols, rows = np.divmod(np.arange(declared), nrows)
        stored = values != 0
        rows, cols, values = rows[stored], cols[stored], values[stored]
    if symmetry == "symmetric":
        # each off-diagonal entry is followed by its mirror image
        pair = np.column_stack([np.ones(len(values), bool), rows != cols])
        rows, cols = np.column_stack([rows, cols])[pair], np.column_stack([cols, rows])[pair]
        values = np.column_stack([values, values])[pair]
    return SparseMatrix.from_scipy(sp.coo_matrix((values, (rows, cols)), shape=(nrows, ncols)))


def read_vector(path):
    """Read an N x 1 (or 1 x N) Matrix Market file as a 1-D complex vector."""
    m = read_matrix_market(path).to_scipy()
    nrows, ncols = m.shape
    if ncols == 1 or nrows == 1:
        return m.toarray().ravel()
    raise MatrixMarketError(f"expected a vector, got a {nrows}x{ncols} matrix", path)


def _write(path, fmt, size, values, index=None):
    """Write one ``general`` file; ``index`` holds each coordinate entry's 'i j'.

    The field is ``real`` when every value has zero imaginary part and
    ``complex`` otherwise. Values are written with full round-trip precision.
    """
    field = "complex" if np.any(values.imag != 0.0) else "real"
    out = [f"%%MatrixMarket matrix {fmt} {field} general"]
    out.append(" ".join(str(d) for d in size))
    re = values.real.tolist()
    if field == "real":
        entries = [repr(x) for x in re]
    else:
        entries = [f"{x!r} {y!r}" for x, y in zip(re, values.imag.tolist())]
    if index is not None:
        entries = [f"{ij} {e}" for ij, e in zip(index, entries)]
    out.extend(entries)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def write_coordinate(path, m):
    """Write a SparseMatrix (or 2-D array) in coordinate general format."""
    if not isinstance(m, SparseMatrix):
        m = SparseMatrix.from_scipy(np.atleast_2d(m))
    m = m.to_scipy()
    cols = np.repeat(np.arange(1, m.shape[1] + 1), np.diff(m.indptr))
    index = [f"{i} {j}" for i, j in zip((m.indices + 1).tolist(), cols.tolist())]
    _write(path, "coordinate", (*m.shape, m.nnz), m.data, index)


def write_array(path, values):
    """Write a vector or 2-D array in array general format (column-major)."""
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError("expected a vector or a 2-D array")
    _write(path, "array", a.shape, a.ravel(order="F"))
