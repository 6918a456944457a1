"""Matrix Market reading and writing.

Supports the subset used by descriptor-system data sets: ``matrix`` objects
in ``coordinate`` or ``array`` format, ``real``/``integer``/``complex``
fields, and ``general``/``symmetric`` symmetry. Parse failures and
non-finite values (``nan``, ``inf``) report the offending line number.
"""

from __future__ import annotations

import cmath

import numpy as np

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


def _data_lines(lines, path):
    """Yield (line_number, stripped_text) skipping comments and blanks."""
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        yield lineno, text


def _parse_value(tokens, field, path, lineno):
    try:
        if field == "complex":
            if len(tokens) != 2:
                raise ValueError
            value = complex(float(tokens[0]), float(tokens[1]))
        else:
            if len(tokens) != 1:
                raise ValueError
            value = complex(float(tokens[0]))
    except ValueError:
        raise MatrixMarketError(
            f"cannot parse {field} value from '{' '.join(tokens)}'", path, lineno
        ) from None
    if not cmath.isfinite(value):
        raise MatrixMarketError(f"non-finite value '{' '.join(tokens)}'", path, lineno)
    return value


def read_matrix_market(path):
    """Read a Matrix Market file into a SparseMatrix.

    Symmetric storage is expanded to both triangles. Coordinate indices are
    validated against the declared dimensions, and the declared entry count
    must match the number of data lines exactly.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("empty file", path, 1)
    fmt, field, symmetry = _parse_header(lines[0], path)

    body = _data_lines(lines, path)
    try:
        size_lineno, size_text = next(body)
    except StopIteration:
        raise MatrixMarketError("missing size line", path, len(lines)) from None
    size_tokens = size_text.split()

    if fmt == "coordinate":
        if len(size_tokens) != 3:
            raise MatrixMarketError(
                "coordinate size line must be 'nrows ncols nnz'", path, size_lineno
            )
        try:
            nrows, ncols, declared = (int(t) for t in size_tokens)
        except ValueError:
            raise MatrixMarketError("non-integer size entry", path, size_lineno) from None
        if symmetry == "symmetric" and nrows != ncols:
            raise MatrixMarketError("symmetric matrix must be square", path, size_lineno)
        rows, cols, vals = [], [], []
        count = 0
        for lineno, text in body:
            tokens = text.split()
            if len(tokens) < 3:
                raise MatrixMarketError("coordinate entry needs 'i j value'", path, lineno)
            try:
                i = int(tokens[0]) - 1
                j = int(tokens[1]) - 1
            except ValueError:
                raise MatrixMarketError("non-integer coordinate index", path, lineno) from None
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise MatrixMarketError(
                    f"index ({i + 1}, {j + 1}) outside {nrows}x{ncols}", path, lineno
                )
            v = _parse_value(tokens[2:], field, path, lineno)
            count += 1
            if count > declared:
                raise MatrixMarketError(
                    f"entry count mismatch: header declares {declared} entries", path, lineno
                )
            rows.append(i)
            cols.append(j)
            vals.append(v)
            if symmetry == "symmetric" and i != j:
                rows.append(j)
                cols.append(i)
                vals.append(v)
        if count != declared:
            raise MatrixMarketError(
                f"entry count mismatch: header declares {declared} entries, "
                f"file has {count}",
                path,
                len(lines),
            )
        return SparseMatrix.from_triplets(nrows, ncols, rows, cols, vals)

    # array format: dense values in column-major order
    if len(size_tokens) != 2:
        raise MatrixMarketError("array size line must be 'nrows ncols'", path, size_lineno)
    try:
        nrows, ncols = (int(t) for t in size_tokens)
    except ValueError:
        raise MatrixMarketError("non-integer size entry", path, size_lineno) from None
    if symmetry == "symmetric":
        if nrows != ncols:
            raise MatrixMarketError("symmetric matrix must be square", path, size_lineno)
        expected = nrows * (nrows + 1) // 2
    else:
        expected = nrows * ncols
    values = []
    for lineno, text in body:
        if len(values) >= expected:
            raise MatrixMarketError(
                f"entry count mismatch: expected {expected} values", path, lineno
            )
        values.append(_parse_value(text.split(), field, path, lineno))
    if len(values) != expected:
        raise MatrixMarketError(
            f"entry count mismatch: expected {expected} values, file has {len(values)}",
            path,
            len(lines),
        )
    dense = np.zeros((nrows, ncols), dtype=np.complex128)
    if symmetry == "symmetric":
        k = 0
        for j in range(ncols):
            for i in range(j, nrows):
                dense[i, j] = values[k]
                if i != j:
                    dense[j, i] = values[k]
                k += 1
    else:
        dense[:] = np.asarray(values, dtype=np.complex128).reshape(
            (ncols, nrows)
        ).T
    return SparseMatrix.from_dense(dense)


def read_vector(path):
    """Read an N x 1 (or 1 x N) Matrix Market file as a 1-D complex vector."""
    m = read_matrix_market(path)
    if m.ncols == 1:
        return m.to_dense()[:, 0]
    if m.nrows == 1:
        return m.to_dense()[0, :]
    raise MatrixMarketError(
        f"expected a vector, got a {m.nrows}x{m.ncols} matrix", path
    )


def _fmt(x):
    return repr(float(x))


def _is_real(data):
    return bool(np.all(np.asarray(data).imag == 0.0))


def write_coordinate(path, m, comment=None):
    """Write a SparseMatrix (or 2-D array) in coordinate general format.

    The field is ``real`` when every entry has zero imaginary part and
    ``complex`` otherwise. Values are written with full round-trip precision.
    """
    if not isinstance(m, SparseMatrix):
        m = SparseMatrix.from_dense(np.atleast_2d(m))
    field = "real" if _is_real(m.data) else "complex"
    out = [f"%%MatrixMarket matrix coordinate {field} general"]
    if comment:
        out.extend(f"% {line}" for line in str(comment).splitlines())
    out.append(f"{m.nrows} {m.ncols} {m.nnz}")
    for j in range(m.ncols):
        for k in range(m.indptr[j], m.indptr[j + 1]):
            v = m.data[k]
            if field == "real":
                out.append(f"{m.indices[k] + 1} {j + 1} {_fmt(v.real)}")
            else:
                out.append(f"{m.indices[k] + 1} {j + 1} {_fmt(v.real)} {_fmt(v.imag)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def write_array(path, values, comment=None):
    """Write a vector or 2-D array in array general format (column-major)."""
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError("expected a vector or a 2-D array")
    field = "real" if _is_real(a) else "complex"
    out = [f"%%MatrixMarket matrix array {field} general"]
    if comment:
        out.extend(f"% {line}" for line in str(comment).splitlines())
    out.append(f"{a.shape[0]} {a.shape[1]}")
    for j in range(a.shape[1]):
        for i in range(a.shape[0]):
            v = a[i, j]
            if field == "real":
                out.append(_fmt(v.real))
            else:
                out.append(f"{_fmt(v.real)} {_fmt(v.imag)}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
