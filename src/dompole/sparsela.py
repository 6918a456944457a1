"""Sparse CSC storage, shifted LU factorization, and the small pencil eigensolve.

A thin layer over scipy: it keeps only the checks scipy does not make
(canonical complex CSC on the way in, a relative pivot threshold after LU).
All numeric work runs in complex double precision even for real inputs:
the solver shifts are complex, and a single complex path avoids duplicated
real/complex kernels.

The pattern of ``J - sE`` does not depend on s. The first ``shifted(J,
ndyn, s)`` call therefore builds that pattern and its COLAMD column order
once for the pair ``(J, ndyn)`` and keeps them on J, J's values already in
that order. Each call then makes ``(J - sE)[:, cols]``, the matrix SuperLU
factors, with one copy and one subtraction; a cancelled entry stays stored
as a zero. The result is a ``ShiftedMatrix``: its columns permuted, it is no
SparseMatrix. ``factorize`` takes a SparseMatrix through ``shifted(M, 0, 0)``
first. J must not be changed in place once it has been shifted or factored.

Every ``splu`` call, the ordering one and the one per shift, takes
``SUPERLU_OPTIONS``. ``relax=1`` turns off SuperLU's relaxed supernodes,
which pad a network's tiny supernodes with explicit zeros: the grid stores
14.6 factor entries per row instead of 22.2. ``panel_size=1`` factors both
benchmark models faster than widths 4 and 10 (the default), with the same
factor entries. The COLAMD order is the same either way.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SingularMatrixError",
    "EigenSolverError",
    "SparseMatrix",
    "ShiftedMatrix",
    "Factorization",
    "shifted",
    "factorize",
    "dense_eig",
]

# Pivots at or below PIVOT_RTOL * max|entry| are treated as singular instead of
# being propagated as huge solution components (a shift sitting exactly on an
# eigenvalue must surface as an error the caller can recover from).
PIVOT_RTOL = 1e-14

# SuperLU options for every factorization (see the module docstring)
SUPERLU_OPTIONS = {"relax": 1, "panel_size": 1}


class SingularMatrixError(ArithmeticError):
    """The matrix is structurally or numerically singular."""


class EigenSolverError(RuntimeError):
    """The dense eigenvalue iteration failed to converge."""


class SparseMatrix:
    """Complex sparse matrix held as one canonical ``scipy.sparse.csc_matrix``.

    The held matrix is complex128, with sorted row indices and no duplicate
    entries. Build instances with ``from_scipy`` (or ``from_triplets``/
    ``from_dense``), which makes that form and checks it.
    """

    # _transpose: CSR view of M.T over M's own arrays, built by the first
    # matvec_t. _shifts: the _ShiftPattern of the last ndyn passed to shifted.
    __slots__ = ("_csc", "_transpose", "_shifts")

    def __init__(self, csc):
        """Wrap ``csc`` as is; it must already be canonical (see ``from_scipy``)."""
        self._csc = csc
        self._transpose = None
        self._shifts = None

    @classmethod
    def from_scipy(cls, m):
        """Copy any scipy sparse matrix or 2-D array into canonical form.

        Raises ValueError for a malformed matrix, such as a decreasing
        ``indptr`` or a row index out of range; unsorted rows are sorted and
        duplicate entries summed.
        """
        csc = sp.csc_matrix(m, dtype=np.complex128, copy=True)
        csc.check_format(full_check=True)
        csc.sum_duplicates()
        return cls(csc)

    @classmethod
    def from_triplets(cls, nrows, ncols, rows, cols, values):
        """Build from coordinate triplets; duplicate positions are summed."""
        return cls.from_scipy(sp.coo_matrix((values, (rows, cols)), shape=(nrows, ncols)))

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls.from_scipy(a)

    nrows = property(lambda self: self._csc.shape[0])
    ncols = property(lambda self: self._csc.shape[1])
    shape = property(lambda self: self._csc.shape)
    nnz = property(lambda self: self._csc.nnz)
    indptr = property(lambda self: self._csc.indptr)
    indices = property(lambda self: self._csc.indices)
    data = property(lambda self: self._csc.data)

    def to_scipy(self):
        return self._csc

    def to_dense(self):
        return self._csc.toarray()

    def matvec(self, x):
        """Return ``M @ x``."""
        return self._csc @ np.asarray(x, dtype=np.complex128)

    def matvec_t(self, x):
        """Return ``M.T @ x`` (plain transpose, no conjugation)."""
        if self._transpose is None:
            self._transpose = self._csc.T
        return self._transpose @ np.asarray(x, dtype=np.complex128)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class _ShiftPattern:
    """What ``J - sE`` keeps across shifts, for one ``(J, ndyn)``.

    The pattern is J's, stored zeros dropped, united with the first ``ndyn``
    diagonal positions. ``cols`` is its COLAMD column order, taken from one
    factorization of generic values whose factors are discarded, or None when
    the pattern is structurally singular (the arrays then keep the natural
    order). ``indptr``, ``indices`` and ``values`` hold ``J[:, cols]`` on the
    pattern, ``diag`` the data positions of E's ones in it, and ``max_off``
    the largest ``|J|`` entry off those positions.
    """

    __slots__ = ("ndyn", "cols", "indptr", "indices", "values", "diag", "max_off")

    def __init__(self, J, ndyn):
        N = J.nrows
        dyn = np.arange(ndyn)
        E = sp.csc_matrix((np.ones(ndyn), (dyn, dyn)), shape=(N, N))
        # |J| + E sums nonnegative values, so nothing but J's stored zeros drops
        P = abs(J.to_scipy()) + E
        # each entry's position in P, found by its column-major key
        keys = np.repeat(np.arange(N, dtype=np.int64), np.diff(P.indptr)) * N + P.indices
        Jnz = J.data != 0
        jkeys = np.repeat(np.arange(N, dtype=np.int64), np.diff(J.indptr))[Jnz] * N
        values = np.zeros(P.nnz, dtype=np.complex128)
        values[np.searchsorted(keys, jkeys + J.indices[Jnz])] = J.data[Jnz]
        diag = np.searchsorted(keys, dyn * (N + 1))
        # complex values, like the shifted matrices', so that the factorizations
        # after this one reuse its memory instead of raising the peak
        rng = np.random.default_rng(0)
        noise = rng.uniform(1.0, 2.0, P.nnz) + 1j * rng.uniform(1.0, 2.0, P.nnz)
        generic = sp.csc_matrix((noise, P.indices, P.indptr), shape=(N, N))
        try:
            perm_c = spla.splu(generic, permc_spec="COLAMD", **SUPERLU_OPTIONS).perm_c
            self.cols = np.argsort(perm_c).astype(np.int32)
        except RuntimeError:  # structurally singular: keep the natural order
            perm_c, self.cols = np.arange(N), None
        order = perm_c if self.cols is None else self.cols
        counts = np.diff(P.indptr)[order]
        self.ndyn = ndyn
        self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        take = np.repeat(P.indptr[order] - self.indptr[:-1], counts) + np.arange(P.nnz)
        self.indices = P.indices[take].astype(np.int32)
        self.values = values[take]
        # column i of P is column perm_c[i] here, with its rows in the same order
        self.diag = (self.indptr[perm_c[:ndyn]] + diag - P.indptr[:ndyn]).astype(np.int32)
        self.max_off = float(np.abs(np.delete(self.values, self.diag)).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class ShiftedMatrix:
    """``J - sE`` from ``shifted``: ``csc`` is ``(J - sE)[:, cols]`` in scipy CSC,
    for ``cols`` the column order cached for ``(J, ndyn)`` (the natural order
    if the pattern is structurally singular)."""

    csc: sp.csc_matrix
    _pattern: _ShiftPattern


def shifted(J, ndyn, s):
    """``J - s*E`` as a ShiftedMatrix; E = diag(1,...,1,0,...,0) has ``ndyn`` ones.

    The pattern is the same for every s; the result shares its index arrays
    with the cache on J. A shift that is not finite raises ValueError.
    """
    N = J.nrows
    if not 0 <= ndyn <= N:
        raise ValueError(f"ndyn {ndyn} out of range for order {N}")
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"shift {s!r} is not finite")
    pattern = J._shifts
    if pattern is None or pattern.ndyn != ndyn:
        pattern = J._shifts = _ShiftPattern(J, ndyn)
    data = pattern.values.copy()
    data[pattern.diag] -= s
    csc = sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(N, N))
    csc.has_canonical_format = True
    return ShiftedMatrix(csc, pattern)


class Factorization:
    """LU factors of ``A[:, cols]``, for A in its natural column order.

    A is the SparseMatrix given to ``factorize``, or ``J - sE`` for a
    ShiftedMatrix, whose ``csc`` is ``A[:, cols]``.
    ``pivot_growth``, ``max|U| / max|A|``, is computed when it is read.
    """

    __slots__ = ("lu", "cols", "max_abs")

    def __init__(self, lu, cols, max_abs):
        self.lu = lu
        self.cols = cols
        self.max_abs = max_abs

    order = property(lambda self: self.cols.size)

    @property
    def pivot_growth(self):
        # scipy keeps the lu.U that factorize's pivot test built
        U = self.lu.U
        return float(np.abs(U.data).max() / self.max_abs) if U.nnz else 0.0

    def solve(self, rhs, transposed=False):
        """Solve ``A x = rhs`` or ``A.T x = rhs`` using the stored factors."""
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape != (self.order,):
            raise ValueError(
                f"right-hand side has length {rhs.shape}, expected ({self.order},)"
            )
        if transposed:
            return self.lu.solve(rhs[self.cols], trans="T")
        x = np.empty_like(rhs)
        x[self.cols] = self.lu.solve(rhs)
        return x


def factorize(M):
    """Sparse LU of a ShiftedMatrix or a SparseMatrix M, with partial pivoting.

    A SparseMatrix goes through ``shifted(M, 0, 0)`` first. Raises
    SingularMatrixError for structural singularity or for any pivot at or
    below ``PIVOT_RTOL * max|entry|``; the caller is expected to perturb the
    shift and retry.
    """
    if isinstance(M, SparseMatrix):
        if M.nrows == 0:
            raise ValueError("cannot factorize an empty matrix")
        M = shifted(M, 0, 0.0)
    pattern = M._pattern
    max_abs = float(np.abs(M.csc.data[pattern.diag]).max(initial=pattern.max_off))
    if max_abs == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    if pattern.cols is None:
        raise SingularMatrixError("sparse LU failed: the matrix is structurally singular")
    try:
        lu = spla.splu(M.csc, permc_spec="NATURAL", **SUPERLU_OPTIONS)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    min_pivot = float(np.abs(lu.U.diagonal()).min())
    if min_pivot <= PIVOT_RTOL * max_abs:
        raise SingularMatrixError(
            f"pivot {min_pivot:.3e} below threshold {PIVOT_RTOL * max_abs:.3e}; "
            "the shift likely coincides with an eigenvalue"
        )
    return Factorization(lu, pattern.cols, max_abs)


def dense_eig(A, B):
    """Eigenvalues of the small dense pencil ``A x = w B x``, from QZ.

    QZ does not invert B; a singular B gives non-finite entries of w.
    scipy rejects non-finite entries and unequal shapes with ``ValueError``.
    """
    try:
        return sla.eigvals(A, B)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
