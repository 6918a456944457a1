"""Sparse CSC storage, shifted LU factorization, and the small pencil eigensolve.

A thin layer over scipy: it keeps only the checks scipy does not make
(canonical complex CSC on the way in, a relative pivot threshold after LU).
All numeric work runs in complex double precision even for real inputs:
the solver shifts are complex, and a single complex path avoids duplicated
real/complex kernels.

The pattern of ``J - sE`` does not depend on s. The first ``shifted(J,
ndyn, s)`` call therefore builds that pattern and its COLAMD column order
once for the pair ``(J, ndyn)`` and keeps them on J; later calls only refill
the values, keeping a cancelled entry as a stored zero. ``factorize`` hands
SuperLU every matrix with its columns already in such an order, taking one
through ``shifted(M, 0, 0)`` first if ``shifted`` did not make it. J must
not be changed in place once it has been shifted or factored.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SingularMatrixError",
    "EigenSolverError",
    "SparseMatrix",
    "Factorization",
    "shifted",
    "factorize",
    "dense_eig",
]

# Pivots at or below PIVOT_RTOL * max|entry| are treated as singular instead of
# being propagated as huge solution components (a shift sitting exactly on an
# eigenvalue must surface as an error the caller can recover from).
PIVOT_RTOL = 1e-14


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
    # matvec_t. _shifts: on J, the _ShiftPattern of the last ndyn passed to
    # shifted. _source: on a result of shifted, the _ShiftPattern it came from.
    __slots__ = ("_csc", "_transpose", "_shifts", "_source")

    def __init__(self, csc):
        """Wrap ``csc`` as is; it must already be canonical (see ``from_scipy``)."""
        self._csc = csc
        self._transpose = None
        self._shifts = None
        self._source = None

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

    ``indptr``/``indices`` are J's pattern, stored zeros dropped, united with
    the first ``ndyn`` diagonal positions; ``values`` holds J's entries on it
    and ``diag`` the data positions of E's ones. ``cols`` is the COLAMD
    column order of that pattern, taken from one factorization of generic
    values whose factors are discarded, or None when the pattern is
    structurally singular. ``cols_indptr``, ``cols_indices`` and ``take``
    describe ``M[:, cols]``: its data is ``M.data[take]``.
    """

    __slots__ = ("ndyn", "indptr", "indices", "values", "diag",
                 "cols", "cols_indptr", "cols_indices", "take")

    def __init__(self, J, ndyn):
        N = J.nrows
        dyn = np.arange(ndyn)
        E = sp.csc_matrix((np.ones(ndyn), (dyn, dyn)), shape=(N, N))
        # |J| + E sums nonnegative values, so nothing but J's stored zeros drops
        P = abs(J.to_scipy()) + E
        self.ndyn = ndyn
        self.indptr = P.indptr.astype(np.int32)
        self.indices = P.indices.astype(np.int32)
        # each entry's position in P, found by its column-major key
        keys = np.repeat(np.arange(N, dtype=np.int64), np.diff(P.indptr)) * N + P.indices
        Jnz = J.data != 0
        jkeys = np.repeat(np.arange(N, dtype=np.int64), np.diff(J.indptr))[Jnz] * N
        self.values = np.zeros(P.nnz, dtype=np.complex128)
        self.values[np.searchsorted(keys, jkeys + J.indices[Jnz])] = J.data[Jnz]
        self.diag = np.searchsorted(keys, dyn * (N + 1)).astype(np.int32)
        # complex values, like the shifted matrices', so that the factorizations
        # after this one reuse its memory instead of raising the peak
        rng = np.random.default_rng(0)
        noise = rng.uniform(1.0, 2.0, P.nnz) + 1j * rng.uniform(1.0, 2.0, P.nnz)
        generic = sp.csc_matrix((noise, P.indices, P.indptr), shape=(N, N))
        try:
            perm_c = spla.splu(generic, permc_spec="COLAMD").perm_c
        except RuntimeError:
            self.cols = None
            return
        self.cols = np.argsort(perm_c).astype(np.int32)
        starts = P.indptr[self.cols]
        counts = np.diff(P.indptr)[self.cols]
        self.cols_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        offset = np.repeat(starts - self.cols_indptr[:-1], counts)
        self.take = (np.arange(P.nnz) + offset).astype(np.int32)
        self.cols_indices = self.indices[self.take]

    def in_column_order(self, M):
        """``M[:, cols]`` for a matrix ``shifted`` built on this pattern."""
        csc = sp.csc_matrix((M.data[self.take], self.cols_indices, self.cols_indptr), shape=M.shape)
        csc.has_canonical_format = True
        return csc


def shifted(J, ndyn, s):
    """Return ``J - s*E`` where ``E = diag(1,...,1,0,...,0)`` with ``ndyn`` ones.

    The result's pattern is J's pattern, stored zeros dropped, united with
    the first ``ndyn`` diagonal positions, for every s: an entry that
    cancels stays stored as a zero. The first call for a pair ``(J, ndyn)``
    caches that pattern and its column order on J (see the module
    docstring); the result shares the cached index arrays. A shift that is
    not finite raises ValueError.
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
    M = SparseMatrix(csc)
    M._source = pattern
    return M


class Factorization:
    """LU factors of a sparse matrix M in its cached fill-reducing column order.

    ``lu`` is scipy's SuperLU object for ``M[:, cols]``: M's columns in the
    COLAMD order cached for its pattern, computed once and reused for every
    shift. ``lu.perm_r`` and ``perm_c`` satisfy ``Pr @ M @ Pc = L @ U`` with
    ``L = lu.L``, ``U = lu.U``, ``Pr[lu.perm_r[i], i] = 1`` and
    ``Pc[i, perm_c[i]] = 1``. ``pivot_growth`` is ``max|U| / max|M|``.
    """

    __slots__ = ("lu", "pivot_growth", "cols")

    def __init__(self, lu, pivot_growth, cols):
        self.lu = lu
        self.pivot_growth = pivot_growth
        self.cols = cols

    order = property(lambda self: self.cols.size)

    @property
    def perm_c(self):
        # column cols[j] of M is column j of the factored matrix
        return self.lu.perm_c[np.argsort(self.cols)]

    def solve(self, rhs, transposed=False):
        """Solve ``M x = rhs`` or ``M.T x = rhs`` using the stored factors."""
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
    """Sparse LU of M with a fill-reducing column order and partial pivoting.

    M is factored in the column order cached for its pattern, the one of its
    ``(J, ndyn)`` for a result of ``shifted``; any other matrix first goes
    through ``shifted(M, 0, 0)``, which caches an order on M.
    Raises SingularMatrixError for structural singularity or for any pivot at
    or below ``PIVOT_RTOL * max|entry|``; the caller is expected to perturb
    the shift and retry.
    """
    if M.nrows == 0:
        raise ValueError("cannot factorize an empty matrix")
    max_abs = float(np.abs(M.data).max()) if M.nnz else 0.0
    if max_abs == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    if M._source is None:
        M = shifted(M, 0, 0.0)
    pattern = M._source
    if pattern.cols is None:
        raise SingularMatrixError("sparse LU failed: the matrix is structurally singular")
    try:
        lu = spla.splu(pattern.in_column_order(M), permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    U = lu.U
    udiag = U.diagonal()
    min_pivot = float(np.abs(udiag).min()) if udiag.size else 0.0
    if udiag.size != M.nrows or min_pivot <= PIVOT_RTOL * max_abs:
        raise SingularMatrixError(
            f"pivot {min_pivot:.3e} below threshold {PIVOT_RTOL * max_abs:.3e}; "
            "the shift likely coincides with an eigenvalue"
        )
    growth = float(np.abs(U.data).max() / max_abs) if U.nnz else 0.0
    return Factorization(lu, growth, pattern.cols)


def dense_eig(A, B):
    """Eigenvalues of the small dense pencil ``A x = w B x``, from QZ.

    QZ does not invert B; a singular B gives non-finite entries of w.
    scipy rejects non-finite entries and unequal shapes with ``ValueError``.
    """
    try:
        return sla.eigvals(A, B)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
