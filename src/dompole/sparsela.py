"""Sparse CSC storage, shifted LU factorization, and the small pencil eigensolve.

A thin layer over scipy: it keeps only the checks scipy does not make
(canonical complex CSC on the way in, full structural rank before LU, a
relative pivot threshold after it).
All numeric work runs in complex double precision even for real inputs:
the solver shifts are complex, and a single complex path avoids duplicated
real/complex kernels.

The pattern of ``J - sE`` does not depend on s. The first ``shifted(J,
ndyn, s)`` call therefore keeps ``shifted(J, ndyn, 0)`` on J, its columns
in the COLAMD order of that pattern. Each call then makes
``(J - sE)[:, cols]``, the matrix SuperLU factors, with one copy and one
subtraction; a cancelled entry stays stored as a zero. A pattern whose
``structural_rank`` is short keeps the natural order and never reaches
SuperLU: ``factorize`` raises SingularMatrixError for it. The result is a
``ShiftedMatrix``: its columns permuted, it is no SparseMatrix.
``factorize`` takes a SparseMatrix through ``shifted(M, 0, 0)`` first. J
must not be changed in place once it has been shifted or factored.

Every ``splu`` call, the ordering one and the one per shift, takes
``SUPERLU_OPTIONS``. ``relax=1`` turns off SuperLU's relaxed supernodes,
which pad a network's tiny supernodes with explicit zeros: the grid stores
14.6 factor entries per row instead of 22.2. ``panel_size=1`` factors both
benchmark models faster than widths 4 and 10 (the default), with the same
factor entries. The COLAMD order is the same either way.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import structural_rank

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
    entries. Build instances with ``from_scipy`` (or ``from_dense``), which
    makes that form and checks it.
    """

    # _transpose: CSR view of M.T over M's own arrays, built by the first
    # matvec_t. _shifts: shifted(J, ndyn, 0) for the last ndyn passed to shifted.
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


@dataclass(frozen=True, eq=False)
class ShiftedMatrix:
    """``J - sE`` from ``shifted``: ``csc`` is ``(J - sE)[:, cols]`` in scipy CSC.

    ``cols`` is the COLAMD column order cached for ``(J, ndyn)``, or None when
    the pattern is structurally singular (``csc`` then keeps the natural
    order). ``diag`` holds the data positions of E's ones in ``csc`` and
    ``max_off`` the largest ``|J|`` entry off them.
    """

    csc: sp.csc_matrix
    ndyn: int
    cols: np.ndarray | None
    diag: np.ndarray
    max_off: float


def _unshifted(J, ndyn):
    """``shifted(J, ndyn, 0)``, the cache that every shift of ``(J, ndyn)`` copies.

    Its pattern is J's nonzero entries plus an explicit zero on each of E's
    diagonal positions. Its column order comes from one COLAMD factorization
    of generic values on that pattern, whose factors are discarded; a
    structurally singular pattern skips it and keeps the natural order.
    """
    N = J.nrows
    coo = J.to_scipy().tocoo()
    nz = coo.data != 0
    dyn = np.arange(ndyn)
    # J's value plus an explicit zero is J's value, and stays stored either way
    ij = (np.r_[coo.row[nz], dyn], np.r_[coo.col[nz], dyn])
    P = sp.csc_matrix((np.r_[coo.data[nz], np.zeros(ndyn)], ij), shape=(N, N))
    cols = None
    if structural_rank(P) == N:
        # complex values, like the shifted matrices', so that the factorizations
        # after this one reuse its memory instead of raising the peak
        rng = np.random.default_rng(0)
        noise = rng.uniform(1.0, 2.0, P.nnz) + 1j * rng.uniform(1.0, 2.0, P.nnz)
        generic = sp.csc_matrix((noise, P.indices, P.indptr), shape=(N, N))
        perm_c = spla.splu(generic, permc_spec="COLAMD", **SUPERLU_OPTIONS).perm_c
        cols = np.argsort(perm_c).astype(np.int32)
        P = P[:, cols]
    col = np.repeat(np.arange(N) if cols is None else cols, np.diff(P.indptr))
    diag = np.flatnonzero((P.indices == col) & (col < ndyn))
    max_off = float(np.abs(np.delete(P.data, diag)).max(initial=0.0))
    return ShiftedMatrix(P, ndyn, cols, diag, max_off)


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
    base = J._shifts
    if base is None or base.ndyn != ndyn:
        base = J._shifts = _unshifted(J, ndyn)
    data = base.csc.data.copy()
    data[base.diag] -= s
    csc = sp.csc_matrix((data, base.csc.indices, base.csc.indptr), shape=(N, N))
    csc.has_canonical_format = True
    return replace(base, csc=csc)


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
    max_abs = float(np.abs(M.csc.data[M.diag]).max(initial=M.max_off))
    if max_abs == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    if M.cols is None:
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
    return Factorization(lu, M.cols, max_abs)


def dense_eig(A, B):
    """Eigenvalues of the small dense pencil ``A x = w B x``, from QZ.

    QZ does not invert B; a singular B gives non-finite entries of w.
    scipy rejects non-finite entries and unequal shapes with ``ValueError``.
    """
    try:
        return sla.eigvals(A, B)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
