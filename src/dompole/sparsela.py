"""Sparse CSC storage, shifted LU factorization, and small dense eigensolves.

A thin layer over scipy: it keeps only the checks scipy does not make
(canonical complex CSC on the way in, a relative pivot threshold after LU).
All numeric work runs in complex double precision even for real inputs:
the solver shifts are complex, and a single complex path avoids duplicated
real/complex kernels.
"""

from __future__ import annotations

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

    __slots__ = ("_csc",)

    def __init__(self, csc):
        """Wrap ``csc`` as is; it must already be canonical (see ``from_scipy``)."""
        self._csc = csc

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
        return self._csc.T @ np.asarray(x, dtype=np.complex128)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def shifted(J, ndyn, s):
    """Return ``J - s*E`` where ``E = diag(1,...,1,0,...,0)`` with ``ndyn`` ones.

    The result's pattern is J's pattern united with the first ``ndyn``
    diagonal positions; entries that cancel to exactly zero are dropped.
    """
    N = J.nrows
    if not 0 <= ndyn <= N:
        raise ValueError(f"ndyn {ndyn} out of range for order {N}")
    dyn = np.arange(ndyn)
    E = sp.csc_matrix((np.ones(ndyn), (dyn, dyn)), shape=(N, N))
    # the difference of two canonical CSC matrices is canonical
    return SparseMatrix(J.to_scipy() - complex(s) * E)


class Factorization:
    """LU factors of a (shifted) sparse matrix with fill-reducing ordering.

    ``lu`` is scipy's SuperLU object: ``lu.perm_r``, ``lu.perm_c``, ``lu.L``
    and ``lu.U`` satisfy ``Pr @ M @ Pc = L @ U`` with ``Pr[perm_r[i], i] = 1``
    and ``Pc[i, perm_c[i]] = 1``. ``pivot_growth`` is ``max|U| / max|M|``.
    """

    __slots__ = ("lu", "order", "pivot_growth")

    def __init__(self, lu, order, pivot_growth):
        self.lu = lu
        self.order = order
        self.pivot_growth = pivot_growth

    def solve(self, rhs, transposed=False):
        """Solve ``M x = rhs`` or ``M.T x = rhs`` using the stored factors."""
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape != (self.order,):
            raise ValueError(
                f"right-hand side has length {rhs.shape}, expected ({self.order},)"
            )
        return self.lu.solve(rhs, trans="T" if transposed else "N")


def factorize(M):
    """Sparse LU of M with COLAMD column ordering and partial pivoting.

    Raises SingularMatrixError for structural singularity or for any pivot at
    or below ``PIVOT_RTOL * max|entry|``; the caller is expected to perturb
    the shift and retry.
    """
    if M.nrows == 0:
        raise ValueError("cannot factorize an empty matrix")
    max_abs = float(np.abs(M.data).max()) if M.nnz else 0.0
    if max_abs == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    try:
        lu = spla.splu(M.to_scipy(), permc_spec="COLAMD")
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
    return Factorization(lu, M.nrows, growth)


def dense_eig(A, B=None):
    """Eigenvalues of a dense matrix or of the pencil (A, B).

    Without B, returns all eigenvalues and unit-norm right eigenvectors of
    A. With B, returns ``(w, None)``: the generalized eigenvalues of
    ``A x = w B x`` from QZ, which does not invert B; a singular B gives
    non-finite entries of w. Intended for small matrices (the projected
    p-by-p systems and reference work up to a few hundred rows).
    """
    mats = [np.ascontiguousarray(m, dtype=np.complex128) for m in (A, B) if m is not None]
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape != mats[0].shape:
            raise ValueError("dense_eig() requires square 2-D matrices of one shape")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
    try:
        if B is None:
            w, v = np.linalg.eig(mats[0])
            return w, v
        return sla.eigvals(*mats, check_finite=False), None
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
