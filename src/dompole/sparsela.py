"""Sparse CSC storage, shifted LU factorization, and the small pencil eigensolve.

A thin layer over scipy: it keeps only the checks scipy does not make
(canonical complex CSC on the way in, full structural rank before LU, a
bound on each solution after it).
All numeric work runs in complex double precision even for real inputs:
the solver shifts are complex, and a single complex path avoids duplicated
real/complex kernels.

The pattern of ``J - sE`` does not depend on s. The first ``shifted(J,
ndyn, s)`` call therefore keeps ``shifted(J, ndyn, 0)`` on J, its rows and
columns in one symmetric order ``cols``: the minimum-degree order of the
pattern of ``A + A^T``, from one SuperLU factorization of generic values
in ``SymmetricMode``. Each call then makes ``(J - sE)[cols][:, cols]``,
that is ``P (J - sE) P^T``, the matrix SuperLU factors, with one copy and
one subtraction; a cancelled entry stays stored as a zero. A pattern whose
``structural_rank`` is short raises StructurallySingularError (a
SingularMatrixError that no shift can cure) there, before any SuperLU call,
and nothing is cached. The result is a ``ShiftedMatrix``, the
one input ``factorize`` takes; a SparseMatrix M itself is factored as
``factorize(shifted(M, 0, 0))``. J must not be changed in place once it
has been shifted.

Every ``splu`` call, the ordering one and the one per shift, takes
``SUPERLU_OPTIONS``. Given ``P (J - sE) P^T`` in its natural order, SuperLU
prefers each diagonal entry as the pivot, and ``diag_pivot_thresh=0.01``
keeps it while it is at least 1% of the largest entry left in its column.
Over the benchmark's pole hunts, the median LU of the grid stores 12.1
factor entries per row and the feeder's 9.1, against 14.6 and 11.2 under
the earlier COLAMD column order, whose partial pivoting swapped every row.
Rows swap only where a diagonal entry falls below the threshold; that
costs some fill (at most 12.5 and 10.2 per row) and lets the pivot growth
``max|U| / max|A|`` exceed 1 (at most 46, on the feeder). ``relax=1``
turns off SuperLU's relaxed supernodes, which padded the grid from 14.6 to
22.2 factor entries per row under COLAMD. In the symmetric order they pad
neither benchmark model, but still add a median 15% to the factors of
random unsymmetric patterns of order 20 to 199. ``panel_size=1`` factored
both models faster than widths 4 and 10 (the default) under COLAMD, with
the same factor entries.

``factorize`` never reads the factors back, as scipy would copy L and U
out to CSC for that (a fifth of a feeder column refresh); each LU is judged
by its solves. ``Factorization.solve`` raises SingularMatrixError when x is
not finite or ``||x|| eps max|A| > ||b||`` (infinity norms, ``eps`` the
unit roundoff): A is singular to working precision. An answer that gets no
later residual check (a transfer function sample, the feedthrough of J4)
goes through ``_accurate_solve``: past a normwise backward error of
``BACKWARD_RTOL`` the threshold has cost too many digits, and the same
matrix is factored again with partial pivoting (``diag_pivot_thresh=1``),
whose multipliers are at most 1 in modulus. The solver needs no such
check, as it locks a column only on explicit residuals.
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
    "StructurallySingularError",
    "EigenSolverError",
    "SparseMatrix",
    "ShiftedMatrix",
    "Factorization",
    "shifted",
    "factorize",
    "dense_eig",
]

# SuperLU options for every factorization (see the module docstring)
SUPERLU_OPTIONS = {"relax": 1, "panel_size": 1, "diag_pivot_thresh": 0.01}

# A solve by _accurate_solve whose normwise backward error exceeds this is
# made again from an LU with partial pivoting (see the module docstring)
BACKWARD_RTOL = 1e-12

_EPS = np.finfo(float).eps


class SingularMatrixError(ArithmeticError):
    """The matrix is structurally or numerically singular."""


class StructurallySingularError(SingularMatrixError):
    """``J - sE`` is singular for every s, by its pattern; only ``shifted`` raises it."""


class EigenSolverError(RuntimeError):
    """The dense eigenvalue iteration failed to converge."""


class SparseMatrix:
    """Complex sparse matrix held as one canonical ``scipy.sparse.csc_matrix``.

    The held matrix is complex128, with sorted row indices and no duplicate
    entries. Build instances with ``from_scipy``, which makes that form and
    checks it; read the matrix itself with ``to_scipy``.
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

    def to_scipy(self):
        return self._csc

    def matvec(self, x):
        """Return ``M @ x``."""
        return self._csc @ np.asarray(x, dtype=np.complex128)

    def matvec_t(self, x):
        """Return ``M.T @ x`` (plain transpose, no conjugation)."""
        if self._transpose is None:
            self._transpose = self._csc.T
        return self._transpose @ np.asarray(x, dtype=np.complex128)

    def __repr__(self):
        (nrows, ncols), nnz = self._csc.shape, self._csc.nnz
        return f"SparseMatrix({nrows}x{ncols}, nnz={nnz})"


@dataclass(frozen=True, eq=False)
class ShiftedMatrix:
    """``J - sE`` from ``shifted``: ``csc`` is ``(J - sE)[cols][:, cols]`` in scipy CSC.

    ``cols`` is the symmetric order cached for ``(J, ndyn)``, applied to rows
    and columns alike. ``diag`` holds the data positions of E's ones in
    ``csc`` and ``max_off`` the largest ``|J|`` entry off them.
    """

    csc: sp.csc_matrix
    ndyn: int
    cols: np.ndarray
    diag: np.ndarray
    max_off: float


def _unshifted(J, ndyn):
    """``shifted(J, ndyn, 0)``, the cache that every shift of ``(J, ndyn)`` copies.

    Its pattern is J's nonzero entries plus an explicit zero on each of E's
    diagonal positions. Its order comes from one minimum-degree
    factorization of generic values on that pattern, whose factors are
    discarded. A structurally singular pattern raises
    StructurallySingularError before that factorization.
    """
    coo = J.to_scipy().tocoo()
    N = coo.shape[0]
    nz = coo.data != 0
    dyn = np.arange(ndyn)
    # J's value plus an explicit zero is J's value, and stays stored either way
    data = np.r_[coo.data[nz], np.zeros(ndyn)]
    row, col = np.r_[coo.row[nz], dyn], np.r_[coo.col[nz], dyn]
    P = sp.csc_matrix((data, (row, col)), shape=(N, N))
    rank = structural_rank(P)
    if rank < N:
        raise StructurallySingularError(
            f"the matrix is structurally singular (structural rank {rank} < {N})"
        )
    # complex values, like the shifted matrices', so that the factorizations
    # after this one reuse its memory instead of raising the peak
    rng = np.random.default_rng(0)
    noise = rng.uniform(1.0, 2.0, P.nnz) + 1j * rng.uniform(1.0, 2.0, P.nnz)
    generic = sp.csc_matrix((noise, P.indices, P.indptr), shape=(N, N))
    perm = spla.splu(generic, permc_spec="MMD_AT_PLUS_A",
                     options={"SymmetricMode": True}, **SUPERLU_OPTIONS).perm_c
    cols = np.argsort(perm).astype(np.int32)
    # entry (i, j) of J - sE is entry (perm[i], perm[j]) of P (J - sE) P^T
    P = sp.csc_matrix((data, (perm[row], perm[col])), shape=(N, N))
    at = np.repeat(np.arange(N), np.diff(P.indptr))
    diag = np.flatnonzero((P.indices == at) & (cols[at] < ndyn))
    max_off = float(np.abs(np.delete(P.data, diag)).max(initial=0.0))
    return ShiftedMatrix(P, ndyn, cols, diag, max_off)


def shifted(J, ndyn, s):
    """``J - s*E`` as a ShiftedMatrix; E = diag(1,...,1,0,...,0) has ``ndyn`` ones.

    The pattern is the same for every s; the result shares its index arrays
    with the cache on J. A shift that is not finite raises ValueError, and a
    structurally singular pattern StructurallySingularError.
    """
    N = J.to_scipy().shape[0]
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
    """LU factors of ``A[cols][:, cols]`` for ``A = J - sE``, the ShiftedMatrix's ``csc``.

    ``solve`` takes and returns vectors in A's natural order.
    ``max_abs`` is ``max|A|``.
    """

    __slots__ = ("lu", "cols", "max_abs")

    def __init__(self, lu, cols, max_abs):
        self.lu = lu
        self.cols = cols
        self.max_abs = max_abs

    order = property(lambda self: self.cols.size)

    @property
    def pivot_growth(self):
        """``max|U| / max|A|``; reading it makes scipy build ``lu.U``, which
        no solve needs."""
        return float(np.abs(self.lu.U.data).max(initial=0.0)) / self.max_abs

    def solve(self, rhs, transposed=False):
        """Solve ``A x = rhs`` or ``A.T x = rhs`` using the stored factors.

        Raises SingularMatrixError when x is not finite or ``||x|| eps
        max|A| > ||rhs||``; the caller is expected to perturb the shift and
        retry.
        """
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape != (self.order,):
            raise ValueError(
                f"right-hand side has length {rhs.shape}, expected ({self.order},)"
            )
        x = np.empty_like(rhs)
        x[self.cols] = self.lu.solve(rhs[self.cols], trans="T" if transposed else "N")
        xnorm = float(np.abs(x).max(initial=0.0))
        bnorm = float(np.abs(rhs).max(initial=0.0))
        # written so that a NaN in x fails it too
        if not xnorm * _EPS * self.max_abs <= bnorm:
            raise SingularMatrixError(
                f"solution norm {xnorm:.3e} above {bnorm / (_EPS * self.max_abs):.3e} "
                "= ||rhs|| / (eps max|A|): the matrix is singular to working precision"
            )
        return x


def _lu(M, max_abs, diag_pivot_thresh):
    """One SuperLU factorization of ``M.csc`` in its natural order."""
    options = {**SUPERLU_OPTIONS, "diag_pivot_thresh": diag_pivot_thresh}
    try:
        lu = spla.splu(M.csc, permc_spec="NATURAL", **options)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    return Factorization(lu, M.cols, max_abs)


def factorize(M):
    """Sparse LU of the ShiftedMatrix M from ``shifted``, with threshold pivoting.

    Raises SingularMatrixError when M has no nonzero entry or SuperLU finds
    it exactly singular; a matrix singular only to working precision is
    caught by ``Factorization.solve``.
    """
    max_abs = float(np.abs(M.csc.data[M.diag]).max(initial=M.max_off))
    if max_abs == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    return _lu(M, max_abs, SUPERLU_OPTIONS["diag_pivot_thresh"])


def _accurate_solve(M, fac, rhs):
    """x with ``A x = rhs`` for the ShiftedMatrix M and ``fac = factorize(M)``.

    When the solve by ``fac`` has a normwise backward error
    ``||A x - rhs|| / (max|A| ||x|| + ||rhs||)`` above ``BACKWARD_RTOL``, M
    is factored again with partial pivoting and x is the solve by that LU.
    """
    rhs = np.asarray(rhs, dtype=np.complex128)
    x = fac.solve(rhs)
    # infinity norms do not see the order cols
    residual = np.abs(M.csc @ x[fac.cols] - rhs[fac.cols]).max(initial=0.0)
    scale = fac.max_abs * np.abs(x).max(initial=0.0) + np.abs(rhs).max(initial=0.0)
    if residual <= BACKWARD_RTOL * scale:
        return x
    return _lu(M, fac.max_abs, 1.0).solve(rhs)


def dense_eig(A, B):
    """Eigenvalues of the small dense pencil ``A x = w B x``, from QZ.

    QZ does not invert B; a singular B gives non-finite entries of w.
    scipy rejects non-finite entries and unequal shapes with ``ValueError``.
    """
    try:
        return sla.eigvals(A, B)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
