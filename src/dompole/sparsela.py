"""Sparse CSC storage, shifted LU factorization, and the small pencil eigensolve.

A thin layer over scipy: it keeps only the checks scipy does not make
(canonical complex CSC on the way in, full structural rank before LU, a
bound on each solution after it).
All numeric work runs in complex double precision even for real inputs:
the solver shifts are complex, and a single complex path avoids duplicated
real/complex kernels.

The pattern of ``J - sE`` does not depend on s. ``ordered(J, ndyn)`` makes
``J - sE`` at s = 0 once, its rows and columns in one symmetric order
``cols``: the minimum-degree order of the pattern of ``A + A^T``, from one
SuperLU factorization of generic values in ``SymmetricMode``. It raises
StructurallySingularError (a SingularMatrixError that no shift can cure)
for a pattern whose ``structural_rank`` is short, before any SuperLU call.
``shifted`` makes each ``(J - sE)[cols][:, cols]``, that is ``P (J - sE)
P^T``, the matrix SuperLU factors, from that result with one copy and one
subtraction; a cancelled entry stays stored as a zero. The module keeps no
state: ``DescriptorSystem`` keeps the orders of its J and J4. A
``ShiftedMatrix`` is the one input ``factorize`` takes; a matrix A itself
is factored as ``factorize(ordered(A, 0))``.

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
import copy
from dataclasses import dataclass

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
    "ordered",
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
    """``J - sE`` is singular for every s, by its pattern; only ``ordered`` raises it."""


class EigenSolverError(RuntimeError):
    """The dense eigenvalue iteration failed to converge."""


class SparseMatrix:
    """Complex sparse matrix held as one canonical ``scipy.sparse.csc_matrix``.

    The held matrix is complex128, with sorted row indices and no duplicate
    entries. Build instances with ``from_scipy``, which makes that form and
    checks it; read the matrix itself with ``to_scipy``.
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

    def to_scipy(self):
        return self._csc

    def matvec(self, x):
        """Return ``M @ x``."""
        return self._csc @ np.asarray(x, dtype=np.complex128)

    def matvec_t(self, x):
        """Return ``M.T @ x`` (plain transpose, no conjugation)."""
        return self._csc.T @ np.asarray(x, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class ShiftedMatrix:
    """``J - sE`` from ``ordered`` or ``shifted``: ``csc`` is ``(J - sE)[cols][:, cols]``.

    ``cols`` is that symmetric order, of rows and columns alike; ``diag``
    holds the data positions of E's ones in ``csc``.
    """

    csc: sp.csc_matrix
    cols: np.ndarray
    diag: np.ndarray


def ordered(J, ndyn):
    """``J - sE`` at s = 0 as a ShiftedMatrix, whose order every shift keeps.

    J is any scipy matrix or 2-D array, and E = diag(1,...,1,0,...,0) has
    ``ndyn`` ones. The pattern is J's nonzero entries plus an explicit zero
    on each of E's diagonal positions. Its order comes from one
    minimum-degree factorization of generic values on that pattern, whose
    factors are discarded. A structurally singular pattern raises
    StructurallySingularError before that factorization.
    """
    coo = sp.coo_matrix(J, dtype=np.complex128)
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
    return ShiftedMatrix(P, cols, diag)


def shifted(base, s):
    """``J - s*E`` as a ShiftedMatrix, for ``base = ordered(J, ndyn)``.

    The result shares its index arrays, canonical-format flag and order with
    base, which ``ordered`` checked, so scipy's constructor does not check
    them again; its data is its own. A shift that is not finite raises
    ValueError.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"shift {s!r} is not finite")
    csc = copy.copy(base.csc)
    csc.data = base.csc.data.copy()
    csc.data[base.diag] -= s
    return ShiftedMatrix(csc, base.cols, base.diag)


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
                f"right-hand side has shape {rhs.shape}, expected ({self.order},)"
            )
        xp = self.lu.solve(rhs[self.cols], trans="T" if transposed else "N")
        # infinity norms do not see the order cols, so x is tested before
        # it is scattered back; written so that a NaN in x fails it too
        xnorm = float(np.abs(xp).max(initial=0.0))
        bnorm = float(np.abs(rhs).max(initial=0.0))
        if not xnorm * _EPS * self.max_abs <= bnorm:
            raise SingularMatrixError(
                f"solution norm {xnorm:.3e} above {bnorm / (_EPS * self.max_abs):.3e} "
                "= ||rhs|| / (eps max|A|): the matrix is singular to working precision"
            )
        x = np.empty_like(rhs)
        x[self.cols] = xp
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
    """Sparse LU of the ShiftedMatrix M, with threshold pivoting.

    Raises SingularMatrixError when M has no nonzero entry or SuperLU finds
    it exactly singular; a matrix singular only to working precision is
    caught by ``Factorization.solve``.
    """
    max_abs = float(np.abs(M.csc.data).max(initial=0.0))
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
