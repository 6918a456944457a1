"""Sparse CSC storage, shifted LU factorization, and the small pencil eigensolve.

A thin layer over scipy: it keeps only the checks scipy does not make
(canonical complex CSC on the way in, full structural rank before LU, a
bound on each solution after it).
All numeric work runs in complex double precision even for real inputs:
the solver shifts are complex, and a single complex path avoids duplicated
real/complex kernels.

The pattern of ``J - sE`` does not depend on s, and only E's ones move with
it. ``ordered(J, ndyn)`` does the work all shifts share, once:

- It orders the rows and columns of ``J - sE`` symmetrically by the
  minimum-degree order of the pattern of ``A + A^T``, from one SuperLU
  factorization of generic values in ``SymmetricMode``. A pattern whose
  ``structural_rank`` is short raises StructurallySingularError (a
  SingularMatrixError that no shift can cure) before any SuperLU call.
- It splits the rows and columns in two. The dependent set D holds every
  node that a shifted entry reaches in the filled graph of that
  factorization's L + U (an edge k -> j, k < j, where ``L[j, k]`` or
  ``U[k, j]`` is stored). The rest, the shift-invariant set I, is
  eliminated without meeting a shifted entry. The order ``cols`` puts I
  first and D after it, each in its minimum-degree order, which keeps the
  fill.
- With ``K = J - sE`` in that order and ``K11 = K[I, I]``, it factors K11
  and builds ``S0 = K22 - K21 K11^-1 K12``, the Schur complement at s = 0,
  from the factors of one LU of K, whose I rows and columns hold no
  shifted entry. That LU is taken at a fixed shift away from 0, where J
  itself may be singular. The shifts only move E's ones in S0:
  ``S(s) = S0 - s E_D``.

On the benchmark's 9,800-order grid, I holds 7,435 nodes; S0 has order
2,365 and its LU a quarter of the whole matrix's factor entries. I is
empty, and the whole matrix is factored for each shift, when ``ndyn = 0``
(nothing moves), when every node depends on a shift, or when K11 is
singular or that one LU pivots across the partition. ``ordered`` returns
``J - sE`` at s = 0 as a ``ShiftedMatrix``, whose ``csc`` is S0 and whose
``schur`` keeps the rest; ``shifted`` makes each ``S(s)`` from it with one
copy and one subtraction, a cancelled entry staying stored as a zero, and
``factorize`` factors only that. ``Factorization.solve`` then takes
``x_D = S^-1 (b_D - K21 K11^-1 b_I)`` and ``x_I = K11^-1 (b_I - K12
x_D)``, and the transpose alike. ``_condense`` makes the parts of a
right-hand side that do not depend on s (``K11^-1 b_I``, the first bracket
and ``||b||``) once, for a b that many shifts solve with. The module keeps
no state: ``DescriptorSystem`` keeps the orders of its J and J4 and its B
and C condensed. A matrix A itself is factored as
``factorize(ordered(A, 0))``.

Every ``splu`` call takes ``SUPERLU_OPTIONS``. Given ``S(s)``, K11 or
``P (J - sE) P^T`` in its natural order, SuperLU prefers each diagonal
entry as the pivot, and ``diag_pivot_thresh=0.01`` keeps it while it is at
least 1% of the largest entry left in its column. Over the benchmark's pole
hunts before the condensation, the median LU of the whole grid stored 12.1
factor entries per row and the feeder's 9.1, against 14.6 and 11.2 under
the earlier COLAMD column order, whose partial pivoting swapped every row.
Rows swap only where a diagonal entry falls below the threshold; that costs
some fill (at most 12.5 and 10.2 per row) and lets the pivot growth
``max|U| / max|A|`` exceed 1 (at most 46, on the feeder). ``relax=1`` turns
off SuperLU's relaxed supernodes, which padded the grid from 14.6 to 22.2
factor entries per row under COLAMD. In the symmetric order they pad
neither benchmark model, but still add a median 15% to the factors of
random unsymmetric patterns of order 20 to 199. ``panel_size=1`` factored
both models faster than widths 4 and 10 (the default) under COLAMD, with
the same factor entries.

``factorize`` never reads the factors back, as scipy would copy L and U
out to CSC for that (a fifth of a feeder column refresh); each LU is judged
by its solves. ``Factorization.solve`` raises SingularMatrixError when x is
not finite or ``||x|| eps max|A| > ||b||`` (infinity norms, ``eps`` the
unit roundoff, A the whole ``J - sE``): A is singular to working
precision. ``max|A|`` is the larger of the largest entry no shift moves
and the largest ``|J_ii - s|`` over E's ones. An answer that gets no later
residual check (a transfer function sample, the feedthrough of J4) goes
through ``_accurate_solve``: past a normwise backward error of
``BACKWARD_RTOL`` the threshold has cost too many digits, and the whole
matrix is factored again with partial pivoting (``diag_pivot_thresh=1``),
whose multipliers are at most 1 in modulus. The solver needs no such
check, as it locks a column only on explicit residuals.
"""

from __future__ import annotations

import cmath
import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, structural_rank

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

# The shift of the one LU that S0 is read from. Its I rows and columns do
# not depend on it; any shift at which SuperLU meets no exactly zero pivot
# in D serves, so not s = 0, where J itself may be singular.
_SCHUR_SHIFT = 0.6180339887498949 + 1.4142135623730951j

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


class _Schur:
    """The part of ``J - sE`` that every shift shares, in the order ``cols``.

    ``cols`` puts the shift-invariant set I (the first ``ni``) before D.
    ``J`` is the matrix that ``ordered`` was given, as a CSC matrix that
    shares J's arrays where J is one, and ``ndyn`` the count of E's ones.
    ``k11`` is the SuperLU object of ``K11 = K[I, I]`` for ``K = (J -
    sE)[cols][:, cols]`` (None when I is empty), and ``k12``, ``k21`` are
    ``K[I, D]`` and ``K[D, I]``. ``const_max`` is the largest |entry| of K
    that no shift moves, and ``dyn`` holds J's entries at E's ones.
    """

    __slots__ = ("J", "ndyn", "cols", "ni", "k11", "k12", "k21", "const_max", "dyn", "_u_max")

    def __init__(self, J, ndyn, cols, a, adiag, k11=None):
        """For ``a, adiag = _in_order(J, ndyn, cols)``, which is not kept."""
        self.J, self.ndyn, self.cols = J, ndyn, cols
        self.k11, self._u_max = k11, None
        self.ni = ni = 0 if k11 is None else k11.shape[0]
        self.k12 = a[:ni, ni:]
        self.k21 = a[ni:, :ni]
        const = np.ones(a.nnz, dtype=bool)
        const[adiag] = False
        self.const_max = float(np.abs(a.data[const]).max(initial=0.0))
        self.dyn = a.data[adiag]

    @property
    def u_max(self):
        """The largest |entry| of k11's U factor, 0 when I is empty. It is
        read on first use, as scipy copies U out to read it, which no solve
        needs."""
        if self._u_max is None:
            self._u_max = 0.0 if self.k11 is None else float(np.abs(self.k11.U.data).max())
        return self._u_max

    def k11_solve(self, v, transposed):
        """``K11^-1 v``, or ``K11^-T v``; v itself when I is empty."""
        if self.k11 is None:
            return v
        return self.k11.solve(v, trans="T" if transposed else "N")


@dataclass(frozen=True, eq=False)
class ShiftedMatrix:
    """``J - sE`` from ``ordered`` or ``shifted``, condensed onto the set D.

    ``csc`` is ``S(s) = S0 - s E_D``, the matrix SuperLU factors: the whole
    ``(J - sE)[cols][:, cols]`` when I is empty. ``diag`` holds the data
    positions of E's ones in ``csc``, ``s`` is the shift and ``schur`` what
    every shift of the system shares, the order ``schur.cols`` included.
    """

    csc: sp.csc_matrix
    diag: np.ndarray
    s: complex
    schur: _Schur


def _shift(csc, diag, s):
    """csc with s subtracted from the data positions diag; the index arrays
    and the canonical-format flag are shared, so scipy does not check them
    again."""
    out = copy.copy(csc)
    out.data = csc.data.copy()
    out.data[diag] -= s
    return out


def _in_order(J, ndyn, cols):
    """``(J - sE)[cols][:, cols]`` at s = 0 and the data positions of E's ones
    in it. It stores J's nonzero entries and an explicit zero on each of E's
    ones."""
    coo = sp.coo_matrix(J, dtype=np.complex128)
    nz = coo.data != 0
    dyn = np.arange(ndyn)
    N = cols.size
    # entry (i, j) of J - sE is entry (at[i], at[j]) of the result
    at = np.empty(N, dtype=np.int64)
    at[cols] = np.arange(N)
    # J's value plus an explicit zero is J's value, and stays stored either way
    row, col = at[np.r_[coo.row[nz], dyn]], at[np.r_[coo.col[nz], dyn]]
    a = sp.csc_matrix((np.r_[coo.data[nz], np.zeros(ndyn)], (row, col)), shape=(N, N))
    return a, _diagonal(a, cols < ndyn)


def _diagonal(csc, dynamic):
    """Data positions of the stored diagonal entries (k, k) of csc with ``dynamic[k]``."""
    at = np.repeat(np.arange(csc.shape[1]), np.diff(csc.indptr))
    return np.flatnonzero((csc.indices == at) & dynamic[at])


def _dependent(lu, ndyn):
    """Whether a shift reaches each step of lu's elimination order: the
    steps of E's ones, and every step after them in the filled graph of
    L + U, with an edge k -> j where ``L[j, k]`` or ``U[k, j]`` is stored."""
    N = lu.shape[0]
    src = np.union1d(lu.perm_c[:ndyn], lu.perm_r[:ndyn])
    # L's CSC arrays, read as CSR, are L^T, whose row k lists the j with
    # L[j, k] stored; U's, read as CSR, are U^T. Only the pattern is kept.
    L = lu.L
    lt = sp.csr_matrix((np.ones(L.nnz, dtype=np.int8), L.indices, L.indptr), shape=(N, N))
    del L
    U = lu.U
    ut = sp.csr_matrix((np.ones(U.nnz, dtype=np.int8), U.indices, U.indptr), shape=(N, N))
    del U
    graph = lt + ut.T
    del lt, ut
    # one more node, N, has an edge to each of E's ones
    graph = sp.csr_matrix(
        (np.ones(graph.nnz + src.size), np.r_[graph.indices, src],
         np.r_[graph.indptr, graph.nnz + src.size]),
        shape=(N + 1, N + 1),
    )
    dep = np.zeros(N + 1, dtype=bool)
    dep[breadth_first_order(graph, N, directed=True, return_predecessors=False)] = True
    return dep[:N]


def ordered(J, ndyn):
    """``J - sE`` at s = 0 as a ShiftedMatrix, condensed once for every shift.

    J is any scipy matrix or 2-D array, and E = diag(1,...,1,0,...,0) has
    ``ndyn`` ones. The pattern is J's nonzero entries plus an explicit zero
    on each of E's diagonal positions. Its order comes from one
    minimum-degree factorization of generic values on that pattern, whose
    factors' pattern gives the shift-invariant set I; then K11 is factored
    and S0 read off one LU of the reordered matrix (see the module
    docstring). A structurally singular pattern raises
    StructurallySingularError before any factorization.
    """
    J = sp.csc_matrix(J, dtype=np.complex128)
    N = J.shape[0]
    P, _ = _in_order(J, ndyn, np.arange(N))
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
    del P, noise
    lu = spla.splu(generic, permc_spec="MMD_AT_PLUS_A",
                   options={"SymmetricMode": True}, **SUPERLU_OPTIONS)
    del generic
    # with no shifted entry nothing moves with s, and nothing is condensed
    dep = _dependent(lu, ndyn) if ndyn else np.ones(N, dtype=bool)
    md = np.argsort(lu.perm_c)
    cols = np.r_[md[~dep], md[dep]].astype(np.int32)
    ni = N - int(np.count_nonzero(dep))
    a, adiag = _in_order(J, ndyn, cols)
    k11 = None
    if ni:
        # K11's factors are kept, so they are made while the ordering's LU
        # still holds its memory: SuperLU's spare capacity for them is then
        # mapped afresh, and stays out of the resident set
        try:
            k11 = spla.splu(a[:ni, :ni], permc_spec="NATURAL", **SUPERLU_OPTIONS)
        except RuntimeError:  # an exactly zero pivot
            pass
    del lu  # before the LU that S0 is read from
    return _condensed(J, ndyn, cols, a, adiag, k11)


def _condensed(J, ndyn, cols, a, adiag, k11=None):
    """``ordered``'s result for ``a, adiag = _in_order(J, ndyn, cols)``:
    condensed onto the rows and columns after K11's, or whole when there is
    no K11 or the LU that S0 is read from pivots across the partition."""
    if k11 is None:
        return ShiftedMatrix(a, adiag, 0j, _Schur(J, ndyn, cols, a, adiag))
    ni = k11.shape[0]
    N = a.shape[0]
    try:
        # SymmetricMode keeps SuperLU from postordering the columns
        lu = spla.splu(_shift(a, adiag, _SCHUR_SHIFT), permc_spec="NATURAL",
                       options={"SymmetricMode": True}, **SUPERLU_OPTIONS)
        ok = (lu.perm_c == np.arange(N)).all() and (lu.perm_r[:ni] < ni).all()
    except RuntimeError:  # an exactly zero pivot
        ok = False
    if not ok:
        return _condensed(J, ndyn, cols, a, adiag)
    # with P2 the row swaps within D, P2 K21 = L21 U11 and P1 K12 = L11 U12,
    # so K21 K11^-1 K12 = P2^T L21 U12: row p2[i] of L21 U12 is row i
    back = np.argsort(lu.perm_r[ni:] - ni)
    # scipy copies each factor out whole; one at a time, to hold the peak
    u12 = lu.U[:ni, ni:]
    l21 = lu.L[ni:, :ni]
    del lu
    prod = (l21 @ u12).tocoo()
    del l21, u12
    k22 = a[ni:, ni:].tocoo()
    nd = N - ni
    # summed in COO, so that K22's stored zeros at E's ones stay stored
    s0 = sp.csc_matrix(
        (np.r_[k22.data, -prod.data], (np.r_[k22.row, back[prod.row]], np.r_[k22.col, prod.col])),
        shape=(nd, nd),
    )
    del k22, prod
    schur = _Schur(J, ndyn, cols, a, adiag, k11)
    return ShiftedMatrix(s0, _diagonal(s0, cols[ni:] < ndyn), 0j, schur)


def shifted(base, s):
    """``J - s*E`` as a ShiftedMatrix, for ``base = ordered(J, ndyn)``.

    Its ``csc`` is ``S(s) = S0 - s E_D``. The result shares its index arrays,
    canonical-format flag, ``diag`` and ``schur`` with base, which
    ``ordered`` made, so scipy's constructor does not check them again; its
    data is its own. A shift that is not finite raises ValueError.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"shift {s!r} is not finite")
    return ShiftedMatrix(_shift(base.csc, base.diag, s), base.diag, s, base.schur)


def _whole(M):
    """The ShiftedMatrix M's ``J - sE`` uncondensed, with I empty: its ``csc``
    is the whole ``(J - sE)[cols][:, cols]``, made anew."""
    sc = M.schur
    return shifted(_condensed(sc.J, sc.ndyn, sc.cols, *_in_order(sc.J, sc.ndyn, sc.cols)), M.s)


class _Condensed(NamedTuple):
    """A right-hand side b of ``(J - sE) x = b``, or of the transpose when
    ``transposed``, with the parts that no shift moves: ``norm = ||b||``
    (infinity norm), ``z = K11^-1 b_I`` and ``g = b_D - K21 z`` (``K11^-T``
    and ``K12^T`` for the transpose)."""

    b: np.ndarray
    norm: float
    z: np.ndarray
    g: np.ndarray
    transposed: bool


def _condense(M, b, transposed=False):
    """b condensed for the solves of every shift of M's system, for M a
    ShiftedMatrix or Factorization of it. A b of any shape but ``(N,)``
    raises ValueError."""
    sc = M.schur
    b = np.asarray(b, dtype=np.complex128)
    N = sc.cols.size
    if b.shape != (N,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({N},)")
    bp = b[sc.cols]
    z = sc.k11_solve(bp[: sc.ni], transposed)
    off = sc.k12.T if transposed else sc.k21
    return _Condensed(b, float(np.abs(b).max(initial=0.0)), z, bp[sc.ni :] - off @ z, transposed)


class Factorization:
    """LU factors of ``S(s)``, the ShiftedMatrix's ``csc``, for ``A = J - sE``.

    With the factors of K11 that ``schur`` keeps, ``solve`` solves with A,
    taking and returning vectors in A's natural order. ``max_abs`` is
    ``max|A|``.
    """

    __slots__ = ("lu", "schur", "max_abs")

    def __init__(self, lu, schur, max_abs):
        self.lu = lu
        self.schur = schur
        self.max_abs = max_abs

    @property
    def pivot_growth(self):
        """``max|U| / max|A|`` over the U factors that the solves use: K11's,
        whose largest entry ``schur.u_max`` reads once, and S(s)'s. Reading
        it makes scipy build ``lu.U``, which no solve needs."""
        return max(self.schur.u_max, float(np.abs(self.lu.U.data).max(initial=0.0))) / self.max_abs

    def solve(self, rhs, transposed=False):
        """Solve ``A x = rhs`` or ``A.T x = rhs`` using the stored factors.

        rhs is a vector or the ``_Condensed`` one, which must have been made
        for the same direction. Raises SingularMatrixError when x is not
        finite or ``||x|| eps max|A| > ||rhs||``; the caller is expected to
        perturb the shift and retry.
        """
        if not isinstance(rhs, _Condensed):
            rhs = _condense(self, rhs, transposed)
        elif rhs.transposed != transposed:
            raise ValueError(f"right-hand side condensed for transposed={rhs.transposed}")
        sc = self.schur
        xd = self.lu.solve(rhs.g, trans="T" if transposed else "N")
        off = sc.k21.T if transposed else sc.k12
        xp = np.concatenate((rhs.z - sc.k11_solve(off @ xd, transposed), xd))
        # infinity norms do not see the order cols, so x is tested before
        # it is scattered back; written so that a NaN in x fails it too
        xnorm = float(np.abs(xp).max(initial=0.0))
        if not xnorm * _EPS * self.max_abs <= rhs.norm:
            raise SingularMatrixError(
                f"solution norm {xnorm:.3e} above {rhs.norm / (_EPS * self.max_abs):.3e} "
                "= ||rhs|| / (eps max|A|): the matrix is singular to working precision"
            )
        x = np.empty_like(xp)
        x[sc.cols] = xp
        return x


def _lu(M, max_abs, diag_pivot_thresh):
    """One SuperLU factorization of ``M.csc`` in its natural order."""
    options = {**SUPERLU_OPTIONS, "diag_pivot_thresh": diag_pivot_thresh}
    try:
        lu = spla.splu(M.csc, permc_spec="NATURAL", **options)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    return Factorization(lu, M.schur, max_abs)


def factorize(M):
    """Sparse LU of the ShiftedMatrix M's ``csc``, ``S(s)``, with threshold pivoting.

    Raises SingularMatrixError when ``J - sE`` has no nonzero entry or
    SuperLU finds S(s) exactly singular; a matrix singular only to working
    precision is caught by ``Factorization.solve``.
    """
    sc = M.schur
    # only E's ones move with s
    max_abs = max(sc.const_max, float(np.abs(sc.dyn - M.s).max(initial=0.0)))
    if max_abs == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    return _lu(M, max_abs, SUPERLU_OPTIONS["diag_pivot_thresh"])


def _accurate_solve(M, fac, rhs):
    """x with ``A x = rhs`` for the ShiftedMatrix M and ``fac = factorize(M)``.

    rhs is a vector or the ``_Condensed`` one. When the solve by ``fac`` has
    a normwise backward error ``||A x - rhs|| / (max|A| ||x|| + ||rhs||)``
    above ``BACKWARD_RTOL``, the whole of A, K11 included, is factored again
    with partial pivoting and x is the solve by that LU.
    """
    if not isinstance(rhs, _Condensed):
        rhs = _condense(M, rhs)
    x = fac.solve(rhs)
    sc = M.schur
    residual = sc.J @ x - rhs.b
    residual[: sc.ndyn] -= M.s * x[: sc.ndyn]
    scale = fac.max_abs * np.abs(x).max(initial=0.0) + rhs.norm
    if np.abs(residual).max(initial=0.0) <= BACKWARD_RTOL * scale:
        return x
    return _lu(_whole(M), fac.max_abs, 1.0).solve(rhs.b)


def dense_eig(A, B):
    """Eigenvalues of the small dense pencil ``A x = w B x``, from QZ.

    QZ does not invert B; a singular B gives non-finite entries of w.
    scipy rejects non-finite entries and unequal shapes with ``ValueError``.
    """
    try:
        return sla.eigvals(A, B)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
