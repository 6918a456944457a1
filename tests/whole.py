"""The whole ``J - sE`` and solves with it through its condensed factors,
for the tests that check them against dense algebra: the library itself
factors and solves only with S(s), and lifts a vector to all N rows only at
a lock."""

import numpy as np

from dompole import sparsela


def whole(M, J):
    """``(J - sE)[cols][:, cols]`` uncondensed, for the ShiftedMatrix M of J
    and its order ``cols``, as a CSC matrix."""
    a, adiag = sparsela._in_order(J, M.diag.size, M.schur.cols)
    return sparsela._shift(a, adiag, M.s)


def whole_solve(fac, rhs, transposed=False):
    """x with ``(J - sE) x = rhs``, or the transpose, for ``fac = factorize(M)``
    of a ShiftedMatrix M: rhs condensed onto D, one solve with S(s), and the
    I rows lifted, all in the natural order."""
    sc = fac.schur
    rhs = np.asarray(rhs, dtype=np.complex128)
    g, _ = sc.condense(rhs, transposed)
    return sc.lift(fac.solve(g, transposed), rhs[sc.cols[: sc.ni]], transposed)
