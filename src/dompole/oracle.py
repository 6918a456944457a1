"""Dense brute-force references for cross-checking the sparse solver.

Everything here works on small dense state-space models with explicit
eigendecompositions, explicit resolvent solves, and explicit inversions.
It deliberately shares no code path with the sparse iteration machinery so
the two routes can verify each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .descriptor import VanishingNormalizerError
from .sparsela import SingularMatrixError
from .solver import dominance, dominance_sort_key, match_shifts

__all__ = [
    "EigenDecomposition",
    "ResidueTable",
    "full_spectrum",
    "residues",
    "modal_reconstruct",
    "normalized_blocks",
    "reference_F",
    "reference_sequence",
]

# Residues computed through an eigenvector basis this ill-conditioned are
# numerically meaningless; the model is treated as (nearly) defective.
_DEFECTIVE_COND = 1e8


@dataclass
class EigenDecomposition:
    """A = P diag(eigenvalues) P^-1 with an explicitly solved inverse."""

    P: np.ndarray
    eigenvalues: np.ndarray
    Pinv: np.ndarray
    basis_condition: float


def full_spectrum(ss):
    """Complete eigendecomposition of the state matrix."""
    w, P = np.linalg.eig(ss.A)
    cond = float(np.linalg.cond(P))
    if cond > _DEFECTIVE_COND:
        warnings.warn(
            f"eigenvector basis condition {cond:.3e} suggests a nearly "
            "defective state matrix; residues will be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    Pinv = np.linalg.solve(P, np.eye(ss.order, dtype=np.complex128))
    return EigenDecomposition(P=P, eigenvalues=w, Pinv=Pinv, basis_condition=cond)


@dataclass
class ResidueTable:
    """All poles with exact residues, sorted most dominant first.

    ``deficient`` flags residues of negligible magnitude, which break the
    nonzero-residue assumption the shift iterations rely on.
    """

    eigenvalues: np.ndarray
    residues: np.ndarray
    dominances: np.ndarray
    deficient: np.ndarray

    def __len__(self):
        return self.eigenvalues.shape[0]


def residues(ss, decomposition=None):
    """Exact residues ``R_k = (c^T P e_k)(e_k^T P^-1 b)`` and dominances."""
    dec = full_spectrum(ss) if decomposition is None else decomposition
    R = (ss.c @ dec.P) * (dec.Pinv @ ss.b)
    m = np.array([dominance(r, lam) for r, lam in zip(R, dec.eigenvalues)])
    order = sorted(
        range(len(R)), key=lambda k: dominance_sort_key(dec.eigenvalues[k], m[k])
    )
    R = R[order]
    w = dec.eigenvalues[order]
    m = m[order]
    floor = 1e-12 * max(1.0, float(np.abs(R).max()) if len(R) else 1.0)
    return ResidueTable(
        eigenvalues=w,
        residues=R,
        dominances=m,
        deficient=np.abs(R) <= floor,
    )


def modal_reconstruct(table, d, s, top_k):
    """k-term partial-fraction approximant ``sum R_j / (s - lambda_j) + d``.

    Terms are taken in dominance order; with ``top_k = len(table)`` the sum
    reproduces the transfer function exactly.
    """
    s = complex(s)
    k = max(0, min(int(top_k), len(table)))
    lams = table.eigenvalues[:k]
    if k and np.abs(s - lams).min() == 0.0:
        raise ValueError(f"s = {s!r} coincides with an included pole")
    acc = complex(d)
    if k:
        acc += complex(np.sum(table.residues[:k] / (s - lams)))
    return acc


def normalized_blocks(ss, shifts):
    """Dense normalized right/left blocks V, W and the normalizers.

    Column k solves ``(A - s_k I) v = b`` and ``(A - s_k I)^T w = c``, both
    scaled by ``nu_k = c^T (A - s_k I)^-1 b``.
    """
    shifts = np.asarray(shifts, dtype=np.complex128)
    n = ss.order
    p = shifts.shape[0]
    V = np.empty((n, p), dtype=np.complex128)
    W = np.empty((n, p), dtype=np.complex128)
    nus = np.empty(p, dtype=np.complex128)
    eye = np.eye(n, dtype=np.complex128)
    for k, s in enumerate(shifts):
        M = ss.A - s * eye
        vraw = np.linalg.solve(M, ss.b)
        nu = complex(ss.c @ vraw)
        if nu == 0:
            raise VanishingNormalizerError(
                f"c^T (A - sI)^-1 b vanished at s = {s!r}"
            )
        wraw = np.linalg.solve(M.T, ss.c)
        V[:, k] = vraw / nu
        W[:, k] = wraw / nu
        nus[k] = nu
    return V, W, nus


def reference_F(ss, shifts):
    """Literal dense evaluation of ``(W^T V)^-1 (W^T A V)``.

    No rank-one shortcut: A is applied explicitly and W^T V is solved
    against directly, so this is an independent check of the sparse
    assembly. Duplicate shifts make W^T V singular and raise.
    """
    V, W, _ = normalized_blocks(ss, shifts)
    wtv = W.T @ V
    cond = np.linalg.cond(wtv)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularMatrixError(
            f"W^T V is numerically singular (cond = {cond:.3e}); duplicate shifts?"
        )
    return np.linalg.solve(wtv, W.T @ (ss.A @ V))


def reference_sequence(ss, shifts0, method="dpse", steps=5):
    """Shift trajectory of the dense literal iteration, initial tuple included.

    Matches eigenvalues to shifts as the sparse solver does, so trajectories
    are comparable column by column.
    """
    s = np.asarray(shifts0, dtype=np.complex128).copy()
    out = [s.copy()]
    for _ in range(int(steps)):
        F = reference_F(ss, s)
        if method == "dpse":
            w, _ = np.linalg.eig(F)
            s = match_shifts(s, w)
        elif method == "ddpse":
            s = F.diagonal().copy()
        else:
            raise ValueError(f"unknown method '{method}'")
        out.append(s.copy())
    return out
