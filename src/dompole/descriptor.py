"""Descriptor systems, state-space reduction, and resolvent machinery.

A descriptor system is the quintuple (E, J, B, C, D) with
``E = diag(1,...,1,0,...,0)`` separating dynamic from algebraic variables.
With the blocks ``J1 = J[:n,:n]``, ``J2 = J[:n,n:]``, ``J3 = J[n:,:n]``,
``J4 = J[n:,n:]`` the equivalent dense state-space form is

    A = J1 - J2 J4^-1 J3      b = B_d - J2 J4^-1 B_a
    c = C_d - J3^T J4^-T C_a  d = D - C_a^T J4^-1 B_a

and the transfer function is ``h(s) = C^T (sE - J)^-1 B + D``. The sparse
side never forms A; it works through solves with ``J - sE``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import structural_rank

from . import mmio
from .sparsela import SingularMatrixError, SparseMatrix, factorize, ordered, shifted
from .sparsela import _accurate_solve

__all__ = [
    "DescriptorSystem",
    "StateSpaceSystem",
    "TransferSample",
    "ValidationReport",
    "VanishingNormalizerError",
    "ManifestError",
    "Manifest",
    "validate",
    "block_nnz",
    "reduce_to_state_space",
    "eval_transfer",
    "normalized_vectors",
    "load_manifest",
    "save_manifest",
    "load_system",
]

# Largest order reduce_to_state_space densifies; it serves reference work only.
DENSE_REDUCTION_LIMIT = 4000

# The dense LU of J4 in reduce_to_state_space is refused as singular when a
# pivot is at or below PIVOT_RTOL * max|J4|.
PIVOT_RTOL = 1e-14


class VanishingNormalizerError(ArithmeticError):
    """C^T (J - sE)^-1 B vanished; s sits at or near a transmission zero."""


class ManifestError(ValueError):
    """Malformed or inconsistent system manifest."""


@dataclass(frozen=True)
class DescriptorSystem:
    """Sparse (E, J, B, C, D) quintuple with ``ndyn`` dynamic variables.

    It keeps the orders of ``J - sE`` and J4, and B and C condensed, from
    their first use, so J, B and C must not be changed in place once the
    system has been shifted."""

    J: SparseMatrix
    ndyn: int
    B: np.ndarray
    C: np.ndarray
    D: complex = 0j

    def __post_init__(self):
        N, ncols = self.J.to_scipy().shape
        if N != ncols:
            raise ValueError("J must be square")
        if not 1 <= self.ndyn <= N:
            raise ValueError(f"ndyn must lie in [1, {N}], got {self.ndyn}")
        object.__setattr__(self, "B", np.ascontiguousarray(self.B, dtype=np.complex128))
        object.__setattr__(self, "C", np.ascontiguousarray(self.C, dtype=np.complex128))
        object.__setattr__(self, "D", complex(self.D))
        if self.B.shape != (N,) or self.C.shape != (N,):
            raise ValueError("B and C must be vectors of length N")
        for name in ("B", "C"):
            if not getattr(self, name).any():
                raise ValueError(f"{name} is all zero, so h(s) = D has no poles to find")

    @property
    def order(self):
        return self.J.to_scipy().shape[0]

    @cached_property
    def ordered_j(self):
        """``ordered(J, ndyn)``: ``J - sE`` at s = 0 in its order, condensed onto the
        part that a shift moves, which is all that each shift factors."""
        return ordered(self.J.to_scipy(), self.ndyn)

    @cached_property
    def condensed(self):
        """``(g_B, g_C, d0)``: B and C condensed onto D (``_Schur.condense``) and
        ``d0 = C_I^T K11^-1 B_I``, so that ``C^T (J - sE)^-1 B = d0 + g_C^T
        S(s)^-1 g_B`` at every shift."""
        sc = self.ordered_j.schur
        gb, zb = sc.condense(self.B)
        gc, _ = sc.condense(self.C, transposed=True)
        return gb, gc, complex(self.C[sc.cols[: sc.ni]] @ zb)

    @cached_property
    def j4(self):
        """``ordered(J4, 0)``: the algebraic block ``J[n:, n:]`` in its own order."""
        return ordered(self.J.to_scipy()[self.ndyn :, self.ndyn :], 0)

    @cached_property
    def is_real(self):
        """Whether J, B and C are all real, so that the conjugate of each pole
        is a pole with the conjugated vectors and residue."""
        J = self.J.to_scipy()
        return not (J.data.imag.any() or self.B.imag.any() or self.C.imag.any())

    @cached_property
    def kappa(self):
        """``C_a^T J4^-1 B_a``, the limit of ``C^T (J - sE)^-1 B`` as |s| grows
        (``d = D - kappa`` in the reduced model), from one sparse LU of J4,
        made again with partial pivoting if its solve is not backward stable:
        0 unless B and C both have algebraic entries, or if J4 is singular."""
        n = self.ndyn
        if not (self.B[n:].any() and self.C[n:].any()):
            return 0j
        try:
            x = _accurate_solve(self.j4, factorize(self.j4), self.B[n:])
        except SingularMatrixError:
            return 0j
        return complex(self.C[n:] @ x)

    @classmethod
    def from_dense_state(cls, A, b, c, d=0j):
        """Wrap a dense state-space model (E = I, no algebraic block)."""
        A = np.atleast_2d(np.asarray(A, dtype=np.complex128))
        return cls(SparseMatrix.from_scipy(A), A.shape[0], b, c, d)


@dataclass(frozen=True)
class StateSpaceSystem:
    """Dense (A, b, c, d) model; the reference side of every cross-check."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=np.complex128)))
        object.__setattr__(self, "b", np.ascontiguousarray(self.b, dtype=np.complex128))
        object.__setattr__(self, "c", np.ascontiguousarray(self.c, dtype=np.complex128))
        object.__setattr__(self, "d", complex(self.d))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.b.shape != (n,) or self.c.shape != (n,):
            raise ValueError("b and c must be vectors matching A")

    @property
    def order(self):
        return self.A.shape[0]

    def transfer(self, s):
        """Evaluate ``c^T (sI - A)^-1 b + d`` by a dense solve."""
        n = self.order
        m = complex(s) * np.eye(n, dtype=np.complex128) - self.A
        return complex(self.c @ np.linalg.solve(m, self.b) + self.d)


class TransferSample(NamedTuple):
    s: complex
    value: complex


@dataclass
class ValidationReport:
    order: int
    ndyn: int
    n_algebraic: int
    nnz: int
    density_pct: float
    block_nnz: dict
    j4_nonsingular: bool
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return self.j4_nonsingular and not self.notes


def block_nnz(J, ndyn):
    """Stored-entry counts of the J1, J2, J3, J4 partition blocks."""
    n = ndyn
    sp = J.to_scipy()
    return {
        "J1": int(sp[:n, :n].nnz),
        "J2": int(sp[:n, n:].nnz),
        "J3": int(sp[n:, :n].nnz),
        "J4": int(sp[n:, n:].nnz),
    }


def validate(sys):
    """Density, empty rows and columns, structural rank and algebraic-block
    checks; failures go in notes."""
    N = sys.order
    n = sys.ndyn
    m = N - n
    blocks = block_nnz(sys.J, n)
    nnz = sys.J.to_scipy().nnz
    j4_ok = True
    notes = []
    pattern = sys.J.to_scipy().copy()
    pattern.eliminate_zeros()
    for kind, counts in (
        ("rows", np.bincount(pattern.indices, minlength=N)),
        ("columns", np.diff(pattern.indptr)),
    ):
        if not counts.all():
            empty = ", ".join(str(k) for k in np.flatnonzero(counts == 0))
            notes.append(f"empty {kind} of J (0-based): {empty}")
    rank = structural_rank(pattern)
    if rank < N:
        notes.append(f"structural rank of J is {rank} < {N}")
    if m > 0:
        # a solve shows J4 singular to working precision unless its
        # right-hand side misses the left null space, which a generic one
        # does not
        probe = np.random.default_rng(0).standard_normal(m)
        try:
            factorize(sys.j4).solve(probe)
        except SingularMatrixError as exc:
            j4_ok = False
            notes.append(f"algebraic block singular: {exc}")
    return ValidationReport(
        order=N,
        ndyn=n,
        n_algebraic=m,
        nnz=nnz,
        density_pct=100.0 * nnz / (N * N),
        block_nnz=blocks,
        j4_nonsingular=j4_ok,
        notes=notes,
    )


def _lu_j4(J4):
    """Dense LU of the algebraic block, with a singularity guard."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(J4)
    diag = np.abs(np.diag(lu))
    scale = np.abs(J4).max() if J4.size else 0.0
    if J4.size and (diag.min() <= PIVOT_RTOL * max(scale, 1e-300)):
        raise SingularMatrixError("algebraic block J4 is singular")
    return lu, piv


def reduce_to_state_space(sys):
    """Eliminate the algebraic block and return the dense (A, b, c, d) model.

    Dense reference work only; refuses systems above ``DENSE_REDUCTION_LIMIT``.
    """
    N = sys.order
    if N > DENSE_REDUCTION_LIMIT:
        raise ValueError(
            f"system order {N} exceeds dense reduction limit {DENSE_REDUCTION_LIMIT}"
        )
    n = sys.ndyn
    Jd = sys.J.to_scipy().toarray()
    J1 = Jd[:n, :n]
    if n == N:
        return StateSpaceSystem(J1, sys.B, sys.C, sys.D)
    J2 = Jd[:n, n:]
    J3 = Jd[n:, :n]
    J4 = Jd[n:, n:]
    Bd, Ba = sys.B[:n], sys.B[n:]
    Cd, Ca = sys.C[:n], sys.C[n:]
    lu = _lu_j4(J4)
    A = J1 - J2 @ scipy.linalg.lu_solve(lu, J3)
    t = scipy.linalg.lu_solve(lu, Ba)
    b = Bd - J2 @ t
    c = Cd - J3.T @ scipy.linalg.lu_solve(lu, Ca, trans=1)
    d = sys.D - Ca @ t
    return StateSpaceSystem(A, b, c, d)


def eval_transfer(sys, s):
    """Sample ``h(s) = C^T (sE - J)^-1 B + D = -(d0 + g_C^T S(s)^-1 g_B) + D``
    through one solve with S(s), made again with partial pivoting if it is
    not backward stable."""
    s = complex(s)
    M = shifted(sys.ordered_j, s)
    gb, gc, d0 = sys.condensed
    x = _accurate_solve(M, factorize(M), gb)
    return TransferSample(s, complex(-(d0 + gc @ x) + sys.D))


def normalized_vectors(sys, s, min_normalizer=0.0):
    """The D rows of the normalized right/left resolvent directions at shift s,

        xcol = (J - sE)^-1 B / nu,   ycol = (J^T - sE)^-1 C / nu,
        nu   = C^T (J - sE)^-1 B = d0 + g_C^T S(s)^-1 g_B,

    in D's natural order, E's ones first: ``S(s)^-1 g_B / nu`` and ``S(s)^-T
    g_C / nu``, from one LU of S(s) and no K11 solve (``_lifted_vectors`` makes
    all N rows). Raises VanishingNormalizerError when ``|nu| <=
    min_normalizer`` (or nu is exactly zero): a transmission zero near s.
    """
    s = complex(s)
    fac = factorize(shifted(sys.ordered_j, s))
    gb, gc, d0 = sys.condensed
    xraw = fac.solve(gb)
    nu = complex(d0 + gc @ xraw)
    if nu == 0 or abs(nu) <= min_normalizer:
        raise VanishingNormalizerError(
            f"normalizer {nu!r} at shift {s!r} is below {min_normalizer:g}"
        )
    yraw = fac.solve(gc, transposed=True)
    return xraw / nu, yraw / nu, nu


def _lifted_vectors(sys, V, nu, transposed=False):
    """All N rows of ``normalized_vectors``' columns (or a block of them) from
    their D rows V and normalizers nu: ``x_I = K11^-1 (B_I / nu - K12 x_D)``,
    or C and the transposes when transposed, one K11 solve per column."""
    sc = sys.ordered_j.schur
    b = (sys.C if transposed else sys.B)[sc.cols[: sc.ni]]
    return sc.lift(V, np.multiply.outer(b, 1.0 / np.asarray(nu)), transposed)


# ---------------------------------------------------------------------------
# Manifest files: plain "key = value" text pointing at Matrix Market data.


@dataclass
class Manifest:
    jacobian_path: Path
    b_path: Path
    c_path: Path
    ndyn: int
    d: complex = 0j
    ground_truth_path: Path | None = None


_REQUIRED_KEYS = ("jacobian", "b", "c", "ndyn")
_KNOWN_KEYS = _REQUIRED_KEYS + ("d_re", "d_im", "ground_truth")


def _finite_float(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


def load_manifest(path):
    """Parse a ``key = value`` manifest; paths resolve relative to the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    values = {"d_re": "0", "d_im": "0"}  # the optional keys with defaults
    linenos = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS:
            raise ManifestError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = val.strip()
        linenos[key] = lineno
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ManifestError(f"{path}: missing keys: {', '.join(missing)}")

    def parse(key, convert, what):
        try:
            return convert(values[key])
        except ValueError:
            raise ManifestError(
                f"{path}:{linenos[key]}: {key} must be {what}, got '{values[key]}'"
            ) from None

    ndyn = parse("ndyn", int, "an integer")
    d_re, d_im = (parse(key, _finite_float, "a finite number") for key in ("d_re", "d_im"))
    base = path.parent
    gt = values.get("ground_truth")
    return Manifest(
        jacobian_path=base / values["jacobian"],
        b_path=base / values["b"],
        c_path=base / values["c"],
        ndyn=ndyn,
        d=complex(d_re, d_im),
        ground_truth_path=(base / gt) if gt else None,
    )


def save_manifest(path, manifest):
    path = Path(path)
    base = path.parent

    def rel(p):
        p = Path(p)
        try:
            return p.relative_to(base).as_posix()
        except ValueError:
            return str(p)

    lines = [
        f"jacobian = {rel(manifest.jacobian_path)}",
        f"b = {rel(manifest.b_path)}",
        f"c = {rel(manifest.c_path)}",
        f"ndyn = {manifest.ndyn}",
        f"d_re = {repr(manifest.d.real)}",
        f"d_im = {repr(manifest.d.imag)}",
    ]
    if manifest.ground_truth_path is not None:
        lines.append(f"ground_truth = {rel(manifest.ground_truth_path)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_system(manifest):
    """Load the DescriptorSystem referenced by a Manifest (or manifest path)."""
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    try:
        J = mmio.read_matrix_market(manifest.jacobian_path)
        B = mmio.read_vector(manifest.b_path)
        C = mmio.read_vector(manifest.c_path)
    except (OSError, mmio.MatrixMarketError) as exc:
        raise ManifestError(f"cannot load system data: {exc}") from exc
    try:
        return DescriptorSystem(J=J, ndyn=manifest.ndyn, B=B, C=C, D=manifest.d)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
