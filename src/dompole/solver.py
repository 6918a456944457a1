"""Simultaneous dominant-pole iterations over sparse descriptor systems.

Both methods iterate a p-tuple of complex shifts. Each sweep solves, per
active shift s_j, the two systems ``(J - s_j E) x = B`` and
``(J - s_j E)^T y = C`` (one factorization each), normalizes both solutions
by ``nu_j = C^T (J - s_j E)^-1 B``, and collects the columns into blocks
X and Y; ``refresh_columns`` moves a shift that collides, sits on an
eigenvalue or on a transmission zero, and ``ShiftState.start`` refuses a
structurally singular J - sE outright. The iteration runs on the condensed
system: X and Y hold only the rows of the set D that the shifts reach,
``S(s)^-1 g_B / nu`` and ``S(s)^-T g_C / nu`` (see
``descriptor.normalized_vectors``), whose first ``ndyn`` rows are E's ones.
Writing W, V for those dynamic-row blocks of Y, X, the normalization gives
``W^T b = w = 1 - kappa vhat``, so the projected pencil assembles without
ever touching the state matrix:

    G = W^T A V = (W^T V) S + w vhat^T,   F = (W^T V)^-1 G,
    S = diag(shifts),   vhat_j = 1 / nu_j,   kappa = C_a^T J4^-1 B_a.

kappa (``DescriptorSystem.kappa``) is the limit of nu as |s| grows. Taking
ones(p) for w would project the pencil (J, E) itself, which a nonzero kappa
draws towards the infinite eigenvalues of E.

The full method ("dpse") takes the eigenvalues of the pencil (G, W^T V) as
the next shift tuple, matched back to the previous one; QZ computes them
without inverting W^T V. A numerically rank-deficient W^T V (redundant
columns: more shifts than the directions their vectors span) shows up as
non-finite eigenvalues, and each such column is re-seeded at the mean
active shift with a "redundant-column" event. The diagonal variant
("ddpse") takes diag(F) = s + vhat * (W^T V)^-1 w, which costs no
eigensolve, while cond(B) <= 1e8 (B below); beyond that it takes dpse's
pencil sweep and emits an "ill-conditioned-projection" event. Any tuple of
distinct eigenvalues is a fixed point of either map, and both converge
quadratically near one.

Residuals come from the resolvent identity of the condensed system,
``S(t) x_j = g_B vhat_j + (s_j - t) E_D x_j``. A column that passes there
is lifted to all N rows (``descriptor._lifted_vectors``), checked against J
itself and locks at its two-sided Rayleigh quotient ``(y^T J x) / (y^T E x)``,
DPA's Newton update, quadratically accurate in the residual. With vhat_j =
0, column j of G is ``lambda_j W^T V e_j``, so both steps work on the
active block only: the pencil ``(B S_A + q vhat_A^T, B)`` with ``B = Q
(W^T V)[:, act]`` and ``q = Q w``, the rows of Q spanning the complement of
the locked columns of W^T V; a locked value enters no later sweep.

On a real system (J, B and C real), a locked complex pole lambda also gives
conj(lambda): ``(J - conj(s) E)^-1 B = conj((J - s E)^-1 B)``, so its
vectors, normalizer and residue are the conjugates of lambda's. An active
column whose shift comes within ``_CONJUGATE_RADIUS |lambda|`` of a
conj(lambda) that no column holds locks there with those conjugated vectors
("conjugate-locked") instead of factoring its way to it. A column whose
shift returns to where it was two sweeps earlier, for two sweeps running,
is moved to the midpoint of its orbit ("two-cycle"). A column whose best
residual has not fallen for ``_STALL_SWEEPS`` sweeps leaves the coupled
update for one sweep ("stalled"): under dpse it takes DPA's Newton step on
its own, ``s_j + vhat_j w_j / (W^T V)_jj``, and under ddpse its eigenvalue
of the pencil.

A sweep's shifted solves do not depend on each other, and SuperLU's
``splu`` releases the interpreter lock, so on W > 1 CPUs (the process's CPU
affinity) ``run`` factors them side by side on W - 1 worker threads, when
S(s) has an order of at least ``_POOL_MIN_ORDER``; below that the handoffs
between threads cost more than the overlap saves. The walk over the columns
stays the serial one and takes each column's vectors, which depend only on
the system and the shift, in column order, so the report is the serial
run's bit for bit.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .descriptor import VanishingNormalizerError, _lifted_vectors, normalized_vectors
from .sparsela import SingularMatrixError, dense_eig

__all__ = [
    "SolverError",
    "SolverConfig",
    "ShiftState",
    "PoleResult",
    "RunReport",
    "DEFAULT_FAN_SCALE",
    "init_shifts",
    "refresh_columns",
    "dpse_step",
    "ddpse_step",
    "match_shifts",
    "check_convergence",
    "deflate",
    "estimate_residue",
    "dominance",
    "damping_ratio",
    "dominance_sort_key",
    "run",
]

DEFAULT_FAN_SCALE = -0.05 + 0.5j

_METHODS = ("dpse", "ddpse")
# Two shifts (or a shift and a locked eigenvalue) no farther apart than
# _COLLISION_EPS collide, a normalizer no larger vanishes, and W^T V is
# ill-conditioned when its condition number exceeds _COND_LIMIT (ddpse then
# takes the pencil sweep instead of inverting it).
_COLLISION_EPS = 1e-8
_COND_LIMIT = 1.0 / _COLLISION_EPS
# Base size of the growing kicks, and the cap on them for a vanishing normalizer.
_PERTURBATION = 1e-6
_MAX_NORMALIZER_KICKS = 5
# First retry after a singular shift (a solve with ||x|| eps max|A| > ||b||)
# moves just far enough off the eigenvalue for the solves to pass; one
# fixed-point sweep from there moves the shift by O(nudge^2), and the residual
# floor it induces is about nudge * |s| / |residue|, which must stay below
# usable tolerances even for weakly observable poles. The coarse
# _PERTURBATION * |s| kick stays as the second retry.
_SINGULAR_NUDGE = 1e-11
# On a real system, an active shift within _CONJUGATE_RADIUS |lambda| of the
# conjugate of a locked complex pole lambda locks there. A shift that comes
# back within _TWO_CYCLE_RATIO of its step to where it was two sweeps earlier,
# for two sweeps running, is in a period-2 orbit.
_CONJUGATE_RADIUS = 5e-2
_TWO_CYCLE_RATIO = 0.1
# A column whose best residual has not fallen for _STALL_SWEEPS sweeps is
# stalled, and takes one value from outside the coupled update.
_STALL_SWEEPS = 8
# Two reported poles closer than this, relative, are conjugate duplicates.
_DUPLICATE_RTOL = 1e-6
# A run factors a sweep's shifts side by side only when S(s) has at least this
# order: below it, handing an LU to another thread costs more than it saves.
_POOL_MIN_ORDER = 1000


class SolverError(RuntimeError):
    """Unrecoverable solver failure."""


@dataclass
class SolverConfig:
    """Iteration controls shared by both methods."""

    method: str = "dpse"
    p: int = 1
    tol: float = 1e-5
    max_iter: int = 50

    def __post_init__(self):
        self.method = str(self.method).lower()
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        for name in ("p", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
            setattr(self, name, int(value))
        if not 0 < self.tol < 1:  # also refuses nan and inf
            raise ValueError(f"tol must lie in (0, 1), got {self.tol!r}")


@dataclass
class ShiftState:
    """The one record of a run: the shift tuple, vector blocks, and bookkeeping.

    X and Y hold the D rows of the normalized right/left columns for the
    shifts they were last computed at, in D's natural order, so that E's
    ones come first and ``X[:ndyn]`` is V; with I empty they are the whole
    columns. Converged columns are frozen and never recomputed, and their
    shift is the locked eigenvalue. ``lifted[0, j]`` and ``lifted[1, j]``
    hold the whole N-row x and y of column j once it passed a check, which
    it reports when locked. They are made at the start, like X and Y:
    vectors made mid-run and kept to its end fragment the heap (about 10%
    more peak memory on the benchmark's grid). ``final_residuals``
    holds each column's last checked residual pair (its locking one once
    converged), and ``best_residual`` an active column's smallest checked
    residual (the larger of its pair) since it started or last stalled,
    reached in sweep ``best_sweep``. ``iter`` is the current sweep (0 before
    the first), and ``events`` collects every intervention of the run, each
    stamped with the sweep it happened in. ``trajectories`` holds the shift tuple after each
    sweep (the first after the initial solves) and ``residual_history`` the
    residual pairs of each check; ``t0`` is the ``perf_counter`` start and
    ``lock_time`` each column's seconds from it to its lock.
    """

    shifts: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    normalizers: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    final_residuals: np.ndarray
    lock_time: np.ndarray
    lifted: np.ndarray
    best_residual: np.ndarray
    best_sweep: np.ndarray
    ndyn: int
    iter: int = 0
    events: list = field(default_factory=list)
    trajectories: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    t0: float = field(default_factory=time.perf_counter)

    @classmethod
    def start(cls, sys, shifts):
        shifts = np.asarray(shifts, dtype=np.complex128).copy()
        p = shifts.shape[0]
        nd = sys.ordered_j.csc.shape[0]
        return cls(
            shifts=shifts,
            X=np.zeros((nd, p), dtype=np.complex128),
            Y=np.zeros((nd, p), dtype=np.complex128),
            normalizers=np.ones(p, dtype=np.complex128),
            converged=np.zeros(p, dtype=bool),
            iterations=np.zeros(p, dtype=np.int64),
            final_residuals=np.full((p, 2), np.nan),
            lock_time=np.zeros(p),
            lifted=np.empty((2, p, sys.order), dtype=np.complex128),
            best_residual=np.full(p, np.inf),
            best_sweep=np.zeros(p, dtype=np.int64),
            ndyn=sys.ndyn,
        )

    @property
    def all_converged(self):
        return bool(self.converged.all())

    def active_indices(self):
        return np.flatnonzero(~self.converged)


def init_shifts(pattern, p=None, scale=DEFAULT_FAN_SCALE):
    """Build an initial shift tuple.

    ``pattern`` is either an explicit sequence of complex shifts, ``"fan"``
    (``mu_k = k * scale`` for k = 1..p; the default scale -1/20 + i/2 spreads
    the fan along the upper-left quadrant), or ``"ring"`` (p points
    ``-1 + exp(i theta)``, ``theta = 2 pi (k + 1/2) / p``; the half-step
    offset keeps every point off the imaginary axis, in the open left
    half-plane).
    """
    if isinstance(pattern, str):
        name = pattern.lower()
        if p is None or p < 1:
            raise ValueError(f"a named shift pattern needs p of at least 1, got {p!r}")
        if name == "fan":
            return np.arange(1, p + 1, dtype=np.complex128) * complex(scale)
        if name == "ring":
            theta = 2.0 * np.pi * (np.arange(p) + 0.5) / p
            return -1.0 + np.exp(1j * theta)
        raise ValueError(f"unknown shift pattern '{pattern}'")
    arr = np.asarray(list(pattern), dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("explicit shift list must be a nonempty 1-D sequence")
    if p is not None and arr.size != p:
        raise ValueError(f"got {arr.size} explicit shifts but p = {p}")
    return arr


def _event(state, column, kind, shift):
    """Record one report event at the current sweep; sweep-wide events
    (column -1) have no shift."""
    state.events.append(
        {
            "iteration": int(state.iter),
            "column": int(column),
            "kind": kind,
            "shift_re": None if shift is None else float(shift.real),
            "shift_im": None if shift is None else float(shift.imag),
        }
    )


def _nearest_taken(state, z, earlier=()):
    """Distance from z to the nearest locked eigenvalue or shift of a column
    in ``earlier``; infinite when there is neither."""
    taken = np.concatenate([state.shifts[state.converged], state.shifts[list(earlier)]])
    return np.abs(taken - z).min() if taken.size else math.inf


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _prefetch(sys, s):
    """``normalized_vectors`` at s on a worker thread, for ``refresh_columns``.

    An exception that the walk handles leaves without its traceback, whose
    frames hold the shift's SuperLU object: freed on another thread than
    the one that made it, that object's factor storage is never returned
    to the allocator (scipy 1.17), and a grid run's worker arena then held
    2.3 MB more after each call of perfbench's grid-dpse."""
    try:
        return normalized_vectors(sys, s, min_normalizer=_COLLISION_EPS)
    except (SingularMatrixError, VanishingNormalizerError) as exc:
        raise exc.with_traceback(None)


def refresh_columns(sys, state, pool=None):
    """Recompute the X/Y columns of every active shift, in column order.

    A shift the column cannot use is moved and tried again, one event per
    move at the shift it leaves: ``collision`` (within _COLLISION_EPS of a
    locked eigenvalue or an earlier active column's shift) and
    ``small-normalizer`` (a transmission zero) get growing kicks, at most
    p + 4 and _MAX_NORMALIZER_KICKS; ``singular-shift`` (a numerically
    singular LU) gets the nudge, then one kick, at most 2. One move more
    raises SolverError. A structurally singular J - sE, which no shift
    cures, never gets here: ``ShiftState.start`` orders the pencil and
    raises StructurallySingularError.

    With a thread pool, the columns that the collision screen does not
    flag are factored ahead on it, all but every W-th of them for W CPUs,
    which this thread factors itself as the walk reaches them. The walk is
    the serial one: a column's first attempt at its requested shift takes
    the prefetched result, or its exception, in place of the call, and
    every other attempt calls inline. A result depends only on the system
    and the shift, so the columns, events and moves are the serial run's.
    """
    act = state.active_indices()
    # a column gets its own collision test only if this screen flags it or a shift has moved
    z, (later, earlier) = state.shifts[act], np.tril_indices(act.size, -1)
    screen = (np.abs(z[:, None] - state.shifts[state.converged]) <= _COLLISION_EPS).any(axis=1)
    screen[later[np.abs(z[later] - z[earlier]) <= _COLLISION_EPS]] = True
    ahead = {}
    if pool is not None:
        free = np.flatnonzero(~screen)
        for idx in free[np.arange(free.size) % _cpus() != 0].tolist():
            ahead[idx] = pool.submit(_prefetch, sys, complex(z[idx]))
    for idx, j in enumerate(act):
        s = requested = complex(state.shifts[j])
        moves = {}
        while True:
            if screen[idx] and _nearest_taken(state, s, act[:idx]) <= _COLLISION_EPS:
                kind = "collision"
            else:
                try:
                    if idx in ahead:
                        x, y, nu = ahead.pop(idx).result()
                    else:
                        x, y, nu = normalized_vectors(sys, s, min_normalizer=_COLLISION_EPS)
                    break
                except SingularMatrixError:
                    kind = "singular-shift"
                except VanishingNormalizerError:
                    kind = "small-normalizer"
            if idx in ahead:  # a collision moves the shift off the one it was prefetched at
                ahead.pop(idx).cancel()
            k = moves[kind] = moves.get(kind, 0) + 1
            cap = {"collision": len(state.shifts) + 4, "singular-shift": 2,
                   "small-normalizer": _MAX_NORMALIZER_KICKS}[kind]
            if k > cap:
                raise SolverError(
                    f"column {j}: {kind} persisted through {cap} moves "
                    f"from the requested shift {requested!r}"
                )
            _event(state, j, kind, s)
            if kind == "singular-shift":
                step = (_SINGULAR_NUDGE if k == 1 else _PERTURBATION) * (abs(s) or 1.0)
            else:
                step = _PERTURBATION * k
            s += step * (1.0 + 1.0j)
            screen[idx:] = True
        state.shifts[j] = s
        state.X[:, j] = x
        state.Y[:, j] = y
        state.normalizers[j] = nu


def _projection_parts(sys, state):
    """The active block ``(B, q)`` of the projected pencil, built once per sweep.

    ``B = Q (W^T V)[:, act]`` and ``q = Q w``, where the rows of Q span the
    complement of the locked columns of W^T V, from one complete QR; with no
    locked column, B is W^T V and q is ``w = 1 - kappa vhat``.
    """
    wtv = state.Y[: sys.ndyn].T @ state.X[: sys.ndyn]
    q = 1.0 - sys.kappa / state.normalizers
    locked = state.converged
    if locked.any():
        Q = np.linalg.qr(wtv[:, locked], mode="complete")[0][:, locked.sum():].conj().T
        wtv, q = Q @ wtv[:, ~locked], Q @ q
    return wtv, q


def match_shifts(old, candidates):
    """Permute candidates so each aligns with its previous shift, by
    repeatedly pairing the globally closest unclaimed (old, candidate)
    couple."""
    old = np.asarray(old, dtype=np.complex128)
    cand = np.asarray(candidates, dtype=np.complex128)
    if old.shape != cand.shape:
        raise ValueError("old and candidate tuples must have equal length")
    m = old.shape[0]
    dist = np.abs(old[:, None] - cand[None, :])
    out = np.empty(m, dtype=np.complex128)
    taken_old = np.zeros(m, dtype=bool)
    taken_new = np.zeros(m, dtype=bool)
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, k = divmod(int(flat), m)
        if taken_old[i] or taken_new[k]:
            continue
        out[i] = cand[k]
        taken_old[i] = taken_new[k] = True
        if taken_old.all():
            break
    return out


def _pencil_sweep(B, q, state):
    """Eigenvalues of the active block's pencil ``(B S_A + q vhat_A^T, B)``,
    matched to the active shifts, finite ones first; locked columns keep
    their value. An active column left with a non-finite eigenvalue is
    redundant and is re-seeded at the mean of the active shifts."""
    act = state.active_indices()
    s, vhat = state.shifts[act], 1.0 / state.normalizers[act]
    new = state.shifts.copy()
    new[act] = match_shifts(s, dense_eig(B * s + np.outer(q, vhat), B))
    for j in act[~np.isfinite(new[act])]:
        new[j] = s.mean()
        _event(state, j, "redundant-column", new[j])
    return new


def dpse_step(sys, state):
    """One full sweep: the active block's pencil eigenvalues as the next
    shifts; re-seeded redundant columns are recorded in ``state.events``."""
    return _pencil_sweep(*_projection_parts(sys, state), state)


def ddpse_step(sys, state):
    """One diagonal sweep: ``s_j + vhat_j [B^-1 q]_j``, diag(F) on the active
    columns without an eigensolve; locked columns keep their value. A B with
    cond(B) above _COND_LIMIT takes ``_fallback_step`` instead."""
    parts = _projection_parts(sys, state)
    cond = np.linalg.cond(parts[0]) if parts[0].size else 1.0  # 0-by-0: all locked
    if not cond <= _COND_LIMIT:  # a NaN cond is ill-conditioned too
        return _fallback_step(parts, state)
    act = state.active_indices()
    new = state.shifts.copy()
    new[act] += (1.0 / state.normalizers[act]) * np.linalg.solve(*parts)
    return new


def _fallback_step(parts, state):
    """ddpse's sweep for a B whose inverse cannot be trusted: dpse's pencil
    sweep on the same ``(B, q)``, which needs no inverse, plus one sweep-wide
    event."""
    _event(state, -1, "ill-conditioned-projection", None)
    return _pencil_sweep(*parts, state)


def _relative(R, V, n, shift):
    """``||R e_j|| / ||V e_j||`` for each column j, once ``R[:n] += shift * V[:n]``."""
    R[:n] += shift * V[:n]
    return np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0)


def check_convergence(sys, state, new_shifts, tol):
    """Relative residuals of the active columns against the new shifts t:
    ``||S(t_j) x_j|| / ||x_j||`` and ``||S(t_j)^T y_j|| / ||y_j||`` on D's
    rows, and ``||(J - t_j E) x_j|| / ||x_j||`` and its transpose on all N
    rows for the columns that pass there.

    They use the vectors of the previous sweep, so convergence costs no extra
    solve. Only ``refresh_columns`` writes active columns, so each is the
    normalized resolvent solve at its shift s_j, and ``S(t_j) x_j = g_B
    vhat_j + (s_j - t_j) E_D x_j`` (likewise g_C, y_j), whose rows below n
    enter by their norm |vhat_j| ||g_B[n:]||. Pairs both at or below tol are
    lifted to all N rows once, into ``state.lifted``, and taken again from
    one ``J X`` and one ``J^T Y`` product over those columns alone. It
    stores the residuals in ``state.final_residuals`` (locked columns keep
    theirs), a copy in ``state.residual_history``, and returns the columns
    that pass both, with their two-sided quotients ``(y^T J x) / (y^T E
    x)``.
    """
    act = state.active_indices()
    n, vhat, res = sys.ndyn, 1.0 / state.normalizers[act], state.final_residuals
    X, Y, t = state.X[:, act], state.Y[:, act], new_shifts[act]
    gb, gc, _ = sys.condensed
    B, C = (np.concatenate((g[:n], [np.linalg.norm(g[n:])])) for g in (gb, gc))
    res[act, 0] = _relative(np.multiply.outer(B, vhat), X, n, state.shifts[act] - t)
    res[act, 1] = _relative(np.multiply.outer(C, vhat), Y, n, state.shifts[act] - t)
    ok = (res[act] <= tol).all(axis=1)
    lam = np.zeros(0, dtype=np.complex128)
    if ok.any():
        cols, nu = act[ok], state.normalizers[act[ok]]
        x, y = _lifted_vectors(sys, X[:, ok], nu), _lifted_vectors(sys, Y[:, ok], nu, True)
        JX = sys.J.matvec(x)
        yjx = np.einsum("ij,ij->j", y, JX)
        res[cols, 0] = _relative(JX, x, n, -t[ok])
        res[cols, 1] = _relative(sys.J.matvec_t(y), y, n, -t[ok])
        passed = (res[cols] <= tol).all(axis=1)
        state.lifted[0, cols[passed]] = x[:, passed].T
        state.lifted[1, cols[passed]] = y[:, passed].T
        lam = (yjx / np.einsum("ij,ij->j", y[:n], x[:n]))[passed]
        ok[ok] = passed
    state.residual_history.append(res.copy())
    return act[ok], lam


def deflate(state, j, eigenvalue):
    """Lock column j at the converged eigenvalue in the current sweep, freeze
    its vectors and stamp its lock time."""
    if state.converged[j]:
        raise SolverError(f"column {j} is already deflated")
    state.converged[j] = True
    state.shifts[j] = complex(eigenvalue)
    state.iterations[j] = state.iter
    state.lock_time[j] = time.perf_counter() - state.t0


def estimate_residue(state, j):
    """Residue of a converged pole from the frozen vectors: 1 / (y^T E x)."""
    if not state.converged[j]:
        raise SolverError("residue estimate requires a converged column")
    n = state.ndyn
    ip = complex(state.Y[:n, j] @ state.X[:n, j])
    if ip == 0 or not np.isfinite(ip):
        raise SolverError(
            f"y^T E x = {ip!r} for column {j}; pair is defective or mis-converged"
        )
    return 1.0 / ip


def dominance(residue, eigenvalue):
    """|R| / |Re(lambda)|; purely imaginary poles map to infinity."""
    re = complex(eigenvalue).real
    if re == 0.0:
        return math.inf
    return abs(complex(residue)) / abs(re)


def damping_ratio(eigenvalue):
    """-Re(lambda) / |lambda| in [-1, 1]; zero for lambda = 0."""
    lam = complex(eigenvalue)
    mag = abs(lam)
    if mag == 0.0:
        return 0.0
    return -lam.real / mag


def dominance_sort_key(eigenvalue, m):
    """Descending dominance, infinities first; ties by |Im| then -Re."""
    lam = complex(eigenvalue)
    if math.isinf(m):
        return (0, 0.0, abs(lam.imag), -lam.real)
    return (1, -m, abs(lam.imag), -lam.real)


@dataclass
class PoleResult:
    """One converged pole with its vectors and quality numbers."""

    eigenvalue: complex
    right_vector: np.ndarray
    left_vector: np.ndarray
    residue: complex
    dominance: float
    damping_ratio: float
    iterations: int
    final_residuals: tuple
    time_s: float = 0.0

    def row(self):
        finite = math.isfinite(self.dominance)
        return {
            "re": self.eigenvalue.real,
            "im": self.eigenvalue.imag,
            "residue_re": self.residue.real,
            "residue_im": self.residue.imag,
            "dominance": self.dominance if finite else None,
            "dominance_infinite": not finite,
            "damping_ratio": self.damping_ratio,
            "iterations": int(self.iterations),
            "residual_right": float(self.final_residuals[0]),
            "residual_left": float(self.final_residuals[1]),
            "time_s": float(self.time_s),
        }


@dataclass
class RunReport:
    """Everything one solver run produced, serializable as JSON."""

    method: str
    config: dict
    poles: list
    unconverged: list
    trajectories: list
    residual_history: list
    events: list
    total_time_s: float
    all_converged: bool

    @property
    def converged_count(self):
        return len(self.poles)

    @property
    def upper_half_count(self):
        return sum(1 for p in self.poles if p.eigenvalue.imag > 0)

    def conjugate_duplicates(self):
        """Index pairs (i, j) of poles equal up to conjugation, to
        _DUPLICATE_RTOL relative (absolute below magnitude 1).

        Duplicates are reported, not suppressed: shifts started in one
        half-plane are free to converge in the other.
        """
        z = np.array([p.eigenvalue for p in self.poles], dtype=np.complex128)
        tol = _DUPLICATE_RTOL * np.maximum(1.0, np.abs(z))[:, None]
        near = (np.abs(z[:, None] - z) <= tol) | (np.abs(z[:, None] - z.conj()) <= tol)
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(near, 1)))]

    def to_dict(self):
        return {
            "method": self.method,
            "config": self.config,
            "poles": [p.row() for p in self.poles],
            "unconverged": self.unconverged,
            "trajectories": [
                [[z.real, z.imag] for z in traj] for traj in self.trajectories
            ],
            "residual_history": [
                [[None if math.isnan(v) else float(v) for v in pair] for pair in row]
                for row in self.residual_history
            ],
            "events": self.events,
            "converged_count": self.converged_count,
            "upper_half_count": self.upper_half_count,
            "conjugate_duplicates": [list(t) for t in self.conjugate_duplicates()],
            "total_time_s": self.total_time_s,
            "all_converged": self.all_converged,
        }


def _break_two_cycles(state):
    """Move each active column whose new shift is back within
    _TWO_CYCLE_RATIO of its step to where it was two sweeps earlier, and was
    so one sweep before too, to the midpoint of its last step."""
    if len(state.trajectories) < 3:
        return
    act = state.active_indices()
    d = state.shifts[act]
    t1, t2, t3 = (state.trajectories[-i][act] for i in (1, 2, 3))
    cycling = (np.abs(d - t2) < _TWO_CYCLE_RATIO * np.abs(d - t1)) & (
        np.abs(t1 - t3) < _TWO_CYCLE_RATIO * np.abs(t1 - t2)
    )
    for j, mid in zip(act[cycling], (t1[cycling] + d[cycling]) / 2):
        state.shifts[j] = mid
        _event(state, j, "two-cycle", mid)


def _restart_stalled(sys, state, new_shifts, method):
    """Give each active column whose best residual (the larger of its pair)
    has not fallen for _STALL_SWEEPS sweeps another value than its coupled
    one in new_shifts, and start its count again.

    Under dpse, whose pencil sweep left the column orbiting (on the feeder,
    within a cluster of real poles), it takes DPA's Newton step on its own
    vectors, ``s_j + vhat_j w_j / (W^T V)_jj``, the pencil sweep at p = 1,
    which converges quadratically near a pole. Under ddpse, whose diag(F)
    is accurate for column j only while the other active columns sit near
    eigenvalues too, it takes its eigenvalue of the pencil, as dpse would.
    """
    act = state.active_indices()
    r = state.final_residuals[act].max(axis=1)
    better = r < state.best_residual[act]
    state.best_residual[act[better]] = r[better]
    state.best_sweep[act[better]] = state.iter
    stalled = act[state.iter - state.best_sweep[act] >= _STALL_SWEEPS]
    if method == "ddpse" and stalled.size:
        new_shifts[stalled] = dpse_step(sys, state)[stalled]
    elif stalled.size:
        n = sys.ndyn
        for j in stalled:
            vhat, wtv = 1.0 / state.normalizers[j], state.Y[:n, j] @ state.X[:n, j]
            if wtv != 0:  # else the column keeps its sweep's value
                new_shifts[j] = state.shifts[j] + vhat * (1.0 - sys.kappa * vhat) / wtv
    for j in stalled:
        _event(state, j, "stalled", new_shifts[j])
    state.best_residual[stalled], state.best_sweep[stalled] = np.inf, state.iter


def _lock_conjugates(state):
    """For a real system: lock each active column whose shift lies within
    _CONJUGATE_RADIUS |lambda| of conj(lambda), for a locked complex pole
    lambda whose conjugate no column holds, with lambda's conjugated vectors
    and residuals; nearest hits first, one column per conjugate."""
    done = np.flatnonzero(state.converged)
    lam = state.shifts[done]
    complex_ = np.abs(lam.imag) > _COLLISION_EPS * np.abs(lam)
    src, targets = done[complex_], lam[complex_].conj()
    act = state.active_indices()
    dist = np.abs(state.shifts[act][:, None] - targets[None, :])
    rows, cols = np.nonzero(dist <= _CONJUGATE_RADIUS * np.abs(targets))
    for i in np.argsort(dist[rows, cols], kind="stable"):
        j, k, z = act[rows[i]], src[cols[i]], targets[cols[i]]
        if state.converged[j] or _nearest_taken(state, z) <= _COLLISION_EPS:
            continue
        state.X[:, j] = state.X[:, k].conj()
        state.Y[:, j] = state.Y[:, k].conj()
        state.lifted[:, j] = state.lifted[:, k].conj()
        state.normalizers[j] = state.normalizers[k].conj()
        deflate(state, j, z)
        state.final_residuals[j] = state.final_residuals[k]
        _event(state, j, "conjugate-locked", z)


def run(sys, config, initial_shifts=None):
    """Drive the configured method until every column converges or max_iter.

    Returns a RunReport whose ``poles`` list (sorted by dominance, most
    dominant first) holds the converged results; columns that hit max_iter
    are reported in ``unconverged`` instead of aborting the run.

    On W > 1 CPUs, and when S(s) has an order of at least _POOL_MIN_ORDER,
    the run holds a pool of W - 1 threads on which ``refresh_columns``
    factors each sweep's shifts side by side; the report is the serial
    run's, bit for bit.
    """
    shifts = init_shifts("fan" if initial_shifts is None else initial_shifts, config.p)
    if config.p > sys.ndyn:
        raise ValueError(
            f"p = {config.p} exceeds the {sys.ndyn} dynamic states of the system"
        )
    step = dpse_step if config.method == "dpse" else ddpse_step

    state = ShiftState.start(sys, shifts)
    sys.condensed  # made here, so that no two threads race its cached_property
    cpus = _cpus()
    pool = None
    if cpus > 1 and sys.ordered_j.csc.shape[0] >= _POOL_MIN_ORDER:
        # imported here: the module adds 0.13 MB that a serial run never uses
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(cpus - 1)
    try:
        refresh_columns(sys, state, pool)
        state.trajectories.append(state.shifts.copy())

        while state.iter < config.max_iter:
            state.iter += 1
            new_shifts = step(sys, state)
            for j, lam in zip(*check_convergence(sys, state, new_shifts, config.tol)):
                # lock at the frozen vectors' two-sided Rayleigh quotient; an exact
                # duplicate of a locked eigenvalue would freeze two parallel columns
                # into W^T V forever, so that column stays active for the collision
                # machinery (a conjugate duplicate locks here too, but on a real
                # system _lock_conjugates usually takes its column sweeps earlier)
                if _nearest_taken(state, lam) <= _COLLISION_EPS:
                    _event(state, j, "duplicate-deferred", lam)
                    continue
                deflate(state, j, lam)
            _restart_stalled(sys, state, new_shifts, config.method)
            act = state.active_indices()
            state.shifts[act] = new_shifts[act]
            _break_two_cycles(state)
            if sys.is_real:
                _lock_conjugates(state)
            state.trajectories.append(state.shifts.copy())
            if state.all_converged:
                break
            refresh_columns(sys, state, pool)
    finally:
        # neither a return nor an error leaves work or a thread behind
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    poles = []
    for j in np.flatnonzero(state.converged):
        lam = complex(state.shifts[j])
        residue = estimate_residue(state, j)
        poles.append(
            PoleResult(
                eigenvalue=lam,
                right_vector=state.lifted[0, j].copy(),
                left_vector=state.lifted[1, j].copy(),
                residue=residue,
                dominance=dominance(residue, lam),
                damping_ratio=damping_ratio(lam),
                iterations=int(state.iterations[j]),
                final_residuals=tuple(state.final_residuals[j].tolist()),
                time_s=float(state.lock_time[j]),
            )
        )
    poles.sort(key=lambda p: dominance_sort_key(p.eigenvalue, p.dominance))

    unconverged = [
        {
            "column": int(j),
            "re": float(state.shifts[j].real),
            "im": float(state.shifts[j].imag),
            "residual_right": float(state.final_residuals[j, 0]),
            "residual_left": float(state.final_residuals[j, 1]),
            "iterations": int(state.iter),
        }
        for j in state.active_indices()
    ]

    return RunReport(
        method=config.method,
        config=asdict(config),
        poles=poles,
        unconverged=unconverged,
        trajectories=state.trajectories,
        residual_history=state.residual_history,
        events=state.events,
        total_time_s=time.perf_counter() - state.t0,
        all_converged=state.all_converged,
    )
