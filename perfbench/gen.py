"""Structured power-grid descriptor systems and their independent reference.

The generator builds a linearized multi-machine model in O(nnz) with
``scipy.sparse``:

* buses form ``areas`` square meshes of ``side`` x ``side`` buses, joined in
  a ring by weak tie lines, so every bus has bounded degree and the fill of a
  sparse LU grows linearly with the number of areas;
* each bus carries two algebraic variables, an angle (real-power balance)
  and a voltage magnitude (reactive-power balance), decoupled as in the fast
  decoupled load flow, so J4 holds two grounded network Laplacians;
* each machine adds a 4-state dynamic block to J1 (rotor angle, speed, and
  two voltage-regulator lags) coupled only to its own bus through J2/J3.

The voltage loop drives the swing equations but not the reverse, so the
spectrum is the union of two stable subsystems: lightly damped swing modes
(local and inter-area) and the voltage-regulator modes. All data are real.

The reference eliminates the algebraic block with a sparse LU of J4, solved
in column chunks, and hands the dense state-space model to the ``oracle``
eigendecomposition. It shares no code with the shifted-LU path the solver
takes. Run as a script, it writes one system and its reference::

    python3 perfbench/gen.py --system grid --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dompole import mmio, oracle  # noqa: E402
from dompole.descriptor import Manifest, StateSpaceSystem, save_manifest  # noqa: E402
from dompole.sparsela import SparseMatrix  # noqa: E402

# Network shapes. "grid" is the paper's 10^4 class with algebraic variables
# outnumbering dynamic ones about 10 to 1; "feeder" is the same generator at
# about 440 states, where per-call overhead rivals the LU itself.
SYSTEMS = {
    "grid": {"areas": 70, "side": 8, "machines_per_area": 3},
    "feeder": {"areas": 6, "side": 5, "machines_per_area": 6},
}
STATES_PER_MACHINE = 4
BASE_SPEED = 20.0
# Column chunk for the J4^-1 J3 solves of the reference reduction, and the
# largest dynamic block whose dense eigendecomposition fits comfortably in
# memory and time.
REFERENCE_CHUNK = 256
DENSE_LIMIT = 3000


def _mesh_edges(areas, side, rng):
    """Bus pairs of the intra-area mesh lines and of the ring of tie lines."""
    per = side * side
    r, c = np.divmod(np.arange(per), side)
    right = (c + 1 < side)
    down = (r + 1 < side)
    local = np.concatenate([
        np.stack([np.flatnonzero(right), np.flatnonzero(right) + 1], axis=1),
        np.stack([np.flatnonzero(down), np.flatnonzero(down) + side], axis=1),
    ])
    offsets = (np.arange(areas) * per)[:, None, None]
    inner = (local[None, :, :] + offsets).reshape(-1, 2)
    ties = []
    if areas > 1:
        for a in range(areas):
            b = (a + 1) % areas
            for _ in range(2):
                ties.append((a * per + rng.integers(per), b * per + rng.integers(per)))
    ties = np.asarray(ties, dtype=np.int64).reshape(-1, 2)
    return inner, ties


def build(seed, areas, side, machines_per_area):
    """Return (J as scipy CSC, ndyn, B, C) for one seeded system."""
    rng = np.random.default_rng(seed)
    per = side * side
    nbus = areas * per
    nmach = areas * machines_per_area
    ndyn = STATES_PER_MACHINE * nmach
    N = ndyn + 2 * nbus

    inner, ties = _mesh_edges(areas, side, rng)
    edges = np.concatenate([inner, ties])
    strong = np.concatenate([np.ones(len(inner), bool), np.zeros(len(ties), bool)])
    w_p = np.where(strong, rng.uniform(5.0, 15.0, len(edges)), rng.uniform(0.5, 1.5, len(edges)))
    w_q = np.where(strong, rng.uniform(5.0, 15.0, len(edges)), rng.uniform(0.5, 1.5, len(edges)))
    g = rng.uniform(0.02, 0.1, nbus)
    h = rng.uniform(0.5, 1.5, nbus)

    # machine parameters and the bus each machine feeds
    bus_of = np.concatenate(
        [a * per + rng.choice(per, machines_per_area, replace=False) for a in range(areas)]
    )
    M = rng.uniform(6.0, 14.0, nmach)
    D = rng.uniform(1.0, 4.0, nmach)
    K = rng.uniform(1.5, 3.0, nmach)
    kappa = rng.uniform(0.1, 0.5, nmach)
    Ta = rng.uniform(0.05, 0.5, nmach)
    Tb = rng.uniform(0.5, 3.0, nmach)
    ka = rng.uniform(0.5, 2.0, nmach)
    cv = rng.uniform(0.5, 1.5, nmach)

    base = STATES_PER_MACHINE * np.arange(nmach)
    dl, om, psi, xi = base, base + 1, base + 2, base + 3
    th = ndyn + 2 * np.arange(nbus)
    vm = th + 1
    tb, vb = th[bus_of], vm[bus_of]
    k_, l_ = edges[:, 0], edges[:, 1]

    rows, cols, vals = [], [], []

    def put(r, c, v):
        rows.append(np.asarray(r))
        cols.append(np.asarray(c))
        vals.append(np.broadcast_to(np.asarray(v, dtype=float), np.shape(r)))

    # J1: per-machine 4x4 blocks
    put(dl, om, np.full(nmach, BASE_SPEED))
    put(om, dl, -K / M)
    put(om, om, -D / M)
    put(om, xi, -kappa / M)
    put(psi, psi, -1.0 / Ta)
    put(xi, psi, 1.0 / Tb)
    put(xi, xi, -1.0 / Tb)
    # J2: machine rows see their own bus only
    put(om, tb, K / M)
    put(psi, vb, -ka / Ta)
    # J3: bus rows see their own machines only
    put(tb, dl, K)
    put(vb, xi, cv)
    put(tb, tb, -K)
    # J4: two grounded Laplacians on the same network
    for idx, w, ground in ((th, w_p, g), (vm, w_q, h)):
        put(idx[k_], idx[l_], w)
        put(idx[l_], idx[k_], w)
        put(idx[k_], idx[k_], -w)
        put(idx[l_], idx[l_], -w)
        put(idx, idx, -ground)

    J = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(N, N)
    ).tocsc()
    J.sum_duplicates()
    J.sort_indices()

    # inputs: mechanical power at a few machines and regulator references at
    # a few others; outputs: a few machine speeds and one tie-line angle
    n_io = max(2, nmach // 20)
    B = np.zeros(N)
    C = np.zeros(N)
    pick = rng.choice(nmach, n_io, replace=False)
    B[om[pick]] = rng.choice([-1.0, 1.0], n_io) / M[pick]
    pick = rng.choice(nmach, n_io, replace=False)
    B[psi[pick]] = rng.choice([-1.0, 1.0], n_io) / Ta[pick]
    pick = rng.choice(nmach, n_io, replace=False)
    C[om[pick]] = rng.choice([-1.0, 1.0], n_io)
    tie = tuple(int(t) for t in ties[0]) if len(ties) else (0, 1)
    C[th[tie[0]]] += 1.0
    C[th[tie[1]]] -= 1.0
    return J, ndyn, B, C


def write_system(out_dir, J, ndyn, B, C):
    """Write the Matrix Market files and manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {k: out / f"system_{k}.mtx" for k in ("J", "B", "C")}
    mmio.write_coordinate(paths["J"], SparseMatrix.from_scipy(J))
    mmio.write_array(paths["B"], B)
    mmio.write_array(paths["C"], C)
    manifest = out / "system.manifest"
    save_manifest(manifest, Manifest(paths["J"], paths["B"], paths["C"], ndyn))
    return manifest


def reduce_sparse(J, ndyn, B, C):
    """Dense (A, b, c, d) from a sparse LU of J4, solved in column chunks."""
    J = sp.csc_matrix(J)
    n = ndyn
    J1 = J[:n, :n].toarray()
    J2 = J[:n, n:].tocsr()
    J3 = J[n:, :n].tocsc()
    lu = spla.splu(J[n:, n:].tocsc(), permc_spec="MMD_AT_PLUS_A")
    A = J1.copy()
    for lo in range(0, n, REFERENCE_CHUNK):
        hi = min(n, lo + REFERENCE_CHUNK)
        A[:, lo:hi] -= J2 @ lu.solve(J3[:, lo:hi].toarray())
    t = lu.solve(np.ascontiguousarray(B[n:]))
    b = B[:n] - J2 @ t
    c = C[:n] - J3.T @ lu.solve(np.ascontiguousarray(C[n:]), trans="T")
    d = -float(C[n:] @ t)
    return StateSpaceSystem(A, b, c, d)


def arpack_near(J, ndyn, sigma, k=1):
    """The k eigenvalues of the pencil (J, E) nearest sigma, by ARPACK in
    shift-invert mode, where a singular positive semidefinite E is allowed.

    This is the reference route for systems whose dynamic block is too large
    for the dense one (``DENSE_LIMIT``); every workload here stays below it.
    """
    N = J.shape[0]
    E = sp.diags(np.r_[np.ones(ndyn), np.zeros(N - ndyn)]).tocsc()
    return spla.eigs(sp.csc_matrix(J, dtype=complex), k=k, M=E, sigma=sigma,
                     return_eigenvectors=False)


def reference(J, ndyn, B, C):
    """Every mode with its residue, most dominant first (oracle route)."""
    if ndyn > DENSE_LIMIT:
        raise ValueError(f"ndyn = {ndyn} is above the dense limit; use arpack_near")
    table = oracle.residues(reduce_sparse(J, ndyn, B, C))
    if table.eigenvalues.real.max() >= 0:
        raise RuntimeError("generated system is not stable")
    return table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    J, ndyn, B, C = build(args.seed, **SYSTEMS[args.system])
    write_system(args.out, J, ndyn, B, C)
    table = reference(J, ndyn, B, C)
    np.savez(Path(args.out) / "reference.npz",
             eigenvalues=table.eigenvalues, residues=table.residues)
    return 0


if __name__ == "__main__":
    sys.exit(main())
