"""Synthetic descriptor systems with exactly known spectra.

The state matrix is assembled backwards: a real block-diagonal A0 carries
the prescribed eigenvalues (1x1 blocks for real poles, 2x2 rotation blocks
for conjugate pairs), random sparse couplings J2, J3 and a diagonally
dominant J4 are drawn, and J1 is set to ``A0 + J2 J4^-1 J3`` so that the
reduced state matrix is A0 by construction. B and C are resampled until
every residue clears a floor, and the algebraic output block is projected
so that ``C_a^T J4^-1 B_a = 0``; this keeps the descriptor-space normalizer
identical to the state-space one (and makes d = D), so sparse and dense
iterations can be compared digit for digit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mmio, oracle
from .descriptor import DescriptorSystem, Manifest, StateSpaceSystem, save_manifest
from .sparsela import SparseMatrix

__all__ = [
    "GeneratorError",
    "GroundTruth",
    "GeneratedSystem",
    "sample_spectrum",
    "build_system",
    "write_system",
    "load_ground_truth",
]


class GeneratorError(RuntimeError):
    """System construction failed (typically a resampling budget ran out)."""


@dataclass
class GroundTruth:
    """Prescribed spectrum with the residues the sampled B, C produce."""

    eigenvalues: np.ndarray
    residues: np.ndarray
    dominances: np.ndarray
    d: complex
    seed: int | None = None

    def to_dict(self):
        return {
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "residues": [[z.real, z.imag] for z in self.residues],
            "dominances": [float(m) for m in self.dominances],
            "d": [self.d.real, self.d.imag],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            eigenvalues=np.array([complex(re, im) for re, im in data["eigenvalues"]]),
            residues=np.array([complex(re, im) for re, im in data["residues"]]),
            dominances=np.asarray(data["dominances"], dtype=float),
            d=complex(data["d"][0], data["d"][1]),
            seed=data.get("seed"),
        )

    def save(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def load_ground_truth(path):
    with open(path, "r", encoding="ascii") as fh:
        return GroundTruth.from_dict(json.load(fh))


@dataclass
class GeneratedSystem:
    system: DescriptorSystem
    state_space: StateSpaceSystem
    truth: GroundTruth


def sample_spectrum(
    n_states,
    n_pairs,
    damping_range=(0.01, 0.3),
    rng=None,
    freq_range=(0.8, 4.8),
    real_range=(-6.0, -0.5),
):
    """Draw a conjugate-closed stable spectrum.

    Pair frequencies are spread evenly (with jitter) across ``freq_range``
    and damped per ``damping_range``; the remaining real poles spread across
    ``real_range``. Returns the eigenvalues with conjugates included.
    """
    rng = np.random.default_rng(rng)
    n_states = int(n_states)
    n_pairs = int(n_pairs)
    if n_states < 1 or n_pairs < 0 or 2 * n_pairs > n_states:
        raise ValueError("need n_states >= 1 and 2 * n_pairs <= n_states")
    lo, hi = damping_range
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("damping range must lie inside (0, 1)")
    eigs = []
    if n_pairs:
        base = np.linspace(freq_range[0], freq_range[1], n_pairs)
        width = (freq_range[1] - freq_range[0]) / max(1, n_pairs - 1)
        wn = base + rng.uniform(-0.15, 0.15, n_pairs) * width
        zeta = rng.uniform(lo, hi, n_pairs)
        sigma = -zeta * wn
        omega = wn * np.sqrt(1.0 - zeta**2)
        for s, w in zip(sigma, omega):
            eigs.extend([complex(s, w), complex(s, -w)])
    n_real = n_states - 2 * n_pairs
    if n_real:
        base = np.linspace(real_range[1], real_range[0], n_real)
        width = abs(real_range[1] - real_range[0]) / max(1, n_real)
        re = base + rng.uniform(-0.3, 0.3, n_real) * width
        eigs.extend(complex(min(r, -1e-3)) for r in re)
    return np.asarray(eigs, dtype=np.complex128)


def _pair_up(eigenvalues):
    """Split into real eigenvalues and upper-half conjugate-pair leaders."""
    eigs = list(np.asarray(eigenvalues, dtype=np.complex128))
    reals = [z for z in eigs if z.imag == 0.0]
    complexes = [z for z in eigs if z.imag != 0.0]
    leaders = []
    pool = complexes[:]
    while pool:
        z = pool.pop(0)
        mate = None
        for k, other in enumerate(pool):
            if abs(other - z.conjugate()) <= 1e-12 * max(1.0, abs(z)):
                mate = k
                break
        if mate is None:
            raise ValueError(f"eigenvalue {z!r} has no conjugate partner")
        pool.pop(mate)
        leaders.append(z if z.imag > 0 else z.conjugate())
    return reals, leaders


def _block_diagonal(eigenvalues):
    """Real matrix with the prescribed spectrum, in the input's pair order."""
    reals, leaders = _pair_up(eigenvalues)
    n = len(reals) + 2 * len(leaders)
    A0 = np.zeros((n, n))
    k = 0
    for z in leaders:
        A0[k, k] = A0[k + 1, k + 1] = z.real
        A0[k, k + 1] = z.imag
        A0[k + 1, k] = -z.imag
        k += 2
    for z in reals:
        A0[k, k] = z.real
        k += 1
    return A0


def _sparse_random(rng, nrows, ncols, density):
    mask = rng.random((nrows, ncols)) < density
    vals = rng.uniform(0.2, 1.0, (nrows, ncols)) * rng.choice([-1.0, 1.0], (nrows, ncols))
    return np.where(mask, vals, 0.0)


def _algebraic_block(rng, m, density):
    """Strictly diagonally dominant sparse block, nonsingular by construction."""
    off = _sparse_random(rng, m, m, density)
    np.fill_diagonal(off, 0.0)
    row_sums = np.abs(off).sum(axis=1)
    diag = rng.uniform(1.5, 2.5, m) * rng.choice([-1.0, 1.0], m)
    scale = np.minimum(1.0, 0.5 * np.abs(diag) / np.maximum(row_sums, 1e-12))
    off *= scale[:, None]
    return off + np.diag(diag)


def build_system(
    eigenvalues,
    n_algebraic=0,
    density=0.1,
    rng=None,
    residue_floor=1e-6,
    max_resample=50,
    b=None,
    c=None,
    seed_record=None,
):
    """Construct a descriptor system whose state matrix has the given spectrum.

    ``b``/``c`` override the random dynamic-block probes (algebraic parts are
    then zero), which pins simple reference systems exactly. Raises
    GeneratorError when ``max_resample`` draws never clear ``residue_floor``.
    """
    rng = np.random.default_rng(rng)
    A0 = _block_diagonal(eigenvalues)
    n = A0.shape[0]
    m = int(n_algebraic)
    N = n + m
    prescribed = np.asarray(eigenvalues, dtype=np.complex128)

    if m:
        J2 = _sparse_random(rng, n, m, density)
        J3 = _sparse_random(rng, m, n, density)
        J4 = _algebraic_block(rng, m, density)
        J4inv_J3 = np.linalg.solve(J4, J3)
        J1 = A0 + J2 @ J4inv_J3
        Jd = np.block([[J1, J2], [J3, J4]])
    else:
        Jd = A0
    J = SparseMatrix.from_scipy(Jd)

    forced = b is not None or c is not None
    for _ in range(int(max_resample)):
        if forced:
            B = np.zeros(N)
            C = np.zeros(N)
            B[:n] = np.asarray(b if b is not None else np.ones(n), dtype=float)
            C[:n] = np.asarray(c if c is not None else np.ones(n), dtype=float)
        else:
            B = rng.standard_normal(N)
            C = rng.standard_normal(N)
        if m:
            t = np.linalg.solve(J4, B[n:])
            tt = float(t @ t)
            if tt > 0:
                # make C_a^T J4^-1 B_a = 0 so the reduction has d = D and the
                # descriptor normalizer matches the state-space one
                C[n:] -= (C[n:] @ t) / tt * t
            bb = B[:n] - J2 @ t
            cc = C[:n] - J3.T @ np.linalg.solve(J4.T, C[n:])
        else:
            bb = B[:n]
            cc = C[:n]
        ss = StateSpaceSystem(A0, bb, cc, 0.0)
        table = oracle.residues(ss)
        if np.abs(table.residues).min() > residue_floor:
            break
        if forced:
            raise GeneratorError(
                f"forced probe vectors leave a residue below {residue_floor:g}"
            )
    else:
        raise GeneratorError(
            f"no B, C draw cleared the residue floor {residue_floor:g} in "
            f"{max_resample} attempts"
        )

    # report residues in the prescribed eigenvalue order
    order = [int(np.argmin(np.abs(table.eigenvalues - lam))) for lam in prescribed]
    truth = GroundTruth(
        eigenvalues=prescribed,
        residues=table.residues[order],
        dominances=table.dominances[order],
        d=0j,
        seed=seed_record,
    )
    system = DescriptorSystem(J=J, ndyn=n, B=B, C=C, D=0j)
    return GeneratedSystem(system=system, state_space=ss, truth=truth)


def write_system(gen, out_dir, name="system"):
    """Write Matrix Market data, the manifest, and the ground-truth file.

    Output is byte-deterministic for a fixed generator seed. Returns the
    manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    j_path = out / f"{name}_J.mtx"
    b_path = out / f"{name}_B.mtx"
    c_path = out / f"{name}_C.mtx"
    truth_path = out / f"{name}_truth.json"
    manifest_path = out / f"{name}.manifest"
    mmio.write_coordinate(j_path, gen.system.J)
    mmio.write_array(b_path, gen.system.B)
    mmio.write_array(c_path, gen.system.C)
    gen.truth.save(truth_path)
    save_manifest(
        manifest_path,
        Manifest(
            jacobian_path=j_path,
            b_path=b_path,
            c_path=c_path,
            ndyn=gen.system.ndyn,
            d=gen.system.D,
            ground_truth_path=truth_path,
        ),
    )
    return manifest_path
