"""One dpse call on a 39,200-order grid, checked against ARPACK.

Run from the repository root (it is not a pytest module)::

    python3 tests/large_n.py

It builds ``perfbench/gen.py``'s grid with 280 areas of 8 x 8 buses and 3
machines each (N = 39,200, 3,360 dynamic states), hunts it once with dpse at
p = 8 from a jittered fan drawn as the grid-dpse workload draws its calls,
and checks every pole against the eigenvalue that ARPACK's shift-invert
mode finds nearest it (``gen.arpack_near``), to 1e-7 relative. It prints
the Schur complement's order, the seconds that first use of the system
takes (its order, S0, K11's LU and the condensed B and C), the ``splu``
calls and the peak resident set. It exits 1 on a wrong pole or an
unconverged column; whether a column converges rests on the last bits of
rounding, as in the benchmark runs, so the check is for pinned numpy and
scipy versions. Residues are not checked: that needs left eigenvectors,
which ``arpack_near`` does not compute.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import scipy.sparse.linalg as spla  # noqa: E402

import gen  # noqa: E402
from run import WORKLOADS, Ops  # noqa: E402

import dompole  # noqa: E402
from dompole import SolverConfig, sparsela  # noqa: E402

AREAS, SIDE, MACHINES = 280, 8, 3
CALL_SEED = 1
POLE_RTOL = 1e-7


def main():
    J, ndyn, B, C = gen.build(1, AREAS, SIDE, MACHINES)
    system = dompole.DescriptorSystem(sparsela.SparseMatrix.from_scipy(J), ndyn, B, C)
    shifts = Ops(WORKLOADS["grid-dpse"], CALL_SEED)[0]
    lus = 0
    splu = spla.splu

    def counted(*args, **kwargs):
        nonlocal lus
        lus += 1
        return splu(*args, **kwargs)

    sparsela.spla.splu = counted
    try:
        t0 = time.perf_counter()
        system.condensed  # orders J - sE, reads S0 off it and condenses B and C
        first_use_s = time.perf_counter() - t0
        first_use_lus = lus
        t0 = time.perf_counter()
        config = SolverConfig(method="dpse", p=len(shifts))
        report = dompole.run(system, config, initial_shifts=shifts)
        run_s = time.perf_counter() - t0
    finally:
        sparsela.spla.splu = splu
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"N = {system.order}, ndyn = {ndyn}, schur_order = {system.ordered_j.csc.shape[0]}")
    print(f"first use {first_use_s:.3f} s, {first_use_lus} splu calls; run {run_s:.3f} s, "
          f"{lus - first_use_lus} splu calls; peak RSS {peak_mb:.1f} MB")

    failures = [f"column {u['column']} did not converge (residuals {u['residual_right']:.1e}, "
                f"{u['residual_left']:.1e})" for u in report.unconverged]
    for pole in report.poles:
        lam = pole.eigenvalue
        near = complex(gen.arpack_near(J, ndyn, lam)[0])
        err = abs(lam - near) / abs(near)
        print(f"pole {lam:.10g}: ARPACK {near:.10g}, relative difference {err:.1e}")
        if not err <= POLE_RTOL:
            failures.append(f"pole {lam} is {err:.1e} from ARPACK's {near}")
    if not report.poles:
        failures.append("no pole converged")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
