"""One dpse call on a 39,200-order grid, checked against ARPACK.

Run from the repository root (it is not a pytest module)::

    python3 tests/large_n.py

It builds ``perfbench/gen.py``'s grid with 280 areas of 8 x 8 buses and 3
machines each (N = 39,200, 3,360 dynamic states), hunts it once with dpse at
p = 8 from a jittered fan drawn as the grid-dpse workload draws its calls,
and checks every pole against the eigenvalue that ARPACK's shift-invert
mode finds nearest it (``gen.arpack_near``), to 1e-7 relative. It then
makes the same call again with the thread pool's size gate forced above the
Schur complement's order, so that it runs serially, and checks that both
runs give the same poles, residues, unconverged columns and ``splu`` calls.
It prints the Schur complement's order, the seconds that first use of the
system takes (its order, S0, K11's LU and the condensed B and C), both runs'
times and ``splu`` calls, and the peak resident set. It exits 1 on a wrong
pole, an unconverged column or a difference between the two runs; whether a column converges rests on the last bits of
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
from dompole import SolverConfig, solver, sparsela  # noqa: E402

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

    gate = solver._POOL_MIN_ORDER
    sparsela.spla.splu = counted
    try:
        t0 = time.perf_counter()
        system.condensed  # orders J - sE, reads S0 off it and condenses B and C
        first_use_s = time.perf_counter() - t0
        first_use_lus = lus
        order = system.ordered_j.csc.shape[0]
        config = SolverConfig(method="dpse", p=len(shifts))
        runs = []
        for forced in (gate, order + 1):  # the program's own choice, then serial
            solver._POOL_MIN_ORDER = forced
            before, t0 = lus, time.perf_counter()
            report = dompole.run(system, config, initial_shifts=shifts)
            runs.append((report, time.perf_counter() - t0, lus - before))
    finally:
        sparsela.spla.splu = splu
        solver._POOL_MIN_ORDER = gate
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (report, run_s, run_lus), (serial, serial_s, serial_lus) = runs
    print(f"N = {system.order}, ndyn = {ndyn}, schur_order = {order}")
    print(f"first use {first_use_s:.3f} s, {first_use_lus} splu calls; run {run_s:.3f} s, "
          f"{run_lus} splu calls; serial run {serial_s:.3f} s, {serial_lus} splu calls; "
          f"peak RSS {peak_mb:.1f} MB")

    failures = [f"column {u['column']} did not converge (residuals {u['residual_right']:.1e}, "
                f"{u['residual_left']:.1e})" for u in report.unconverged]
    for what, got in (("poles", lambda r: [p.eigenvalue for p in r.poles]),
                      ("residues", lambda r: [p.residue for p in r.poles]),
                      ("unconverged columns", lambda r: len(r.unconverged))):
        if got(report) != got(serial):
            failures.append(f"the serial run gives other {what}: {got(serial)} against {got(report)}")
    if run_lus != serial_lus:
        failures.append(f"the serial run makes {serial_lus} splu calls against {run_lus}")
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
