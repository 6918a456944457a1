"""dompole benchmark: seeded workloads driven through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-dpse --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

One process, one client, closed loop: each timed call starts after the
previous one returned. ``DOMPOLE_THREADS`` is removed and the BLAS thread
variables are pinned to 1 for this process. The generated system and its
dense reference are built once per checkout by ``gen.py`` in a child
process, cached under ``.perfbench-work/``, and never timed.

Each run draws a fixed set of distinct calls from ``--seed`` and cycles
through them until ``--seconds`` have passed. ``attempted`` and ``failed``
count the distinct calls, so they repeat exactly for a seed; a repeated
call must reproduce its first result bit for bit. End-to-end times are
scaled to a reference machine pace (see ``Pace``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass, taken
alongside an untraced pass of the same calls. Every result is checked
against the independent reference; a wrong result makes the exit code 1.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "DOMPOLE_THREADS"}
os.environ.pop("DOMPOLE_THREADS", None)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
GEN_TIMEOUT_S = 170
# Each workload hunts on one fixed generated model, as the paper hunts on its
# one 13,251-order grid model; --seed draws the calls made on it. The model
# and its dense reference are therefore built once per checkout.
SYSTEM_SEED = 1

# Relative tolerances of the independent checks. Poles and tf samples are
# near machine precision when right. Residues come from vectors converged
# only to the solver tolerance (1e-5), so they carry first-order error; a
# wrong mode, sign or conjugation is far outside 1e-2.
POLE_RTOL = 1e-7
RESIDUE_RTOL = 1e-2
TF_RTOL = 1e-8

# Initial shifts span the band of the generated swing modes.
IM_LO, IM_HI = 0.3, 3.0

# Host pace (see Pace): the share of the call time spent timing the
# reference step in the gaps between calls, the reference's grid side and
# Python loop length, and its time at the nominal pace, about its median on
# an idle 2-vCPU VM.
PACE_SHARE = 0.2
PACE_GRID = 64
PACE_LOOP = 200_000
PACE_REF_S = 0.03

EVENT_KINDS = (
    "singular-shift",
    "small-normalizer",
    "collision",
    "duplicate-deferred",
    "ill-conditioned-projection",
)


@dataclass(frozen=True)
class Workload:
    system: str
    kind: str  # "dpse": dompole.run; "tf": dompole.eval_transfer
    p: int
    shifts: str  # "fan": one jittered shift per frequency band; "random": uniform
    counted: int  # distinct calls; every run makes each once, then cycles through them


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "grid-dpse": Workload("grid", "dpse", 8, "fan", 10),
    "feeder-dpse": Workload("feeder", "dpse", 32, "random", 40),
    "grid-tf": Workload("grid", "tf", 0, "", 200),
}

END_TO_END_UNITS = {
    "call_s_p50": "s",
    "setup_s": "s",
    "results_per_s": "1/s",
    "lu_per_result": "count",
    "peak_rss_mb": "MB",
}


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "dompole" / "__init__.py").is_file():
    _die(f"no dompole sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import dompole  # noqa: E402
from dompole import sparsela  # noqa: E402
from spans import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# inputs


def ensure_data(system):
    """Directory holding the model's files and its reference.npz."""
    out = WORK / "data" / f"{system}-{SYSTEM_SEED}"
    if (out / "reference.npz").is_file():
        return out
    tmp = out.with_name(f"{out.name}.tmp{os.getpid()}")
    cmd = [sys.executable, str(HERE / "gen.py"), "--system", system,
           "--seed", str(SYSTEM_SEED), "--out", str(tmp)]
    subprocess.run(cmd, check=True, env=CHILD_ENV, timeout=GEN_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    os.replace(tmp, out)
    return out


class Ops:
    """The seeded calls, drawn in order: shift tuples for dpse, points
    s = i*omega for tf. The same seed gives the same sequence."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.rng = np.random.default_rng([seed, wl.p])  # p tells the workloads apart
        self.drawn = []

    def __getitem__(self, k):
        while len(self.drawn) <= k:
            self.drawn.append(self._draw())
        return self.drawn[k]

    def _draw(self):
        wl, rng = self.wl, self.rng
        if wl.kind == "tf":
            return 1j * rng.uniform(0.05, 4.0)
        if wl.shifts == "fan":
            band = (IM_HI - IM_LO) / wl.p
            im = IM_LO + band * (np.arange(wl.p) + rng.uniform(0.0, 1.0, wl.p))
        else:
            im = rng.uniform(IM_LO, IM_HI, wl.p)
        return rng.uniform(-0.5, -0.02, wl.p) + 1j * im


class Reference:
    """Dense reference modes; conjugate pairs share one mode id."""

    def __init__(self, path):
        z = np.load(path)
        self.eig = z["eigenvalues"]
        self.res = z["residues"]
        mate = np.array([int(np.argmin(np.abs(self.eig - np.conj(lam)))) for lam in self.eig])
        self.mode = np.minimum(np.arange(len(self.eig)), mate)

    def top(self, p):
        """Mode ids of the p most dominant modes (the table is sorted)."""
        return set(list(dict.fromkeys(self.mode.tolist()))[:p])

    def match(self, lam, residue):
        """(mode id, pole rel. error, residue rel. error) of one reported pole."""
        k = int(np.argmin(np.abs(self.eig - lam)))
        pole_err = abs(lam - self.eig[k]) / abs(self.eig[k])
        res_err = abs(residue - self.res[k]) / abs(self.res[k])
        return int(self.mode[k]), float(pole_err), float(res_err)


# ---------------------------------------------------------------------------
# calls and their checks


@dataclass
class Outcome:
    """What one call produced, checked against the reference."""

    failed: bool = False
    wrong: bool = False
    results: int = 0
    lu: int = 0
    fingerprint: object = None
    recall: float = 0.0
    pole_err: float = 0.0
    residue_err: float = 0.0
    tf_err: float = 0.0
    sweeps: int = 0
    duplicates: int = 0
    events: dict = field(default_factory=dict)
    note: str = ""


class SpluCounter:
    """Counts SuperLU factorizations at the scipy boundary dompole calls."""

    def __init__(self):
        self.count = 0
        self._orig = None

    def __enter__(self):
        self._orig = orig = sparsela.spla.splu

        def counted(*args, **kwargs):
            self.count += 1
            return orig(*args, **kwargs)

        sparsela.spla.splu = counted
        return self

    def __exit__(self, *exc):
        sparsela.spla.splu = self._orig
        return False


def call(wl, system, op):
    """The timed public call; returns its raw result or the exception."""
    try:
        if wl.kind == "dpse":
            cfg = dompole.SolverConfig(method="dpse", p=wl.p)
            return dompole.run(system, cfg, initial_shifts=op)
        return dompole.eval_transfer(system, op).value
    except Exception as exc:  # a raised error is a counted failure, not an abort
        exc.note = traceback.format_exc(limit=3)
        return exc


def check_dpse(report, ref, p):
    out = Outcome(sweeps=len(report.trajectories) - 1,
                  duplicates=len(report.conjugate_duplicates()))
    for e in report.events:
        out.events[e["kind"]] = out.events.get(e["kind"], 0) + 1
    modes = set()
    for pole in report.poles:
        mode, pe, re_ = ref.match(pole.eigenvalue, pole.residue)
        out.pole_err = max(out.pole_err, pe)
        out.residue_err = max(out.residue_err, re_)
        if pe > POLE_RTOL or re_ > RESIDUE_RTOL:
            out.wrong = True
            out.note = f"pole {pole.eigenvalue} off the reference: {pe:.2e}, residue {re_:.2e}"
        else:
            modes.add(mode)
    out.results = len(modes)
    out.recall = len(modes & ref.top(p)) / p
    out.failed = out.wrong or bool(report.unconverged)
    if report.unconverged and not out.note:
        out.note = f"{len(report.unconverged)} columns unconverged"
    out.fingerprint = fingerprint(report)
    return out


def check_tf(value, system, s):
    """h(s) against spsolve of J - sE with a different column ordering."""
    n = system.ndyn
    N = system.order
    E = sp.diags(np.r_[np.ones(n), np.zeros(N - n)])
    x = spla.spsolve((system.J.to_scipy() - s * E).tocsc(), system.B,
                     permc_spec="MMD_AT_PLUS_A")
    want = complex(-(system.C @ x) + system.D)
    err = abs(value - want) / abs(want)
    out = Outcome(results=1, tf_err=err, fingerprint=value)
    if not err <= TF_RTOL:
        out.wrong = out.failed = True
        out.note = f"h({s}) = {value} but spsolve gives {want} (rel. err {err:.2e})"
    return out


def fingerprint(result):
    """What a repeated call must reproduce exactly."""
    if isinstance(result, Exception):
        return type(result).__name__
    if isinstance(result, dompole.RunReport):
        return (tuple(p.eigenvalue for p in result.poles),
                tuple(p.residue for p in result.poles), len(result.unconverged))
    return result


def outcome(wl, result, system, ref, op):
    if isinstance(result, Exception):
        return Outcome(failed=True, fingerprint=fingerprint(result),
                       note=getattr(result, "note", repr(result)))
    if wl.kind == "dpse":
        return check_dpse(result, ref, wl.p)
    return check_tf(result, system, op)


# ---------------------------------------------------------------------------
# measurement


class SetupTimer:
    """Times dompole.load_system: a few loads up front, then one load in the
    gap after a timed call whenever a sixteenth of the run has passed, so the
    median spans the whole run rather than one moment of it. In a trace run
    only the up-front loads happen, traced, and give the per-load layer times.
    """

    def __init__(self, manifest, seconds, tracer, up_front=5):
        self.manifest = manifest
        self.every = seconds / 16.0
        self.tracer = tracer
        self.times, self.mmio_s, self.load_self = [], [], []
        for _ in range(up_front):
            self.load()
        self.last = time.perf_counter()

    def load(self):
        if self.tracer is None:
            t0 = time.perf_counter()
            dompole.load_system(self.manifest)
            self.times.append(time.perf_counter() - t0)
            return
        mark = self.tracer.mark()
        with self.tracer:
            t0 = self.tracer.clock()
            dompole.load_system(self.manifest)
            self.times.append(self.tracer.clock() - t0)
        s = self.tracer.summary(mark)
        self.mmio_s.append(s["mmio.read"]["self_s"])
        self.load_self.append(s["descriptor.load_system"]["self_s"])

    def gap(self):
        if self.tracer is None and time.perf_counter() - self.last >= self.every:
            self.load()
            self.last = time.perf_counter()


class Pace:
    """The host's pace, sampled in the gaps between timed calls.

    A shared host can change speed by up to 2x over minutes, and Python and
    SuperLU slow down by different amounts, so raw medians of identical runs
    drift apart. The reference step mirrors dompole's mix: one ``splu`` and
    solve of a fixed complex 5-point Laplacian, then a pure-Python loop of
    about the same length. It shares no code with dompole and no input with
    the workload. It is timed whenever the samples' total falls below
    ``PACE_SHARE`` of the call time so far, so they spread over the whole
    run. ``scale()`` turns a raw time into the time at the nominal pace,
    where the reference step takes ``PACE_REF_S``.
    """

    def __init__(self):
        m = PACE_GRID
        ring = sp.diags([-np.ones(m - 1), -np.ones(m - 1)], [-1, 1])
        lap = sp.kronsum(4.0 * sp.identity(m) + ring, ring)
        self.A = (lap - 0.7j * sp.identity(m * m)).tocsc()
        self.b = np.ones(m * m)
        self.times, self.total = [], 0.0
        self.sample()  # untimed warm-up
        self.times, self.total = [], 0.0

    def sample(self):
        t0 = time.perf_counter()
        spla.splu(self.A).solve(self.b)
        acc = 0
        for i in range(PACE_LOOP):
            acc += i * i
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.total += dt

    def keep_up(self, busy_s):
        while self.total < PACE_SHARE * busy_s:
            self.sample()

    def scale(self):
        return PACE_REF_S / statistics.median(self.times)


def warm_up(wl, system, op):
    """One untimed call through the same code, so lazy imports are done."""
    if wl.kind == "dpse":
        cfg = dompole.SolverConfig(method="dpse", p=wl.p, max_iter=1)
        dompole.run(system, cfg, initial_shifts=op)
    else:
        dompole.eval_transfer(system, op)


@dataclass
class Measurement:
    seconds: list = field(default_factory=list)      # untraced call times
    per_call: list = field(default_factory=list)     # untraced times of each distinct call
    traced_s: list = field(default_factory=list)     # traced twin of each call (trace run)
    first: list = field(default_factory=list)        # Outcome per distinct call
    failed: int = 0      # failed distinct calls, plus repeats that changed their result
    wrong: int = 0
    notes: list = field(default_factory=list)
    per_layer: dict = field(default_factory=dict)


def timed_call(wl, system, op, tracer):
    if tracer is None:
        t0 = time.perf_counter()
        result = call(wl, system, op)
        return result, time.perf_counter() - t0
    with tracer:
        t0 = tracer.clock()
        result = call(wl, system, op)
        return result, tracer.clock() - t0


def measure(wl, system, ref, ops, seconds, tracer, gap):
    """Closed loop, cycling through the counted calls, until ``seconds``
    have passed and each counted call was made once.

    Each distinct call is checked against the reference once; a repeated
    call must reproduce its first result exactly. A trace run makes each
    call twice, untraced and traced, and takes the per-layer numbers from
    the traced twins of the counted calls.
    """
    m = Measurement()
    layer_mark = tracer.mark() if tracer else 0
    with SpluCounter() as lu:
        t_start = time.perf_counter()
        i, busy = 0, 0.0
        while i < wl.counted or time.perf_counter() - t_start < seconds:
            k = i % wl.counted
            # in a trace run, alternate which twin goes first so that neither
            # inherits the other's warm caches more often
            order = ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,)
            dts = {}
            for traced in order:
                before = lu.count
                result, dts[traced] = timed_call(wl, system, ops[k], tracer if traced else None)
                if len(m.first) == k:
                    out = outcome(wl, result, system, ref, ops[k])
                    out.lu = lu.count - before
                    m.first.append(out)
                    if out.note:
                        m.notes.append(f"call {k}: {out.note}")
                    m.failed += out.failed
                    m.wrong += out.wrong
                elif fingerprint(result) != m.first[k].fingerprint:
                    m.notes.append(f"call {k}: a repeated call gave a different result")
                    m.failed += 1
                    m.wrong += 1
            m.seconds.append(dts[False])
            if len(m.per_call) == k:
                m.per_call.append([])
            m.per_call[k].append(dts[False])
            if tracer:
                m.traced_s.append(dts[True])
            busy += dts[False]
            gap(busy)
            i += 1
            if tracer and i == wl.counted:
                m.per_layer = per_layer(tracer, layer_mark, m.first[:wl.counted])
    return m


def per_layer(tracer, start, first):
    """Per-layer totals over the traced spans from ``start`` on."""
    S = tracer.summary(start)

    def get(name, key):
        return float(S[name][key]) if name in S else 0.0

    def total(attr):
        return float(sum(getattr(o, attr) for o in first))

    events = {k: sum(o.events.get(k, 0) for o in first) for k in EVENT_KINDS}
    out = {}
    for span, key in (
        ("descriptor.normalized_vectors", "calls"),
        ("descriptor.normalized_vectors", "self_s"),
        ("descriptor.eval_transfer", "self_s"),
        ("sparsela.splu", "calls"),
        ("sparsela.splu", "s"),
        ("sparsela.factorize", "calls"),
        ("sparsela.factorize", "self_s"),
        ("sparsela.shifted", "calls"),
        ("sparsela.shifted", "s"),
        ("sparsela.solve", "calls"),
        ("sparsela.solve", "s"),
        ("sparsela.matvec", "s"),
        ("sparsela.dense_eig", "calls"),
        ("sparsela.dense_eig", "s"),
        ("solver.run", "self_s"),
        ("solver.step", "self_s"),
        ("solver.match_shifts", "s"),
        ("solver.check_convergence", "self_s"),
        ("solver.refresh_columns", "self_s"),
    ):
        out[f"{span}.{key}"] = get(span, key)
    out["sparsela.singular"] = float(tracer.raised[("sparsela.factorize", "SingularMatrixError")])
    out["sparsela.fill_per_n"] = float(np.median(tracer.fill)) if tracer.fill else 0.0
    out["sparsela.pivot_growth_max"] = max(tracer.pivot_growth, default=0.0)
    out["solver.sweeps"] = total("sweeps")
    out["solver.step_retries"] = float(tracer.raised[("solver.step", "ShiftCollisionError")])
    out["solver.fallback_sweeps"] = float(events["ill-conditioned-projection"])
    for kind in EVENT_KINDS:
        out[f"solver.events.{kind}"] = float(events[kind])
    out["solver.cond_wtv_max"] = tracer.cond_wtv_max()
    out["solver.conjugate_duplicates"] = total("duplicates")
    return out


def tail(samples):
    """(percentile, value): the highest percentile with >= 10 samples beyond."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    data = ensure_data(wl.system)
    manifest = data / "system.manifest"
    ref = Reference(data / "reference.npz")
    ops = Ops(wl, seed)
    tracer = Tracer() if trace else None

    setup = SetupTimer(manifest, seconds, tracer)
    system = dompole.load_system(manifest)
    warm_up(wl, system, ops[0])
    pace = None if trace else Pace()

    def gap(busy_s):
        setup.gap()
        if pace is not None:
            pace.keep_up(busy_s)

    m = measure(wl, system, ref, ops, seconds, tracer, gap)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = m.first
    results_first = sum(o.results for o in first)
    lu_first = sum(o.lu for o in first)
    info = {
        "seed": seed,
        "calls": len(m.seconds),
        "distinct_calls": len(m.first),
        "failed_frac": sum(o.failed for o in first) / len(first),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("DOMPOLE_THREADS",)},
        "order": system.order,
        "ndyn": system.ndyn,
    }
    if wl.kind == "dpse":
        info["top_recall"] = statistics.fmean(o.recall for o in first)
    t = tail(m.seconds)
    info["call_s_tail"] = None if t is None else {"pct": t[0], "value": t[1], "n": len(m.seconds)}

    if trace:
        metrics = dict(m.per_layer)
        metrics["mmio.read_s"] = statistics.median(setup.mmio_s)
        metrics["descriptor.load_system.self_s"] = statistics.median(setup.load_self)
        metrics["solver.useful_column_frac"] = (
            results_first / (wl.p * len(first)) if wl.kind == "dpse" else 0.0
        )
        metrics["check.max_pole_rel_err"] = max((o.pole_err for o in first), default=0.0)
        metrics["check.max_residue_rel_err"] = max((o.residue_err for o in first), default=0.0)
        metrics["check.max_tf_rel_err"] = max((o.tf_err for o in first), default=0.0)
        metrics["trace.calls"] = float(len(first))
        metrics["trace.overhead_frac"] = sum(m.traced_s) / sum(m.seconds) - 1.0
        units = {k: _unit(k) for k in metrics}
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{name}-{seed}.jsonl")
    else:
        scale = pace.scale()
        info["pace_scale"] = scale
        # each distinct call counts once, at the median of its repeats, so
        # however many repeats fit in the run, the calls weigh the same
        call_s = [statistics.median(ts) for ts in m.per_call]
        info["raw"] = {"call_s_p50": statistics.median(call_s),
                       "setup_s": statistics.median(setup.times)}
        metrics = {
            "call_s_p50": statistics.median(call_s) * scale,
            "setup_s": statistics.median(setup.times) * scale,
            "results_per_s": results_first / sum(call_s) / scale,
            "lu_per_result": lu_first / max(1, results_first),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    return info, m, {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}


def _unit(name):
    if name.endswith(".calls") or name in (
        "sparsela.singular", "solver.sweeps", "solver.step_retries",
        "solver.fallback_sweeps", "solver.conjugate_duplicates", "trace.calls",
    ) or name.startswith("solver.events."):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


def main(argv=None):
    ap = argparse.ArgumentParser(description="dompole benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = wrong = 0
    metrics = {}
    for name in names:
        info, m, got = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += len(m.first)
        failed += m.failed
        wrong += m.wrong
        print(f"# {name}")
        for key in ("seed", "order", "ndyn", "calls", "distinct_calls", "nproc",
                    "affinity", "threads", "failed_frac", "top_recall", "call_s_tail",
                    "pace_scale", "raw"):
            if key in info:
                print(f"{name}.{key} = {info[key]}")
        for note in m.notes:
            print(f"{name}.note: {note}")
        for k, v in got.items():
            print(f"{name}.{k} = {v['value']!r} {v['unit']}")
        metrics = got if len(names) == 1 else {
            **metrics, **{f"{name}.{k}": v for k, v in got.items()}
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
