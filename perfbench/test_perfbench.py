"""Self-tests of the benchmark: generator, reference, tracing and output names.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import run
from spans import Tracer

import dompole
from dompole.descriptor import DescriptorSystem
from dompole.sparsela import SparseMatrix

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_generator_is_byte_identical_per_seed(tmp_path):
    files = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        J, ndyn, B, C = gen.build(seed, **gen.SYSTEMS["feeder"])
        gen.write_system(tmp_path / tag, J, ndyn, B, C)
        files[tag] = {p.name: p.read_bytes() for p in sorted((tmp_path / tag).iterdir())}
    assert files["a"] == files["b"]
    assert files["a"]["system_J.mtx"] != files["c"]["system_J.mtx"]


def test_generated_grid_shape():
    J, ndyn, B, C = gen.build(1, **gen.SYSTEMS["grid"])
    N = J.shape[0]
    assert 9000 <= N <= 11000
    assert N - ndyn > ndyn  # algebraic variables outnumber dynamic ones
    assert ndyn <= gen.DENSE_LIMIT
    assert J.nnz < 6 * N  # bounded degree: O(N) entries, no dense block
    assert np.isrealobj(J.data) and np.isrealobj(B) and np.isrealobj(C)


def _fill_per_n(areas):
    shape = dict(gen.SYSTEMS["grid"], areas=areas)
    J, ndyn, B, C = gen.build(3, **shape)
    system = DescriptorSystem(SparseMatrix.from_scipy(J), ndyn, B, C)
    tracer = Tracer()
    with tracer:
        dompole.eval_transfer(system, 1.3j)
    return J.shape[0], tracer.fill[0]


def test_fill_grows_close_to_linearly():
    # about 2k, 8k and 32k states: fill per row stays nearly flat
    sizes = [_fill_per_n(areas) for areas in (14, 57, 229)]
    orders = [n for n, _ in sizes]
    assert orders[0] < 2100 and 7800 < orders[1] < 8200 and 31500 < orders[2] < 32500
    per_n = [f for _, f in sizes]
    assert max(per_n) / min(per_n) < 1.3, per_n


@pytest.fixture(scope="module")
def feeder():
    data = run.ensure_data("feeder")
    return dompole.load_system(data / "system.manifest"), run.Reference(data / "reference.npz")


def test_self_times_sum_to_the_call_wall_time(feeder):
    system, _ = feeder
    wl = run.WORKLOADS["feeder-dpse"]
    op = run.Ops(wl, 1)[0]
    tracer = Tracer()
    result, wall = run.timed_call(wl, system, op, tracer)
    assert isinstance(result, dompole.RunReport)
    roots = [i for i, s in enumerate(tracer.spans) if s[3] == -1]
    assert [tracer.spans[i][0] for i in roots] == ["solver.run"]
    total_self = sum(tracer.self_times().values())
    assert total_self == pytest.approx(wall, rel=0.03)
    names = {s[0] for s in tracer.spans}
    assert {"sparsela.splu", "sparsela.shifted", "solver.step"} <= names


def test_checks_catch_wrong_results(feeder):
    system, ref = feeder
    lam, res = ref.eig[0], ref.res[0]
    assert ref.match(lam, res)[1:] == (0.0, 0.0)
    assert ref.match(lam * (1 + 1e-5), res)[1] > run.POLE_RTOL
    assert ref.match(lam, res * 1.1)[2] > run.RESIDUE_RTOL
    assert ref.mode[0] == ref.mode[1]  # a conjugate pair is one mode
    s = 0.7j
    value = dompole.eval_transfer(system, s).value
    assert not run.check_tf(value, system, s).wrong
    assert run.check_tf(value * (1 + 1e-6), system, s).wrong


def test_arpack_route_agrees_with_dense_reference(feeder):
    system, ref = feeder
    J = system.J.to_scipy()
    lam = ref.eig[0]
    near = gen.arpack_near(J, system.ndyn, lam + 1e-3)
    assert abs(near[0] - lam) <= 1e-9 * abs(lam)


def test_pace_keeps_its_share_of_the_call_time():
    pace = run.Pace()
    pace.keep_up(0.5)
    assert pace.total >= run.PACE_SHARE * 0.5
    assert len(pace.times) >= 1
    assert pace.scale() > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(monkeypatch, trace):
    # one counted call per workload keeps this quick; the names do not depend on it
    short = {k: dataclasses.replace(w, counted=1) for k, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", short)
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert sorted(short) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for name in short:
        _, m, got = run.run_workload(name, 1, 0.0, trace)
        assert m.wrong == 0
        assert {k: v["unit"] for k, v in got.items()} == want
        if not trace:
            assert all(v["value"] > 0 for v in got.values())
        elif name == "grid-tf":
            solver = {k: v["value"] for k, v in got.items() if k.startswith("solver.")}
            assert not any(solver.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-tf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
