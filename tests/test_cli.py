import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dompole.cli import main
from dompole.generator import load_ground_truth
from dompole.mmio import write_array, write_coordinate
from dompole.sparsela import EigenSolverError, SparseMatrix


@pytest.fixture
def toy_manifest(tmp_path):
    """Manifest for the two-state diag(-1, -3) system with b = c = ones."""
    write_coordinate(tmp_path / "J.mtx", SparseMatrix.from_scipy(np.diag([-1.0, -3.0])))
    write_array(tmp_path / "B.mtx", np.array([1.0, 1.0]))
    write_array(tmp_path / "C.mtx", np.array([1.0, 1.0]))
    path = tmp_path / "toy.manifest"
    path.write_text(
        "jacobian = J.mtx\nb = B.mtx\nc = C.mtx\nndyn = 2\nd_re = 0.0\nd_im = 0.0\n"
    )
    return path


@pytest.fixture
def empty_column_manifest(tmp_path):
    """The algebraic variable appears in no equation's column: column 3 of
    J - sE is empty for every s."""
    J = [[-1.0, 1.0, 0.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]]
    write_coordinate(tmp_path / "J.mtx", SparseMatrix.from_scipy(J))
    write_array(tmp_path / "B.mtx", np.ones(3))
    write_array(tmp_path / "C.mtx", np.ones(3))
    path = tmp_path / "empty_column.manifest"
    path.write_text(
        "jacobian = J.mtx\nb = B.mtx\nc = C.mtx\nndyn = 2\nd_re = 0.0\nd_im = 0.0\n"
    )
    return path


@pytest.fixture
def algebraic_toy_manifest(tmp_path):
    """One dynamic plus one algebraic variable; reduces to A=[-1], b=c=[1], d=1."""
    write_coordinate(tmp_path / "J.mtx", SparseMatrix.from_scipy([[-1.0, 0.0], [0.0, 1.0]]))
    write_array(tmp_path / "B.mtx", np.array([1.0, 1.0]))
    write_array(tmp_path / "C.mtx", np.array([1.0, -1.0]))
    path = tmp_path / "alg.manifest"
    path.write_text(
        "jacobian = J.mtx\nb = B.mtx\nc = C.mtx\nndyn = 1\nd_re = 0.0\nd_im = 0.0\n"
    )
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestPoles:
    def test_toy_run_finds_both_poles(self, toy_manifest, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["poles", str(toy_manifest), "--method", "dpse", "--shifts", " -0.5,-2.5",
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        vals = sorted(row["re"] for row in data["poles"])
        assert_allclose(vals, [-3.0, -1.0], atol=1e-9)
        assert data["all_converged"] is True
        assert data["config"]["tol"] == 1e-5
        assert set(data["config"]) == {"method", "p", "tol", "max_iter", "seed"}

    def test_matching_flag_rejected(self, toy_manifest, capsys):
        with pytest.raises(SystemExit) as info:
            main(["poles", str(toy_manifest), "--shifts", " -0.5,-2.5",
                  "--matching", "greedy-nearest"])
        assert info.value.code == 2
        assert "unrecognized arguments: --matching" in capsys.readouterr().err

    def test_fan_pattern_requires_p(self, toy_manifest, capsys):
        assert main(["poles", str(toy_manifest), "--shifts", "fan"]) == 1
        assert "--p" in capsys.readouterr().err

    def test_partial_convergence_exit_code(self, toy_manifest, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["poles", str(toy_manifest), "--shifts", " -0.5,-2.5",
             "--tol", "1e-300", "--max-iter", "3", "--out", str(out)]
        )
        assert code == 2
        data = json.loads(out.read_text())
        assert data["all_converged"] is False
        assert len(data["unconverged"]) == 2

    def test_bad_manifest_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.manifest"
        assert main(["poles", str(missing)]) == 1
        assert "error" in capsys.readouterr().err

    def test_all_zero_b_exit_code(self, toy_manifest, capsys):
        write_array(toy_manifest.parent / "B.mtx", np.array([0.0, 0.0]))
        assert main(["poles", str(toy_manifest), "--shifts", " -0.5,-2.5"]) == 1
        assert "error: B is all zero" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, shift",
        [
            (["--shifts", "nan,-1"], "(nan+0j)"),
            (["--shifts", "1e400,-1"], "(inf+0j)"),
            (["--shifts", "inf,-1"], "(inf+0j)"),
            (["--p", "2", "--scale", "nan"], "(nan+nanj)"),
        ],
        ids=["nan", "overflow", "inf", "scale"],
    )
    def test_nonfinite_shift_rejected(self, toy_manifest, tmp_path, capsys, flags, shift):
        out = tmp_path / "report.json"
        assert main(["poles", str(toy_manifest), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: shift {shift} is not finite\n"
        assert not out.exists()

    def test_imaginary_unit_i(self, toy_manifest, tmp_path):
        out = tmp_path / "report.json"
        main(["poles", str(toy_manifest), "--shifts", " -0.5+0.1i,-2.5-0.1i",
              "--max-iter", "1", "--tol", "1e-300", "--out", str(out)])
        first = json.loads(out.read_text())["trajectories"][0]
        assert first == [[-0.5, 0.1], [-2.5, -0.1]]

    def test_solver_error_exit_code(self, empty_column_manifest, capfd):
        path = str(empty_column_manifest)
        # a structurally singular J - sE is an input error, refused before any
        # shift is moved
        assert main(["poles", path, "--p", "1", "--shifts", " -0.5"]) == 1
        # capfd also catches what C code, such as BLAS's error handler,
        # writes to the process's stdout
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert "structurally singular" in err
        assert err.count("\n") == 1
        assert main(["spy", path]) == 0
        assert "note = structural rank of J is 2 < 3\n" in capfd.readouterr().out

    def test_failed_qz_is_a_solver_error(self, toy_manifest, tmp_path, capsys, monkeypatch):
        import dompole.solver as solver

        def failing(A, B):
            raise EigenSolverError("eigenvalue iteration failed: QZ did not converge")

        monkeypatch.setattr(solver, "dense_eig", failing)
        out = tmp_path / "report.json"
        assert main(["poles", str(toy_manifest), "--shifts", " -0.5,-2.5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "solver error: eigenvalue iteration failed: QZ did not converge\n"
        assert not out.exists()

    def test_csv_output(self, toy_manifest, tmp_path):
        csv = tmp_path / "poles.csv"
        main(["poles", str(toy_manifest), "--shifts", " -0.5,-2.5", "--csv", str(csv),
              "--out", str(tmp_path / "r.json")])
        header, rows = read_csv(csv)
        assert header[:2] == ["re", "im"]
        assert len(rows) == 2

    def test_ddpse_twenty_column_fan(self, tmp_path, capsys):
        main(["gen", "--n-states", "60", "--n-algebraic", "40", "--pairs", "10",
              "--seed", "2", "--out-dir", str(tmp_path / "g")])
        manifest = capsys.readouterr().out.strip()
        out = tmp_path / "report.json"
        code = main(["poles", manifest, "--method", "ddpse", "--p", "20",
                     "--shifts", "fan", "--max-iter", "40", "--out", str(out)])
        assert code in (0, 2)
        data = json.loads(out.read_text())
        assert data["config"]["p"] == 20
        assert all(len(tuple_) == 20 for tuple_ in data["trajectories"])
        first = data["trajectories"][0]
        assert first[0] == pytest.approx([-0.05, 0.5])
        assert first[19] == pytest.approx([-1.0, 10.0])

    def test_ddpse_poles_lock_at_the_rayleigh_quotient(self, tmp_path, capsys):
        # ddpse's own update is only as accurate as the 1e-5 residual that
        # admits it: locked there, one pole of this system read 1.8e-6 off the
        # generated spectrum; the frozen vectors' Rayleigh quotient is 1e-11 off
        main(["gen", "--n-states", "60", "--n-algebraic", "40", "--pairs", "10",
              "--seed", "1", "--out-dir", str(tmp_path)])
        manifest = capsys.readouterr().out.strip()
        out = tmp_path / "report.json"
        code = main(["poles", manifest, "--method", "ddpse", "--p", "10",
                     "--shifts", "fan", "--tol", "1e-5", "--out", str(out)])
        assert code == 0
        truth = load_ground_truth(tmp_path / "system_truth.json").eigenvalues
        poles = [complex(row["re"], row["im"]) for row in json.loads(out.read_text())["poles"]]
        assert len(poles) == 10
        for z in poles:
            assert np.abs(truth - z).min() <= 1e-9 * abs(z)


class TestTf:
    def test_toy_sample(self, toy_manifest, tmp_path):
        out = tmp_path / "tf.csv"
        # h(2) = 1/(2+1) + 1/(2+3) = 8/15 for this realization
        code = main(["tf", str(toy_manifest), "--s", "2", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0]["h_re"]) == pytest.approx(8.0 / 15.0)

    def test_modal_comparison_full_order(self, toy_manifest, tmp_path):
        out = tmp_path / "tf.csv"
        main(["tf", str(toy_manifest), "--wmin", "0.1", "--wmax", "10", "--points",
              "25", "--compare-modal", "2", "--out", str(out)])
        _, rows = read_csv(out)
        assert len(rows) == 25
        assert max(float(r["rel_error"]) for r in rows) <= 1e-8

    def test_requires_sampling_mode(self, toy_manifest, capsys):
        assert main(["tf", str(toy_manifest)]) == 1

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_sweep_without_points_rejected(self, toy_manifest, tmp_path, capsys, points):
        out = tmp_path / "tf.csv"
        code = main(["tf", str(toy_manifest), "--wmin", "0.1", "--wmax", "10",
                     "--points", points, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --points must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sample, shift", [("nan,1j", "(nan+0j)"), ("inf", "(inf+0j)")], ids=["nan", "inf"]
    )
    def test_nonfinite_sample_rejected(self, toy_manifest, tmp_path, capsys, sample, shift):
        out = tmp_path / "tf.csv"
        assert main(["tf", str(toy_manifest), "--s", sample, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: shift {shift} is not finite\n"
        assert not out.exists()

    def test_sample_on_a_pole_is_skipped(self, toy_manifest, capsys):
        assert main(["tf", str(toy_manifest), "--s", " -1,-2"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == ["-2.0,0.0,0.0,0.0"]
        assert err.startswith("warning: skipping s = (-1+0j): ")
        assert err.count("\n") == 1

    def test_structurally_singular_pencil_is_refused(self, empty_column_manifest, capfd):
        # no sample is skipped: the pattern is singular at every s
        assert main(["tf", str(empty_column_manifest), "--s", " -0.5j,1,2+3j"]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert "structurally singular" in err
        assert err.count("\n") == 1

    def test_algebraic_toy_value(self, algebraic_toy_manifest, tmp_path):
        # (2E - J) = diag(3, -1), so h(2) = 1/3 + 1
        out = tmp_path / "tf.csv"
        main(["tf", str(algebraic_toy_manifest), "--s", "2", "--out", str(out)])
        _, rows = read_csv(out)
        assert float(rows[0]["h_re"]) == pytest.approx(4.0 / 3.0)

    def test_one_term_modal_at_resonance(self, tmp_path):
        # one pole two orders more dominant than the rest: a single term
        # carries the response at its resonant frequency
        lam = complex(-0.1, 10.0)
        J = np.diag([lam, -2.0 + 0j, -3.0 + 0j, -4.0 + 0j])
        write_coordinate(tmp_path / "J.mtx", SparseMatrix.from_scipy(J))
        write_array(tmp_path / "B.mtx", np.ones(4))
        write_array(tmp_path / "C.mtx", np.array([10.0, 0.05, 0.05, 0.05]))
        manifest = tmp_path / "dom.manifest"
        manifest.write_text(
            "jacobian = J.mtx\nb = B.mtx\nc = C.mtx\nndyn = 4\nd_re = 0.0\nd_im = 0.0\n"
        )
        out = tmp_path / "tf.csv"
        main(["tf", str(manifest), "--s", "10j", "--compare-modal", "1",
              "--out", str(out)])
        _, rows = read_csv(out)
        assert float(rows[0]["rel_error"]) <= 0.05


class TestGenSpyBench:
    def test_gen_then_spy(self, tmp_path, capsys):
        code = main(
            ["gen", "--n-states", "12", "--n-algebraic", "8", "--pairs", "3",
             "--seed", "5", "--out-dir", str(tmp_path), "--name", "sys"]
        )
        assert code == 0
        manifest = capsys.readouterr().out.strip()
        code = main(["spy", manifest, "--coords", str(tmp_path / "coords.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "order = 20" in out
        assert "ndyn = 12" in out
        assert "nnz_J4" in out
        header, rows = read_csv(tmp_path / "coords.csv")
        assert header == ["row", "col"]
        assert len(rows) > 0

    def test_spy_rejects_nan_jacobian(self, toy_manifest, capsys):
        jac = toy_manifest.parent / "J.mtx"
        jac.write_text(jac.read_text().replace("-3.0", "nan"))
        assert main(["spy", str(toy_manifest)]) == 1
        captured = capsys.readouterr()
        assert "j4_nonsingular" not in captured.out
        assert f"{jac}:4: non-finite value 'nan'" in captured.err

    def test_gen_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            main(["gen", "--n-states", "10", "--n-algebraic", "5", "--pairs", "2",
                  "--seed", "9", "--out-dir", str(tmp_path / sub)])
        assert (tmp_path / "a" / "system_J.mtx").read_bytes() == (
            tmp_path / "b" / "system_J.mtx"
        ).read_bytes()

    def test_bench_table_shape(self, tmp_path, capsys):
        main(["gen", "--n-states", "20", "--n-algebraic", "10", "--pairs", "5",
              "--seed", "3", "--out-dir", str(tmp_path)])
        manifest = capsys.readouterr().out.strip()
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", manifest, "--methods", "dpse,ddpse", "--p", "4",
             "--shifts", "fan", "--repeats", "2", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("method,k,")
        methods = {line.split(",")[0] for line in lines[1:] if not line.startswith("#")}
        assert methods == {"dpse", "ddpse"}
        assert sum(1 for l in lines if l.startswith("# dpse:")) == 1
        assert "upper half-plane" in text

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_bench_without_repeats_rejected(self, toy_manifest, capsys, repeats):
        code = main(["bench", str(toy_manifest), "--shifts", " -0.5,-2.5",
                     "--repeats", repeats])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --repeats must be at least 1")

    @pytest.mark.parametrize("methods", ["", " , "])
    def test_bench_without_methods_rejected(self, toy_manifest, capsys, methods):
        code = main(["bench", str(toy_manifest), "--methods", methods, "--shifts", " -0.5,-2.5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: empty method list\n"
        assert captured.out == ""

    def test_bench_single_method(self, toy_manifest, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", str(toy_manifest), "--methods", "dpse", "--shifts",
              " -0.5,-2.5", "--out", str(out)])
        lines = out.read_text().splitlines()
        rows = [l for l in lines if l.startswith("dpse,")]
        assert len(rows) == 2


class TestPolemap:
    def run_polemap(self, tmp_path, report):
        rp = tmp_path / "report.json"
        rp.write_text(json.dumps(report))
        out = tmp_path / "map.csv"
        assert main(["polemap", str(rp), "--out", str(out)]) == 0
        return read_csv(out)

    def test_real_poles(self, tmp_path):
        report = {
            "poles": [
                {"re": -1.0, "im": 0.0, "dominance": 1.0, "dominance_infinite": False,
                 "damping_ratio": 1.0},
                {"re": -3.0, "im": 0.0, "dominance": 0.33, "dominance_infinite": False,
                 "damping_ratio": 1.0},
            ],
            "unconverged": [],
        }
        header, rows = self.run_polemap(tmp_path, report)
        poles = [r for r in rows if r["kind"] == "pole"]
        assert len(poles) == 2
        assert all(r["damping_ratio"] == "1.0" for r in poles)
        assert any(r["kind"] == "refline" for r in rows)

    def test_low_damped_pole_ratio(self, tmp_path):
        lam = complex(-0.0335, 1.0787)
        report = {
            "poles": [
                {"re": lam.real, "im": lam.imag, "dominance": 760.11,
                 "dominance_infinite": False, "damping_ratio": -lam.real / abs(lam)}
            ],
            "unconverged": [],
        }
        _, rows = self.run_polemap(tmp_path, report)
        pole = [r for r in rows if r["kind"] == "pole"][0]
        assert float(pole["damping_ratio"]) == pytest.approx(0.0310, abs=5e-5)

    def test_empty_report_header_only(self, tmp_path):
        header, rows = self.run_polemap(tmp_path, {"poles": [], "unconverged": []})
        assert header[0] == "kind"
        assert rows == []

    def test_malformed_report(self, tmp_path, capsys):
        rp = tmp_path / "bad.json"
        rp.write_text("{not json")
        assert main(["polemap", str(rp)]) == 1


def test_module_entry_point(toy_manifest):
    proc = subprocess.run(
        [sys.executable, "-m", "dompole", "poles", str(toy_manifest),
         "--shifts", " -0.5,-2.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["poles"]) == 2
