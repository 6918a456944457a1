import numpy as np
import pytest
from numpy.testing import assert_allclose

from dompole import solver, sparsela
from dompole.descriptor import (
    DescriptorSystem,
    StateSpaceSystem,
    VanishingNormalizerError,
    _lifted_vectors,
    reduce_to_state_space,
)
from dompole.generator import build_system, sample_spectrum
from dompole.oracle import full_spectrum, reference_F, reference_sequence, residues
from dompole.sparsela import SingularMatrixError, SparseMatrix, StructurallySingularError
from dompole.solver import (
    DEFAULT_FAN_SCALE,
    PoleResult,
    ShiftState,
    SolverConfig,
    SolverError,
    check_convergence,
    ddpse_step,
    deflate,
    dominance,
    dpse_step,
    estimate_residue,
    init_shifts,
    match_shifts,
    refresh_columns,
    run,
)

WORKED_F = np.array([[-1.125, -1.125], [-5.0 / 24.0, -2.875]])


def two_state():
    return DescriptorSystem.from_dense_state(np.diag([-1.0, -3.0]), [1, 1], [1, 1], 0)


def prepared_state(sys, shifts):
    state = ShiftState.start(sys, np.asarray(shifts, dtype=complex))
    refresh_columns(sys, state)
    return state


def state_space_system():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((8, 8))
    a -= np.diag(np.abs(a).sum(axis=1) + 1.0)
    ss = StateSpaceSystem(a, rng.standard_normal(8), rng.standard_normal(8), 0)
    return DescriptorSystem.from_dense_state(ss.A, ss.b, ss.c, ss.d), ss


def feedthrough_system():
    """Five dynamic and four algebraic states, B and C on both: kappa =
    C_a^T J4^-1 B_a is nonzero, so W^T b = 1 - kappa vhat, not ones(p)."""
    rng = np.random.default_rng(21)
    Jd = rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.5)
    Jd[:5, :5] -= np.diag(rng.uniform(3.0, 5.0, 5))
    Jd[5:, 5:] += np.diag(rng.uniform(4.0, 5.0, 4))
    sys = DescriptorSystem(
        SparseMatrix.from_scipy(Jd), 5, rng.standard_normal(9), rng.standard_normal(9)
    )
    return sys, reduce_to_state_space(sys)


class TestInitShifts:
    def test_fan_endpoints(self):
        s = init_shifts("fan", 20)
        assert s[0] == pytest.approx(-0.05 + 0.5j)
        assert s[-1] == pytest.approx(-1.0 + 10.0j)

    def test_fan_single(self):
        assert_allclose(init_shifts("fan", 1), [DEFAULT_FAN_SCALE])

    def test_ring(self):
        s = init_shifts("ring", 4)
        assert_allclose(np.abs(s + 1.0), np.ones(4))
        assert (s.real < 0).all()

    def test_explicit_list_passthrough(self):
        assert_allclose(init_shifts([-0.5, -2.5]), [-0.5, -2.5])

    def test_explicit_length_mismatch(self):
        with pytest.raises(ValueError, match="explicit shifts"):
            init_shifts([-0.5], p=2)


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["p", "max_iter"])
    @pytest.mark.parametrize("value", [2.5, True, "3", 3.0, 0, -1])
    def test_count_must_be_a_positive_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("tol", [0.0, -1e-5, 1.0, 1e300, np.inf, np.nan])
    def test_tol_must_lie_between_0_and_1(self, tol):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            SolverConfig(tol=tol)

    def test_numpy_integers_pass_as_int(self):
        config = SolverConfig(p=np.int64(3), max_iter=np.int32(7))
        assert (config.p, config.max_iter) == (3, 7)
        assert type(config.p) is int and type(config.max_iter) is int


class TestProjection:
    # the solver never forms the p-by-p F = (W^T V)^-1 G; the dense reference
    # does, and the steps return its eigenvalues (dpse) and diagonal (ddpse)
    def test_worked_example(self):
        F = reference_F(StateSpaceSystem(np.diag([-1.0, -3.0]), [1, 1], [1, 1], 0), [-0.5, -2.5])
        assert_allclose(F, WORKED_F, atol=1e-9)

    @pytest.mark.parametrize(
        "make", [state_space_system, feedthrough_system], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("locked", [(), (1,)])
    def test_steps_match_reference(self, make, locked):
        sys, ss = make()
        shifts = np.array([-0.5 + 0.6j, -1.5 - 0.3j, -2.5 + 1.1j])
        state = prepared_state(sys, shifts)
        F = reference_F(ss, shifts)
        for j in locked:
            deflate(state, j, shifts[j])
            F[:, j] = shifts[j] * np.eye(3)[:, j]  # vhat_j = 0
        scale = 1e-9 * np.abs(F).max()
        assert_allclose(ddpse_step(sys, state), np.diag(F), atol=scale)
        want = match_shifts(shifts, np.linalg.eigvals(F))
        assert_allclose(dpse_step(sys, state), want, atol=scale)

    def test_near_eigenvalue_tuple_is_nearly_diagonal(self):
        sys = two_state()
        shifts = np.array([-1.0, -3.0]) + 1e-8
        state = prepared_state(sys, shifts)
        F = reference_F(StateSpaceSystem(np.diag([-1.0, -3.0]), [1, 1], [1, 1], 0), shifts)
        assert np.abs(F - np.diag(shifts)).max() <= 1e-6
        assert np.abs(ddpse_step(sys, state) - shifts).max() <= 1e-6

    def test_rank_one_structure(self):
        # F - S = (W^T V)^-1 e vhat^T, the form both steps rest on
        rng = np.random.default_rng(13)
        spec = sample_spectrum(10, 2, (0.1, 0.4), rng)
        gen = build_system(spec, n_algebraic=5, density=0.3, rng=rng)
        shifts = spec[:4] + 0.2 + 0.1j
        F = reference_F(gen.state_space, shifts)
        sv = np.linalg.svd(F - np.diag(shifts), compute_uv=False)
        assert sv[1] <= 1e-10 * np.linalg.norm(F)

    def test_collision_detection(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5, -0.5 + 1e-12])
        B, _ = solver._projection_parts(sys, state)
        assert np.linalg.cond(B) > 1e8


class TestDpseStep:
    def test_worked_example_exact(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5, -2.5])
        new = dpse_step(sys, state)
        assert_allclose(np.sort_complex(new), [-3.0, -1.0], atol=1e-9)

    def test_fixed_point_at_eigenvalue_tuple(self):
        sys = two_state()
        state = prepared_state(sys, [-1.0, -3.0])
        new = dpse_step(sys, state)
        assert np.abs(np.sort_complex(new) - np.array([-3.0, -1.0])).max() <= 1e-10

    def test_quadratic_contraction_with_spectator_mode(self):
        sys = DescriptorSystem.from_dense_state(
            np.diag([-1.0, -3.0, -10.0]), np.ones(3), np.ones(3), 0
        )
        state = prepared_state(sys, [-0.5, -2.5])
        new = dpse_step(sys, state)
        errs = np.array([abs(new[0] + 1.0), abs(new[1] + 3.0)])
        assert (errs < 0.5).all()  # strictly closer than the starts
        assert (errs <= 0.75 * 0.5**2).all()  # consistent with e1 ~ C e0^2
        # and the sparse step agrees with the dense reference formulas
        ss = StateSpaceSystem(np.diag([-1.0, -3.0, -10.0]), np.ones(3), np.ones(3), 0)
        wref, _ = np.linalg.eig(reference_F(ss, [-0.5, -2.5]))
        assert_allclose(np.sort_complex(new), np.sort_complex(wref), atol=1e-10)


class TestDdpseStep:
    def test_worked_example(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5, -2.5])
        assert_allclose(ddpse_step(sys, state), [-1.125, -2.875], atol=1e-9)

    def test_p1_newton_step(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5])
        new = ddpse_step(sys, state)
        # h/h' step on the partial fractions: -0.5 - 2.4/4.16 = -14/13
        assert new[0] == pytest.approx(-14.0 / 13.0, abs=1e-9)

    def test_fixed_point(self):
        sys = two_state()
        state = prepared_state(sys, [-1.0, -3.0])
        new = ddpse_step(sys, state)
        assert np.abs(new - np.array([-1.0, -3.0])).max() <= 1e-10


class TestMatchShifts:
    def test_nearest(self):
        assert_allclose(match_shifts([-1.0, -3.0], [-3.01, -0.99]), [-0.99, -3.01])

    def test_identity(self):
        old = np.array([-1.0 + 2.0j, -4.0])
        assert_allclose(match_shifts(old, old), old)

    def test_unambiguous_distances(self):
        out = match_shifts([0.0, 10.0j], [9.9j, 0.1])
        assert_allclose(out, [0.1, 9.9j])


class TestCheckConvergence:
    def test_exact_eigenpair_has_zero_residual(self):
        # B = C = e_1: the resolvent vectors at -0.5 are e_1 itself, and the
        # identity's B vhat + (s - t) E x is 0 at t = -1, as is (J + E) e_1
        sys = DescriptorSystem.from_dense_state(np.diag([-1.0, -3.0]), [1, 0], [1, 0], 0)
        state = prepared_state(sys, [-0.5])
        assert state.X[:, 0].tolist() == state.Y[:, 0].tolist() == [1.0, 0.0]
        cols, lams = check_convergence(sys, state, np.array([-1.0 + 0j]), 1e-5)
        assert list(cols) == [0]
        assert lams.tolist() == [-1.0]
        assert state.final_residuals[0].tolist() == [0.0, 0.0]
        assert len(state.residual_history) == 1

    def test_worked_residual_value(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5, -2.5])
        cols, lams = check_convergence(sys, state, np.array([-1.0, -3.0]), 1e-5)
        assert not cols.size and not lams.size
        assert state.final_residuals[0, 0] == pytest.approx(2.0 / np.sqrt(26.0), abs=1e-12)

    def test_column_failing_only_the_explicit_check_stays_active(self, monkeypatch):
        # a large algebraic component in column 0's D rows raises ||x_D|| and
        # ||y_D|| but leaves E x and E y, so its identity residuals fall below
        # tol while the explicit ones of the lifted column, which see J's
        # algebraic columns, rise above it
        widths = []
        for name in ("matvec", "matvec_t"):
            def counted(self, x, _orig=getattr(SparseMatrix, name)):
                widths.append(x.shape[1])
                return _orig(self, x)

            monkeypatch.setattr(SparseMatrix, name, counted)
        sys, _ = feedthrough_system()
        n, Jd = sys.ndyn, sys.J.to_scipy().toarray()
        state = prepared_state(sys, [-0.5 + 0.6j, -1.5 - 0.3j])
        assert state.X.shape[0] > n  # D holds algebraic states too
        state.X[n:, 0] += 1e8
        state.Y[n:, 0] += 1e8
        new = state.shifts.copy()  # identity residuals ||g_B vhat|| / ||x_D||, likewise y
        vhat = 1.0 / state.normalizers[0]
        gb, gc, _ = sys.condensed
        identity = [np.linalg.norm(gb * vhat) / np.linalg.norm(state.X[:, 0]),
                    np.linalg.norm(gc * vhat) / np.linalg.norm(state.Y[:, 0])]
        assert max(identity) <= 1e-5
        cols, lams = check_convergence(sys, state, new, 1e-5)
        assert not cols.size and not lams.size
        assert widths == [1, 1]  # one product each way, over column 0 alone
        x = _lifted_vectors(sys, state.X[:, 0], state.normalizers[0])
        y = _lifted_vectors(sys, state.Y[:, 0], state.normalizers[0], transposed=True)
        rx, ry = Jd @ x, Jd.T @ y
        rx[:n] -= new[0] * x[:n]
        ry[:n] -= new[0] * y[:n]
        explicit = [np.linalg.norm(rx) / np.linalg.norm(x), np.linalg.norm(ry) / np.linalg.norm(y)]
        assert min(explicit) > 1e-5
        assert_allclose(state.final_residuals[0], explicit, rtol=1e-12)
        assert (state.final_residuals[1] > 1e-5).all()

    def test_blocked_check_matches_a_column_loop(self):
        rng = np.random.default_rng(14)
        spec = sample_spectrum(10, 2, (0.1, 0.4), rng)
        sys = build_system(spec, n_algebraic=5, density=0.3, rng=rng).system
        n, Jd = sys.ndyn, sys.J.to_scipy().toarray()
        state = prepared_state(sys, spec[:4] + 0.2 + 0.1j)
        deflate(state, 1, state.shifts[1])
        new = state.shifts + 0.05
        cols, lams = check_convergence(sys, state, new, np.inf)  # every active column passes
        assert list(cols) == [0, 2, 3]
        for j, lam in zip(cols, lams):
            # the lifted columns, whose D rows are X's and Y's
            x, y = state.lifted[:, j]
            assert_allclose(x, _lifted_vectors(sys, state.X[:, j], state.normalizers[j]))
            rx, ry = Jd @ x, Jd.T @ y
            rx[:n] -= new[j] * x[:n]
            ry[:n] -= new[j] * y[:n]
            want = [np.linalg.norm(rx) / np.linalg.norm(x), np.linalg.norm(ry) / np.linalg.norm(y)]
            assert_allclose(state.final_residuals[j], want, rtol=1e-12)
            assert lam == pytest.approx((y @ Jd @ x) / (y[:n] @ x[:n]), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_update_formula_equivalence(self, seed):
        # || b / nu + (s_old - s_new) x || / || x || equals the direct
        # residual of (A - s_new I) applied to the normalized solve
        rng = np.random.default_rng(seed)
        n = 8
        a = rng.standard_normal((n, n)) - np.diag(np.abs(rng.standard_normal(n)) + n)
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        s_old = complex(*rng.standard_normal(2))
        s_new = s_old + complex(*(0.1 * rng.standard_normal(2)))
        raw = np.linalg.solve(a - s_old * np.eye(n), b)
        nu = c @ raw
        x = raw / nu
        direct = np.linalg.norm((a - s_new * np.eye(n)) @ x) / np.linalg.norm(x)
        update = np.linalg.norm(b / nu + (s_old - s_new) * x) / np.linalg.norm(x)
        assert abs(direct - update) <= 1e-12 * max(direct, 1e-30)


class TestDeflation:
    def test_double_deflation_rejected(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5, -2.5])
        deflate(state, 0, -1.0)
        with pytest.raises(SolverError, match="already"):
            deflate(state, 0, -1.0)

    def test_active_column_converges_beside_a_locked_one(self):
        sys = DescriptorSystem.from_dense_state(
            np.diag([-1.0, -3.0, -10.0]), np.ones(3), np.ones(3), 0
        )
        state = ShiftState.start(sys, np.array([-0.9 + 0j, -6.0 + 1.0j]))
        refresh_columns(sys, state)
        new = dpse_step(sys, state)
        # lock column 0 by hand at its converged value, then keep iterating
        deflate(state, 0, -1.0)
        state.shifts[1] = new[1]
        for _ in range(9):
            refresh_columns(sys, state)
            new = dpse_step(sys, state)
            assert new[0] == -1.0
            state.shifts[1] = new[1]
        # the remaining column still converges to another eigenvalue
        assert min(abs(state.shifts[1] + 3.0), abs(state.shifts[1] + 10.0)) <= 1e-8

    @pytest.mark.parametrize("step", [dpse_step, ddpse_step])
    def test_every_column_locked(self, step):
        sys = two_state()
        state = prepared_state(sys, [-0.9, -2.9])
        deflate(state, 0, -1.0)
        deflate(state, 1, -3.0)
        assert list(step(sys, state)) == [-1.0, -3.0]

    def test_refresh_kicks_shifts_off_earlier_and_locked_ones(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5, -0.5])
        assert list(state.shifts) == [-0.5, -0.5 + 1e-6 * (1 + 1j)]
        deflate(state, 0, -1.0)
        state.shifts[1] = -1.0
        refresh_columns(sys, state)
        assert state.shifts[1] == -1.0 + 1e-6 * (1 + 1j)
        assert [(e["kind"], e["column"]) for e in state.events] == [("collision", 1)] * 2
        # each event is at the shift that collided, not where it was kicked
        assert [e["shift_re"] for e in state.events] == [-0.5, -1.0]

    def test_deflated_residuals_not_recomputed(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5, -2.5])
        deflate(state, 0, -1.0)
        state.final_residuals[0] = (1e-9, 2e-9)
        # the locked column is neither checked nor returned again
        assert 0 not in check_convergence(sys, state, np.array([-1.0, -3.0]), 1e-5)[0]
        assert_allclose(state.final_residuals[0], [1e-9, 2e-9])
        assert_allclose(state.residual_history[-1][0], [1e-9, 2e-9])


class TestResidueEstimate:
    def test_unit_residue_from_exact_vectors(self):
        sys = two_state()
        state = ShiftState.start(sys, np.array([-1.0 + 0j]))
        state.X[:, 0] = [1.0, 0.0]
        state.Y[:, 0] = [1.0, 0.0]
        deflate(state, 0, -1.0)
        assert estimate_residue(state, 0) == pytest.approx(1.0)

    def test_requires_converged_column(self):
        sys = two_state()
        state = prepared_state(sys, [-0.5])
        with pytest.raises(SolverError, match="converged"):
            estimate_residue(state, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle_residues(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8))
        a -= np.diag(np.abs(a).sum(axis=1) + 0.5)
        ss = StateSpaceSystem(a, rng.standard_normal(8), rng.standard_normal(8), 0)
        sys = DescriptorSystem.from_dense_state(ss.A, ss.b, ss.c, ss.d)
        table = residues(ss)
        targets = table.eigenvalues[:3]
        config = SolverConfig(method="dpse", p=3, tol=1e-8, max_iter=30)
        report = run(sys, config, initial_shifts=targets + 0.05)
        assert report.all_converged
        for pole in report.poles:
            k = int(np.argmin(np.abs(table.eigenvalues - pole.eigenvalue)))
            ref = table.residues[k]
            assert abs(pole.residue - ref) <= 1e-6 * abs(ref)

    def test_residue_scales_with_input(self):
        sys1 = two_state()
        sys2 = DescriptorSystem.from_dense_state(
            np.diag([-1.0, -3.0]), [2, 2], [1, 1], 0
        )
        config = SolverConfig(p=1, tol=1e-10, max_iter=20)
        r1 = run(sys1, config, initial_shifts=[-0.9]).poles[0].residue
        r2 = run(sys2, config, initial_shifts=[-0.9]).poles[0].residue
        assert r2 == pytest.approx(2.0 * r1, rel=1e-8)


class TestRun:
    def test_worked_system_converges_fast(self):
        report = run(two_state(), SolverConfig(method="dpse", p=2), [-0.5, -2.5])
        assert report.all_converged
        vals = sorted(p.eigenvalue.real for p in report.poles)
        assert_allclose(vals, [-3.0, -1.0], atol=1e-9)
        assert all(p.iterations <= 3 for p in report.poles)
        assert all(max(p.final_residuals) <= 1e-5 for p in report.poles)

    @pytest.mark.parametrize(
        "A",
        [
            np.diag([-1.0, -3.0]),
            # integer entries: J - sE at the integer start shifts has exact
            # pivot ties, where SuperLU's ordering and pre-ordered factorizations
            # round differently
            [[2, 0, 2, 1], [1, -1, 1, -2], [0, 0, 2, -2], [2, -2, 1, 0]],
            [[2, 1, 0, 0], [0, 0, -1, 1], [-2, 0, -1, 1], [1, 1, 2, 2]],
        ],
    )
    def test_report_does_not_depend_on_earlier_calls(self, A):
        n = len(A)

        def make():
            return DescriptorSystem.from_dense_state(A, np.ones(n), np.ones(n), 0)

        def untimed(report):
            d = report.to_dict()
            del d["total_time_s"]
            for pole in d["poles"]:
                del pole["time_s"]
            return d

        config = SolverConfig(method="dpse", p=2, max_iter=10)
        sys = make()
        first, again = (untimed(run(sys, config, [-1.0, -2.0])) for _ in range(2))
        fresh = untimed(run(make(), config, [-1.0, -2.0]))
        assert first == again == fresh

    def test_sixty_state_ddpse_fan(self):
        rng = np.random.default_rng(1)
        spec = sample_spectrum(60, 10, (0.01, 0.3), rng)
        gen = build_system(spec, n_algebraic=40, density=0.1, rng=rng)
        config = SolverConfig(method="ddpse", p=5, tol=1e-5, max_iter=50)
        report = run(gen.system, config, initial_shifts=init_shifts("fan", 5))
        assert report.converged_count == 5
        for pole in report.poles:
            assert np.abs(gen.truth.eigenvalues - pole.eigenvalue).min() <= 1e-6

    def test_p1_methods_identical(self):
        sys = two_state()
        kw = dict(p=1, tol=1e-13, max_iter=6)
        rep_a = run(sys, SolverConfig(method="dpse", **kw), [-0.4])
        rep_b = run(sys, SolverConfig(method="ddpse", **kw), [-0.4])
        for sa, sb in zip(rep_a.trajectories, rep_b.trajectories):
            assert abs(sa[0] - sb[0]) <= 1e-12

    @pytest.mark.parametrize("method", ["dpse", "ddpse"])
    def test_scaling_invariance(self, method):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 9))
        a -= np.diag(np.abs(a).sum(axis=1) + 0.5)
        b = rng.standard_normal(9)
        c = rng.standard_normal(9)
        beta, gamma = 2.0 - 0.5j, -1.25 + 0.75j
        sys1 = DescriptorSystem.from_dense_state(a, b, c, 0)
        sys2 = DescriptorSystem.from_dense_state(a, beta * b, gamma * c, 0)
        config = SolverConfig(method=method, p=3, tol=1e-300, max_iter=5)
        s0 = np.array([-0.5 + 0.5j, -1.0 - 0.4j, -2.0 + 1.0j])
        t1 = run(sys1, config, s0).trajectories
        t2 = run(sys2, config, s0).trajectories
        for sa, sb in zip(t1, t2):
            assert np.abs(sa - sb).max() <= 1e-10 * max(1.0, np.abs(sa).max())

    def test_p_equals_n_exactness(self):
        # well-separated spectra keep the resolvent basis X nonsingular
        rng = np.random.default_rng(4)
        for _ in range(3):
            sigma = -rng.uniform(0.5, 1.0)
            omega = rng.uniform(2.0, 3.0)
            spec = np.array(
                [complex(sigma, omega), complex(sigma, -omega),
                 -1.0 - rng.uniform(0, 0.3), -6.0 - rng.uniform(0, 1.0)]
            )
            gen = build_system(spec, n_algebraic=0, rng=rng)
            state = prepared_state(
                gen.system, spec + 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            )
            new = dpse_step(gen.system, state)
            matched = match_shifts(spec, new)
            assert np.abs(matched - spec).max() <= 1e-8 * np.abs(spec).max()

    def test_duplicate_initial_shifts_are_separated(self):
        report = run(
            two_state(), SolverConfig(method="dpse", p=2, max_iter=20), [-0.5, -0.5]
        )
        assert any(e["kind"] == "collision" for e in report.events)
        assert report.all_converged

    def test_unconverged_columns_reported(self):
        report = run(
            two_state(),
            SolverConfig(method="dpse", p=2, tol=1e-300, max_iter=4),
            [-0.5, -2.5],
        )
        assert not report.all_converged
        assert len(report.unconverged) == 2
        assert report.converged_count == 0
        assert len(report.trajectories) == 5

    def test_p_larger_than_dynamic_block_rejected(self):
        with pytest.raises(ValueError, match="dynamic states"):
            run(two_state(), SolverConfig(p=3), [-1.0, -2.0, -3.0])

    def test_conjugate_duplicates_reported(self):
        sys = two_state()
        report = run(sys, SolverConfig(p=2), [-0.5, -2.5])
        report.poles[1] = PoleResult(
            eigenvalue=report.poles[0].eigenvalue.conjugate() + 1e-9j,
            right_vector=report.poles[1].right_vector,
            left_vector=report.poles[1].left_vector,
            residue=report.poles[1].residue,
            dominance=report.poles[1].dominance,
            damping_ratio=report.poles[1].damping_ratio,
            iterations=1,
            final_residuals=(0.0, 0.0),
        )
        assert report.conjugate_duplicates() == [(0, 1)]

    def test_conjugate_duplicates_follow_the_pairwise_rule(self):
        # equal, or equal up to conjugation, to 1e-6 relative (absolute below
        # magnitude 1), taken relative to the first of each pair
        rng = np.random.default_rng(8)
        base = rng.uniform(-3, 3, 5) + 1j * rng.uniform(-3, 3, 5)
        vals = np.r_[base, base[0].conjugate() + 1e-6 * abs(base[0]) * 0.9,
                     base[1] * (1 + 2e-6), base[2] + 5e-7j, 0.3e-6, -0.5e-6, 0.0]
        report = run(two_state(), SolverConfig(p=2), [-0.5, -2.5])
        pole = report.poles[0]
        report.poles = [PoleResult(complex(v), pole.right_vector, pole.left_vector, pole.residue,
                                   pole.dominance, pole.damping_ratio, 1, (0.0, 0.0))
                        for v in vals]
        want = [
            (i, j) for i in range(len(vals)) for j in range(i + 1, len(vals))
            if min(abs(vals[i] - vals[j]), abs(vals[i] - vals[j].conjugate()))
            <= 1e-6 * max(1.0, abs(vals[i]))
        ]
        assert report.conjugate_duplicates() == want
        assert (0, 5) in want and (2, 7) in want and (1, 6) not in want and (8, 9) in want

    def test_products_only_in_checks_where_a_column_passes(self, monkeypatch):
        # the identity gives every residual; one J X and one J^T Y, over the
        # passing columns alone, confirm them and give the lock quotients
        calls = {"matvec": 0, "matvec_t": 0}
        for name in calls:
            def counted(self, x, _orig=getattr(SparseMatrix, name), _name=name):
                calls[_name] += 1
                return _orig(self, x)

            monkeypatch.setattr(SparseMatrix, name, counted)
        made, check = [], solver.check_convergence

        def recorded(*args):
            before = calls["matvec"]
            out = check(*args)
            made.append((out[0].size > 0, calls["matvec"] - before))
            return out

        monkeypatch.setattr(solver, "check_convergence", recorded)
        gen, s0 = far_shift_system()
        report = run(gen.system, SolverConfig(p=4), initial_shifts=s0)
        assert report.converged_count == 4 and len(made) == len(report.residual_history)
        assert all(products == int(passed) for passed, products in made)
        assert 0 < calls["matvec"] == calls["matvec_t"] < len(made)

    def test_k11_solves_only_lift_the_columns_that_pass(self, monkeypatch):
        # a refresh solves with S(s) alone; K11 solves only lift a column
        # that passes the identity screen, one each way, so the rows of the
        # shift-invariant set I never re-enter the loop
        rng = np.random.default_rng(0)
        spec = sample_spectrum(20, 4, (0.05, 0.3), rng)
        sys = build_system(spec, n_algebraic=30, density=0.1, rng=rng).system
        sc = sys.ordered_j.schur
        assert sc.ni > 0 and sys.condensed[2] != 0  # B and C condensed once

        class CountingK11:
            def __init__(self, lu):
                self.lu, self.columns = lu, {"N": 0, "T": 0}

            def solve(self, rhs, trans="N"):
                self.columns[trans] += 1 if rhs.ndim == 1 else rhs.shape[1]
                return self.lu.solve(rhs, trans=trans)

            def __getattr__(self, name):
                return getattr(self.lu, name)

        k11, lifted = CountingK11(sc.k11), {"N": 0, "T": 0}
        refresh, lift = solver.refresh_columns, solver._lifted_vectors

        def counted_refresh(sys, state):
            before = dict(k11.columns)
            refresh(sys, state)
            assert k11.columns == before

        def counted_lift(sys, V, nu, transposed=False):
            lifted["T" if transposed else "N"] += V.shape[1]
            return lift(sys, V, nu, transposed)

        monkeypatch.setattr(sc, "k11", k11)
        monkeypatch.setattr(solver, "refresh_columns", counted_refresh)
        monkeypatch.setattr(solver, "_lifted_vectors", counted_lift)
        report = run(sys, SolverConfig(p=4), spec[[0, 2, 4, 6]] + 0.1 + 0.05j)
        conjugates = sum(e["kind"] == "conjugate-locked" for e in report.events)
        assert 0 < report.converged_count - conjugates <= lifted["N"] == lifted["T"]
        assert k11.columns == lifted

    def test_report_dict_is_json_ready(self):
        import json

        report = run(two_state(), SolverConfig(p=2), [-0.5, -2.5])
        text = json.dumps(report.to_dict(), sort_keys=True, allow_nan=False)
        assert '"poles"' in text
        # sweep-wide events (column -1) carry no shift
        gen, s0 = far_shift_system()
        report = run(gen.system, SolverConfig(method="ddpse", p=4), initial_shifts=s0)
        fallback = [e for e in report.to_dict()["events"] if e["column"] == -1]
        assert fallback
        assert all(e["shift_re"] is None and e["shift_im"] is None for e in fallback)
        json.dumps(report.to_dict(), allow_nan=False)


def far_shift_system():
    """Shifts far outside the spectrum: the first W^T V is numerically
    rank-deficient (its columns span fewer directions than p)."""
    rng = np.random.default_rng(0)
    spec = sample_spectrum(20, 4, (0.05, 0.3), rng)
    gen = build_system(spec, n_algebraic=10, density=0.2, rng=rng)
    return gen, np.array([1e3, 1e3 + 1, 1e3 + 2j, 1e3 + 3])


def assert_poles_in_spectrum(report, ss, rtol):
    spec = full_spectrum(ss).eigenvalues
    for pole in report.poles:
        assert np.abs(spec - pole.eigenvalue).min() <= rtol * abs(pole.eigenvalue)


class TestFallback:
    def test_dpse_takes_the_pencil_without_fallback(self):
        gen, s0 = far_shift_system()
        report = run(gen.system, SolverConfig(method="dpse", p=4), initial_shifts=s0)
        assert not any(e["kind"] == "ill-conditioned-projection" for e in report.events)
        assert report.converged_count == 4
        assert_poles_in_spectrum(report, gen.state_space, 1e-10)

    def test_ddpse_falls_back_on_every_ill_conditioned_sweep(self, monkeypatch):
        cond = {}
        step = solver.ddpse_step

        def recorded(sys, state):
            cond[state.iter] = np.linalg.cond(solver._projection_parts(sys, state)[0])
            return step(sys, state)

        monkeypatch.setattr(solver, "ddpse_step", recorded)
        gen, s0 = far_shift_system()
        report = run(gen.system, SolverConfig(method="ddpse", p=4), initial_shifts=s0)
        fallback = [e for e in report.events if e["kind"] == "ill-conditioned-projection"]
        assert all(e["column"] == -1 for e in fallback)
        assert {e["iteration"] for e in fallback} == {k for k, c in cond.items() if c > 1e8}
        assert fallback
        assert report.converged_count == 4
        assert_poles_in_spectrum(report, gen.state_space, 1e-10)


@pytest.mark.parametrize("method", ["dpse", "ddpse"])
def test_one_projection_per_sweep(method, monkeypatch):
    # the fallback sweep reuses the W^T V its step built
    built = []
    parts = solver._projection_parts

    def counted(*args):
        built.append(args)
        return parts(*args)

    monkeypatch.setattr(solver, "_projection_parts", counted)
    gen, s0 = far_shift_system()
    report = run(gen.system, SolverConfig(method=method, p=4), initial_shifts=s0)
    kind = "redundant-column" if method == "dpse" else "ill-conditioned-projection"
    assert any(e["kind"] == kind for e in report.events)
    assert len(built) == len(report.trajectories) - 1


@pytest.mark.parametrize("method, per_sweep", [("dpse", 0), ("ddpse", 1)])
def test_only_ddpse_takes_a_condition_number(method, per_sweep, monkeypatch):
    # dpse's QZ needs no cond(B); ddpse takes one per sweep to choose its update
    calls = []
    cond = np.linalg.cond

    def counted(*args):
        calls.append(args)
        return cond(*args)

    gen, s0 = far_shift_system()  # the generator's oracle takes cond(P)
    monkeypatch.setattr(np.linalg, "cond", counted)
    report = run(gen.system, SolverConfig(method=method, p=4), initial_shifts=s0)
    assert report.converged_count == 4
    assert len(calls) == per_sweep * (len(report.trajectories) - 1)


@pytest.mark.parametrize("method", ["dpse", "ddpse"])
def test_p_above_observable_modes(method):
    # B and C reach only the modes -1 and -2: the four resolvent columns
    # span two directions, so two of them stay redundant and are named so
    b = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    sys = DescriptorSystem.from_dense_state(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0]), b, b, 0)
    report = run(sys, SolverConfig(method=method, p=4), [-0.5, -1.5, -2.5, -3.5])
    poles = np.sort_complex([p.eigenvalue for p in report.poles])
    assert_allclose(poles, [-2.0, -1.0], rtol=0, atol=1e-9)
    assert len(report.unconverged) == 2
    redundant = {e["column"] for e in report.events if e["kind"] == "redundant-column"}
    assert redundant == {u["column"] for u in report.unconverged}


def test_duplicate_of_a_locked_pole_is_deferred(monkeypatch):
    # both columns step onto -1 in the same sweep: column 0 locks it, and
    # column 1 stays active and is kicked off the locked eigenvalue. Both
    # start 1e-5 off -1, so their Rayleigh quotients agree far inside the
    # collision distance.
    def onto_minus_one(sys, state):
        return np.where(state.converged, state.shifts, -1.0)

    monkeypatch.setattr(solver, "dpse_step", onto_minus_one)
    report = run(two_state(), SolverConfig(p=2, tol=1e-1), [-1.00001, -0.99999])
    kinds = [(e["kind"], e["column"], e["iteration"]) for e in report.events]
    deferred = kinds.index(("duplicate-deferred", 1, 1))
    assert kinds[deferred + 1] == ("collision", 1, 1)
    assert len(report.poles) == 1
    assert abs(report.poles[0].eigenvalue + 1.0) <= 1e-9
    assert [u["column"] for u in report.unconverged] == [1]


class TestColumnRecovery:
    """Force each kind of unusable shift in ``refresh_columns`` on diag(-1, -3)
    with B = C = (1, 1), whose transfer function has a zero at -2."""

    def test_shift_on_an_eigenvalue(self):
        # J - (-1)E loses its (0, 0) entry entirely: the LU is singular
        report = run(two_state(), SolverConfig(method="dpse", p=2), [-1.0, -2.0])
        first = report.events[0]
        assert (first["kind"], first["column"], first["iteration"]) == ("singular-shift", 0, 0)
        assert (first["shift_re"], first["shift_im"]) == (-1.0, 0.0)
        assert report.all_converged
        vals = sorted(p.eigenvalue.real for p in report.poles)
        assert_allclose(vals, [-3.0, -1.0], atol=1e-9)

    def test_shift_on_a_transmission_zero(self):
        report = run(two_state(), SolverConfig(method="dpse", p=1), [-2.0])
        kinds = [(e["kind"], e["column"], e["iteration"]) for e in report.events]
        assert kinds == [("small-normalizer", 0, 0)]
        assert report.all_converged
        assert abs(report.poles[0].eigenvalue - (-1.0)) <= 1e-9

    def test_move_onto_a_locked_eigenvalue_is_kicked_off(self, monkeypatch):
        # column 1's LU is forced singular twice; its second move lands within
        # 1e-8 of the value column 0 holds, so it is kicked off that value too
        real, forced = solver.normalized_vectors, [SingularMatrixError("forced")] * 2

        def singular_twice(sys, s, min_normalizer):
            if forced:
                raise forced.pop()
            return real(sys, s, min_normalizer=min_normalizer)

        monkeypatch.setattr(solver, "normalized_vectors", singular_twice)
        s0 = -2.5
        s1 = s0 + 1e-11 * abs(s0) * (1 + 1j)
        s2 = s1 + 1e-6 * abs(s1) * (1 + 1j)
        sys = two_state()
        state = ShiftState.start(sys, np.array([-1.0, s0]))
        deflate(state, 0, s2 + 5e-9)
        refresh_columns(sys, state)
        moves = [(e["kind"], e["column"], complex(e["shift_re"], e["shift_im"]))
                 for e in state.events]
        assert moves == [("singular-shift", 1, s0), ("singular-shift", 1, s1),
                         ("collision", 1, s2)]
        assert state.shifts[1] == s2 + 1e-6 * (1 + 1j)


def test_collision_screen_spares_unflagged_columns(monkeypatch):
    # column 2 repeats column 0's shift: the screen flags it, and once it has
    # moved, column 3 is tested too; columns 0 and 1 never are
    tested, nearest = [], solver._nearest_taken

    def recorded(state, z, earlier=()):
        tested.append(len(earlier))
        return nearest(state, z, earlier)

    monkeypatch.setattr(solver, "_nearest_taken", recorded)
    sys = DescriptorSystem.from_dense_state(np.diag([-1.0, -2.0, -3.0, -4.0]), np.ones(4), np.ones(4))
    state = prepared_state(sys, [-0.5, -1.5, -0.5, -3.5])
    assert tested == [2, 2, 3]
    kinds = [(e["kind"], e["column"], e["shift_re"]) for e in state.events]
    assert kinds == [("collision", 2, -0.5)]
    assert state.shifts[2] == -0.5 + 1e-6 * (1 + 1j)


class TestMoveCaps:
    """Each kind of unusable shift is moved at most its cap times per column,
    each move recorded at the shift it leaves; one more raises SolverError."""

    @staticmethod
    def exhaust(monkeypatch, name, fake, lock=None):
        monkeypatch.setattr(solver, name, fake)
        sys = two_state()
        state = ShiftState.start(sys, np.array([-0.5, -2.5]))
        if lock is not None:
            deflate(state, 1, lock)
        with pytest.raises(SolverError) as info:
            refresh_columns(sys, state)
        assert str(info.value).startswith("column 0: ")
        assert str(info.value).endswith("from the requested shift (-0.5+0j)")
        assert {e["column"] for e in state.events} == {0}
        return [e["kind"] for e in state.events], [
            complex(e["shift_re"], e["shift_im"]) for e in state.events
        ]

    @staticmethod
    def growing_kicks(count):
        shifts = [-0.5 + 0j]
        for k in range(1, count):
            shifts.append(shifts[-1] + 1e-6 * k * (1 + 1j))
        return shifts

    def test_collision(self, monkeypatch):
        # column 1 is locked at column 0's shift, and a collision radius of 1
        # keeps every kick of column 0 within reach of it
        kinds, shifts = self.exhaust(monkeypatch, "_COLLISION_EPS", 1.0, lock=-0.5)
        assert kinds == ["collision"] * 6  # p + 4
        assert shifts == self.growing_kicks(6)

    def test_singular_shift(self, monkeypatch):
        def singular(sys, s, min_normalizer):
            raise SingularMatrixError("forced")

        kinds, shifts = self.exhaust(monkeypatch, "normalized_vectors", singular)
        assert kinds == ["singular-shift"] * 2
        assert shifts == [-0.5, -0.5 + 1e-11 * 0.5 * (1 + 1j)]

    def test_small_normalizer(self, monkeypatch):
        def vanishing(sys, s, min_normalizer):
            raise VanishingNormalizerError("forced")

        kinds, shifts = self.exhaust(monkeypatch, "normalized_vectors", vanishing)
        assert kinds == ["small-normalizer"] * 5
        assert shifts == self.growing_kicks(5)


def test_structurally_singular_pencil_is_refused_on_first_sight(monkeypatch):
    # the last column of J - sE is empty for every s: no shift is moved, the
    # pattern is checked once and SuperLU never runs
    J = SparseMatrix.from_scipy([[-1.0, 1.0, 0.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
    sys = DescriptorSystem(J, 2, np.ones(3), np.ones(3))
    calls = []
    rank, splu = sparsela.structural_rank, sparsela.spla.splu
    monkeypatch.setattr(sparsela, "structural_rank", lambda A: calls.append("rank") or rank(A))
    monkeypatch.setattr(
        sparsela.spla, "splu", lambda *a, **kw: calls.append("splu") or splu(*a, **kw)
    )
    # the state's blocks hold the rows of D, so the order is made first
    with pytest.raises(StructurallySingularError, match=r"structural rank 2 < 3"):
        ShiftState.start(sys, np.array([-0.5]))
    assert calls == ["rank"]


def pair_system(a22=-2.0):
    """A real pair -0.1 +- 1j and a real mode a22, b = c = 1."""
    A = np.array([[-0.1, 1.0, 0.0], [-1.0, -0.1, 0.0], [0.0, 0.0, a22]])
    return DescriptorSystem.from_dense_state(A, [1, 1, 1], [1, 1, 1], 0)


# column 0 locks -0.1 + 1j in sweep 2; in that sweep column 1's next shift
# is within 5% of -0.1 - 1j, which it would reach on its own in sweep 5
PAIR_SHIFTS = [-0.1 + 1.001j, -0.3 - 0.6j]


class TestConjugateLock:
    def test_conjugate_is_locked_with_conjugated_vectors(self):
        report = run(pair_system(), SolverConfig(p=2), PAIR_SHIFTS)
        kinds = [(e["kind"], e["column"], e["iteration"]) for e in report.events]
        assert kinds == [("conjugate-locked", 1, 2)]
        assert report.all_converged
        upper, lower = sorted(report.poles, key=lambda p: -p.eigenvalue.imag)
        assert abs(upper.eigenvalue - (-0.1 + 1j)) <= 1e-9
        assert lower.eigenvalue == upper.eigenvalue.conjugate()
        assert lower.residue == upper.residue.conjugate()
        assert np.array_equal(lower.right_vector, upper.right_vector.conj())
        assert np.array_equal(lower.left_vector, upper.left_vector.conj())
        assert lower.final_residuals == upper.final_residuals
        assert lower.iterations == 2

    def test_column_locks_before_it_converges_there(self, monkeypatch):
        monkeypatch.setattr(solver, "_lock_conjugates", lambda state: None)
        report = run(pair_system(), SolverConfig(p=2), PAIR_SHIFTS)
        assert not report.events
        lower = min(report.poles, key=lambda p: p.eigenvalue.imag)
        assert abs(lower.eigenvalue - (-0.1 - 1j)) <= 1e-9
        assert lower.iterations == 5

    def test_complex_system_takes_no_conjugate(self):
        report = run(pair_system(a22=-2.0 + 0.01j), SolverConfig(p=2), PAIR_SHIFTS)
        assert not any(e["kind"] == "conjugate-locked" for e in report.events)
        assert report.all_converged

    def test_one_column_per_conjugate(self):
        from dompole.solver import _lock_conjugates

        lam = -0.1 + 1j
        shifts = [lam, lam.conjugate() + 0.01, lam.conjugate() - 0.02j]
        state = prepared_state(pair_system(), shifts)
        deflate(state, 0, lam)
        _lock_conjugates(state)
        assert list(state.converged) == [True, True, False]
        assert state.shifts[1] == lam.conjugate()
        assert [e["kind"] for e in state.events].count("conjugate-locked") == 1
        # both lam and its conjugate are held: column 2 stays active
        _lock_conjugates(state)
        assert list(state.converged) == [True, True, False]
        assert state.shifts[2] == lam.conjugate() - 0.02j

    def test_two_cycle_is_broken_at_its_midpoint(self, monkeypatch):
        # column 0 alternates between a and b, starting at b: in sweep 3 its
        # shift returns to a for the second sweep running
        a, b = -1.5 + 0.5j, -2.5 + 0.3j
        monkeypatch.setattr(
            solver, "dpse_step", lambda sys, state: np.array([a if state.iter % 2 else b])
        )
        report = run(two_state(), SolverConfig(p=1, max_iter=4), [b])
        cycles = [e for e in report.events if e["kind"] == "two-cycle"]
        assert (cycles[0]["iteration"], cycles[0]["column"]) == (3, 0)
        mid = (a + b) / 2
        assert complex(cycles[0]["shift_re"], cycles[0]["shift_im"]) == mid
        assert report.trajectories[3][0] == mid

    @pytest.mark.parametrize("method", ["dpse", "ddpse"])
    def test_stalled_column_leaves_the_coupled_update(self, monkeypatch, method):
        # both columns walk a three-cycle, which the two-cycle rule does not
        # catch, so their best residuals stop falling within three sweeps
        orbit = np.array(
            [[-1.5 + 0.5j, -0.3 + 0.2j], [-2.5 + 0.3j, -0.6 + 1.4j], [-0.7 + 0.9j, -2.2 - 0.4j]]
        )
        pencil = solver.dpse_step
        monkeypatch.setattr(
            solver, f"{method}_step", lambda sys, state: orbit[state.iter % 3].copy()
        )
        system, k = pair_system(), solver._STALL_SWEEPS
        report = run(system, SolverConfig(method=method, p=2, max_iter=3 + 3 * k), orbit[0])
        assert not report.all_converged
        history = np.array(report.residual_history).max(axis=2)
        for j in (0, 1):
            stalls = [
                e["iteration"] for e in report.events
                if e["kind"] == "stalled" and e["column"] == j
            ]
            # the count starts again after each stall
            assert stalls[:1] == [1 + int(np.argmin(history[:3, j])) + k]
            assert stalls[1] > stalls[0] + k
            # from the vectors at the shifts before it: DPA's Newton step on
            # the column's own vectors under dpse, its pencil eigenvalue under ddpse
            it = stalls[0]
            state = prepared_state(system, report.trajectories[it - 1])
            if method == "dpse":
                vhat = 1.0 / state.normalizers[j]
                want = state.shifts[j] + vhat / (state.Y[:3, j] @ state.X[:3, j])
            else:
                want = pencil(system, state)[j]
            assert_allclose(report.trajectories[it][j], want, rtol=1e-12)


class TestSequencesAgainstOracle:
    @pytest.mark.parametrize("method", ["dpse", "ddpse"])
    def test_descriptor_matches_dense_oracle(self, method):
        rng = np.random.default_rng(17)
        spec = sample_spectrum(40, 8, (0.05, 0.3), rng)
        gen = build_system(spec, n_algebraic=30, density=0.1, rng=rng)
        s0 = spec[[0, 2, 4, 6]] + 0.1 + 0.05j
        config = SolverConfig(method=method, p=4, tol=1e-300, max_iter=5)
        report = run(gen.system, config, initial_shifts=s0)
        oracle_seq = reference_sequence(gen.state_space, s0, method, 5)
        for got, ref in zip(report.trajectories, oracle_seq):
            assert np.abs(got - ref).max() <= 1e-8

    def test_dynamic_blocks_equal_dense_blocks(self):
        from dompole.oracle import normalized_blocks

        rng = np.random.default_rng(18)
        spec = sample_spectrum(20, 4, (0.05, 0.3), rng)
        gen = build_system(spec, n_algebraic=15, density=0.15, rng=rng)
        shifts = spec[[0, 2]] + 0.2 + 0.1j
        state = prepared_state(gen.system, shifts)
        n = gen.system.ndyn
        V, W, _ = normalized_blocks(gen.state_space, shifts)
        wtv_sparse = state.Y[:n].T @ state.X[:n]
        assert np.abs(wtv_sparse - W.T @ V).max() <= 1e-10 * np.abs(W.T @ V).max()


class TestQuadraticRate:
    @pytest.mark.parametrize("method", ["dpse", "ddpse"])
    def test_tuple_error_slope(self, method):
        # final pre-roundoff iterations of the tuple error fit slope >= 1.8
        rng = np.random.default_rng(3)
        spec = sample_spectrum(10, 2, (0.1, 0.4), rng, freq_range=(1.0, 4.0), real_range=(-8.0, -1.0))
        gen = build_system(spec, n_algebraic=6, density=0.2, rng=rng, residue_floor=1e-2)
        start = np.array([spec[0], spec[2], spec[5]])
        s0 = start + 0.05 * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        config = SolverConfig(method=method, p=3, tol=1e-13, max_iter=12)
        report = run(gen.system, config, initial_shifts=s0)
        final = report.trajectories[-1]
        targets = np.array([spec[np.argmin(np.abs(spec - f))] for f in final])
        E = [float(np.abs(t - targets).max()) for t in report.trajectories]
        kend = next((k for k, e in enumerate(E) if e <= 1e-9), len(E) - 1)
        kstart = kend
        while kstart > 0 and E[kstart - 1] > E[kstart]:
            kstart -= 1
        pairs = [
            (np.log(E[k]), np.log(E[k + 1]))
            for k in range(kstart, kend)
            if E[k + 1] >= 1e-9 and E[k] < 0.5
        ][-4:]
        assert len(pairs) >= 3
        x, y = np.array(pairs).T
        slope = np.polyfit(x, y, 1)[0]
        assert slope >= 1.8


class TestDominanceHelpers:
    def test_dominance_values(self):
        assert dominance(1.0, -1.0 + 0j) == 1.0
        assert dominance(3.0, -0.5 + 2.0j) == pytest.approx(6.0)
        assert np.isinf(dominance(1.0, 0.5j))

    def test_report_sorted_by_dominance(self):
        report = run(two_state(), SolverConfig(p=2), [-0.5, -2.5])
        doms = [p.dominance for p in report.poles]
        assert doms == sorted(doms, reverse=True)
