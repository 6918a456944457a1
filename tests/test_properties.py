"""Property tests: the solver's sweeps against the dense oracle on drawn
systems, and the shifted LU against dense algebra on drawn matrices.
Examples are derandomized and few, so the suite stays deterministic and
fast."""

import json
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dompole.descriptor import (  # noqa: E402
    DescriptorSystem,
    eval_transfer,
    _lifted_vectors,
    normalized_vectors,
    reduce_to_state_space,
)
from dompole.generator import build_system, sample_spectrum  # noqa: E402
from dompole.oracle import full_spectrum, reference_F, residues  # noqa: E402
from dompole.solver import (  # noqa: E402
    ShiftState,
    SolverConfig,
    SolverError,
    check_convergence,
    ddpse_step,
    deflate,
    dpse_step,
    match_shifts,
    refresh_columns,
    run,
)
from dompole import solver, sparsela  # noqa: E402
from dompole.sparsela import (  # noqa: E402
    SingularMatrixError,
    SparseMatrix,
    StructurallySingularError,
    factorize,
    ordered,
    shifted,
)
from whole import whole, whole_solve  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def systems(draw):
    """A small stable system with a well-separated spectrum: 1-3 damped
    pairs, 1-3 real modes and 0-6 algebraic states."""
    pairs = draw(st.integers(1, 3), label="pairs")
    reals = draw(st.integers(1, 3), label="reals")
    algebraic = draw(st.integers(0, 6), label="algebraic")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    spec = sample_spectrum(
        2 * pairs + reals, pairs, (0.1, 0.4), rng, freq_range=(1.0, 4.0), real_range=(-6.0, -1.0)
    )
    return build_system(spec, n_algebraic=algebraic, density=0.3, rng=rng, residue_floor=1e-2)


def prepared_state(gen, shifts):
    state = ShiftState.start(gen.system, np.asarray(shifts, dtype=complex))
    refresh_columns(gen.system, state)
    return state


# grid points 0.3 apart across the box of the spectrum
GRID = [complex(-6.45 + 0.3 * i, -4.45 + 0.3 * k) for i in range(21) for k in range(31)]


def off_mode_shifts(gen, data, p):
    """p distinct grid points, none within 0.05 of a mode."""
    shifts = np.array(data.draw(st.lists(st.sampled_from(GRID), min_size=p, max_size=p, unique=True)))
    assume(np.abs(shifts[:, None] - gen.truth.eigenvalues[None, :]).min() > 0.05)
    return shifts


@PROPERTY
@given(gen=systems(), data=st.data())
def test_dpse_step_is_the_eigenvalues_of_the_dense_F(gen, data):
    n = gen.system.ndyn
    p = data.draw(st.integers(1, min(4, n)), label="p")
    shifts = off_mode_shifts(gen, data, p)
    state = prepared_state(gen, shifts)
    new = dpse_step(gen.system, state)
    F = reference_F(gen.state_space, shifts)
    want = match_shifts(shifts, np.linalg.eigvals(F))
    # both routes are backward stable, so they agree to about eps * cond(W^T V)
    scale = max(1.0, float(np.abs(want).max()))
    cond = np.linalg.cond(state.Y[:n].T @ state.X[:n])
    assert np.abs(new - want).max() <= 1e-13 * max(1.0, cond) * scale


@PROPERTY
@given(gen=systems(), data=st.data(), method=st.sampled_from([dpse_step, ddpse_step]))
def test_distinct_eigenvalues_are_a_fixed_point(gen, data, method):
    spec = gen.truth.eigenvalues
    idx = data.draw(st.lists(st.integers(0, len(spec) - 1), min_size=1, max_size=4, unique=True))
    shifts = spec[idx]
    state = prepared_state(gen, shifts)
    new = method(gen.system, state)
    assert np.abs(new - shifts).max() <= 1e-8 * max(1.0, float(np.abs(shifts).max()))


@PROPERTY
@given(gen=systems(), data=st.data())
def test_steps_on_the_active_block_agree_with_the_pinned_F(gen, data):
    # lock a subset of columns by hand: F keeps every column (vhat_j = 0 on
    # the locked ones), while the steps deflate the locked ones out
    n = gen.system.ndyn
    p = data.draw(st.integers(2, min(5, n)), label="p")
    shifts = off_mode_shifts(gen, data, p)
    locked = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p - 1, unique=True))
    state = prepared_state(gen, shifts)
    for j in locked:
        deflate(state, j, shifts[j])
    act = state.active_indices()
    F = reference_F(gen.state_space, shifts)
    F[:, locked] = np.diag(shifts)[:, locked]  # vhat_j = 0: F e_j = s_j e_j
    # 1e-10 relative while W^T V is well conditioned; F inverts W^T V, so
    # beyond cond 1e4 its own error, eps * cond, sets the bound
    wtv = state.Y[:n].T @ state.X[:n]
    tol = 1e-10 * max(1.0, 1e-4 * float(np.linalg.cond(wtv))) * max(1.0, float(np.abs(F).max()))

    new = dpse_step(gen.system, state)
    # eigvals(F) minus the locked values, compared as multisets
    got = np.concatenate([shifts[locked], new[act]])
    assert np.abs(got - match_shifts(got, np.linalg.eigvals(F))).max() <= tol
    assert np.array_equal(new[locked], shifts[locked])

    diag = ddpse_step(gen.system, state)
    B, _ = solver._projection_parts(gen.system, state)
    assume(np.linalg.cond(B) <= 1e8)  # beyond that ddpse takes the pencil sweep
    assert np.abs(diag[act] - np.diag(F)[act]).max() <= tol
    assert np.array_equal(diag[locked], shifts[locked])


@PROPERTY
@given(gen=systems(), data=st.data())
def test_a_real_systems_poles_come_in_conjugate_pairs(gen, data):
    # a shift near each upper pole and one farther off its conjugate, so
    # that the lower column often locks at the conjugate of the upper pole
    spec = gen.truth.eigenvalues
    upper = spec[spec.imag > 0]
    near = data.draw(st.floats(0.001, 0.02), label="near")
    far = data.draw(st.floats(0.02, 0.3), label="far")
    shifts = np.concatenate([upper * (1 + near * 1j), upper.conj() * (1 - far * 1j)])
    report = run(gen.system, SolverConfig(p=len(shifts)), shifts)
    table = residues(gen.state_space)
    for pole in report.poles:
        lam = pole.eigenvalue
        if abs(lam.imag) <= 1e-8 * abs(lam):
            continue
        k = int(np.argmin(np.abs(table.eigenvalues - lam.conjugate())))
        assert abs(table.eigenvalues[k] - lam.conjugate()) <= 1e-10 * abs(lam)
        # residues carry first-order error from vectors converged to tol
        R = table.residues[k]
        assert abs(R - pole.residue.conjugate()) <= 1e-3 * abs(R)


def with_imaginary_offset(system, gamma):
    """The system with i gamma added to J's first ndyn diagonal entries.

    ``J + i gamma E - s E = J - (s - i gamma) E``, so h(s) becomes
    h(s - i gamma): the spectrum moves by i gamma and every residue stays.
    """
    offset = sp.diags(1j * gamma * (np.arange(system.order) < system.ndyn))
    J = SparseMatrix.from_scipy(system.J.to_scipy() + offset)
    return DescriptorSystem(J, system.ndyn, system.B, system.C, system.D)


def timeless(report):
    """The report as JSON text without its time fields."""
    data = report.to_dict()
    del data["total_time_s"]
    for row in data["poles"]:
        del row["time_s"]
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("kind", ["real", "complex"])
@PROPERTY
@given(gen=systems(), data=st.data(), method=st.sampled_from(["dpse", "ddpse"]))
def test_run_finds_true_poles_and_residues_and_repeats_itself(kind, gen, data, method):
    # a complex system is the real one moved by i gamma, so the real one's
    # dense oracle serves both
    n = gen.system.ndyn
    p = data.draw(st.integers(1, min(4, n)), label="p")
    gamma = data.draw(st.floats(0.1, 3.0), label="gamma") if kind == "complex" else 0.0
    system = with_imaginary_offset(gen.system, gamma) if gamma else gen.system
    table = residues(gen.state_space)
    spec = table.eigenvalues + 1j * gamma
    shifts = off_mode_shifts(gen, data, p) + 1j * gamma
    if p >= 2 and data.draw(st.booleans(), label="mirrored"):
        # columns 0 and 1 start near a complex pole and near its conjugate;
        # on a real system, column 1 often locks at that conjugate
        lam = data.draw(st.sampled_from(list(spec[spec.imag > 0.5])), label="pole")
        near = data.draw(st.floats(0.001, 0.02), label="near")
        far = data.draw(st.floats(0.001, 0.02), label="far")
        shifts[:2] = lam * (1 + near * 1j), lam.conjugate() * (1 - far * 1j)
    config = SolverConfig(method=method, p=p)
    report = run(system, config, shifts)
    for pole in report.poles:
        k = int(np.argmin(np.abs(spec - pole.eigenvalue)))
        assert abs(spec[k] - pole.eigenvalue) <= 1e-8 * abs(spec[k])
        # residues carry first-order error from vectors converged to tol
        assert abs(table.residues[k] - pole.residue) <= 1e-3 * abs(table.residues[k])
    if kind == "complex":
        assert not any(e["kind"] == "conjugate-locked" for e in report.events)
    assert timeless(run(system, config, shifts)) == timeless(report)


@st.composite
def shifted_matrices(draw):
    """A sparse J of order 1-12, real or complex, with diagonal entries
    missing; a permutation's entries make it structurally nonsingular, unless
    ``singular`` empties one column at or beyond ndyn (E would refill an
    earlier one). Also ndyn and a complex shift."""
    n = draw(st.integers(1, 12), label="n")
    singular = draw(st.booleans(), label="singular")
    ndyn = draw(st.integers(0, n - int(singular)), label="ndyn")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]), label="density")
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    if draw(st.booleans(), label="complex"):
        dense = dense + 1j * np.where(dense != 0, rng.standard_normal((n, n)), 0.0)
    dense[rng.permutation(n), np.arange(n)] += rng.uniform(1.0, 2.0, n)
    if singular:
        dense[:, draw(st.integers(ndyn, n - 1), label="empty")] = 0.0
    s = complex(draw(st.floats(-3, 3), label="re"), draw(st.floats(-3, 3), label="im"))
    return dense, ndyn, s, singular


@PROPERTY
@given(case=shifted_matrices())
def test_shifted_lu_matches_dense_algebra(case):
    dense, ndyn, s, singular = case
    n = dense.shape[0]
    if singular:
        # refused before SuperLU, and a system caches nothing: it refuses again
        with mock.patch.object(sparsela.spla, "splu", side_effect=AssertionError("splu called")):
            with pytest.raises(SingularMatrixError, match="structurally singular"):
                ordered(dense, ndyn)
            if ndyn:
                sys = DescriptorSystem(SparseMatrix.from_scipy(dense), ndyn, np.ones(n), np.ones(n))
                for _ in range(2):
                    with pytest.raises(StructurallySingularError):
                        normalized_vectors(sys, s)
                    assert "ordered_j" not in sys.__dict__
        return
    A = dense - s * np.diag((np.arange(n) < ndyn).astype(float))
    M = shifted(ordered(dense, ndyn), s)
    fac = factorize(M)
    cols, ni = M.schur.cols, M.schur.ni
    K = A[np.ix_(cols, cols)]
    assert np.array_equal(whole(M, dense).toarray(), K)
    # max|A| from the entries no shift moves and from E's ones, bit for bit
    assert fac.max_abs == np.abs(A).max()
    u_max = np.abs(fac.lu.U.data).max()
    if ni == 0:
        assert np.array_equal(M.csc.toarray(), K)
    else:
        S = K[ni:, ni:] - K[ni:, :ni] @ np.linalg.solve(K[:ni, :ni], K[:ni, ni:])
        assert np.abs(M.csc.toarray() - S).max() <= 1e-12 * np.abs(K).max()
        # the growth takes K11's part from the factors its solves use: Pr K11 = L U
        k11 = M.schur.k11
        L, U = k11.L.toarray(), k11.U.toarray()
        assert np.array_equal(k11.perm_c, np.arange(ni))
        err = np.abs(L @ U - K[:ni, :ni][np.argsort(k11.perm_r)]).max()
        assert err <= 1e-12 * (np.abs(L) @ np.abs(U)).max()
        u_max = max(u_max, np.abs(U).max())
    assert fac.pivot_growth == u_max / np.abs(A).max()
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for op, transposed in ((A, False), (A.T, True)):
        x = whole_solve(fac, rhs, transposed=transposed)
        scale = np.abs(op).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
        assert np.abs(op @ x - rhs).max() / scale <= 1e-12


@st.composite
def free_systems(draw):
    """A descriptor system drawn outside build_system, whose spectrum and
    residues nobody prescribed: a sparse J of order 1-12, real or complex,
    with ndyn >= 1 dynamic states, drawn as in ``shifted_matrices``, and
    dense B and C. J4 is made diagonally dominant, so the algebraic states
    eliminate and the dense oracle applies."""
    n = draw(st.integers(1, 12), label="n")
    ndyn = draw(st.integers(1, n), label="ndyn")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]), label="density")
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    if draw(st.booleans(), label="complex"):
        dense = dense + 1j * np.where(dense != 0, rng.standard_normal((n, n)), 0.0)
    dense[rng.permutation(n), np.arange(n)] += rng.uniform(1.0, 2.0, n)
    alg = np.arange(ndyn, n)
    off = np.abs(dense[ndyn:, ndyn:]).sum(axis=1) - np.abs(dense[alg, alg])
    dense[alg, alg] = rng.choice([-1.0, 1.0], n - ndyn) * (off + rng.uniform(0.5, 1.5, n - ndyn))
    system = DescriptorSystem(
        SparseMatrix.from_scipy(dense), ndyn, rng.standard_normal(n), rng.standard_normal(n), 0.0
    )
    return system, reduce_to_state_space(system)


def test_condensed_solves_match_dense_solves():
    # normalized_vectors and its lifted columns, eval_transfer and a
    # transposed solve through the condensed J - sE against dense solves of
    # J - sE, on drawn systems with and without a shift-invariant set I and
    # with every state dynamic
    seen = set()

    # derandomized, the first 60 examples draw no system with ndyn < N and
    # an empty I; the last assert checks that all three kinds are drawn
    @settings(PROPERTY, max_examples=150)
    @given(case=free_systems(), data=st.data())
    def check(case, data):
        system, _ = case
        if data.draw(st.booleans(), label="all dynamic"):
            system = DescriptorSystem(system.J, system.order, system.B, system.C, 0.5)
        n, N = system.ndyn, system.order
        re, im = (data.draw(st.floats(-3, 3), label=label) for label in ("re", "im"))
        s = complex(re, im)
        A = system.J.to_scipy().toarray() - s * np.diag((np.arange(N) < n).astype(float))
        assume(np.linalg.cond(A) < 1e4)
        x, y = np.linalg.solve(A, system.B), np.linalg.solve(A.T, system.C)
        nu = system.C @ x
        assume(abs(nu) > 1e-3 * np.abs(system.C).sum() * np.abs(x).max())
        base = system.ordered_j
        ni = base.schur.ni
        seen.add((ni > 0, n == N))
        # every node depends on a shift when every state is dynamic
        assert ni < N and (ni == 0 or n < N)
        assert base.diag.size == n

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

        xcol, ycol, got_nu = normalized_vectors(system, s)
        close(np.array([got_nu]), np.array([nu]))
        # the D rows, E's ones first, and the whole columns once lifted
        assert np.array_equal(base.schur.dnodes[:n], np.arange(n))
        close(xcol, x[base.schur.dnodes] / nu)
        close(ycol, y[base.schur.dnodes] / nu)
        close(_lifted_vectors(system, xcol, got_nu), x / nu)
        close(_lifted_vectors(system, ycol, got_nu, transposed=True), y / nu)
        close(np.array([eval_transfer(system, s).value]), np.array([system.D - nu]))
        rhs = np.random.default_rng(N).standard_normal(N) + 1j
        got = whole_solve(factorize(shifted(base, s)), rhs, transposed=True)
        close(got, np.linalg.solve(A.T, rhs))

    check()
    assert seen == {(True, False), (False, False), (False, True)}


def test_hunt_on_the_condensed_system_matches_the_dense_oracle():
    # dpse hunts on the condensed system (S0, E_D, g_B, g_C, d0) and lifts
    # each locked column to all N rows: its poles, residues and lifted
    # right and left vectors against the dense oracle, on drawn systems
    # whose B and C reach the shift-invariant set I (so d0 != 0), whose I is
    # empty, and whose states are all dynamic
    seen = set()

    # about one drawn system in ten has ndyn < N and an empty I; the last
    # assert checks that all three kinds are drawn
    @settings(PROPERTY, max_examples=100)
    @given(case=free_systems(), data=st.data())
    def check(case, data):
        system, ss = case
        if data.draw(st.integers(0, 3), label="all dynamic") == 0:
            system = DescriptorSystem(system.J, system.order, system.B, system.C)
            ss = reduce_to_state_space(system)
        n, N = system.ndyn, system.order
        p = data.draw(st.integers(1, min(3, n)), label="p")
        re = data.draw(st.lists(st.floats(-3, 3), min_size=p, max_size=p), label="re")
        im = data.draw(st.lists(st.floats(-3, 3), min_size=p, max_size=p), label="im")
        report = run(system, SolverConfig(p=p), np.array(re) + 1j * np.array(im))
        dec = full_spectrum(ss)
        # residues and eigenvectors through an ill-conditioned eigenvector
        # basis are the oracle's own error, not the solver's
        assume(dec.basis_condition <= 1e4 and report.poles)
        ni, d0 = system.ordered_j.schur.ni, system.condensed[2]
        assert (d0 != 0) == (ni > 0)
        table = residues(ss, dec)
        Jd = system.J.to_scipy().toarray()
        J2, J3, J4 = Jd[:n, n:], Jd[n:, :n], Jd[n:, n:]
        for pole in report.poles:
            k = int(np.argmin(np.abs(table.eigenvalues - pole.eigenvalue)))
            # next to an eigenvalue a gap away, a column locked at tol carries
            # errors of about tol^2 / gap in its pole and tol / gap in its
            # residue and vectors, which these bounds leave to other tests
            gaps = np.delete(np.abs(table.eigenvalues - table.eigenvalues[k]), k)
            if gaps.min(initial=1.0) < 0.05:
                continue
            seen.add("all dynamic" if n == N else "I and d0" if ni else "I empty")
            assert abs(table.eigenvalues[k] - pole.eigenvalue) <= 1e-8 * abs(table.eigenvalues[k])
            assert abs(table.residues[k] - pole.residue) <= 1e-3 * abs(table.residues[k])
            # the pencil's eigenvectors from A's: the algebraic rows of
            # (J - lambda E) z and of its transpose are 0
            k = int(np.argmin(np.abs(dec.eigenvalues - pole.eigenvalue)))
            v, w = dec.P[:, k], dec.Pinv[k]
            right = np.r_[v, -np.linalg.solve(J4, J3 @ v)]
            left = np.r_[w, -np.linalg.solve(J4.T, J2.T @ w)]
            for got, want in ((pole.right_vector, right), (pole.left_vector, left)):
                assert got.shape == (N,)
                off = got - want * (want.conj() @ got) / (want.conj() @ want)
                assert np.linalg.norm(off) <= 1e-3 * np.linalg.norm(got)

    check()
    assert seen == {"I and d0", "I empty", "all dynamic"}


@PROPERTY
@given(case=free_systems(), data=st.data(), method=st.sampled_from(["dpse", "ddpse"]))
def test_run_on_free_systems_reports_true_poles_or_unconverged_columns(case, data, method):
    system, ss = case
    p = data.draw(st.integers(1, min(3, system.ndyn)), label="p")
    re = data.draw(st.lists(st.floats(-3, 3), min_size=p, max_size=p), label="re")
    im = data.draw(st.lists(st.floats(-3, 3), min_size=p, max_size=p), label="im")
    report = run(system, SolverConfig(method=method, p=p), np.array(re) + 1j * np.array(im))
    # every column ends as a pole or as an unconverged row, never as a raise
    assert len(report.poles) + len(report.unconverged) == p
    assert report.all_converged == (not report.unconverged)
    dec = full_spectrum(ss)
    table = residues(ss, dec)
    for pole in report.poles:
        k = int(np.argmin(np.abs(table.eigenvalues - pole.eigenvalue)))
        assert abs(table.eigenvalues[k] - pole.eigenvalue) <= 1e-8 * abs(table.eigenvalues[k])
    # residues through an ill-conditioned eigenvector basis are the oracle's
    # own error, not the solver's
    assume(dec.basis_condition <= 1e4)
    for pole in report.poles:
        k = int(np.argmin(np.abs(table.eigenvalues - pole.eigenvalue)))
        assert abs(table.residues[k] - pole.residue) <= 1e-3 * abs(table.residues[k])


@PROPERTY
@given(case=free_systems(), data=st.data())
def test_identity_residuals_equal_the_explicit_ones(case, data):
    # each active column holds the D rows of the normalized resolvent solve
    # at its shift s, so g_B vhat + (s - t) E x_D is S(t) x_D, with S(t) the
    # dense Schur complement of J - tE onto D; at tol 0 no column is taken
    # again from J products, unless its identity residual is exactly 0
    system, _ = case
    n, Jd = system.ndyn, system.J.to_scipy().toarray()
    sc = system.ordered_j.schur
    Iset, D = sc.cols[: sc.ni], sc.dnodes
    S0 = Jd[np.ix_(D, D)] - Jd[np.ix_(D, Iset)] @ np.linalg.solve(
        Jd[np.ix_(Iset, Iset)], Jd[np.ix_(Iset, D)]
    )
    p = data.draw(st.integers(1, min(3, n)), label="p")

    def draw_tuple(label):
        parts = st.lists(st.floats(-3, 3), min_size=2 * p, max_size=2 * p)
        z = np.array(data.draw(parts, label=label))
        return z[:p] + 1j * z[p:]

    state = ShiftState.start(system, draw_tuple("shifts"))
    try:
        refresh_columns(system, state)
    except SolverError:
        assume(False)
    new = draw_tuple("new")
    check_convergence(system, state, new, 0.0)
    E = (np.arange(D.size) < n)[:, None]
    explicit = [
        np.linalg.norm(M @ V - new * (E * V), axis=0) / np.linalg.norm(V, axis=0)
        for M, V in ((S0, state.X), (S0.T, state.Y))
    ]
    explicit = np.array(explicit).T
    big = explicit >= 1e-9
    got = state.final_residuals
    assert (np.abs(got - explicit)[big] <= 1e-9 * explicit[big]).all()
