import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal

import dompole
from dompole import descriptor, sparsela
from dompole.descriptor import DescriptorSystem
from dompole.sparsela import (
    SingularMatrixError,
    SparseMatrix,
    dense_eig,
    factorize,
    shifted,
)
from dompole.solver import SolverConfig, match_shifts

WORKED_F = np.array([[-1.125, -1.125], [-5.0 / 24.0, -2.875]])


def random_sparse(rng, n, density=0.3, complex_vals=False, diag_boost=0.0):
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    if complex_vals:
        dense = dense + 1j * np.where(
            rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0
        )
    dense += np.diag(diag_boost + rng.uniform(1.0, 2.0, n))
    return SparseMatrix.from_dense(dense)


def reconstruction_error(M, fac):
    n = M.nrows
    Pr = sp.csc_matrix((np.ones(n), (fac.lu.perm_r, np.arange(n))), shape=(n, n))
    Pc = sp.csc_matrix((np.ones(n), (np.arange(n), fac.perm_c)), shape=(n, n))
    lhs = (Pr @ M.to_scipy() @ Pc).todense()
    rhs = (fac.lu.L @ fac.lu.U).todense()
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(M.to_dense())


class TestSparseMatrix:
    def test_invariant_validation(self):
        def raw(indptr, indices, data):
            return sp.csc_matrix(
                (np.array(data), np.array(indices), np.array(indptr)), shape=(2, 2)
            )

        with pytest.raises(ValueError, match="non-decreasing"):
            SparseMatrix.from_scipy(raw([0, 2, 1], [0, 1], [1.0, 2.0]))
        with pytest.raises(ValueError, match="indices must be < 2"):
            SparseMatrix.from_scipy(raw([0, 1, 1], [5], [1.0]))
        unsorted = raw([0, 2, 2], [1, 0], [1.0, 2.0])
        m = SparseMatrix.from_scipy(unsorted)
        assert m.indptr.tolist() == [0, 2, 2]
        assert m.indices.tolist() == [0, 1]
        assert m.data.tolist() == [2.0, 1.0]
        assert m.data.dtype == np.complex128
        assert unsorted.indices.tolist() == [1, 0]  # the input is copied, not sorted in place
        m = SparseMatrix.from_scipy(raw([0, 2, 2], [0, 0], [1.0, 2.0]))
        assert m.indices.tolist() == [0] and m.data.tolist() == [3.0]

    def test_from_triplets_sums_duplicates(self):
        m = SparseMatrix.from_triplets(2, 2, [0, 0], [0, 0], [1.0, 2.0])
        assert m.nnz == 1
        assert m.to_dense()[0, 0] == 3.0

    def test_matvec_against_dense(self):
        rng = np.random.default_rng(0)
        m = random_sparse(rng, 9, complex_vals=True)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert_allclose(m.matvec(x), m.to_dense() @ x, rtol=1e-13)
        assert_allclose(m.matvec_t(x), m.to_dense().T @ x, rtol=1e-13)
        # the cached transpose view gives scipy's own transposed product
        assert_array_equal(m.matvec_t(x), m.to_scipy().T @ x)


class TestShifted:
    def test_diagonal_example(self):
        J = SparseMatrix.from_dense(np.diag([-1.0, 1.0]))
        assert_allclose(shifted(J, 1, 2.0).to_dense(), np.diag([-3.0, 1.0]))

    def test_zero_shift_is_identity(self):
        J = SparseMatrix.from_dense([[-1.0, 2.0], [0.0, 1.0]])
        assert_allclose(shifted(J, 2, 0.0).to_dense(), J.to_dense())

    def test_full_dynamic_block(self):
        J = SparseMatrix.from_dense(np.diag([-1.0, -3.0]))
        assert_allclose(shifted(J, 2, -0.5).to_dense(), np.diag([-0.5, -2.5]))

    def test_inserts_missing_diagonal(self):
        J = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        out = shifted(J, 2, 1.0)
        assert out.nnz == 4
        assert_allclose(out.to_dense(), [[-1.0, 1.0], [1.0, -1.0]])

    def test_cancelled_diagonal_stays_stored(self):
        J = SparseMatrix.from_dense(np.diag([-1.0, -3.0]))
        out = shifted(J, 2, -1.0)
        other = shifted(J, 2, 0.5)
        assert out.nnz == 2
        assert_array_equal(out.indptr, other.indptr)
        assert_array_equal(out.indices, other.indices)
        assert_array_equal(out.to_dense(), J.to_dense() + np.eye(2))

    @pytest.mark.parametrize("ndyn", [0, 7, 30])
    def test_matches_dense_reference(self, ndyn):
        rng = np.random.default_rng(ndyn)
        # no diagonal boost: many diagonal positions are absent from J
        dense = np.where(rng.random((30, 30)) < 0.1, rng.standard_normal((30, 30)), 0.0)
        J = SparseMatrix.from_dense(dense)
        s = 0.3 - 1.7j
        E = np.diag((np.arange(30) < ndyn).astype(float))
        out = shifted(J, ndyn, s)
        np.testing.assert_array_equal(out.to_dense(), dense - s * E)
        assert out.to_scipy().has_canonical_format

    def test_cache_follows_j_and_ndyn(self):
        rng = np.random.default_rng(4)
        dense = np.where(rng.random((8, 8)) < 0.3, rng.standard_normal((8, 8)), 0.0)
        J = SparseMatrix.from_dense(dense)
        s = 0.4 + 0.9j
        for ndyn in (3, 2, 3):
            E = np.diag((np.arange(8) < ndyn).astype(float))
            assert_array_equal(shifted(J, ndyn, s).to_dense(), dense - s * E)
        other = SparseMatrix.from_dense(2.0 * dense)
        assert_array_equal(shifted(other, 3, s).to_dense(), 2.0 * dense - s * E)

    def test_ndyn_out_of_range(self):
        J = SparseMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            shifted(J, 3, 1.0)

    def test_nonfinite_shift_is_rejected(self):
        J = SparseMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match=re.escape("shift (nan+0j) is not finite")):
            shifted(J, 1, np.nan)
        with pytest.raises(ValueError, match=re.escape("shift (1-infj) is not finite")):
            shifted(J, 1, complex(1.0, -np.inf))
        sys = DescriptorSystem(J, 1, np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="is not finite"):
            descriptor.eval_transfer(sys, np.nan)


class TestFactorize:
    def test_diagonal_factors(self):
        M = SparseMatrix.from_dense(np.diag([-0.5, -2.5]))
        fac = factorize(M)
        assert_allclose(fac.lu.L.toarray(), np.eye(2))
        assert_allclose(np.sort(np.abs(fac.lu.U.diagonal())), [0.5, 2.5])
        assert fac.pivot_growth == pytest.approx(1.0)

    def test_zero_row_is_singular(self):
        M = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            factorize(M)

    def test_tiny_pivot_is_singular(self):
        M = SparseMatrix.from_dense(np.diag([1.0, 1e-20]))
        with pytest.raises(SingularMatrixError, match="threshold"):
            factorize(M)

    def test_reconstruction_50(self):
        rng = np.random.default_rng(7)
        M = random_sparse(rng, 50, complex_vals=True)
        assert reconstruction_error(M, factorize(M)) <= 1e-12

    @pytest.mark.parametrize("n", [50, 120, 300])
    def test_backward_error_property(self, n):
        rng = np.random.default_rng(n)
        M = random_sparse(rng, n, density=0.1, complex_vals=True)
        assert reconstruction_error(M, factorize(M)) <= 1e-10


def random_shifted(seed, n=40, ndyn=25):
    rng = np.random.default_rng(seed)
    J = random_sparse(rng, n, density=0.15, complex_vals=True)
    M = shifted(J, ndyn, 0.7 - 1.3j)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return M, rhs


class TestCachedOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solves_equal_a_fresh_colamd_lu(self, seed):
        M, rhs = random_shifted(seed)
        fac = factorize(M)
        assert fac.cols is not None
        fresh = spla.splu(M.to_scipy(), permc_spec="COLAMD", **sparsela.SUPERLU_OPTIONS)
        assert_array_equal(fac.solve(rhs), fresh.solve(rhs))
        assert_array_equal(fac.solve(rhs, transposed=True), fresh.solve(rhs, trans="T"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, seed):
        M, _ = random_shifted(seed)
        assert reconstruction_error(M, factorize(M)) <= 1e-12

    def test_cancelled_entry_keeps_the_order(self):
        J = SparseMatrix.from_dense([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, 4.0]])
        M = shifted(J, 2, -1.0)
        assert M.nnz == 7
        fac = factorize(M)
        assert fac.cols is not None
        assert reconstruction_error(M, fac) <= 1e-14
        assert_allclose(M.matvec(fac.solve(np.ones(3))), np.ones(3), rtol=1e-14)

    def test_one_splu_per_factorization_plus_one_ordering(self, monkeypatch):
        rng = np.random.default_rng(3)
        n, m = 12, 6
        Jd = rng.standard_normal((n + m, n + m)) * (rng.random((n + m, n + m)) < 0.3)
        Jd[:n, :n] -= np.diag(rng.uniform(2.0, 4.0, n))
        Jd[n:, n:] += np.diag(rng.uniform(1.5, 2.5, m))
        sys = DescriptorSystem(SparseMatrix.from_dense(Jd), n, rng.standard_normal(n + m),
                               rng.standard_normal(n + m))
        counts = {"splu": 0, "factorize": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sparsela.spla, "splu", counted("splu", spla.splu))
        monkeypatch.setattr(descriptor, "factorize", counted("factorize", factorize))
        for _ in range(2):
            dompole.run(sys, SolverConfig(method="dpse", p=3), [-1 + 1j, -2, -3 + 2j])
        assert counts["factorize"] > 6
        assert counts["splu"] == counts["factorize"] + 1

    def test_one_colamd_ordering_per_matrix_and_ndyn(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, m = 10, 5
        Jd = rng.standard_normal((n + m, n + m)) * (rng.random((n + m, n + m)) < 0.3)
        Jd[:n, :n] -= np.diag(rng.uniform(2.0, 4.0, n))
        Jd[n:, n:] += np.diag(rng.uniform(1.5, 2.5, m))
        sys = DescriptorSystem(SparseMatrix.from_dense(Jd), n, rng.standard_normal(n + m),
                               rng.standard_normal(n + m))
        specs, options, facs = [], [], []
        splu = spla.splu

        def recorded_splu(A, permc_spec=None, **kwargs):
            specs.append((A.shape[0], permc_spec))
            options.append(kwargs)
            return splu(A, permc_spec=permc_spec, **kwargs)

        def recorded_factorize(M):
            facs.append(factorize(M))
            return facs[-1]

        monkeypatch.setattr(sparsela.spla, "splu", recorded_splu)
        monkeypatch.setattr(descriptor, "factorize", recorded_factorize)
        dompole.run(sys, SolverConfig(method="dpse", p=3), [-1 + 1j, -2, -3 + 2j])
        descriptor.eval_transfer(sys, 0.5j)
        assert descriptor.validate(sys).j4_nonsingular
        plain = random_sparse(rng, 7)
        facs += [factorize(plain), factorize(plain)]
        # J with ndyn = n, its algebraic block J4, and the plain matrix
        assert sorted(order for order, spec in specs if spec == "COLAMD") == [m, 7, n + m]
        assert len(specs) == len(facs) + 3
        assert all(spec in ("COLAMD", "NATURAL") for _, spec in specs)
        assert all(fac.cols is not None for fac in facs)
        assert all(kw == {"relax": 1, "panel_size": 4} for kw in options)


def mesh_shifted(seed, k=12, machines=24):
    """``J - sE`` of a small network: 4-state machines on a k-by-k bus mesh."""
    rng = np.random.default_rng(seed)
    path = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
    J4 = sp.kronsum(path, path) + 0.1 * sp.identity(k * k)
    n = 4 * machines
    buses = rng.choice(k * k, machines, replace=False)
    J1 = sp.block_diag([rng.standard_normal((4, 4)) - 3 * np.eye(4) for _ in range(machines)])
    rows = 4 * np.arange(machines)
    J2 = sp.csc_matrix((rng.uniform(0.5, 1.0, machines), (rows, buses)), shape=(n, k * k))
    J3 = sp.csc_matrix((rng.uniform(0.5, 1.0, machines), (buses, rows + 1)), shape=(k * k, n))
    J = SparseMatrix.from_scipy(sp.bmat([[J1, J2], [J3, J4]]))
    rhs = rng.standard_normal(J.nrows) + 1j * rng.standard_normal(J.nrows)
    return shifted(J, n, 0.3 + 2.1j), rhs


class TestFill:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_factor_entries_than_relaxed_supernodes(self, seed):
        M, _ = mesh_shifted(seed)
        fac = factorize(M)
        relaxed = spla.splu(M.to_scipy()[:, fac.cols], permc_spec="NATURAL")
        assert fac.lu.nnz < relaxed.nnz

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_backward_error(self, seed, transposed):
        M, rhs = mesh_shifted(seed)
        A = M.to_scipy().T if transposed else M.to_scipy()
        x = factorize(M).solve(rhs, transposed=transposed)
        scale = spla.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
        assert np.linalg.norm(A @ x - rhs, np.inf) / scale <= 1e-12


class TestSolve:
    def test_diagonal_solve(self):
        fac = factorize(SparseMatrix.from_dense(np.diag([-0.5, -2.5])))
        assert_allclose(fac.solve(np.array([1.0, 1.0])), [-2.0, -0.4])

    def test_transposed_equals_plain_for_symmetric(self):
        M = SparseMatrix.from_dense(np.diag([-0.5, -2.5]))
        fac = factorize(M)
        rhs = np.array([1.0, 2.0])
        assert_allclose(fac.solve(rhs, transposed=True), fac.solve(rhs))

    def test_solve_residual(self):
        rng = np.random.default_rng(20)
        M = random_sparse(rng, 20, complex_vals=True)
        rhs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        x = factorize(M).solve(rhs)
        assert np.linalg.norm(M.matvec(x) - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_transposed_matches_explicit_transpose(self):
        rng = np.random.default_rng(21)
        M = random_sparse(rng, 25, complex_vals=True)
        rhs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        xt = factorize(M).solve(rhs, transposed=True)
        Mt = SparseMatrix.from_dense(M.to_dense().T)
        xe = factorize(Mt).solve(rhs)
        assert_allclose(xt, xe, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_roundtrip_moderate_condition(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        # condition bounded by the diagonal scaling spread (<= 1e6)
        scales = 10.0 ** rng.uniform(-3, 3, n)
        M = SparseMatrix.from_dense(np.diag(scales) @ random_sparse(rng, n).to_dense())
        rhs = rng.standard_normal(n)
        x = factorize(M).solve(rhs)
        assert np.linalg.norm(M.matvec(x) - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_dimension_mismatch(self):
        fac = factorize(SparseMatrix.from_dense(np.eye(3)))
        with pytest.raises(ValueError, match="length"):
            fac.solve(np.ones(2))


class TestDenseEig:
    def test_diagonal(self):
        w = dense_eig(np.diag([-1.0, -3.0]), np.eye(2))
        assert_allclose(np.sort_complex(w), [-3.0, -1.0])

    def test_worked_projection_matrix(self):
        # characteristic polynomial x^2 + 4x + 3 has roots -1 and -3; the pencil
        # (B F, B) has the eigenvalues of F for any nonsingular B
        b = np.array([[2.0, 1.0], [-0.5, 3.0]])
        w = dense_eig(b @ WORKED_F, b)
        assert_allclose(np.sort_complex(w), [-3.0, -1.0], atol=1e-9)

    def test_rotation(self):
        w = dense_eig([[0.0, -1.0], [1.0, 0.0]], np.eye(2))
        assert_allclose(np.sort(w.imag), [-1.0, 1.0], atol=1e-12)
        assert_allclose(w.real, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigenpair_residuals(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        w = dense_eig(a, b)
        assert w.shape == (12,) and np.isfinite(w).all()
        scale = np.linalg.norm(a) + np.abs(w).max() * np.linalg.norm(b)
        for k in range(12):
            # a - w b is singular at each eigenvalue: its least singular value vanishes
            sigma = np.linalg.svd(a - w[k] * b, compute_uv=False)[-1]
            assert sigma <= 1e-10 * scale

    @pytest.mark.parametrize("seed", [5, 6])
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
        d = rng.uniform(0.5, 2.0, 8) * rng.choice([-1.0, 1.0], 8)
        w1 = dense_eig(a, b)
        w2 = dense_eig(np.diag(1.0 / d) @ a @ np.diag(d), np.diag(1.0 / d) @ b @ np.diag(d))
        assert_allclose(match_shifts(w1, w2), w1, atol=1e-8 * np.abs(w1).max())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            dense_eig([[np.nan, 0.0], [0.0, 1.0]], np.eye(2))

    def test_pencil_eigenvalues_without_inverse(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((6, 6))
        a = b @ np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
        w = dense_eig(a, b)
        assert_allclose(np.sort_complex(w), [-6.0, -5.0, -4.0, -3.0, -2.0, -1.0], atol=1e-9)

    def test_singular_pencil_part_is_not_finite(self):
        w = dense_eig(np.diag([2.0, 1.0]), np.diag([1.0, 0.0]))
        assert w[np.isfinite(w)] == pytest.approx([2.0])
        assert np.isfinite(w).sum() == 1

    def test_pencil_shapes_must_agree(self):
        with pytest.raises(ValueError, match="same shape"):
            dense_eig(np.eye(2), np.eye(3))
