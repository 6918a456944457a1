import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.csgraph import structural_rank

import dompole
from dompole import descriptor, sparsela
from dompole.descriptor import DescriptorSystem
from dompole.sparsela import (
    ShiftedMatrix,
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
    """``||Pr M - L U|| / ||M||`` for M in the factored order, a result of
    ``shifted``."""
    n = M.csc.shape[0]
    Pr = sp.csc_matrix((np.ones(n), (fac.lu.perm_r, np.arange(n))), shape=(n, n))
    lhs = (Pr @ M.csc).toarray()
    rhs = (fac.lu.L @ fac.lu.U).toarray()
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(M.csc.toarray())


def in_cached_order(J, dense):
    """``dense[cols][:, cols]`` for the symmetric order ``shifted`` cached on J."""
    cols = J._shifts.cols
    return dense if cols is None else dense[np.ix_(cols, cols)]


def natural_order(M, cols):
    """A result of ``shifted`` with its rows and columns back in the natural order."""
    back = np.argsort(cols)
    return M.csc[back][:, back]


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

    def test_from_scipy_sums_coo_duplicates(self):
        m = SparseMatrix.from_scipy(sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(2, 2)))
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
        out = shifted(J, 1, 2.0).csc.toarray()
        assert_array_equal(out, in_cached_order(J, np.diag([-3.0, 1.0])))

    def test_zero_shift_is_identity(self):
        J = SparseMatrix.from_dense([[-1.0, 2.0], [0.0, 1.0]])
        assert_array_equal(shifted(J, 2, 0.0).csc.toarray(), in_cached_order(J, J.to_dense()))

    def test_full_dynamic_block(self):
        J = SparseMatrix.from_dense(np.diag([-1.0, -3.0]))
        out = shifted(J, 2, -0.5).csc.toarray()
        assert_array_equal(out, in_cached_order(J, np.diag([-0.5, -2.5])))

    def test_inserts_missing_diagonal(self):
        J = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        out = shifted(J, 2, 1.0).csc
        assert out.nnz == 4
        assert_array_equal(out.toarray(), in_cached_order(J, np.array([[-1.0, 1.0], [1.0, -1.0]])))

    def test_cancelled_diagonal_stays_stored(self):
        J = SparseMatrix.from_dense(np.diag([-1.0, -3.0]))
        out = shifted(J, 2, -1.0).csc
        other = shifted(J, 2, 0.5).csc
        assert out.nnz == 2
        assert_array_equal(out.indptr, other.indptr)
        assert_array_equal(out.indices, other.indices)
        assert_array_equal(out.toarray(), in_cached_order(J, J.to_dense() + np.eye(2)))

    @pytest.mark.parametrize("ndyn", [0, 7, 30])
    def test_matches_dense_reference(self, ndyn):
        rng = np.random.default_rng(ndyn)
        # no diagonal boost: many diagonal positions are absent from J
        dense = np.where(rng.random((30, 30)) < 0.1, rng.standard_normal((30, 30)), 0.0)
        J = SparseMatrix.from_dense(dense)
        s = 0.3 - 1.7j
        E = np.diag((np.arange(30) < ndyn).astype(float))
        out = shifted(J, ndyn, s).csc
        assert_array_equal(out.toarray(), in_cached_order(J, dense - s * E))
        assert out.has_canonical_format
        # the flag is set, not checked: SuperLU rounds differently when the
        # row indices of a column are out of order
        canon = out.copy()
        canon.has_canonical_format = False
        canon.sum_duplicates()
        assert_array_equal(canon.indices, out.indices)

    def test_result_is_no_sparse_matrix(self):
        # its columns are permuted, so it offers no product; the same values
        # in a SparseMatrix are factored as the matrix they are
        rng = np.random.default_rng(6)
        J = random_sparse(rng, 12, density=0.2)
        M = shifted(J, 5, 0.5 - 0.2j)
        assert isinstance(M, ShiftedMatrix) and not hasattr(M, "matvec")
        x = factorize(SparseMatrix.from_scipy(M.csc)).solve(np.ones(12))
        assert_allclose(M.csc @ x, np.ones(12), rtol=1e-12)

    @pytest.mark.parametrize(
        "dense, ndyn",
        [
            ([[0.0, 1.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]], 0),
            # column 2 is empty, and E's one at (0, 0) does not refill it
            ([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [4.0, 0.0, 0.0]], 1),
            # no empty row or column, but rows 1 and 2 hold only column 0
            ([[1.0, 2.0, 3.0], [4.0, 0.0, 0.0], [5.0, 0.0, 0.0]], 0),
        ],
        ids=["empty-column", "empty-column-beyond-ndyn", "short-rank"],
    )
    def test_structurally_singular_pattern_keeps_the_natural_order(self, monkeypatch, dense, ndyn):
        seen = []
        splu = spla.splu

        def recorded_splu(A, **kwargs):
            seen.append(A.copy())
            return splu(A, **kwargs)

        monkeypatch.setattr(sparsela.spla, "splu", recorded_splu)
        J = SparseMatrix.from_dense(dense)
        s = 0.5 - 0.25j
        E = np.diag((np.arange(3) < ndyn).astype(float))
        assert_array_equal(shifted(J, ndyn, s).csc.toarray(), np.array(dense) - s * E)
        assert J._shifts.cols is None
        with pytest.raises(SingularMatrixError, match="structurally singular"):
            factorize(shifted(J, ndyn, s))
        # SuperLU never sees a structurally singular matrix
        assert all(structural_rank(A) == A.shape[0] for A in seen)

    def test_cache_follows_j_and_ndyn(self):
        rng = np.random.default_rng(4)
        dense = np.where(rng.random((8, 8)) < 0.3, rng.standard_normal((8, 8)), 0.0)
        J = SparseMatrix.from_dense(dense)
        s = 0.4 + 0.9j
        for ndyn in (3, 2, 3):
            E = np.diag((np.arange(8) < ndyn).astype(float))
            out = shifted(J, ndyn, s).csc.toarray()
            assert_array_equal(out, in_cached_order(J, dense - s * E))
        other = SparseMatrix.from_dense(2.0 * dense)
        out = shifted(other, 3, s).csc.toarray()
        assert_array_equal(out, in_cached_order(other, 2.0 * dense - s * E))

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

    def test_shifted_diagonal_sets_the_pivot_scale(self):
        # max|M| is the shifted entry 1e12, not max|J| = 1e-3: the pivot 1e-3
        # falls below the threshold 1e-2
        J = SparseMatrix.from_dense(np.diag([0.0, 1e-3]))
        with pytest.raises(SingularMatrixError, match="threshold 1.000e-02"):
            factorize(shifted(J, 1, -1e12))
        assert factorize(shifted(J, 1, -1.0)).max_abs == 1.0

    def test_reconstruction_50(self):
        rng = np.random.default_rng(7)
        M = shifted(random_sparse(rng, 50, complex_vals=True), 0, 0)
        assert reconstruction_error(M, factorize(M)) <= 1e-12

    @pytest.mark.parametrize("n", [50, 120, 300])
    def test_backward_error_property(self, n):
        rng = np.random.default_rng(n)
        M = shifted(random_sparse(rng, n, density=0.1, complex_vals=True), 0, 0)
        assert reconstruction_error(M, factorize(M)) <= 1e-10


def random_shifted(seed, n=40, ndyn=25):
    rng = np.random.default_rng(seed)
    J = random_sparse(rng, n, density=0.15, complex_vals=True)
    M = shifted(J, ndyn, 0.7 - 1.3j)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return M, rhs


class TestCachedOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solves_equal_a_fresh_symmetric_lu(self, seed):
        M, rhs = random_shifted(seed)
        fac = factorize(M)
        cols = fac.cols
        assert cols is not None
        A = natural_order(M, cols)
        # a fresh symmetric factorization of A takes the same order and pivots
        fresh = spla.splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True},
                          **sparsela.SUPERLU_OPTIONS)
        assert_array_equal(fresh.perm_c, np.argsort(cols))
        assert_array_equal(fresh.perm_r[cols], fac.lu.perm_r)
        # and the solves are those of an LU of A[cols][:, cols], put back in order
        lu = spla.splu(A[cols][:, cols], permc_spec="NATURAL", **sparsela.SUPERLU_OPTIONS)
        for trans, transposed in (("N", False), ("T", True)):
            x = np.empty_like(rhs)
            x[cols] = lu.solve(rhs[cols], trans=trans)
            assert_array_equal(fac.solve(rhs, transposed=transposed), x)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, seed):
        M, _ = random_shifted(seed)
        assert reconstruction_error(M, factorize(M)) <= 1e-12

    def test_cancelled_entry_keeps_the_order(self):
        J = SparseMatrix.from_dense([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, 4.0]])
        M = shifted(J, 2, -1.0)
        assert M.csc.nnz == 7
        fac = factorize(M)
        assert fac.cols is not None
        assert reconstruction_error(M, fac) <= 1e-14
        # M is J - sE with its rows and columns in the order cols
        assert_allclose(M.csc @ fac.solve(np.ones(3))[fac.cols], np.ones(3), rtol=1e-14)

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

        orders = []
        splu = spla.splu

        def ordered_splu(A, **kwargs):
            orders.append(A.shape[0])
            return splu(A, **kwargs)

        monkeypatch.setattr(sparsela.spla, "splu", counted("splu", ordered_splu))
        monkeypatch.setattr(descriptor, "factorize", counted("factorize", factorize))
        for _ in range(2):
            dompole.run(sys, SolverConfig(method="dpse", p=3), [-1 + 1j, -2, -3 + 2j])
        assert counts["factorize"] > 6
        # one ordering for J - sE and one for J4, whose one LU gives
        # kappa = C_a^T J4^-1 B_a to both runs
        assert counts["splu"] == counts["factorize"] + 2
        assert orders.count(m) == 2

    def test_one_symmetric_ordering_per_matrix_and_ndyn(self, monkeypatch):
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
            options.append((A.shape[0], permc_spec, kwargs))
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
        # J with ndyn = n, its algebraic block J4 (one order for run's kappa
        # and validate), and the plain matrix
        assert sorted(order for order, spec in specs if spec == "MMD_AT_PLUS_A") == [m, 7, n + m]
        assert len(specs) == len(facs) + 3
        assert all(spec in ("MMD_AT_PLUS_A", "NATURAL") for _, spec in specs)
        assert all(fac.cols is not None for fac in facs)
        shared = {"relax": 1, "panel_size": 1, "diag_pivot_thresh": 0.01}
        for _, spec, kw in options:
            if spec == "MMD_AT_PLUS_A":
                assert kw == {**shared, "options": {"SymmetricMode": True}}
            else:
                assert kw == shared


MESH_SHIFT = 0.3 + 2.1j


def mesh_system(seed, k=12, machines=24):
    """J, ndyn and a right-hand side of a small network: 4-state machines on
    a k-by-k bus mesh."""
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
    return J, n, rhs


def mesh_shifted(seed):
    """``J - sE`` of ``mesh_system(seed)`` at ``MESH_SHIFT``, and its right-hand side."""
    J, n, rhs = mesh_system(seed)
    return shifted(J, n, MESH_SHIFT), rhs


def saddle_system(seed, n=8, k=12, g=4):
    """J of a model whose algebraic block is a saddle point ``[[K, G^T], [G, 0]]``.

    Its last g diagonal entries are structurally zero, and each of those rows
    holds one entry of G, so a minimum-degree order takes them early. J1 is
    upper triangular, and J2 J4^-1 J3 strictly so (J2 couples the first half
    of the dynamic states, J3 the second), so the eigenvalues are -1, ..., -n.
    """
    rng = np.random.default_rng(seed)
    J1 = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4), 1)
    J1 -= np.diag(np.arange(1.0, n + 1))
    K = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(k, k))
    G = sp.csr_matrix((rng.uniform(1.0, 2.0, g), (np.arange(g), rng.choice(k, g, replace=False))),
                      shape=(g, k))
    J4 = sp.bmat([[K, G.T], [G, None]])
    m = k + g
    J2 = np.zeros((n, m))
    J2[: n // 2, rng.choice(m, 3, replace=False)] = rng.uniform(0.5, 1.0, (n // 2, 3))
    J3 = np.zeros((m, n))
    J3[rng.choice(m, 3, replace=False), n // 2:] = rng.uniform(0.5, 1.0, (3, n - n // 2))
    J = sp.bmat([[sp.csc_matrix(J1), sp.csc_matrix(J2)], [sp.csc_matrix(J3), J4]])
    return SparseMatrix.from_scipy(J), n


class TestSaddlePoint:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pivots_leave_a_zero_diagonal(self, seed):
        J, n = saddle_system(seed)
        N = J.nrows
        s = 0.3 - 0.8j
        M = shifted(J, n, s)
        fac = factorize(M)
        assert (fac.lu.perm_r != np.arange(N)).any()
        A = J.to_scipy() - s * sp.diags((np.arange(N) < n).astype(float))
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for op, transposed in ((A, False), (A.T, True)):
            x = fac.solve(rhs, transposed=transposed)
            scale = spla.norm(op, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
            assert np.linalg.norm(op @ x - rhs, np.inf) / scale <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shift_on_an_eigenvalue_is_singular(self, seed):
        J, n = saddle_system(seed)
        for k in range(1, n + 1):
            with pytest.raises(SingularMatrixError):
                factorize(shifted(J, n, -float(k)))


class TestFill:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_factor_entries_than_colamd(self, seed):
        J, n, _ = mesh_system(seed)
        fac = factorize(shifted(J, n, MESH_SHIFT))
        E = sp.diags((np.arange(J.nrows) < n).astype(float))
        A = (J.to_scipy() - MESH_SHIFT * E).tocsc()
        colamd = spla.splu(A, permc_spec="COLAMD", relax=1, panel_size=1)
        assert fac.lu.nnz < colamd.nnz

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_factor_entries_than_relaxed_supernodes(self, seed):
        # in the symmetric order relaxed supernodes pad neither benchmark
        # model, but still pad a random unsymmetric pattern
        M, _ = random_shifted(seed)
        fac = factorize(M)
        options = {k: v for k, v in sparsela.SUPERLU_OPTIONS.items() if k != "relax"}
        relaxed = spla.splu(M.csc, permc_spec="NATURAL", **options)
        assert fac.lu.nnz < relaxed.nnz

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pivots_stay_on_the_diagonal(self, seed):
        # SuperLU prefers the pivot in row k of the matrix it is given, which
        # is J - sE's diagonal only if rows are permuted like the columns
        M, _ = mesh_shifted(seed)
        fac = factorize(M)
        assert_array_equal(fac.lu.perm_r, np.arange(M.csc.shape[0]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_backward_error(self, seed, transposed):
        M, rhs = mesh_shifted(seed)
        fac = factorize(M)
        A = natural_order(M, fac.cols)
        A = A.T if transposed else A
        x = fac.solve(rhs, transposed=transposed)
        scale = spla.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
        assert np.linalg.norm(A @ x - rhs, np.inf) / scale <= 1e-12


def arrowhead(leaves, d):
    """Diagonal entries d coupled by ones to a last row and column, whose
    diagonal entry is 1.

    A minimum-degree order takes the leaves first. Each leaf's pivot d passes
    the threshold when d >= 0.01, and eliminating the leaves leaves
    ``1 - leaves / d`` in the last row and column.
    """
    A = np.diag(np.r_[np.full(leaves, d), 1.0])
    A[leaves, :leaves] = A[:leaves, leaves] = 1.0
    return A


class TestPivotGrowth:
    @staticmethod
    def counted_factorize(monkeypatch, A):
        calls = []
        splu = sparsela.spla.splu

        def recorded_splu(*args, **kwargs):
            calls.append(kwargs.get("diag_pivot_thresh"))
            return splu(*args, **kwargs)

        monkeypatch.setattr(sparsela.spla, "splu", recorded_splu)
        return factorize(SparseMatrix.from_dense(A)), calls

    def test_growth_up_to_the_limit_keeps_the_diagonal(self, monkeypatch):
        # two leaves grow the last entry to 1 - 2 / 0.02 = -99
        fac, calls = self.counted_factorize(monkeypatch, arrowhead(2, 0.02))
        assert calls == [0.01, 0.01]
        assert fac.pivot_growth == pytest.approx(99.0)
        assert_array_equal(fac.lu.perm_r, np.arange(3))

    def test_growth_past_the_limit_refactors_with_partial_pivoting(self, monkeypatch):
        # three leaves would grow it to -149: the ordering LU, the threshold
        # LU and one with partial pivoting, in the same order
        A = arrowhead(3, 0.02)
        fac, calls = self.counted_factorize(monkeypatch, A)
        assert calls == [0.01, 0.01, 1.0]
        assert fac.pivot_growth <= sparsela.GROWTH_LIMIT
        assert (fac.lu.perm_r != np.arange(4)).any()
        rhs = np.arange(1.0, 5.0) + 1j
        for op, transposed in ((A, False), (A.T, True)):
            x = fac.solve(rhs, transposed=transposed)
            scale = np.abs(op).sum(axis=1).max() * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
            assert np.linalg.norm(op @ x - rhs, np.inf) / scale <= 1e-12


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
