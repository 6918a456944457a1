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
    ShiftedMatrix,
    SingularMatrixError,
    SparseMatrix,
    StructurallySingularError,
    dense_eig,
    factorize,
    ordered,
    shifted,
)
from dompole.solver import SolverConfig, match_shifts
from whole import whole, whole_solve

WORKED_F = np.array([[-1.125, -1.125], [-5.0 / 24.0, -2.875]])


def random_sparse(rng, n, density=0.3, complex_vals=False, diag_boost=0.0):
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    if complex_vals:
        dense = dense + 1j * np.where(
            rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0
        )
    dense += np.diag(diag_boost + rng.uniform(1.0, 2.0, n))
    return SparseMatrix.from_scipy(dense)


def reconstruction_error(M, fac):
    """``||Pr S - L U|| / ||S||`` for S = M.csc, the Schur complement that
    ``factorize`` factors (the whole matrix when I is empty)."""
    n = M.csc.shape[0]
    Pr = sp.csc_matrix((np.ones(n), (fac.lu.perm_r, np.arange(n))), shape=(n, n))
    lhs = (Pr @ M.csc).toarray()
    rhs = (fac.lu.L @ fac.lu.U).toarray()
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(M.csc.toarray())


def in_order(M, dense):
    """``dense[cols][:, cols]`` for the symmetric order of the ShiftedMatrix M."""
    cols = M.schur.cols
    return dense[np.ix_(cols, cols)]


def natural_order(M, J):
    """The whole ``J - sE`` of a ShiftedMatrix M of J with its rows and columns
    back in the natural order."""
    back = np.argsort(M.schur.cols)
    return whole(M, J)[back][:, back]


def dense_schur(M, dense):
    """The Schur complement of the I block of ``dense[cols][:, cols]``, by dense algebra."""
    A, ni = in_order(M, dense), M.schur.ni
    return A[ni:, ni:] - A[ni:, :ni] @ np.linalg.solve(A[:ni, :ni], A[:ni, ni:])


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
        m = SparseMatrix.from_scipy(unsorted).to_scipy()
        assert m.indptr.tolist() == [0, 2, 2]
        assert m.indices.tolist() == [0, 1]
        assert m.data.tolist() == [2.0, 1.0]
        assert m.data.dtype == np.complex128
        assert unsorted.indices.tolist() == [1, 0]  # the input is copied, not sorted in place
        m = SparseMatrix.from_scipy(raw([0, 2, 2], [0, 0], [1.0, 2.0])).to_scipy()
        assert m.indices.tolist() == [0] and m.data.tolist() == [3.0]

    def test_from_scipy_sums_coo_duplicates(self):
        m = SparseMatrix.from_scipy(sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(2, 2)))
        assert m.to_scipy().nnz == 1
        assert m.to_scipy().toarray()[0, 0] == 3.0

    def test_matvec_against_dense(self):
        rng = np.random.default_rng(0)
        m = random_sparse(rng, 9, complex_vals=True)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert_allclose(m.matvec(x), m.to_scipy().toarray() @ x, rtol=1e-13)
        assert_allclose(m.matvec_t(x), m.to_scipy().toarray().T @ x, rtol=1e-13)
        # the transpose view gives scipy's own transposed product
        assert_array_equal(m.matvec_t(x), m.to_scipy().T @ x)


class TestShifted:
    def test_diagonal_example(self):
        J = np.diag([-1.0, 1.0])
        M = shifted(ordered(J, 1), 2.0)
        assert_array_equal(whole(M, J).toarray(), in_order(M, np.diag([-3.0, 1.0])))
        # the algebraic state meets no shifted entry, so only the dynamic one is factored
        assert M.schur.ni == 1
        assert_array_equal(M.csc.toarray(), [[-3.0]])

    def test_zero_shift_is_identity(self):
        dense = np.array([[-1.0, 2.0], [0.0, 1.0]])
        M = shifted(ordered(dense, 2), 0.0)
        assert_array_equal(M.csc.toarray(), in_order(M, dense))

    def test_full_dynamic_block(self):
        M = shifted(ordered(np.diag([-1.0, -3.0]), 2), -0.5)
        assert_array_equal(M.csc.toarray(), in_order(M, np.diag([-0.5, -2.5])))

    def test_inserts_missing_diagonal(self):
        M = shifted(ordered(np.array([[0.0, 1.0], [1.0, 0.0]]), 2), 1.0)
        assert M.csc.nnz == 4
        assert_array_equal(M.csc.toarray(), in_order(M, np.array([[-1.0, 1.0], [1.0, -1.0]])))

    def test_cancelled_diagonal_stays_stored(self):
        base = ordered(np.diag([-1.0, -3.0]), 2)
        M = shifted(base, -1.0)
        out, other = M.csc, shifted(base, 0.5).csc
        assert out.nnz == 2
        assert_array_equal(out.indptr, other.indptr)
        assert_array_equal(out.indices, other.indices)
        assert_array_equal(out.toarray(), in_order(M, np.diag([0.0, -2.0])))

    @pytest.mark.parametrize("ndyn", [0, 7, 30])
    def test_matches_dense_reference(self, ndyn):
        rng = np.random.default_rng(ndyn)
        # no diagonal boost: many diagonal positions are absent from J; a
        # permutation's entries make it structurally nonsingular
        dense = np.where(rng.random((30, 30)) < 0.1, rng.standard_normal((30, 30)), 0.0)
        dense[rng.permutation(30), np.arange(30)] += rng.uniform(1.0, 2.0, 30)
        s = 0.3 - 1.7j
        E = np.diag((np.arange(30) < ndyn).astype(float))
        M = shifted(ordered(dense, ndyn), s)
        assert_array_equal(whole(M, dense).toarray(), in_order(M, dense - s * E))
        assert_allclose(M.csc.toarray(), dense_schur(M, dense - s * E), rtol=1e-12, atol=1e-12)
        out = M.csc
        assert out.has_canonical_format
        # the flag is set, not checked: SuperLU rounds differently when the
        # row indices of a column are out of order
        canon = out.copy()
        canon.has_canonical_format = False
        canon.sum_duplicates()
        assert_array_equal(canon.indices, out.indices)

    def test_result_is_no_sparse_matrix(self):
        # its columns are permuted, so it offers no product; its csc, ordered
        # anew, is factored as the matrix it is
        rng = np.random.default_rng(6)
        J = random_sparse(rng, 12, density=0.2)
        M = shifted(ordered(J.to_scipy(), 5), 0.5 - 0.2j)
        assert isinstance(M, ShiftedMatrix) and not hasattr(M, "matvec")
        n = M.csc.shape[0]
        x = factorize(ordered(M.csc, 0)).solve(np.ones(n))
        assert_allclose(M.csc @ x, np.ones(n), rtol=1e-12)

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
    def test_structurally_singular_pattern_is_refused(self, monkeypatch, dense, ndyn):
        seen = []
        monkeypatch.setattr(sparsela.spla, "splu", lambda A, **kwargs: seen.append(A))
        with pytest.raises(StructurallySingularError, match="structurally singular"):
            ordered(dense, ndyn)
        # SuperLU never sees a structurally singular matrix
        assert seen == []

    def test_structurally_singular_system_caches_nothing(self, monkeypatch):
        seen = []
        monkeypatch.setattr(sparsela.spla, "splu", lambda A, **kwargs: seen.append(A))
        # column 2 is empty, and E's one at (0, 0) does not refill it
        J = SparseMatrix.from_scipy([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [4.0, 0.0, 0.0]])
        sys = DescriptorSystem(J, 1, np.ones(3), np.ones(3))
        for _ in range(2):
            with pytest.raises(StructurallySingularError, match="structurally singular"):
                descriptor.eval_transfer(sys, 0.5 - 0.25j)
            assert "ordered_j" not in sys.__dict__
        assert seen == []

    def test_one_order_per_system(self, monkeypatch):
        # two systems over one J, used in turn, keep one order each
        rng = np.random.default_rng(4)
        dense = np.where(rng.random((8, 8)) < 0.3, rng.standard_normal((8, 8)), 0.0)
        dense[rng.permutation(8), np.arange(8)] += rng.uniform(1.0, 2.0, 8)
        J = SparseMatrix.from_scipy(dense)
        B, C = rng.standard_normal(8), rng.standard_normal(8)
        systems = [DescriptorSystem(J, ndyn, B, C) for ndyn in (3, 2)]
        s = 0.4 + 0.9j
        specs = []
        splu = spla.splu

        def recorded_splu(A, permc_spec=None, **kwargs):
            specs.append(permc_spec)
            return splu(A, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(sparsela.spla, "splu", recorded_splu)
        values = [[descriptor.eval_transfer(sys, s).value for sys in systems] for _ in range(3)]
        assert specs.count("MMD_AT_PLUS_A") == 2
        assert values[1] == values[0] and values[2] == values[0]
        for sys, h in zip(systems, values[0]):
            E = np.diag((np.arange(8) < sys.ndyn).astype(float))
            M = shifted(sys.ordered_j, s)
            assert_array_equal(whole(M, dense).toarray(), in_order(M, dense - s * E))
            assert h == pytest.approx(C @ np.linalg.solve(s * E - dense, B), rel=1e-12)

    def test_result_owns_its_values_only(self):
        base = ordered(np.array([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, 4.0]]), 2)
        before = base.csc.toarray()
        M = shifted(base, 0.7 - 0.2j)
        assert M.csc.indices is base.csc.indices and M.csc.indptr is base.csc.indptr
        assert not np.shares_memory(M.csc.data, base.csc.data)
        assert M.diag is base.diag and M.schur is base.schur
        assert_array_equal(base.csc.toarray(), before)
        assert_array_equal(shifted(base, 0.0).csc.toarray(), before)

    def test_nonfinite_shift_is_rejected(self):
        base = ordered(np.eye(2), 1)
        with pytest.raises(ValueError, match=re.escape("shift (nan+0j) is not finite")):
            shifted(base, np.nan)
        with pytest.raises(ValueError, match=re.escape("shift (1-infj) is not finite")):
            shifted(base, complex(1.0, -np.inf))
        sys = DescriptorSystem(SparseMatrix.from_scipy(np.eye(2)), 1, np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="is not finite"):
            descriptor.eval_transfer(sys, np.nan)


class TestFactorize:
    def test_diagonal_factors(self):
        fac = factorize(ordered(np.diag([-0.5, -2.5]), 0))
        assert_allclose(fac.lu.L.toarray(), np.eye(2))
        assert_allclose(np.sort(np.abs(fac.lu.U.diagonal())), [0.5, 2.5])
        assert fac.pivot_growth == pytest.approx(1.0)

    def test_zero_row_is_singular(self):
        with pytest.raises(SingularMatrixError, match="structurally singular"):
            factorize(ordered(np.array([[1.0, 2.0], [0.0, 0.0]]), 0))

    def test_tiny_pivot_is_singular(self):
        # SuperLU factors a pivot 1e-20 without complaint; the solve that
        # divides by it shows the matrix singular to working precision
        fac = factorize(ordered(np.diag([1.0, 1e-20]), 0))
        with pytest.raises(SingularMatrixError, match="singular to working precision") as info:
            fac.solve(np.ones(2))
        # a numerically singular matrix is not refused as a structural one
        assert not isinstance(info.value, StructurallySingularError)

    def test_shifted_diagonal_sets_the_pivot_scale(self):
        # max|M| is the shifted entry 1e14 - 2^-6, not the pivot 2^-6 that
        # the shift leaves of J's 1e14: the solution 64 of that pivot passes
        # ||rhs|| / (eps max|M|) = 45.04
        base = ordered(np.diag([0.0, 1e14]), 2)
        fac = factorize(shifted(base, 1e14 - 2.0**-6))
        with pytest.raises(SingularMatrixError, match=re.escape("above 4.504e+01")):
            fac.solve(np.ones(2))
        # the algebraic state is I, so S(s) is the dynamic one alone
        base = ordered(np.diag([0.0, 1e-3]), 1)
        fac = factorize(shifted(base, -1.0))
        assert fac.max_abs == 1.0
        assert_allclose(fac.solve(np.ones(1)), [1.0])
        assert_allclose(whole_solve(fac, np.ones(2)), [1.0, 1e3])

    def test_reconstruction_50(self):
        rng = np.random.default_rng(7)
        M = ordered(random_sparse(rng, 50, complex_vals=True).to_scipy(), 0)
        assert reconstruction_error(M, factorize(M)) <= 1e-12

    @pytest.mark.parametrize("n", [50, 120, 300])
    def test_backward_error_property(self, n):
        rng = np.random.default_rng(n)
        M = ordered(random_sparse(rng, n, density=0.1, complex_vals=True).to_scipy(), 0)
        assert reconstruction_error(M, factorize(M)) <= 1e-10


def random_shifted(seed, n=40, ndyn=25):
    rng = np.random.default_rng(seed)
    J = random_sparse(rng, n, density=0.15, complex_vals=True)
    M = shifted(ordered(J.to_scipy(), ndyn), 0.7 - 1.3j)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return M, rhs, J.to_scipy()


class TestCachedOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_splits_a_fresh_symmetric_order(self, seed):
        M, rhs, J = random_shifted(seed)
        fac = factorize(M)
        cols, ni = M.schur.cols, M.schur.ni
        assert ni > 0
        A = natural_order(M, J)
        # a fresh symmetric factorization of A takes the same order, split in
        # two: I's nodes first, then D's, each in that order
        fresh = spla.splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True},
                          **sparsela.SUPERLU_OPTIONS)
        md = np.argsort(fresh.perm_c)
        first = np.isin(md, cols[:ni])
        assert_array_equal(np.r_[md[first], md[~first]], cols)
        # the shifted entries all lie in D
        assert (cols[:ni] >= 25).all()
        # and the condensed solves are backward stable solves with A
        for op, transposed in ((A, False), (A.T, True)):
            x = whole_solve(fac, rhs, transposed=transposed)
            assert backward_error(op.toarray(), x, rhs) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction(self, seed):
        M = random_shifted(seed)[0]
        assert reconstruction_error(M, factorize(M)) <= 1e-12

    def test_cancelled_entry_keeps_the_order(self):
        J = np.array([[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, 4.0]])
        M = shifted(ordered(J, 2), -1.0)
        A, cols = whole(M, J), M.schur.cols
        assert A.nnz == 7
        fac = factorize(M)
        assert reconstruction_error(M, fac) <= 1e-14
        # the whole matrix is J - sE with its rows and columns in the order cols
        assert_allclose(A @ whole_solve(fac, np.ones(3))[cols], np.ones(3), rtol=1e-14)

    def test_one_splu_per_factorization_plus_one_ordering(self, monkeypatch):
        rng = np.random.default_rng(3)
        n, m = 12, 6
        Jd = rng.standard_normal((n + m, n + m)) * (rng.random((n + m, n + m)) < 0.3)
        Jd[:n, :n] -= np.diag(rng.uniform(2.0, 4.0, n))
        Jd[n:, n:] += np.diag(rng.uniform(1.5, 2.5, m))
        sys = DescriptorSystem(SparseMatrix.from_scipy(Jd), n, rng.standard_normal(n + m),
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
        ni = sys.ordered_j.schur.ni
        assert ni > 0
        # for J - sE one ordering, one LU that S0 is read from and one of
        # K11; one ordering for J4, whose one LU gives kappa = C_a^T J4^-1 B_a
        # to both runs; and each shift factors only S(s), of order n + m - ni
        assert counts["splu"] == counts["factorize"] + 4
        assert orders.count(m) == 2
        assert orders.count(ni) == 1 and orders.count(n + m) == 2
        assert orders.count(n + m - ni) == counts["factorize"] - 1

    def test_one_symmetric_ordering_per_matrix_and_ndyn(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, m = 10, 5
        Jd = rng.standard_normal((n + m, n + m)) * (rng.random((n + m, n + m)) < 0.3)
        Jd[:n, :n] -= np.diag(rng.uniform(2.0, 4.0, n))
        Jd[n:, n:] += np.diag(rng.uniform(1.5, 2.5, m))
        sys = DescriptorSystem(SparseMatrix.from_scipy(Jd), n, rng.standard_normal(n + m),
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
        plain = ordered(random_sparse(rng, 7).to_scipy(), 0)
        facs += [factorize(plain), factorize(shifted(plain, 0))]
        # J with ndyn = n, its algebraic block J4 (one order for run's kappa
        # and validate), and the plain matrix
        assert sorted(order for order, spec in specs if spec == "MMD_AT_PLUS_A") == [m, 7, n + m]
        # J's condensation adds one LU of J - sE, which S0 is read from, and one of K11
        assert sys.ordered_j.schur.ni > 0
        assert len(specs) == len(facs) + 5
        assert all(spec in ("MMD_AT_PLUS_A", "NATURAL") for _, spec in specs)
        shared = {"relax": 1, "panel_size": 1, "diag_pivot_thresh": 0.01}
        symmetric = {**shared, "options": {"SymmetricMode": True}}
        assert [(order, spec) for order, spec, kw in options if kw == symmetric] == [
            (n + m, "MMD_AT_PLUS_A"), (n + m, "NATURAL"),
            (m, "MMD_AT_PLUS_A"), (7, "MMD_AT_PLUS_A"),
        ]
        assert all(kw == shared for _, _, kw in options if kw != symmetric)


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
    N = n + k * k
    rhs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return J, n, rhs


def mesh_shifted(seed):
    """``J - sE`` of ``mesh_system(seed)`` at ``MESH_SHIFT``, its right-hand side and J."""
    J, n, rhs = mesh_system(seed)
    return shifted(ordered(J.to_scipy(), n), MESH_SHIFT), rhs, J.to_scipy()


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
        N = J.to_scipy().shape[0]
        s = 0.3 - 0.8j
        M = shifted(ordered(J.to_scipy(), n), s)
        fac = factorize(M)
        # rows swap in K11's LU when the saddle point lies in I, else in S's
        lu = fac.lu if M.schur.k11 is None else M.schur.k11
        assert (lu.perm_r != np.arange(lu.shape[0])).any()
        A = J.to_scipy() - s * sp.diags((np.arange(N) < n).astype(float))
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        for op, transposed in ((A, False), (A.T, True)):
            x = whole_solve(fac, rhs, transposed=transposed)
            scale = spla.norm(op, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
            assert np.linalg.norm(op @ x - rhs, np.inf) / scale <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shift_on_an_eigenvalue_is_singular(self, seed):
        J, n = saddle_system(seed)
        base = ordered(J.to_scipy(), n)
        for k in range(1, n + 1):
            with pytest.raises(SingularMatrixError):
                factorize(shifted(base, -float(k)))


class TestFill:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_factor_entries_than_colamd(self, seed):
        J, n, _ = mesh_system(seed)
        fac = factorize(shifted(ordered(J.to_scipy(), n), MESH_SHIFT))
        E = sp.diags((np.arange(J.to_scipy().shape[0]) < n).astype(float))
        A = (J.to_scipy() - MESH_SHIFT * E).tocsc()
        colamd = spla.splu(A, permc_spec="COLAMD", relax=1, panel_size=1)
        # K11's factors, made once, and S(s)'s together
        assert fac.schur.k11.nnz + fac.lu.nnz < colamd.nnz

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_factor_entries_than_relaxed_supernodes(self, seed):
        # in the symmetric order relaxed supernodes pad neither benchmark
        # model, but still pad a random unsymmetric pattern
        M = random_shifted(seed)[0]
        fac = factorize(M)
        options = {k: v for k, v in sparsela.SUPERLU_OPTIONS.items() if k != "relax"}
        relaxed = spla.splu(M.csc, permc_spec="NATURAL", **options)
        assert fac.lu.nnz < relaxed.nnz

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pivots_stay_on_the_diagonal(self, seed):
        # SuperLU prefers the pivot in row k of the matrix it is given, which
        # is J - sE's diagonal only if rows are permuted like the columns
        M = mesh_shifted(seed)[0]
        fac = factorize(M)
        for lu in (fac.lu, M.schur.k11):
            assert_array_equal(lu.perm_r, np.arange(lu.shape[0]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_backward_error(self, seed, transposed):
        M, rhs, J = mesh_shifted(seed)
        fac = factorize(M)
        A = natural_order(M, J)
        A = A.T if transposed else A
        x = whole_solve(fac, rhs, transposed=transposed)
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


def growth_chain(d):
    """Unit entries and a diagonal d whose threshold LU grows like d^-4.

    The minimum-degree order is 0, 2, 1, 3, 4, and each pivot d is at least
    1% of the unit entries left in its column when d >= 0.01. But each
    elimination divides the last column's entry in the next row of the chain
    by d, so at d = 0.02 max|U| is 6.6e6, although cond(A) is 5.2.
    """
    A = np.array([[0, 0, 0, 0, -1], [0, 0, 1, 0, 0], [1, 0, 0, 0, 1],
                  [0, -1, 1, 0, 0], [1, 1, 0, 1, 0]], dtype=float)
    return A + d * np.eye(5)


def recorded_splu(monkeypatch):
    """The ``diag_pivot_thresh`` of each SuperLU call from now on."""
    calls = []
    splu = sparsela.spla.splu

    def recorded(*args, **kwargs):
        calls.append(kwargs.get("diag_pivot_thresh"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(sparsela.spla, "splu", recorded)
    return calls


def backward_error(A, x, rhs):
    """``||A x - rhs|| / (max|A| ||x|| + ||rhs||)`` in the infinity norm."""
    scale = np.abs(A).max() * np.abs(x).max() + np.abs(rhs).max()
    return np.abs(A @ x - rhs).max() / scale


class TestPivotGrowth:
    def test_growth_up_to_the_limit_keeps_the_diagonal(self, monkeypatch):
        # two leaves grow the last entry to 1 - 2 / 0.02 = -99
        calls = recorded_splu(monkeypatch)
        fac = factorize(ordered(arrowhead(2, 0.02), 0))
        assert calls == [0.01, 0.01]
        assert fac.pivot_growth == pytest.approx(99.0)
        assert_array_equal(fac.lu.perm_r, np.arange(3))

    def test_growth_alone_keeps_the_threshold_lu(self, monkeypatch):
        # three leaves grow it to -149, yet the solve is backward stable
        A = arrowhead(3, 0.02)
        sys = DescriptorSystem(SparseMatrix.from_scipy(A), 1, np.arange(1.0, 5.0), np.ones(4))
        calls = recorded_splu(monkeypatch)
        h = descriptor.eval_transfer(sys, 0.0).value
        # the ordering, the LU that S0 is read from, K11's and S(0)'s
        assert sys.ordered_j.schur.ni > 0
        assert calls == [0.01, 0.01, 0.01, 0.01]
        assert h == pytest.approx(-np.ones(4) @ np.linalg.solve(A, np.arange(1.0, 5.0)), rel=1e-14)

    def test_backward_error_past_the_bound_refactors_with_partial_pivoting(self, monkeypatch):
        # at s = 0, J - sE is J whatever ndyn is: the ordering LU, the
        # threshold LU and one with partial pivoting, in the same order
        A = growth_chain(0.02)
        rhs = np.arange(1.0, 6.0) + 1j
        M = ordered(A, 0)
        fac = factorize(M)
        assert fac.pivot_growth > 1e6
        assert backward_error(A, fac.solve(rhs), rhs) > 1e2 * sparsela.BACKWARD_RTOL
        sys = DescriptorSystem(SparseMatrix.from_scipy(A), 1, rhs, np.ones(5))
        calls = recorded_splu(monkeypatch)
        h = descriptor.eval_transfer(sys, 0.0).value
        assert calls == [0.01, 0.01, 1.0]
        x = sparsela._accurate_solve(M, fac, rhs)
        assert backward_error(A, x, rhs) <= sparsela.BACKWARD_RTOL
        assert h == pytest.approx(-np.ones(5) @ np.linalg.solve(A, rhs), rel=1e-13)

    def test_growth_in_k11_refactors_the_whole_matrix(self, monkeypatch):
        # the chain is K11: the one dynamic state couples only to its last
        # node, so the growth is in the LU that every shift shares
        J = np.zeros((6, 6))
        J[0, 0] = -1.0
        J[0, 5] = J[5, 0] = 1.0
        J[1:, 1:] = growth_chain(0.02)
        rhs = np.arange(1.0, 7.0) + 1j
        sys = DescriptorSystem(SparseMatrix.from_scipy(J), 1, rhs, np.ones(6))
        calls = recorded_splu(monkeypatch)
        h = descriptor.eval_transfer(sys, 0.5).value
        # the growth spoils the probe solve of the LU that S0 would be read
        # from, so J - sE is not condensed: the ordering, K11's, that LU and
        # the whole matrix's, and then the whole matrix's with partial pivoting
        assert sys.ordered_j.schur.ni == 0
        assert calls == [0.01, 0.01, 0.01, 0.01, 1.0]
        A = J - 0.5 * np.diag([1.0, 0, 0, 0, 0, 0])
        M = shifted(sys.ordered_j, 0.5)
        assert backward_error(A, factorize(M).solve(rhs), rhs) > 10 * sparsela.BACKWARD_RTOL
        x = sparsela._accurate_solve(M, factorize(M), rhs)
        assert backward_error(A, x, rhs) <= sparsela.BACKWARD_RTOL
        assert h == pytest.approx(-np.ones(6) @ np.linalg.solve(A, rhs), rel=1e-13)

    def test_growth_in_k11_counts_in_the_pivot_growth(self):
        # the arrowhead is all of I and the dynamic state alone is D: the
        # growth lies in K11's factors, which condense B and C and lift each
        # locked column, not in S's; K11's solves stay backward stable
        J = np.zeros((5, 5))
        J[0, 0] = -1.0
        J[1:, 1:] = arrowhead(3, 0.02)
        M = shifted(ordered(J, 1), 0.5)
        assert M.schur.ni == 4
        fac = factorize(M)
        assert_array_equal(fac.lu.U.toarray(), [[-1.5]])
        u11 = np.abs(M.schur.k11.U.data).max()
        assert u11 == pytest.approx(149.0)
        assert fac.pivot_growth == u11 / 1.5
        # the chain's growth 6.6e6 spoils the probe solves: nothing is condensed
        J = np.zeros((6, 6))
        J[0, 0] = -1.0
        J[1:, 1:] = growth_chain(0.02)
        assert ordered(J, 1).schur.ni == 0

    def test_kappa_refactors_with_partial_pivoting(self, monkeypatch):
        # the chain is J4, under one dynamic state coupled to all of it
        J = np.block([[np.full((1, 1), -1.0), np.full((1, 5), 0.5)],
                      [np.full((5, 1), 0.5), growth_chain(0.02)]])
        rhs = np.arange(1.0, 7.0)
        sys = DescriptorSystem(SparseMatrix.from_scipy(J), 1, rhs, rhs[::-1], D=0.5)
        calls = recorded_splu(monkeypatch)
        kappa = sys.kappa
        # J4's ordering LU, its threshold LU and one with partial pivoting
        assert calls == [0.01, 0.01, 1.0]
        want = sys.D - descriptor.reduce_to_state_space(sys).d
        assert kappa == pytest.approx(want, rel=1e-10)
        # the threshold LU alone misses it by 9.5e-11 relative
        unchecked = complex(sys.C[1:] @ factorize(sys.j4).solve(sys.B[1:]))
        assert abs(unchecked - want) > 1e-11 * abs(want)


class TestSolve:
    def test_diagonal_solve(self):
        fac = factorize(ordered(np.diag([-0.5, -2.5]), 0))
        assert_allclose(fac.solve(np.array([1.0, 1.0])), [-2.0, -0.4])

    def test_transposed_equals_plain_for_symmetric(self):
        fac = factorize(ordered(np.diag([-0.5, -2.5]), 0))
        rhs = np.array([1.0, 2.0])
        assert_allclose(fac.solve(rhs, transposed=True), fac.solve(rhs))

    def test_solve_residual(self):
        rng = np.random.default_rng(20)
        M = random_sparse(rng, 20, complex_vals=True)
        rhs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        x = factorize(ordered(M.to_scipy(), 0)).solve(rhs)
        assert np.linalg.norm(M.matvec(x) - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_transposed_matches_explicit_transpose(self):
        rng = np.random.default_rng(21)
        M = random_sparse(rng, 25, complex_vals=True)
        rhs = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        xt = factorize(ordered(M.to_scipy(), 0)).solve(rhs, transposed=True)
        xe = factorize(ordered(M.to_scipy().T, 0)).solve(rhs)
        assert_allclose(xt, xe, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 9, 10])
    def test_roundtrip_moderate_condition(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        # rows scaled over six decades: cond is 1.1e7 to 9.3e7 on these seeds,
        # so the residual grows with it; the normwise backward error does not
        scales = 10.0 ** rng.uniform(-3, 3, n)
        A = np.diag(scales) @ random_sparse(rng, n).to_scipy().toarray()
        rhs = rng.standard_normal(n)
        x = factorize(ordered(A, 0)).solve(rhs)
        scale = np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(rhs, np.inf)
        assert np.linalg.norm(A @ x - rhs, np.inf) / scale <= 1e-12

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (1, 3)])
    def test_dimension_mismatch(self, shape):
        fac = factorize(ordered(np.eye(3), 0))
        message = f"right-hand side has shape {shape}, expected (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            fac.solve(np.ones(shape))


def pair_system(a11):
    """A dynamic hub, node 0, coupled to a pair 1, 2 whose block is
    ``[[a11, 1], [1, 1]]`` and to a clique 3..7. A minimum-degree order
    takes the pair first, and no shifted entry reaches it, so the pair is I;
    at ``a11 = 1`` that K11 is singular, although J is not."""
    A = np.zeros((8, 8))
    A[0, 0] = -1.0
    A[1:3, 1:3] = [[a11, 1.0], [1.0, 1.0]]
    A[0, 1:3] = [1.0, 0.5]
    A[1:3, 0] = [0.5, 2.0]
    A[3:, 3:] = 0.5 + 4.5 * np.eye(5)
    A[0, 3:] = A[3:, 0] = 1.0
    return A


def hub_first(A):
    """A with its last row and column moved to the front."""
    p = np.r_[A.shape[0] - 1, np.arange(A.shape[0] - 1)]
    return A[np.ix_(p, p)]


def assert_solves(base, dense, ndyn, shifts, rhs, rtol=1e-12):
    """Direct and transposed solves of ``J - sE`` at each shift against dense ones."""
    E = np.diag((np.arange(dense.shape[0]) < ndyn).astype(float))
    for s in shifts:
        fac = factorize(shifted(base, s))
        A = dense - s * E
        for op, transposed in ((A, False), (A.T, True)):
            want = np.linalg.solve(op, rhs)
            assert_allclose(whole_solve(fac, rhs, transposed=transposed), want,
                            rtol=rtol, atol=rtol * np.abs(want).max())


class TestCondensation:
    def test_pole_at_the_origin(self):
        # a zero row makes J singular, a pole at s = 0; S0 is read off an LU
        # at another shift, so J still condenses and solves at s != 0
        J, n, rhs = mesh_system(0)
        dense = J.to_scipy().toarray()
        dense[0] = 0.0
        base = ordered(dense, n)
        assert base.schur.ni > 0
        assert_solves(base, dense, n, [MESH_SHIFT, -0.5, 1e-3j], rhs)
        with pytest.raises(SingularMatrixError):
            whole_solve(factorize(shifted(base, 0.0)), rhs)
        sys = DescriptorSystem(SparseMatrix.from_scipy(dense), n, rhs.real, rhs.imag)
        E = np.diag((np.arange(dense.shape[0]) < n).astype(float))
        h = descriptor.eval_transfer(sys, -0.5).value
        assert h == pytest.approx(rhs.imag @ np.linalg.solve(-0.5 * E - dense, rhs.real), rel=1e-12)

    @pytest.mark.parametrize(
        "dense, healthy, lus",
        # the ordering and K11's, which meets an exactly zero pivot
        [(pair_system(1.0), pair_system(2.0), 2),
         # the leaves' pivots 0.005 fall below 1% of the hub's entries: the
         # ordering, K11's, and the LU that S0 would be read from
         (hub_first(arrowhead(3, 0.005)), hub_first(arrowhead(3, 0.5)), 3)],
        ids=["singular-k11", "cross-partition-pivot"],
    )
    def test_falls_back_to_the_whole_matrix(self, monkeypatch, dense, healthy, lus):
        assert ordered(healthy, 1).schur.ni > 0
        calls = recorded_splu(monkeypatch)
        base = ordered(dense, 1)
        assert calls == [0.01] * lus
        # no K11 is kept
        assert base.schur.ni == 0 and base.schur.k11 is None
        assert_array_equal(base.csc.toarray(), in_order(base, dense))
        rhs = np.arange(1.0, dense.shape[0] + 1) + 0.5j
        assert_solves(base, dense, 1, [0.3 - 0.7j, 2.0], rhs)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_condensed_right_hand_side_serves_every_shift(self, transposed):
        # g = b_D - K21 K11^-1 b_I (K12^T K11^-T for the transpose), made
        # once: S(s)^-1 g is the D part of the whole solve at each shift
        J, n, rhs = mesh_system(2)
        base = ordered(J.to_scipy(), n)
        sc = base.schur
        assert sc.ni > 0
        g, z = sc.condense(rhs, transposed)
        assert z.shape == (sc.ni,)
        dense = J.to_scipy().toarray()
        E = np.diag((np.arange(dense.shape[0]) < n).astype(float))
        for s in (MESH_SHIFT, -0.5):
            A = dense - s * E
            want = np.linalg.solve(A.T if transposed else A, rhs)
            got = factorize(shifted(base, s)).solve(g, transposed=transposed)
            assert_allclose(got, want[sc.dnodes], rtol=1e-10, atol=1e-12 * np.abs(want).max())

    def test_one_splu_of_the_schur_order_per_shift(self, monkeypatch):
        J, n, rhs = mesh_system(1)
        sys = DescriptorSystem(J, n, rhs.real, rhs.imag)
        descriptor.normalized_vectors(sys, MESH_SHIFT)
        nd = sys.ordered_j.csc.shape[0]
        assert nd < sys.order
        orders = []
        splu = spla.splu

        def recorded(A, **kwargs):
            orders.append(A.shape)
            return splu(A, **kwargs)

        monkeypatch.setattr(sparsela.spla, "splu", recorded)
        shifts = [0.1 + 1.0j, -0.4 + 2.5j, -1.0, 0.2 - 0.3j]
        for s in shifts:
            descriptor.normalized_vectors(sys, s)
            descriptor.eval_transfer(sys, s)
        assert orders == [(nd, nd)] * (2 * len(shifts))


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
