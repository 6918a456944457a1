import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from dompole.descriptor import (
    DescriptorSystem,
    Manifest,
    ManifestError,
    StateSpaceSystem,
    VanishingNormalizerError,
    eval_transfer,
    load_manifest,
    load_system,
    normalized_vectors,
    reduce_to_state_space,
    save_manifest,
    validate,
)
from dompole.mmio import write_array, write_coordinate
from dompole.sparsela import SingularMatrixError, SparseMatrix, factorize, shifted
from whole import whole_solve


def toy_system():
    """One dynamic and one algebraic variable; reduces to A=[-1], b=c=[1], d=1."""
    J = SparseMatrix.from_scipy([[-1.0, 0.0], [0.0, 1.0]])
    return DescriptorSystem(J=J, ndyn=1, B=[1.0, 1.0], C=[1.0, -1.0], D=0.0)


def two_state_system():
    return DescriptorSystem.from_dense_state(np.diag([-1.0, -3.0]), [1, 1], [1, 1], 0)


def random_descriptor(rng, n, m, kappa_free=False):
    """Dense-ish random system with a diagonally dominant algebraic block."""
    N = n + m
    Jd = rng.standard_normal((N, N)) * (rng.random((N, N)) < 0.5)
    Jd[:n, :n] -= np.diag(rng.uniform(2.0, 4.0, n))
    Jd[n:, n:] = Jd[n:, n:] * 0.2 + np.diag(rng.uniform(1.5, 2.5, m) * rng.choice([-1, 1], m))
    B = rng.standard_normal(N)
    C = rng.standard_normal(N)
    if kappa_free and m:
        t = np.linalg.solve(Jd[n:, n:], B[n:])
        C[n:] -= (C[n:] @ t) / (t @ t) * t
    return DescriptorSystem(J=SparseMatrix.from_scipy(Jd), ndyn=n, B=B, C=C, D=0.25)


@pytest.mark.parametrize("name", ["B", "C"])
def test_all_zero_b_or_c_rejected(name):
    vectors = {"B": [1.0, 1.0], "C": [1.0, 1.0], name: [0.0, 0.0]}
    J = SparseMatrix.from_scipy(np.diag([-1.0, -3.0]))
    with pytest.raises(ValueError, match=f"^{name} is all zero"):
        DescriptorSystem(J=J, ndyn=2, **vectors)


@pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.inf)], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["J", "B", "C", "D"])
def test_non_finite_input_rejected(name, bad):
    # a NaN in J, B or C once surfaced in run as a singular shift that two
    # moves did not cure, and D = nan as a NaN h(s) with no error at all
    parts = {"J": np.diag([-1.0, -3.0]).astype(complex), "B": np.ones(2, complex),
             "C": np.ones(2, complex), "D": 0j}
    if name == "D":
        parts["D"] = bad
    else:
        parts[name].flat[1 if name == "J" else 0] = bad
    J = SparseMatrix.from_scipy(parts.pop("J"))
    with pytest.raises(ValueError, match=f"^{name} holds a value that is not finite"):
        DescriptorSystem(J=J, ndyn=2, **parts)


class TestValidate:
    def test_toy_report(self):
        rep = validate(toy_system())
        assert rep.order == 2 and rep.ndyn == 1
        assert rep.j4_nonsingular and rep.ok
        assert rep.block_nnz == {"J1": 1, "J2": 0, "J3": 0, "J4": 1}

    def test_empty_algebraic_block_is_valid(self):
        rep = validate(two_state_system())
        assert rep.n_algebraic == 0
        assert rep.j4_nonsingular

    def test_toy_density(self):
        assert validate(toy_system()).density_pct == pytest.approx(50.0)

    def test_density_arithmetic_at_scale(self):
        # order 13251 with 49150 stored entries is 0.028% dense
        N, k = 13251, np.arange(49150)
        J = SparseMatrix.from_scipy(
            sp.coo_matrix((-np.ones(k.size), (k % N, (k % N + k // N) % N)), shape=(N, N))
        )
        rep = validate(DescriptorSystem(J=J, ndyn=N, B=np.ones(N), C=np.ones(N)))
        assert rep.nnz == 49150
        assert round(rep.density_pct, 3) == 0.028
        # and that density implies the same entry count back
        assert rep.density_pct / 100 * N**2 == pytest.approx(49150)

    def test_empty_rows_and_columns_named(self):
        # row 2 (algebraic) and column 1 hold no nonzero; J[1, 1] is a stored zero
        J = SparseMatrix.from_scipy(sp.coo_matrix(
            ([-1.0, 1.0, 1.0, 1.0, 0.0], ([0, 1, 0, 1, 1], [0, 0, 2, 2, 1])), shape=(3, 3)
        ))
        assert J.to_scipy().nnz == 5
        rep = validate(DescriptorSystem(J=J, ndyn=1, B=[1, 0, 0], C=[1, 0, 0]))
        assert "empty rows of J (0-based): 2" in rep.notes
        assert "empty columns of J (0-based): 1" in rep.notes
        assert not rep.ok

    def test_structurally_singular_j_named(self):
        # no empty row or column, but rows 0 and 1 both hold only column 0
        J = SparseMatrix.from_scipy([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        rep = validate(DescriptorSystem(J=J, ndyn=3, B=[1, 0, 0], C=[1, 0, 0]))
        assert rep.notes == ["structural rank of J is 2 < 3"]
        assert not rep.ok

    def test_singular_algebraic_block_flagged(self):
        J = SparseMatrix.from_scipy([[-1.0, 1.0], [1.0, 0.0]])
        rep = validate(DescriptorSystem(J=J, ndyn=1, B=[1, 0], C=[1, 0]))
        assert not rep.j4_nonsingular
        assert any("singular" in note for note in rep.notes)

    def test_numerically_singular_algebraic_block_flagged(self):
        # J4's second pivot is 1.4e-17, the rounding left of 0.1 - 0.3^2 / 0.9:
        # SuperLU factors J4, and the one solve validate makes finds it
        # singular to working precision
        J = SparseMatrix.from_scipy([[-1.0, 1.0, 0.0], [1.0, 0.1, 0.3], [0.0, 0.3, 0.9]])
        sys = DescriptorSystem(J=J, ndyn=1, B=np.ones(3), C=np.ones(3))
        factorize(sys.j4)
        rep = validate(sys)
        assert not rep.j4_nonsingular
        assert any("singular to working precision" in note for note in rep.notes)
        assert sys.kappa == 0


class TestReduce:
    def test_toy_reduction(self):
        ss = reduce_to_state_space(toy_system())
        assert_allclose(ss.A, [[-1.0]])
        assert_allclose(ss.b, [1.0])
        assert_allclose(ss.c, [1.0])
        assert ss.d == pytest.approx(1.0)

    def test_full_dynamic_is_identity(self):
        sys = two_state_system()
        ss = reduce_to_state_space(sys)
        assert_allclose(ss.A, np.diag([-1.0, -3.0]))
        assert_allclose(ss.b, [1.0, 1.0])
        assert ss.d == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduction_matches_transfer(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_descriptor(rng, 12, 8)
        ss = reduce_to_state_space(sys)
        for s in rng.standard_normal(10) + 1j * rng.standard_normal(10):
            h_desc = eval_transfer(sys, s).value
            h_ss = ss.transfer(s)
            assert abs(h_desc - h_ss) <= 1e-10 * max(1.0, abs(h_ss))

    def test_singular_j4_raises(self):
        J = SparseMatrix.from_scipy([[-1.0, 1.0], [1.0, 0.0]])
        sys = DescriptorSystem(J=J, ndyn=1, B=[1, 0], C=[1, 0])
        with pytest.raises(SingularMatrixError):
            reduce_to_state_space(sys)

    def test_order_above_the_limit_is_refused(self, monkeypatch):
        import dompole.descriptor as descriptor

        monkeypatch.setattr(descriptor, "DENSE_REDUCTION_LIMIT", 1)
        with pytest.raises(ValueError, match="dense reduction limit 1"):
            reduce_to_state_space(toy_system())


class TestEvalTransfer:
    def test_toy_value(self):
        # (2E - J) = diag(3, -1): h(2) = 1/3 + 1
        assert eval_transfer(toy_system(), 2.0).value == pytest.approx(4.0 / 3.0)

    def test_high_frequency_tends_to_feedthrough(self):
        rng = np.random.default_rng(4)
        sys = random_descriptor(rng, 15, 5)
        d = reduce_to_state_space(sys).d
        assert abs(eval_transfer(sys, 1e8).value - d) <= 1e-6

    def test_state_space_convention(self):
        ss = StateSpaceSystem(np.diag([-1.0, -3.0]), [1, 1], [1, 1], 0)
        assert ss.transfer(-0.5) == pytest.approx(2.4)

    def test_pole_sample_raises(self):
        with pytest.raises(SingularMatrixError):
            eval_transfer(two_state_system(), -1.0)


class TestResolvent:
    # (A - sI)^-1 x is the dynamic part of the sparse solve of
    # (J - sE) (z; w) = (x; 0)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_dense_resolvent(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_descriptor(rng, 12, 8)
        ss = reduce_to_state_space(sys)
        s = 0.3 + 1.7j
        x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        z = whole_solve(factorize(shifted(sys.ordered_j, s)), np.r_[x, np.zeros(8)])[:12]
        z_ref = np.linalg.solve(ss.A - s * np.eye(12), x)
        assert_allclose(z, z_ref, rtol=1e-10, atol=1e-12)

    def test_eigenvalue_shift_raises(self):
        with pytest.raises(SingularMatrixError):
            factorize(shifted(two_state_system().ordered_j, -3.0))


class TestKappa:
    def test_toy_value(self):
        # C_a^T J4^-1 B_a = (-1)(1)/1; the toy reduces to d = D - kappa = 1
        assert toy_system().kappa == -1.0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_the_reduced_model(self, seed):
        sys = random_descriptor(np.random.default_rng(seed), 10, 6)
        kappa = sys.kappa
        assert abs(kappa) > 1e-2
        assert kappa == pytest.approx(sys.D - reduce_to_state_space(sys).d, rel=1e-10)

    def test_zero_without_algebraic_input_or_with_a_singular_j4(self):
        toy = toy_system()
        assert DescriptorSystem(toy.J, 1, [1.0, 0.0], toy.C).kappa == 0
        # the algebraic variable appears in no equation: J4 = [0]
        J = SparseMatrix.from_scipy([[-1.0, 1.0, 0.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
        assert DescriptorSystem(J, 2, np.ones(3), np.ones(3)).kappa == 0


class TestIsReal:
    @pytest.mark.parametrize("part", ["", "J", "B", "C"])
    def test_any_complex_part_makes_it_complex(self, part):
        toy = toy_system()
        J, B, C = toy.J.to_scipy(), toy.B, toy.C
        if part == "J":
            J = J + sp.diags([0.0, 1e-300j])
        elif part == "B":
            B = B + [0.0, 1e-300j]
        elif part == "C":
            C = C - [1e-300j, 0.0]
        sys = DescriptorSystem(SparseMatrix.from_scipy(J), 1, B, C)
        assert sys.is_real == (part == "")

    def test_cached_on_the_system(self, monkeypatch):
        sys = toy_system()
        assert sys.is_real
        monkeypatch.setattr(SparseMatrix, "to_scipy", lambda self: pytest.fail("J read again"))
        assert sys.is_real


class TestNormalizedVectors:
    def test_worked_first_shift(self):
        x, y, nu = normalized_vectors(two_state_system(), -0.5)
        assert nu == pytest.approx(-2.4)
        assert_allclose(x, [5.0 / 6.0, 1.0 / 6.0], rtol=1e-12)
        assert_allclose(y, x, rtol=1e-12)  # symmetric A with b = c

    def test_worked_second_shift(self):
        x, _, nu = normalized_vectors(two_state_system(), -2.5)
        assert nu == pytest.approx(-4.0 / 3.0)
        assert_allclose(x, [-0.5, 1.5], rtol=1e-12)

    def test_vanishing_normalizer(self):
        # b and c hit disjoint diagonal coordinates: c^T (A - sI)^-1 b = 0
        sys = DescriptorSystem.from_dense_state(np.diag([-1.0, -3.0]), [1, 0], [0, 1], 0)
        with pytest.raises(VanishingNormalizerError):
            normalized_vectors(sys, -0.5, min_normalizer=1e-8)

    def test_dynamic_block_matches_dense_form(self):
        # with C_a^T J4^-1 B_a = 0 the descriptor normalizer equals the dense one
        rng = np.random.default_rng(8)
        sys = random_descriptor(rng, 10, 6, kappa_free=True)
        ss = reduce_to_state_space(sys)
        s = -0.4 + 1.3j
        x, y, nu = normalized_vectors(sys, s)
        n = sys.ndyn
        eye = np.eye(n)
        vraw = np.linalg.solve(ss.A - s * eye, ss.b)
        nu_ref = ss.c @ vraw
        assert abs(nu - nu_ref) <= 1e-9 * abs(nu_ref)
        assert_allclose(x[:n], vraw / nu_ref, rtol=1e-9)
        assert_allclose(
            y[:n], np.linalg.solve((ss.A - s * eye).T, ss.c) / nu_ref, rtol=1e-9
        )


class TestManifest:
    def write_toy(self, tmp_path):
        write_coordinate(tmp_path / "J.mtx", SparseMatrix.from_scipy(np.diag([-1.0, -3.0])))
        write_array(tmp_path / "B.mtx", np.array([1.0, 1.0]))
        write_array(tmp_path / "C.mtx", np.array([1.0, 1.0]))
        text = "jacobian = J.mtx\nb = B.mtx\nc = C.mtx\nndyn = 2\nd_re = 0.0\nd_im = 0.0\n"
        (tmp_path / "toy.manifest").write_text(text)
        return tmp_path / "toy.manifest"

    def test_load_system(self, tmp_path):
        sys = load_system(self.write_toy(tmp_path))
        assert sys.order == 2 and sys.ndyn == 2
        assert_allclose(sys.J.to_scipy().toarray(), np.diag([-1.0, -3.0]))

    def test_save_load_roundtrip(self, tmp_path):
        man = Manifest(
            jacobian_path=tmp_path / "J.mtx",
            b_path=tmp_path / "B.mtx",
            c_path=tmp_path / "C.mtx",
            ndyn=2,
            d=0.5 - 0.25j,
        )
        save_manifest(tmp_path / "m.manifest", man)
        back = load_manifest(tmp_path / "m.manifest")
        assert back.ndyn == 2
        assert back.d == 0.5 - 0.25j
        assert back.jacobian_path == tmp_path / "J.mtx"

    def test_missing_key(self, tmp_path):
        (tmp_path / "bad.manifest").write_text("jacobian = J.mtx\n")
        with pytest.raises(ManifestError, match="missing keys"):
            load_manifest(tmp_path / "bad.manifest")

    def test_unknown_key(self, tmp_path):
        (tmp_path / "bad.manifest").write_text("frobnicate = 1\n")
        with pytest.raises(ManifestError, match="unknown key"):
            load_manifest(tmp_path / "bad.manifest")

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("ndyn = 5", "ndyn must lie in [1, 2], got 5"),
            ("jacobian = J23.mtx", "J must be square"),
            ("b = B1.mtx", "B and C must be vectors of length N"),
        ],
        ids=["ndyn", "non-square-J", "short-B"],
    )
    def test_inconsistent_ndyn(self, tmp_path, edit, message):
        path = self.write_toy(tmp_path)
        write_coordinate(tmp_path / "J23.mtx", np.array([[-1.0, 0.0, 1.0], [0.0, -3.0, 0.0]]))
        write_array(tmp_path / "B1.mtx", np.array([1.0]))
        # a later line overrides an earlier one with the same key
        path.write_text(path.read_text() + edit + "\n")
        with pytest.raises(ManifestError, match=re.escape(message)):
            load_system(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("ndyn = 2.5", "ndyn must be an integer, got '2.5'"),
            ("d_re = nan", "d_re must be a finite number, got 'nan'"),
            ("d_im = inf", "d_im must be a finite number, got 'inf'"),
            ("d_re = x", "d_re must be a finite number, got 'x'"),
        ],
        ids=["fractional-ndyn", "nan-d_re", "inf-d_im", "text-d_re"],
    )
    def test_bad_value_reported_with_its_line(self, tmp_path, edit, message):
        path = self.write_toy(tmp_path)
        path.write_text(path.read_text() + edit + "\n")
        with pytest.raises(ManifestError, match=re.escape(f"{path}:7: {message}")):
            load_manifest(path)

    @pytest.mark.parametrize("ndyn", [True, 2.5, np.float64(1.0)], ids=["bool", "float", "numpy-float"])
    def test_non_integer_ndyn_is_refused(self, tmp_path, ndyn):
        # such a count once failed only later, inside run, on a slice
        path = self.write_toy(tmp_path)
        man = dataclasses.replace(load_manifest(path), ndyn=ndyn)
        with pytest.raises(ManifestError, match=re.escape(f"ndyn must be an integer, got {ndyn!r}")):
            load_system(man)
        sys = load_system(dataclasses.replace(man, ndyn=np.int64(1)))
        assert type(sys.ndyn) is int and sys.ndyn == 1

    def test_non_finite_d_is_refused(self, tmp_path):
        man = dataclasses.replace(load_manifest(self.write_toy(tmp_path)), d=complex(np.nan))
        with pytest.raises(ManifestError, match="^D holds a value that is not finite"):
            load_system(man)

    def test_missing_data_file(self, tmp_path):
        path = self.write_toy(tmp_path)
        (tmp_path / "J.mtx").unlink()
        with pytest.raises(ManifestError, match="cannot load"):
            load_system(path)
