import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dompole.descriptor import StateSpaceSystem
from dompole.oracle import (
    full_spectrum,
    modal_reconstruct,
    reference_F,
    reference_sequence,
    residues,
)
from dompole.solver import dominance, dominance_sort_key, match_shifts
from dompole.sparsela import SingularMatrixError

from grid_tables import GRID_POLES_A, GRID_POLES_B

WORKED_F = np.array([[-1.125, -1.125], [-5.0 / 24.0, -2.875]])


def diag_system():
    return StateSpaceSystem(np.diag([-1.0, -3.0]), [1, 1], [1, 1], 0)


def random_system(rng, n):
    a = rng.standard_normal((n, n))
    a -= np.diag(np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, n))
    return StateSpaceSystem(a, rng.standard_normal(n), rng.standard_normal(n), 0.0)


class TestFullSpectrum:
    def test_diagonal(self):
        dec = full_spectrum(diag_system())
        assert_allclose(np.sort_complex(dec.eigenvalues), [-3.0, -1.0])
        assert_allclose(np.abs(dec.P), np.eye(2), atol=1e-12)

    def test_companion(self):
        ss = StateSpaceSystem([[0.0, 1.0], [-2.0, -3.0]], [0, 1], [1, 0], 0)
        dec = full_spectrum(ss)
        assert_allclose(np.sort_complex(dec.eigenvalues), [-2.0, -1.0], atol=1e-12)

    def test_recovers_diagonal_under_similarity(self):
        rng = np.random.default_rng(1)
        target = np.array([-1.0, -2.5, -4.0, -7.0])
        P = rng.standard_normal((4, 4)) + np.eye(4) * 2
        A = P @ np.diag(target) @ np.linalg.inv(P)
        dec = full_spectrum(StateSpaceSystem(A, np.ones(4), np.ones(4), 0))
        assert_allclose(np.sort(dec.eigenvalues.real), target[::-1].sort() or np.sort(target), atol=1e-8)

    def test_inverse_is_consistent(self):
        rng = np.random.default_rng(2)
        ss = random_system(rng, 10)
        dec = full_spectrum(ss)
        assert np.linalg.norm(dec.P @ dec.Pinv - np.eye(10)) <= 1e-8

    def test_near_defective_warns(self):
        # eigenvector basis condition ~1e9: ill enough to warn, still solvable
        P = np.array([[1.0, 1.0], [0.0, 1e-9]])
        A = P @ np.diag([1.0, 2.0]) @ np.linalg.inv(P)
        with pytest.warns(RuntimeWarning, match="defective"):
            full_spectrum(StateSpaceSystem(A, [1, 1], [1, 1], 0))


class TestResidues:
    def test_diagonal_unit_residues(self):
        table = residues(diag_system())
        assert_allclose(table.eigenvalues, [-1.0, -3.0])
        assert_allclose(table.residues, [1.0, 1.0], atol=1e-12)
        assert_allclose(table.dominances, [1.0, 1.0 / 3.0])

    def test_orthogonal_probes_flagged(self):
        ss = StateSpaceSystem(np.diag([-1.0, -3.0]), [1, 0], [0, 1], 0)
        table = residues(ss)
        assert_allclose(table.residues, [0.0, 0.0], atol=1e-15)
        assert table.deficient.all()

    def test_toy_reduction_residue(self):
        table = residues(StateSpaceSystem([[-1.0]], [1.0], [1.0], 1.0))
        assert_allclose(table.residues, [1.0])
        assert_allclose(table.dominances, [1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completeness(self, seed):
        rng = np.random.default_rng(seed)
        ss = random_system(rng, 30)
        table = residues(ss)
        total = table.residues.sum()
        expected = ss.c @ ss.b
        assert abs(total - expected) <= 1e-8 * max(1.0, abs(expected))


class TestModalReconstruct:
    def test_worked_sum(self):
        table = residues(diag_system())
        assert modal_reconstruct(table, 0.0, -0.5, 2) == pytest.approx(2.4)

    def test_zero_terms_returns_feedthrough(self):
        table = residues(diag_system())
        assert modal_reconstruct(table, 0.75, -0.5, 0) == 0.75

    @pytest.mark.parametrize("seed", range(5))
    def test_full_sum_equals_transfer(self, seed):
        rng = np.random.default_rng(seed)
        ss = random_system(rng, 12)
        table = residues(ss)
        for s in rng.standard_normal(20) + 1j * rng.standard_normal(20):
            h = ss.transfer(s)
            approx = modal_reconstruct(table, ss.d, s, len(table))
            assert abs(approx - h) <= 1e-8 * max(1.0, abs(h))

    def test_sample_at_pole_rejected(self):
        table = residues(diag_system())
        with pytest.raises(ValueError, match="pole"):
            modal_reconstruct(table, 0.0, -1.0, 2)


class TestReferenceF:
    def test_worked_example(self):
        F = reference_F(diag_system(), [-0.5, -2.5])
        assert_allclose(F, WORKED_F, atol=1e-9)

    def test_near_eigenvalue_continuity(self):
        ss = diag_system()
        S = np.array([-1.0, -3.0]) + 1e-8
        F = reference_F(ss, S)
        assert np.abs(F - np.diag([-1.0, -3.0])).max() <= 1e-6
        # Y^T X approaches diag(1 / R_k) = I here
        from dompole.oracle import normalized_blocks

        V, W, _ = normalized_blocks(ss, S)
        assert np.abs(W.T @ V - np.eye(2)).max() <= 1e-6

    def test_duplicate_shifts_singular(self):
        with pytest.raises(SingularMatrixError):
            reference_F(diag_system(), [-0.5, -0.5])

    def test_p_equals_n_similarity(self):
        rng = np.random.default_rng(9)
        ss = random_system(rng, 5)
        w_true = np.sort_complex(np.linalg.eigvals(ss.A))
        # generic well-spread shifts keep the resolvent basis well conditioned
        S = w_true + 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        w_f = np.sort_complex(np.linalg.eigvals(reference_F(ss, S)))
        assert_allclose(w_f, w_true, atol=1e-8 * np.abs(w_true).max())


class TestReferenceSequence:
    def test_converges_to_spectrum(self):
        # p = n, so a single sweep already returns the exact spectrum
        ss = diag_system()
        seq = reference_sequence(ss, [-0.8, -2.6], "dpse", 1)
        assert_allclose(np.sort_complex(seq[-1]), [-3.0, -1.0], atol=1e-9)

    def test_ddpse_first_step_is_diag_f(self):
        ss = diag_system()
        seq = reference_sequence(ss, [-0.5, -2.5], "ddpse", 1)
        assert_allclose(seq[1], [-1.125, -2.875], atol=1e-12)


def ranked(poles):
    """(eigenvalue, dominance) pairs, most dominant first."""
    return sorted(poles, key=lambda pole: dominance_sort_key(*pole))


class TestRanking:
    def test_grid_table_a_top_pair(self):
        top = ranked([(complex(re, im), m) for re, im, m in GRID_POLES_A])
        assert top[0][0] == pytest.approx(complex(-0.0335, -1.0787))
        assert top[0][1] == pytest.approx(760.15)
        top2 = {z for z, _ in top[:2]}
        assert top2 == {complex(-0.0335, -1.0787), complex(-0.0335, 1.0787)}

    def test_grid_table_b_top_pair(self):
        top = ranked([(complex(re, im), m) for re, im, m in GRID_POLES_B])
        top2 = {z for z, _ in top[:2]}
        assert top2 == {complex(-0.0335, -1.0787), complex(-0.0335, 1.0787)}

    def test_single_pole(self):
        assert ranked([(-1.0 + 0j, 2.0)]) == [(-1.0 + 0j, 2.0)]

    def test_simple_order(self):
        top = ranked([(-3.0 + 0j, 1.0 / 3.0), (-1.0 + 0j, 1.0)])
        assert [z for z, _ in top] == [-1.0 + 0j, -3.0 + 0j]

    def test_infinity_first(self):
        top = ranked([(-1.0 + 0j, 500.0), (1j, math.inf)])
        assert top[0][0] == 1j

    def test_ties_break_by_abs_imag_then_real_descending(self):
        top = ranked([(-1.0 + 2j, 5.0), (-2.0 - 1j, 5.0), (-1.0 - 1j, 5.0), (-3.0 + 0j, 5.0)])
        assert [z for z, _ in top] == [-3.0 + 0j, -1.0 - 1j, -2.0 - 1j, -1.0 + 2j]


class TestDominance:
    def test_grid_top_pole_measure(self):
        # |R| = 760.11 * 0.0335 reproduces the tabulated measure
        lam = complex(-0.0335, 1.0787)
        assert dominance(760.11 * 0.0335, lam) == pytest.approx(760.11)

    def test_unit(self):
        assert dominance(1.0, -1.0 + 0j) == 1.0

    def test_imaginary_pole_is_infinite(self):
        assert math.isinf(dominance(1.0, 1j))
        assert math.isinf(dominance(1.0, -1j))


def test_match_shifts_helper_used_by_sequences():
    out = match_shifts(np.array([-1.0, -3.0]), np.array([-3.01, -0.99]))
    assert_allclose(out, [-0.99, -3.01])
