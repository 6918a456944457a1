import numpy as np
import pytest
from numpy.testing import assert_allclose

from dompole.descriptor import load_system, reduce_to_state_space
from dompole.generator import (
    GeneratorError,
    build_system,
    load_ground_truth,
    sample_spectrum,
    write_system,
)
from dompole.solver import match_shifts


class TestSampleSpectrum:
    def test_counts_and_conjugate_closure(self):
        rng = np.random.default_rng(0)
        spec = sample_spectrum(20, 6, (0.02, 0.2), rng)
        assert len(spec) == 20
        complexes = spec[spec.imag != 0]
        assert len(complexes) == 12
        for z in complexes:
            assert np.abs(complexes - z.conjugate()).min() <= 1e-12

    def test_damping_range_respected(self):
        rng = np.random.default_rng(1)
        spec = sample_spectrum(12, 6, (0.05, 0.15), rng)
        pairs = spec[spec.imag > 0]
        zeta = -pairs.real / np.abs(pairs)
        assert ((zeta >= 0.05) & (zeta <= 0.15)).all()

    def test_all_stable(self):
        rng = np.random.default_rng(2)
        spec = sample_spectrum(25, 5, (0.01, 0.3), rng)
        assert (spec.real < 0).all()

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            sample_spectrum(4, 3, (0.1, 0.2), np.random.default_rng(0))


class TestBuildSystem:
    def test_reproduces_worked_two_state_system(self):
        gen = build_system(
            np.array([-1.0, -3.0]), n_algebraic=0, rng=np.random.default_rng(0),
            b=np.ones(2), c=np.ones(2),
        )
        assert_allclose(gen.system.J.to_scipy().toarray(), np.diag([-1.0, -3.0]))
        assert_allclose(gen.system.B, [1.0, 1.0])
        assert_allclose(gen.system.C, [1.0, 1.0])
        assert_allclose(gen.truth.residues, [1.0, 1.0], atol=1e-12)

    def test_prescribed_spectrum_survives_reduction(self):
        rng = np.random.default_rng(5)
        spec = sample_spectrum(60, 10, (0.01, 0.3), rng)
        gen = build_system(spec, n_algebraic=40, density=0.1, rng=rng)
        ss = reduce_to_state_space(gen.system)
        w = np.linalg.eigvals(ss.A)
        matched = match_shifts(spec, w)
        assert np.abs(matched - spec).max() <= 1e-10

    def test_feedthrough_coupling_is_projected_out(self):
        rng = np.random.default_rng(6)
        spec = sample_spectrum(15, 3, (0.05, 0.3), rng)
        gen = build_system(spec, n_algebraic=10, density=0.2, rng=rng)
        n = gen.system.ndyn
        Jd = gen.system.J.to_scipy().toarray()
        kappa = gen.system.C[n:] @ np.linalg.solve(Jd[n:, n:], gen.system.B[n:])
        assert abs(kappa) <= 1e-12
        assert abs(reduce_to_state_space(gen.system).d) <= 1e-12

    def test_residue_floor_enforced(self):
        rng = np.random.default_rng(7)
        spec = sample_spectrum(10, 2, (0.05, 0.3), rng)
        gen = build_system(spec, n_algebraic=4, rng=rng, residue_floor=1e-6)
        assert np.abs(gen.truth.residues).min() > 1e-6

    def test_impossible_floor_exhausts_budget(self):
        rng = np.random.default_rng(8)
        spec = sample_spectrum(10, 2, (0.05, 0.3), rng)
        with pytest.raises(GeneratorError, match="residue floor"):
            build_system(spec, n_algebraic=4, rng=rng, residue_floor=1e12, max_resample=3)

    def test_truth_order_matches_prescription(self):
        rng = np.random.default_rng(9)
        spec = sample_spectrum(8, 2, (0.05, 0.3), rng)
        gen = build_system(spec, n_algebraic=0, rng=rng)
        assert_allclose(gen.truth.eigenvalues, spec)
        # residues of a conjugate pair are conjugates for a real system
        k = int(np.flatnonzero(spec.imag > 0)[0])
        mate = int(np.argmin(np.abs(spec - spec[k].conjugate())))
        assert gen.truth.residues[k] == pytest.approx(
            gen.truth.residues[mate].conjugate()
        )


class TestWriteSystem:
    def build(self, seed=11):
        rng = np.random.default_rng(seed)
        spec = sample_spectrum(12, 3, (0.05, 0.3), rng)
        return build_system(spec, n_algebraic=8, density=0.2, rng=rng, seed_record=seed)

    def test_round_trip(self, tmp_path):
        gen = self.build()
        manifest = write_system(gen, tmp_path, name="t")
        sys = load_system(manifest)
        assert_allclose(sys.J.to_scipy().toarray(), gen.system.J.to_scipy().toarray(), atol=0)
        assert_allclose(sys.B, gen.system.B, atol=0)
        assert_allclose(sys.C, gen.system.C, atol=0)
        truth = load_ground_truth(tmp_path / "t_truth.json")
        assert_allclose(truth.eigenvalues, gen.truth.eigenvalues, atol=0)
        assert truth.seed == 11

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_system(self.build(), a)
        write_system(self.build(), b)
        for name in ("system_J.mtx", "system_B.mtx", "system_C.mtx", "system_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
