"""Property tests: the solver's sweeps against the dense oracle on drawn
systems. Examples are derandomized and few, so the suite stays
deterministic and fast."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dompole.generator import build_system, sample_spectrum  # noqa: E402
from dompole.oracle import reference_F  # noqa: E402
from dompole.solver import (  # noqa: E402
    ShiftState,
    ddpse_step,
    dpse_step,
    match_shifts,
    refresh_columns,
)

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


@PROPERTY
@given(gen=systems(), data=st.data())
def test_dpse_step_is_the_eigenvalues_of_the_dense_F(gen, data):
    # grid points 0.3 apart across the box of the spectrum, none on a mode
    n = gen.system.ndyn
    p = data.draw(st.integers(1, min(4, n)), label="p")
    grid = [complex(-6.45 + 0.3 * i, -4.45 + 0.3 * k) for i in range(21) for k in range(31)]
    shifts = np.array(data.draw(st.lists(st.sampled_from(grid), min_size=p, max_size=p, unique=True)))
    assume(np.abs(shifts[:, None] - gen.truth.eigenvalues[None, :]).min() > 0.05)
    state = prepared_state(gen, shifts)
    new = dpse_step(gen.system, state)
    F = reference_F(gen.state_space, shifts)
    want = match_shifts(shifts, np.linalg.eigvals(F))
    # both routes are backward stable, so they agree to about eps * cond(W^T V)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(new - want).max() <= 1e-13 * max(1.0, state.cond) * scale


@PROPERTY
@given(gen=systems(), data=st.data(), method=st.sampled_from([dpse_step, ddpse_step]))
def test_distinct_eigenvalues_are_a_fixed_point(gen, data, method):
    spec = gen.truth.eigenvalues
    idx = data.draw(st.lists(st.integers(0, len(spec) - 1), min_size=1, max_size=4, unique=True))
    shifts = spec[idx]
    state = prepared_state(gen, shifts)
    new = method(gen.system, state)
    assert np.abs(new - shifts).max() <= 1e-8 * max(1.0, float(np.abs(shifts).max()))
