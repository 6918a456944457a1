import numpy as np
import pytest
import scipy.io
from numpy.testing import assert_allclose

from dompole.mmio import (
    MatrixMarketError,
    read_matrix_market,
    read_vector,
    write_array,
    write_coordinate,
)
from dompole.sparsela import SparseMatrix

TOY_COORD = """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 -1.0
2 2 1.0
"""

TOY_ARRAY = """%%MatrixMarket matrix array real general
2 1
1.0
1.0
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_read_coordinate_toy(tmp_path):
    m = read_matrix_market(write(tmp_path, "j.mtx", TOY_COORD))
    assert m.nnz == 2
    assert_allclose(m.to_dense(), np.diag([-1.0, 1.0]))


def test_read_array_column(tmp_path):
    m = read_matrix_market(write(tmp_path, "b.mtx", TOY_ARRAY))
    assert (m.nrows, m.ncols) == (2, 1)
    assert m.nnz == 2
    assert_allclose(m.to_dense()[:, 0], [1.0, 1.0])


def test_entry_count_mismatch(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 2.0\n"
    with pytest.raises(MatrixMarketError, match="entry count mismatch"):
        read_matrix_market(write(tmp_path, "bad.mtx", text))


def test_too_many_entries(tmp_path):
    text = (
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n"
        "1 1 1.0\n2 2 2.0\n"
    )
    with pytest.raises(MatrixMarketError, match="entry count mismatch"):
        read_matrix_market(write(tmp_path, "bad.mtx", text))


def test_parse_error_carries_line_number(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 oops\n"
    with pytest.raises(MatrixMarketError, match=":4"):
        read_matrix_market(write(tmp_path, "bad.mtx", text))


@pytest.mark.parametrize(
    "text, line",
    [
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n", 4),
        ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 1.0 -inf\n", 3),
        ("%%MatrixMarket matrix array real general\n2 1\n% note\ninf\n1.0\n", 4),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0\n1e999\n", 4),
    ],
)
def test_non_finite_value_rejected(tmp_path, text, line):
    path = write(tmp_path, "bad.mtx", text)
    with pytest.raises(MatrixMarketError, match="non-finite") as info:
        read_matrix_market(path)
    assert info.value.line == line
    assert str(info.value).startswith(f"{path}:{line}:")


def test_index_out_of_range(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
    with pytest.raises(MatrixMarketError, match="outside"):
        read_matrix_market(write(tmp_path, "bad.mtx", text))


def test_symmetric_coordinate_expansion(tmp_path):
    text = (
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n"
        "1 1 2.0\n2 1 -1.0\n3 3 4.0\n"
    )
    m = read_matrix_market(write(tmp_path, "s.mtx", text))
    dense = m.to_dense()
    assert_allclose(dense, dense.T)
    assert dense[0, 1] == -1.0
    assert m.nnz == 4


def test_symmetric_array(tmp_path):
    # lower triangle, column-major: (1,1) (2,1) (2,2)
    text = "%%MatrixMarket matrix array real symmetric\n2 2\n2.0\n-1.0\n3.0\n"
    m = read_matrix_market(write(tmp_path, "s.mtx", text))
    assert_allclose(m.to_dense(), [[2.0, -1.0], [-1.0, 3.0]])


def test_complex_coordinate(tmp_path):
    text = "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.0 -2.0\n2 1 0.5 0.25\n"
    m = read_matrix_market(write(tmp_path, "c.mtx", text))
    dense = m.to_dense()
    assert dense[0, 0] == 1.0 - 2.0j
    assert dense[1, 0] == 0.5 + 0.25j


def test_comments_and_blank_lines_skipped(tmp_path):
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n\n2 2 1\n% another\n1 2 7.0\n\n"
    )
    m = read_matrix_market(write(tmp_path, "c.mtx", text))
    assert m.to_dense()[0, 1] == 7.0


def test_unsupported_header(tmp_path):
    text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n"
    with pytest.raises(MatrixMarketError, match="unsupported field"):
        read_matrix_market(write(tmp_path, "p.mtx", text))


def test_read_vector_requires_vector_shape(tmp_path):
    with pytest.raises(MatrixMarketError, match="expected a vector"):
        read_vector(write(tmp_path, "m.mtx", TOY_COORD))
    v = read_vector(write(tmp_path, "b.mtx", TOY_ARRAY))
    assert_allclose(v, [1.0, 1.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coordinate_roundtrip_matches_scipy(tmp_path, seed):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((7, 5)) < 0.4, rng.standard_normal((7, 5)), 0.0)
    m = SparseMatrix.from_dense(dense)
    path = tmp_path / "m.mtx"
    write_coordinate(path, m)
    back = read_matrix_market(path)
    assert_allclose(back.to_dense(), dense, atol=0)
    assert_allclose(np.asarray(scipy.io.mmread(path).todense()), dense, atol=0)


def test_complex_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dense[rng.random((4, 4)) < 0.5] = 0.0
    path = tmp_path / "c.mtx"
    write_coordinate(path, SparseMatrix.from_dense(dense))
    assert_allclose(read_matrix_market(path).to_dense(), dense, atol=0)


def test_array_roundtrip_vector(tmp_path):
    v = np.array([0.125, -3.5, 0.0, 2.0**-40])
    path = tmp_path / "v.mtx"
    write_array(path, v)
    assert_allclose(read_vector(path), v, atol=0)


def test_writes_are_deterministic(tmp_path):
    rng = np.random.default_rng(11)
    dense = np.where(rng.random((6, 6)) < 0.3, rng.standard_normal((6, 6)), 0.0)
    m = SparseMatrix.from_dense(dense)
    p1 = tmp_path / "a.mtx"
    p2 = tmp_path / "b.mtx"
    write_coordinate(p1, m)
    write_coordinate(p2, m)
    assert p1.read_bytes() == p2.read_bytes()
