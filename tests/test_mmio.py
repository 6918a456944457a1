import io
import re
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse
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
    assert m.to_scipy().nnz == 2
    assert_allclose(m.to_scipy().toarray(), np.diag([-1.0, 1.0]))


def test_read_array_column(tmp_path):
    m = read_matrix_market(write(tmp_path, "b.mtx", TOY_ARRAY))
    assert m.to_scipy().shape == (2, 1)
    assert m.to_scipy().nnz == 2
    assert_allclose(m.to_scipy().toarray()[:, 0], [1.0, 1.0])


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


CR = "%%MatrixMarket matrix coordinate real general\n"
LONG = CR + "1000 1 1000\n" + "".join(f"{k} 1 1.0\n" for k in range(1, 1001))


@pytest.mark.parametrize(
    "text, line, message",
    [
        # a non-integer index
        (CR + "2 2 1\n1.0 1 1.0\n", 3, "non-integer coordinate index"),
        (CR + "2 2 2\n1 1 1.0\n% note\n1 1e0 1.0\n", 5, "non-integer coordinate index"),
        # an integer index past int64
        (CR + "2 2 1\n% note\n99999999999999999999 1 1.0\n", 4,
         "index (99999999999999999999, 1) outside 2x2"),
        # an extra or a missing field
        (CR + "2 2 1\n1 1 1.0 2.0\n", 3, "expected fields 'i j re', found '1 1 1.0 2.0'"),
        (CR + "2 2 2\n1 1 1.0\n2 2\n", 4, "expected fields 'i j re', found '2 2'"),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0 2.0\n1.0\n", 3,
         "expected fields 're', found '1.0 2.0'"),
        # a complex entry with one value
        ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0\n", 3,
         "expected fields 'i j re im', found '1 1 1.0'"),
        ("%%MatrixMarket matrix array complex general\n1 1\n\n1.0\n", 4,
         "expected fields 're im', found '1.0'"),
        # a value that is not a number
        (CR + "2 2 1\n1 1 1_0\n", 3, "cannot parse real value from '1_0'"),
        # a size line of the wrong width
        (CR + "% note\n2 2\n1 1 1.0\n", 3, "size line must be 'nrows ncols nnz'"),
        ("%%MatrixMarket matrix array real general\n2 1 2\n1.0\n1.0\n", 2,
         "size line must be 'nrows ncols'"),
        # a symmetric matrix that is not square
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", 2,
         "symmetric matrix must be square"),
        ("%%MatrixMarket matrix array real symmetric\n3 2\n1.0\n", 2,
         "symmetric matrix must be square"),
        # a symmetric entry above the diagonal, whose mirror image would add
        # to the entry stored below it
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n2 1 5.0\n1 2 5.0\n",
         5, "symmetric entry (1, 2) above the diagonal"),
        # two faults in one file: the earlier line is reported
        (CR + "2 2 2\n3 1 1.0\n1 1 nan\n", 3, "outside 2x2"),
        (CR + "2 2 2\n1 1 nan\n3 1 1.0\n", 3, "non-finite value 'nan'"),
        (CR + "2 2 2\n3 1 1.0\n1 1 oops\n", 3, "outside 2x2"),
        (CR + "2 2 2\n1 1 inf\n1.0 1 1.0\n", 3, "non-finite value 'inf'"),
        (CR + "2 2 1\n1 1 1.0\n2 2 2.0\n1 x 1.0\n", 4, "entry count mismatch"),
        # faults past the first few hundred lines
        pytest.param(LONG.replace("\n700 1 1.0\n", "\n700 1 x\n"), 702,
                     "cannot parse real value from 'x'", id="long-parse-fault"),
        pytest.param(LONG.replace("\n700 1 1.0\n", "\n700 1 x\n").replace("\n300 1 ", "\n300 2 "),
                     302, "index (300, 2) outside 1000x1", id="long-range-then-parse-fault"),
    ],
)
def test_malformed_entry_rejected(tmp_path, text, line, message):
    path = write(tmp_path, "bad.mtx", text)
    with pytest.raises(MatrixMarketError, match=re.escape(message)) as info:
        read_matrix_market(path)
    assert info.value.line == line
    assert str(info.value).startswith(f"{path}:{line}:")


def test_integer_read_through_a_float_is_rejected(tmp_path, monkeypatch):
    real_loadtxt = np.loadtxt

    def old_loadtxt(fh, **kwargs):
        # an older numpy reads "1.0" into an integer column and only warns
        text = fh.getvalue()
        if "1.0 1 " in text:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            fh = io.StringIO(text.replace("1.0 1 ", "1 1 "))
        return real_loadtxt(fh, **kwargs)

    monkeypatch.setattr(np, "loadtxt", old_loadtxt)
    path = write(tmp_path, "bad.mtx", CR + "2 2 2\n2 2 2.0\n1.0 1 1.0\n")
    with pytest.raises(MatrixMarketError, match=":4: non-integer coordinate index"):
        read_matrix_market(path)


def test_symmetric_complex_array(tmp_path):
    text = (
        "%%MatrixMarket matrix array complex symmetric\n2 2\n"
        "1.0 0.5\n2.0 -1.0\n3.0 0.0\n"
    )
    m = read_matrix_market(write(tmp_path, "s.mtx", text))
    assert_allclose(m.to_scipy().toarray(), [[1 + 0.5j, 2 - 1j], [2 - 1j, 3]], atol=0)


def test_tabs_and_crlf(tmp_path):
    path = tmp_path / "crlf.mtx"
    path.write_bytes(
        b"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n"
        b"1\t1\t1.5\r\n% note\r\n2 \t2  -2.0\r\n"
    )
    assert_allclose(read_matrix_market(path).to_scipy().toarray(), np.diag([1.5, -2.0]), atol=0)


def test_trailing_comment_after_entry(tmp_path):
    m = read_matrix_market(write(tmp_path, "c.mtx", CR + "2 2 1\n1 2 7.0 % note\n"))
    assert m.to_scipy().toarray()[0, 1] == 7.0


def test_trailing_comment_after_size_line(tmp_path):
    m = read_matrix_market(write(tmp_path, "c.mtx", CR + "2 2 1 % c\n1 2 7.0\n"))
    assert m.to_scipy().shape == (2, 2)
    assert m.to_scipy().toarray()[0, 1] == 7.0


def test_array_zeros_not_stored(tmp_path):
    text = "%%MatrixMarket matrix array real general\n3 2\n0.0\n2.0\n0.0\n-0.0\n0\n4.0\n"
    m = read_matrix_market(write(tmp_path, "z.mtx", text))
    assert m.to_scipy().nnz == 2
    assert_allclose(m.to_scipy().toarray(), [[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]], atol=0)


@pytest.mark.parametrize(
    "text",
    [
        CR + "2 2 0\n% no entries\n",
        "%%MatrixMarket matrix array real general\n0 3\n",
        "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 -2.0\n",
    ],
)
def test_read_emits_no_warnings(tmp_path, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read_matrix_market(write(tmp_path, "w.mtx", text))


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
    dense = m.to_scipy().toarray()
    assert_allclose(dense, dense.T)
    assert dense[0, 1] == -1.0
    assert m.to_scipy().nnz == 4


def test_symmetric_array(tmp_path):
    # lower triangle, column-major: (1,1) (2,1) (2,2)
    text = "%%MatrixMarket matrix array real symmetric\n2 2\n2.0\n-1.0\n3.0\n"
    m = read_matrix_market(write(tmp_path, "s.mtx", text))
    assert_allclose(m.to_scipy().toarray(), [[2.0, -1.0], [-1.0, 3.0]])


def test_complex_coordinate(tmp_path):
    text = "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.0 -2.0\n2 1 0.5 0.25\n"
    m = read_matrix_market(write(tmp_path, "c.mtx", text))
    dense = m.to_scipy().toarray()
    assert dense[0, 0] == 1.0 - 2.0j
    assert dense[1, 0] == 0.5 + 0.25j


def test_comments_and_blank_lines_skipped(tmp_path):
    text = (
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n\n2 2 1\n% another\n1 2 7.0\n\n"
    )
    m = read_matrix_market(write(tmp_path, "c.mtx", text))
    assert m.to_scipy().toarray()[0, 1] == 7.0


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
    m = SparseMatrix.from_scipy(dense)
    path = tmp_path / "m.mtx"
    write_coordinate(path, m)
    back = read_matrix_market(path)
    assert_allclose(back.to_scipy().toarray(), dense, atol=0)
    assert_allclose(np.asarray(scipy.io.mmread(path).todense()), dense, atol=0)


@pytest.mark.parametrize("fmt", ["coordinate", "array"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
def test_scipy_written_file_matches_scipy_read(tmp_path, fmt, dtype, symmetry):
    # scipy's writer and reader are the reference for entry placement
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((6, 6)).astype(dtype)
    if dtype is complex:
        dense += 1j * rng.standard_normal((6, 6))
    dense[rng.random((6, 6)) < 0.5] = 0.0
    if symmetry == "symmetric":
        dense = np.tril(dense) + np.tril(dense, -1).T
    else:
        dense = dense[:, :4]
    path = tmp_path / "ref.mtx"
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(dense) if fmt == "coordinate" else dense,
                     symmetry=symmetry)
    assert path.read_text().split()[2:5] == [fmt, dtype.__name__.replace("float", "real"),
                                             symmetry]
    ref = scipy.io.mmread(path)
    ref = ref.toarray() if scipy.sparse.issparse(ref) else ref
    m = read_matrix_market(path)
    assert_allclose(m.to_scipy().toarray(), ref, atol=0)
    assert m.to_scipy().nnz == np.count_nonzero(dense)


def test_complex_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dense[rng.random((4, 4)) < 0.5] = 0.0
    path = tmp_path / "c.mtx"
    write_coordinate(path, SparseMatrix.from_scipy(dense))
    assert_allclose(read_matrix_market(path).to_scipy().toarray(), dense, atol=0)


def test_array_roundtrip_vector(tmp_path):
    v = np.array([0.125, -3.5, 0.0, 2.0**-40])
    path = tmp_path / "v.mtx"
    write_array(path, v)
    assert_allclose(read_vector(path), v, atol=0)


def test_writes_are_deterministic(tmp_path):
    rng = np.random.default_rng(11)
    dense = np.where(rng.random((6, 6)) < 0.3, rng.standard_normal((6, 6)), 0.0)
    m = SparseMatrix.from_scipy(dense)
    p1 = tmp_path / "a.mtx"
    p2 = tmp_path / "b.mtx"
    write_coordinate(p1, m)
    write_coordinate(p2, m)
    assert p1.read_bytes() == p2.read_bytes()
