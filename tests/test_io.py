"""Matrix Market I/O tests."""

import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    SymmetricCSC,
    grid_laplacian,
    random_spd,
    read_matrix_market,
    write_matrix_market,
)


def roundtrip(A, **kwargs):
    buf = io.StringIO()
    write_matrix_market(buf, A, **kwargs)
    buf.seek(0)
    return read_matrix_market(buf)


class TestRoundtrip:
    def test_grid(self, small_grid):
        B = roundtrip(small_grid)
        assert B.n == small_grid.n
        assert np.array_equal(B.indices, small_grid.indices)
        assert np.allclose(B.data, small_grid.data)

    def test_random(self):
        A = random_spd(30, density=0.2, seed=4)
        B = roundtrip(A)
        assert np.allclose(B.to_dense(), A.to_dense())

    def test_comment_preserved_structurally(self):
        A = random_spd(5, seed=0)
        buf = io.StringIO()
        write_matrix_market(buf, A, comment="hello\nworld")
        text = buf.getvalue()
        assert "% hello" in text and "% world" in text
        buf.seek(0)
        B = read_matrix_market(buf)
        assert np.allclose(B.to_dense(), A.to_dense())

    def test_gzip_file(self, tmp_path):
        A = random_spd(20, seed=1)
        path = tmp_path / "m.mtx.gz"
        write_matrix_market(str(path), A)
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith("%%MatrixMarket")
        B = read_matrix_market(str(path))
        assert np.allclose(B.to_dense(), A.to_dense())

    def test_plain_file(self, tmp_path):
        A = grid_laplacian((4, 4))
        path = tmp_path / "m.mtx"
        write_matrix_market(str(path), A)
        B = read_matrix_market(str(path))
        assert np.allclose(B.to_dense(), A.to_dense())

    def test_values_exact_to_double_precision(self):
        vals = np.array([1 / 3, np.pi, 1e-300, 2.5e300, -np.e])
        A = SymmetricCSC(5, np.arange(6), np.arange(5), vals)
        assert np.array_equal(roundtrip(A).data, vals)

    @given(st.integers(min_value=1, max_value=30), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_roundtrip(self, n, seed):
        A = random_spd(n, density=0.2, seed=seed % 97)
        B = roundtrip(A)
        assert B.n == A.n
        assert np.array_equal(B.indptr, A.indptr)
        assert np.array_equal(B.indices, A.indices)
        assert np.array_equal(B.data, A.data)


def read_text(text):
    return read_matrix_market(io.StringIO(text))


class TestReadFormats:
    def test_pattern(self):
        text = """%%MatrixMarket matrix coordinate pattern symmetric
3 3 4
1 1
2 1
2 2
3 3
"""
        A = read_matrix_market(io.StringIO(text))
        assert A.nnz_lower == 4
        assert np.all(A.data == 1.0)

    def test_integer(self):
        text = """%%MatrixMarket matrix coordinate integer symmetric
2 2 3
1 1 4
2 1 -1
2 2 4
"""
        A = read_matrix_market(io.StringIO(text))
        assert A.to_dense()[1, 0] == -1.0

    def test_upper_triangle_entries_accepted(self):
        text = """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 4.0
1 2 -1.0
2 2 4.0
"""
        A = read_matrix_market(io.StringIO(text))
        assert A.to_dense()[1, 0] == -1.0

    def test_unsorted_entries_get_sorted(self):
        A = read_text("""%%MatrixMarket matrix coordinate real symmetric
3 3 5
3 3 6.0
3 1 -2.0
1 1 4.0
2 2 5.0
2 1 -1.0
""")
        assert np.array_equal(A.indptr, [0, 3, 4, 5])
        assert np.array_equal(A.indices, [0, 1, 2, 1, 2])
        assert np.array_equal(A.data, [4.0, -1.0, -2.0, 5.0, 6.0])

    def test_duplicates_are_summed(self):
        # the Matrix Market assembly convention
        A = read_text("""%%MatrixMarket matrix coordinate real symmetric
2 2 4
1 1 1.5
2 1 -1.0
1 1 2.5
2 2 3.0
""")
        assert np.array_equal(A.to_dense(), [[4.0, -1.0], [-1.0, 3.0]])

    def test_both_triangles_count_once(self):
        A = read_text("""%%MatrixMarket matrix coordinate real symmetric
2 2 4
1 1 4.0
2 1 -1.0
1 2 -1.0
2 2 4.0
""")
        assert A.nnz_lower == 3
        assert A.to_dense()[1, 0] == -1.0

    def test_qualifiers_case_insensitive_and_exponents(self):
        A = read_text("""%%MatrixMarket MATRIX Coordinate Real Symmetric
2 2 3
1 1 1.5E+01
2 1 -2.5e-3
2 2 7
""")
        assert np.array_equal(A.to_dense(), [[15.0, -2.5e-3], [-2.5e-3, 7.0]])

    def test_comment_lines_before_size_line(self):
        A = read_text("""%%MatrixMarket matrix coordinate real symmetric
% first
%
% third
1 1 1
1 1 2.0
""")
        assert A.n == 1 and A.data[0] == 2.0

    def test_positive_definite_symmetry_qualifier(self):
        banner = ("%%MatrixMarket matrix coordinate real "
                  "symmetric-positive-definite")
        A = read_text(f"{banner}\n1 1 1\n1 1 2.0\n")
        assert A.n == 1 and A.data[0] == 2.0


class TestReadErrors:
    def make(self, header="%%MatrixMarket matrix coordinate real symmetric",
             size="2 2 1", body="1 1 1.0"):
        return io.StringIO(f"{header}\n{size}\n{body}\n")

    def test_not_mm(self):
        with pytest.raises(ValueError, match="not a MatrixMarket"):
            read_matrix_market(io.StringIO("garbage\n"))

    def test_general_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            read_matrix_market(self.make(
                "%%MatrixMarket matrix coordinate real general"))

    def test_array_format_rejected(self):
        with pytest.raises(ValueError, match="coordinate"):
            read_matrix_market(self.make(
                "%%MatrixMarket matrix array real symmetric"))

    def test_complex_rejected(self):
        with pytest.raises(ValueError, match="field"):
            read_matrix_market(self.make(
                "%%MatrixMarket matrix coordinate complex symmetric"))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            read_matrix_market(self.make(size="2 3 1"))

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError, match="expected"):
            read_matrix_market(self.make(size="2 2 2"))

    def test_short_banner(self):
        with pytest.raises(ValueError, match="not a MatrixMarket"):
            read_matrix_market(self.make("%%MatrixMarket matrix coordinate"))

    def test_missing_size_line(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(
                "%%MatrixMarket matrix coordinate real symmetric\n"))

    def test_truncated_entry_line(self):
        with pytest.raises(ValueError):
            read_matrix_market(self.make(size="2 2 2", body="1 1 1.0\n2 1"))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            read_matrix_market(self.make(size="2 2 2",
                                         body="1 1 1.0\n3 1 2.0"))
