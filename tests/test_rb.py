"""Tests for the Rutherford–Boeing reader/writer."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    grid_laplacian,
    random_spd,
    read_rutherford_boeing,
    write_rutherford_boeing,
)


def roundtrip(A):
    buf = io.StringIO()
    write_rutherford_boeing(buf, A)
    buf.seek(0)
    return read_rutherford_boeing(buf)


class TestRoundtrip:
    def test_grid(self):
        A = grid_laplacian((7, 5))
        B = roundtrip(A)
        assert B.n == A.n
        np.testing.assert_array_equal(B.indptr, A.indptr)
        np.testing.assert_array_equal(B.indices, A.indices)
        np.testing.assert_allclose(B.data, A.data, rtol=0, atol=0)

    def test_values_exact_to_double_precision(self):
        A = random_spd(30, density=0.2, seed=1)
        B = roundtrip(A)
        np.testing.assert_array_equal(B.data, A.data)  # %26.18E is exact

    def test_file_path(self, tmp_path):
        A = grid_laplacian((6, 6))
        path = tmp_path / "m.rb"
        write_rutherford_boeing(path, A, title="grid", key="GRID6")
        B = read_rutherford_boeing(path)
        np.testing.assert_array_equal(B.indices, A.indices)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(0, 10 ** 6))
    def test_property_roundtrip(self, n, seed):
        A = random_spd(n, density=0.3, seed=seed)
        B = roundtrip(A)
        np.testing.assert_array_equal(B.indptr, A.indptr)
        np.testing.assert_array_equal(B.indices, A.indices)
        np.testing.assert_array_equal(B.data, A.data)


class TestReader:
    def test_pattern_matrix(self):
        text = (
            f"{'pattern test':<72}{'PTEST':<8}\n"
            f"{2:14d}{1:14d}{1:14d}{0:14d}\n"
            f"{'psa':<14}{2:14d}{2:14d}{3:14d}{0:14d}\n"
            f"{'(16I5)':<16}{'(16I5)':<16}\n"
            "    1    3    4\n"
            "    1    2    2\n"
        )
        A = read_rutherford_boeing(io.StringIO(text))
        assert A.n == 2
        np.testing.assert_array_equal(A.indptr, [0, 2, 3])
        np.testing.assert_array_equal(A.indices, [0, 1, 1])
        np.testing.assert_array_equal(A.data, [1.0, 1.0, 1.0])

    def test_fortran_d_exponent(self):
        text = (
            f"{'d exp':<72}{'DEXP':<8}\n"
            f"{3:14d}{1:14d}{1:14d}{1:14d}\n"
            f"{'rsa':<14}{1:14d}{1:14d}{1:14d}{0:14d}\n"
            f"{'(16I5)':<16}{'(16I5)':<16}{'(1D20.12)':<20}\n"
            "    1    2\n"
            "    1\n"
            "  0.400000000000D+01\n"
        )
        A = read_rutherford_boeing(io.StringIO(text))
        assert A.data[0] == 4.0

    def test_unsorted_rows_get_sorted(self):
        text = (
            f"{'unsorted':<72}{'UNSRT':<8}\n"
            f"{4:14d}{1:14d}{1:14d}{2:14d}\n"
            f"{'rsa':<14}{3:14d}{3:14d}{5:14d}{0:14d}\n"
            f"{'(16I5)':<16}{'(16I5)':<16}{'(3E26.18)':<20}\n"
            "    1    4    5    6\n"
            "    3    1    2    2    3\n"
            + "".join(f"{v:26.18E}" for v in (7.0, 9.0, -1.0)) + "\n"
            + "".join(f"{v:26.18E}" for v in (8.0, 6.0)) + "\n"
        )
        A = read_rutherford_boeing(io.StringIO(text))
        np.testing.assert_array_equal(A.indices, [0, 1, 2, 1, 2])
        np.testing.assert_allclose(A.data, [9.0, -1.0, 7.0, 8.0, 6.0])

    @pytest.mark.parametrize("mxtype,err", [
        ("rua", "symmetric"),
        ("rse", "assembled"),
        ("csa", "value type"),
    ])
    def test_rejects_unsupported_types(self, mxtype, err):
        text = (
            f"{'bad':<72}{'BAD':<8}\n"
            f"{1:14d}{1:14d}{0:14d}{0:14d}\n"
            f"{mxtype:<14}{1:14d}{1:14d}{0:14d}{0:14d}\n"
            f"{'(16I5)':<16}{'(16I5)':<16}\n"
        )
        with pytest.raises(ValueError, match=err):
            read_rutherford_boeing(io.StringIO(text))

    def test_rejects_rectangular(self):
        text = (
            f"{'rect':<72}{'RECT':<8}\n"
            f"{1:14d}{1:14d}{0:14d}{0:14d}\n"
            f"{'rsa':<14}{2:14d}{3:14d}{0:14d}{0:14d}\n"
            f"{'(16I5)':<16}{'(16I5)':<16}\n"
        )
        with pytest.raises(ValueError, match="square"):
            read_rutherford_boeing(io.StringIO(text))

    def test_truncated_file(self):
        text = (
            f"{'trunc':<72}{'TRUNC':<8}\n"
            f"{2:14d}{1:14d}{1:14d}{0:14d}\n"
            f"{'psa':<14}{2:14d}{2:14d}{3:14d}{0:14d}\n"
            f"{'(16I5)':<16}{'(16I5)':<16}\n"
            "    1    3    4\n"
        )
        with pytest.raises(ValueError, match="end of file"):
            read_rutherford_boeing(io.StringIO(text))


class TestPipelineIntegration:
    def test_rb_file_through_full_solver(self, tmp_path):
        import repro

        A = grid_laplacian((8, 8))
        path = tmp_path / "grid.rb"
        write_rutherford_boeing(path, A)
        B = read_rutherford_boeing(path)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(B.n)
        factor = repro.plan(B).factorize(engine="rl_gpu")
        x = factor.solve(b)
        assert factor.residual_norm(x, b) < 1e-10
