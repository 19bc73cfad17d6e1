"""Factor-storage tests: initial scatter, extraction, workspace sizing."""

import numpy as np
import pytest

from repro.numeric import FactorStorage, ScatterPlan, update_workspace_entries
from repro.sparse import SymmetricCSC


class TestFromMatrix:
    def test_initial_values_match_input(self, analyzed_grid):
        symb, B = analyzed_grid.symb, analyzed_grid.matrix
        storage = FactorStorage.from_matrix(symb, B)
        D = np.tril(B.to_dense())
        assert np.allclose(storage.to_dense_lower(), D)

    def test_panel_shapes(self, analyzed_grid):
        storage = FactorStorage.from_matrix(
            analyzed_grid.symb, analyzed_grid.matrix)
        for s in range(analyzed_grid.symb.nsup):
            assert storage.panel(s).shape == analyzed_grid.symb.panel_shape(s)
            assert storage.panel(s).flags.f_contiguous

    def test_dimension_mismatch(self, analyzed_grid, small_vec):
        with pytest.raises(ValueError, match="mismatch"):
            FactorStorage.from_matrix(analyzed_grid.symb, small_vec)

    def test_zeros(self, analyzed_grid):
        storage = FactorStorage.zeros(analyzed_grid.symb)
        assert storage.to_dense_lower().sum() == 0

    def test_nbytes(self, analyzed_grid):
        storage = FactorStorage.zeros(analyzed_grid.symb)
        expected = sum(
            8 * analyzed_grid.symb.panel_size(s)
            for s in range(analyzed_grid.symb.nsup))
        assert storage.nbytes() == expected


class TestScatterPlan:
    def test_plan_cached_on_symbolic_factor(self, analyzed_grid):
        symb, B = analyzed_grid.symb, analyzed_grid.matrix
        p1 = ScatterPlan.get(symb, B)
        p2 = ScatterPlan.get(symb, B)
        assert p1 is p2
        assert symb.cache()["scatter_plan"] is p1

    def test_plan_reused_for_same_pattern_new_values(self, analyzed_grid):
        symb, B = analyzed_grid.symb, analyzed_grid.matrix
        p1 = ScatterPlan.get(symb, B)
        B2 = SymmetricCSC(B.n, B.indptr, B.indices, B.data * 2.0,
                          check=False)
        assert ScatterPlan.get(symb, B2) is p1
        st = FactorStorage.from_matrix(symb, B2)
        ref = FactorStorage.from_matrix(symb, B)
        for a, b in zip(st.panels, ref.panels):
            assert np.array_equal(a, 2.0 * b)

    def test_plan_rebuilt_on_pattern_change(self, analyzed_vec):
        symb, B = analyzed_vec.symb, analyzed_vec.matrix
        p1 = ScatterPlan.get(symb, B)
        # same matrix content through fresh arrays and a fresh plan: the
        # identity fast-path misses but array comparison still matches
        B2 = SymmetricCSC(B.n, B.indptr.copy(), B.indices.copy(),
                          B.data.copy(), check=False)
        assert ScatterPlan.get(symb, B2) is p1  # values equal -> match
        # entries outside the symbolic structure must raise at build time
        n = symb.n
        bad = SymmetricCSC.from_coo(
            n, np.arange(n), np.zeros(n, dtype=np.int64),
            np.concatenate(([float(n)], np.ones(n - 1))))
        with pytest.raises(ValueError, match="outside symbolic"):
            ScatterPlan(symb, bad)

    def test_plan_rebuilt_for_different_pattern(self, analyzed_grid):
        # a sparser matrix (subset of the structure) must trigger a rebuild
        # through ScatterPlan.get and still scatter to the right positions
        symb, B = analyzed_grid.symb, analyzed_grid.matrix
        p1 = ScatterPlan.get(symb, B)
        diag = np.zeros(B.indices.size, dtype=bool)
        diag[B.indptr[:-1]] = True
        keep = diag | (np.arange(B.indices.size) % 2 == 0)
        counts = np.add.reduceat(keep.astype(np.int64), B.indptr[:-1])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        B2 = SymmetricCSC(B.n, indptr, B.indices[keep], B.data[keep],
                          check=True)
        p2 = ScatterPlan.get(symb, B2)
        assert p2 is not p1
        assert symb.cache()["scatter_plan"] is p2
        st = FactorStorage.from_matrix(symb, B2)
        assert np.allclose(st.to_dense_lower(), np.tril(B2.to_dense()))

    def test_explicit_plan_bypasses_cache(self, analyzed_grid):
        symb, B = analyzed_grid.symb, analyzed_grid.matrix
        plan = ScatterPlan(symb, B)
        st = FactorStorage.from_matrix(symb, B, plan=plan)
        ref = FactorStorage.from_matrix(symb, B)
        for a, b in zip(st.panels, ref.panels):
            assert np.array_equal(a, b)


class TestExtraction:
    def test_scipy_matches_dense(self, analyzed_vec):
        from repro.numeric import factorize_rl_cpu

        res = factorize_rl_cpu(analyzed_vec.symb, analyzed_vec.matrix)
        S = res.storage.to_scipy_lower().toarray()
        D = res.storage.to_dense_lower()
        assert np.allclose(S, D)

    def test_max_update_entries(self, analyzed_grid):
        symb = analyzed_grid.symb
        shapes = [symb.panel_shape(s) for s in range(symb.nsup)]
        assert update_workspace_entries(symb) == max(
            (m - w) ** 2 for m, w in shapes)
