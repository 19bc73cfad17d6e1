"""The per-factor solve program: direct ``?trtrs``, derived once, never stale.

Three contracts of the triangular sweeps (``solve/triangular.py``):

* **differential** — both sweeps agree with a dense oracle (scipy's
  ``solve_triangular`` on ``L`` assembled from the panels; the oracle lives
  here only, ``src/`` no longer imports it) over generated SPD patterns and
  the degenerate ones, every right-hand-side shape, layout and dtype, fp64
  and fp32 factors — and every schedule is bitwise the serial sweep;
* **checked** — an exactly-zero diagonal entry raises ``LinAlgError`` on the
  one-column division path and on the ``?trtrs`` path;
* **derived once, never stale** — after the first solve nothing re-derives
  column ranges, below rows or panel shapes, and the views a storage keeps
  read current values through copy-on-write updates, in-place updates and
  the atomic restore of a failed downdate.
"""

from __future__ import annotations

import copy
import pathlib
import pickle

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dense import NotPositiveDefiniteError
from repro.numeric import rank_k_update
from repro.numeric import storage as storage_module
from repro.numeric.procpool import close_default_pools
from repro.numeric.registry import BACKENDS, ENGINES
from repro.solve import backward_solve, forward_solve
from repro.sparse import grid_laplacian
from repro.symbolic.structure import SymbolicFactor
from repro.update import structured_update
from tests.conftest import arrow_spd as _arrow
from tests.conftest import spd_from_pattern as _spd
from tests.conftest import two_component_spd as _two_components

DTYPES = [np.float64, np.float32]


EDGE_PATTERNS = {
    "n1": lambda: _spd(np.zeros((1, 1), dtype=bool)),
    "diagonal": lambda: _spd(np.zeros((9, 9), dtype=bool)),
    "arrow": lambda: _arrow(12),
    "two_components": lambda: _two_components(7),
    "grid": lambda: grid_laplacian((6, 5, 2)),
}


def _rhs_variants(n, rng):
    """Right-hand sides of every accepted shape, layout and dtype."""
    wide = rng.standard_normal((n, 32))
    return {
        "vector": rng.standard_normal(n),
        "column": rng.standard_normal((n, 1)),
        "c3": rng.standard_normal((n, 3)),
        "c16": rng.standard_normal((n, 16)),
        "f16": np.asfortranarray(rng.standard_normal((n, 16))),
        "strided_vector": wide[:, 5],
        "strided_block": wide[:, ::2],
        "integers": rng.integers(-9, 10, size=(n, 3)),
    }


def _check_against_dense_oracle(A, dtype, seed=0):
    """Both sweeps against scipy on the dense factor, then every schedule
    of the full solve bitwise against the serial one."""
    plan = repro.plan(A)
    factor = plan.factorize(engine="rl", dtype=dtype)
    storage = factor.storage
    # the panels' own values in float64: fp32 entries upcast exactly, and
    # the sweeps promote them the same way, so one tolerance serves both
    L = storage.to_dense_lower()
    n = A.n
    for name, b in _rhs_variants(n, np.random.default_rng(seed)).items():
        kept = b.copy()
        b64 = np.asarray(b, dtype=np.float64)
        y = forward_solve(storage, b)
        np.testing.assert_allclose(
            y, sla.solve_triangular(L, b64, lower=True),
            rtol=1e-10, atol=1e-12, err_msg=f"forward {name}")
        x = backward_solve(storage, b)
        np.testing.assert_allclose(
            x, sla.solve_triangular(L, b64, lower=True, trans="T"),
            rtol=1e-10, atol=1e-12, err_msg=f"backward {name}")
        np.testing.assert_array_equal(b, kept, err_msg=f"{name} clobbered")
        assert y.shape == x.shape == b.shape

        serial = factor.solve(b)
        for how in (dict(workers=1), dict(workers=2), dict(mode="gpu")):
            np.testing.assert_array_equal(
                factor.solve(b, **how), serial, err_msg=f"{name} {how}")


class TestDifferential:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pattern", sorted(EDGE_PATTERNS))
    def test_edge_patterns(self, pattern, dtype):
        _check_against_dense_oracle(EDGE_PATTERNS[pattern](), dtype)

    def test_diagonal_is_all_one_column_supernodes_without_below_rows(self):
        plan = repro.plan(EDGE_PATTERNS["diagonal"]())
        prog = plan.factorize(engine="rl").storage.solve_program()
        assert [(w, rect) for _, _, w, _, rect, _ in prog] == [(1, None)] * 9

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 36), density=st.floats(0.02, 0.6),
           seed=st.integers(0, 2**16), fp32=st.booleans())
    def test_random_spd_patterns(self, n, density, seed, fp32):
        pattern = sp.random(n, n, density=density, random_state=seed,
                            format="csr").toarray() != 0
        _check_against_dense_oracle(
            _spd(pattern), np.float32 if fp32 else np.float64, seed)


class TestZeroDiagonal:
    """A hand-damaged storage: the solve refuses an exactly-zero pivot on
    both paths instead of dividing by it."""

    @pytest.fixture()
    def storage(self):
        plan = repro.plan(grid_laplacian((6, 5, 2)))
        return plan.factorize(engine="rl").storage

    @staticmethod
    def _snode_of_width(storage, pick):
        return next(s for s, entry in enumerate(storage.solve_program())
                    if pick(entry[2]))

    @pytest.mark.parametrize("sweep", [forward_solve, backward_solve])
    def test_one_column_path(self, storage, sweep):
        s = self._snode_of_width(storage, lambda w: w == 1)
        storage.panels[s][0, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="exactly zero"):
            sweep(storage, np.ones(storage.symb.n))
        with pytest.raises(np.linalg.LinAlgError, match="exactly zero"):
            sweep(storage, np.ones((storage.symb.n, 3)))

    @pytest.mark.parametrize("sweep", [forward_solve, backward_solve])
    def test_trtrs_path(self, storage, sweep):
        s = self._snode_of_width(storage, lambda w: w >= 3)
        storage.panels[s][2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal entry 2"):
            sweep(storage, np.ones(storage.symb.n))


@pytest.fixture(scope="module")
def A():
    return grid_laplacian((7, 6, 3))


@pytest.fixture(scope="module")
def plan(A):
    return repro.plan(A)


def _dense_residual(M, x, b):
    return np.linalg.norm(M @ x - b) / np.linalg.norm(b)


class TestDerivedOnce:
    def test_no_per_solve_derivation_and_one_view_build(self, plan,
                                                        monkeypatch):
        """After a factor's first solve, a vector solve, a 16-column solve
        and a refined solve re-derive nothing per supernode; the views are
        built once per storage."""
        builds = []
        shapes = storage_module.solve_shapes

        def counting_shapes(symb):
            builds.append(symb)
            return shapes(symb)

        monkeypatch.setattr(storage_module, "solve_shapes", counting_shapes)
        factor = plan.factorize(engine="rl")
        rng = np.random.default_rng(0)
        b, B = rng.standard_normal(plan.n), rng.standard_normal((plan.n, 16))
        first = factor.solve(b)
        assert len(builds) == 1

        calls = []
        for name in ("snode_cols", "snode_below_rows", "panel_shape"):
            method = getattr(SymbolicFactor, name)

            def counted(self, s, _method=method, _name=name):
                calls.append(_name)
                return _method(self, s)

            monkeypatch.setattr(SymbolicFactor, name, counted)
        np.testing.assert_array_equal(factor.solve(b), first)
        factor.solve(B)
        factor.solve_refined(b, tol=1e-12)
        assert calls == []
        assert len(builds) == 1
        program = factor.storage.solve_program()
        assert program is factor.storage.solve_program()
        # the program's views alias the panels: no copy was taken
        for (_, _, w, panel, rect, _), own in zip(program,
                                                  factor.storage.panels):
            assert panel is own
            assert rect is None or np.shares_memory(rect, own)

    def test_pattern_static_half_is_shared_across_factors(self, plan):
        one = plan.factorize(engine="rl").storage.solve_program()
        two = plan.factorize(engine="rlb").storage.solve_program()
        assert one is not two
        assert all(a[5] is b[5] for a, b in zip(one, two))

    def test_update_child_and_parent_solve_their_own_systems(self, plan, A):
        factor = plan.factorize(engine="rl")
        b = np.random.default_rng(1).standard_normal(plan.n)
        x_parent = factor.solve(b)  # parent's views exist before the update
        W = structured_update(plan.symb, plan.perm, [0, 7], seed=3)
        child = factor.update(W)
        dense = A.to_dense()
        assert _dense_residual(dense + W @ W.T, child.solve(b), b) < 1e-12
        np.testing.assert_array_equal(factor.solve(b), x_parent)
        assert _dense_residual(dense, x_parent, b) < 1e-12
        grandchild = child.downdate(W)
        np.testing.assert_allclose(grandchild.solve(b), x_parent, rtol=1e-9)

    def test_failed_downdate_leaves_the_solution_bit_equal(self, plan):
        factor = plan.factorize(engine="rl")
        b = np.random.default_rng(2).standard_normal(plan.n)
        before = factor.solve(b)
        W = structured_update(plan.symb, plan.perm, [0, 5], seed=4,
                              scale=50.0)
        with pytest.raises(NotPositiveDefiniteError):
            factor.downdate(W)
        np.testing.assert_array_equal(factor.solve(b), before)
        # the in-place sweep restores its snapshot INTO the same arrays
        with pytest.raises(NotPositiveDefiniteError):
            rank_k_update(factor.storage, W[plan.perm], downdate=True)
        np.testing.assert_array_equal(factor.solve(b), before)

    def test_in_place_update_is_read_by_the_next_solve(self, plan, A):
        factor = plan.factorize(engine="rl")
        b = np.random.default_rng(3).standard_normal(plan.n)
        factor.solve(b)  # views built against the pre-update values
        W = structured_update(plan.symb, plan.perm, [2, 9], seed=5)
        rank_k_update(factor.storage, W[plan.perm])
        assert _dense_residual(A.to_dense() + W @ W.T, factor.solve(b),
                               b) < 1e-12

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))])
    def test_a_copied_storage_rebuilds_its_views(self, plan, clone):
        storage = plan.factorize(engine="rl").storage
        b = np.ones(plan.n)
        y = forward_solve(storage, b)
        twin = clone(storage)
        for panel in twin.panels:
            panel *= 2.0
        np.testing.assert_allclose(forward_solve(twin, b), y / 2.0,
                                   rtol=1e-13)
        np.testing.assert_array_equal(forward_solve(storage, b), y)


class TestPanelsStayFortranOrdered:
    """``FactorStorage``'s "one Fortran-ordered panel per supernode"
    invariant over everything that returns a factor — a C-ordered panel
    still solves correctly but is copied whole on every direct LAPACK
    call."""

    @pytest.fixture(scope="class", autouse=True)
    def _release_default_pools(self):
        yield
        close_default_pools()

    @staticmethod
    def _assert_fortran(factor, what):
        bad = [s for s, p in enumerate(factor.storage.panels)
               if not p.flags.f_contiguous]
        assert not bad, f"{what}: C-ordered panels {bad}"

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_engine(self, plan, engine):
        self._assert_fortran(plan.factorize(engine=engine), engine)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("engine", ["rl", "rlb"])
    def test_every_backend(self, plan, engine, backend):
        factor = plan.factorize(engine=engine, backend=backend)
        self._assert_fortran(factor, f"{engine}/{backend}")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_update_downdate_apply(self, plan, A, dtype):
        factor = plan.factorize(engine="rl", dtype=dtype)
        W = structured_update(plan.symb, plan.perm, [0, 3, 11], seed=6)
        child = factor.update(W)
        assert child.storage.panels[0] is not factor.storage.panels[0]
        self._assert_fortran(child, "update")
        self._assert_fortran(child.downdate(W), "downdate")
        for policy in ("update", "refactorize"):
            self._assert_fortran(factor.apply(W, policy=policy),
                                 f"apply/{policy}")
        self._assert_fortran(factor, "parent after updates")

    @pytest.mark.parametrize("engine", ["rl", "rlb_par", "rl_proc"])
    def test_factorize_batch(self, plan, A, engine):
        values = [A.data * (1.0 + 0.1 * i) for i in range(3)]
        for i, factor in enumerate(plan.factorize_batch(values,
                                                        engine=engine)):
            self._assert_fortran(factor, f"batch {engine}[{i}]")


def test_src_no_longer_imports_scipy_solve_triangular():
    src = pathlib.Path(repro.__file__).parent
    hits = [str(p) for p in src.rglob("*.py")
            if "solve_triangular" in p.read_text()]
    assert hits == []

