"""The compiled analysis loops (``numeric/_analysis.c``) against the Python
loops they stand in for.

Contracts:

* **same arrays** — every entry point's result equals its Python loop's
  array for array (``np.array_equal``, dtypes included): minimum degree's
  ``_order_pieces`` on any split into pieces and on one whole graph, the
  pseudo-peripheral search and every breadth-first search (masked ones and
  RCM's included), Liu's elimination tree, the postorder, the column counts
  and the amalgamation merge, on the reference strategies of
  ``tests/test_analysis_reference.py`` and on the edge cases (no vertex,
  one, a diagonal, dense, disconnected, arrow and duplicate-COO patterns);
* **same plans** — ``analyze`` gives the same ``perm``, ``snptr``,
  ``rowptr``, ``rows``, ``sn_parent`` and permuted pattern on both bodies:
  the golden set, the six served patterns of every benchmark workload and
  the four primaries, with ``CC=false`` too, and from two threads at once;
* **same errors** — a parent array with a cycle raises ``ValueError`` from
  ``postorder`` on both bodies.

Where no compiler is available both sides are the Python loops, and every
test here still holds: that is the fallback run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import WORKLOADS, build
from repro.numeric import _native
from repro.ordering import (
    AdjacencyGraph,
    adjacency_from_matrix,
    bfs_levels,
    minimum_degree,
    nested_dissection,
    pseudo_peripheral_vertex,
    reverse_cuthill_mckee,
)
from repro.ordering.mindeg import _order_pieces
from repro.sparse import (
    SymmetricCSC,
    arrow_matrix,
    grid_laplacian,
    random_spd,
    tridiagonal,
)
from repro.symbolic import analyze, column_counts, elimination_tree, postorder
from repro.symbolic.amalgamate import _merge
from repro.symbolic.analyze import analysis_body
from repro.symbolic.etree import _liu, _row_lists
from tests.test_analysis_golden import PATTERNS as GOLDEN_PATTERNS
from tests.test_analysis_golden import digest
from tests.test_analysis_reference import (
    analysis_patterns,
    diagonal,
    disconnected_graphs,
    graphs,
    patterns,
    star,
)
from tests.test_compiled_rl import NO_DEFAULT_CC

PROPERTY = settings(max_examples=60, deadline=None)


def _python(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the compiled analysis loops out of
    reach: every loop runs in Python."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "analysis_loops", lambda: None)
        return fn(*args, **kwargs)


def _same(got, want):
    """Equal results: arrays of one dtype and equal entries, tuples entry
    by entry, matrices by pattern, anything else by ``==``."""
    if isinstance(want, SymmetricCSC):
        _same((got.indptr, got.indices), (want.indptr, want.indices))
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert got == want


def _both(fn, *args, **kwargs):
    """``fn``'s compiled result equals its Python one; returns it."""
    got = fn(*args, **kwargs)
    _same(got, _python(fn, *args, **kwargs))
    return got


def _pieces(data, n):
    """A drawn split of ``0 .. n-1`` into disjoint ascending pieces."""
    label = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=int)
    return [np.flatnonzero(label == k) for k in range(4)]


def _etree_inputs(A):
    """The analysis's tree inputs of ``A`` on its natural order: the
    elimination tree, its postorder, the postordered matrix and tree."""
    parent = elimination_tree(A)
    post = postorder(parent)
    B = analyze(A, ordering="natural", merge=False, refine=False).matrix
    return parent, post, B, elimination_tree(B)


def _merge_inputs(A, fundamental=True):
    """``_merge``'s widths, below-row counts and tree of ``A``'s unmerged
    partition."""
    symb = analyze(A, merge=False, refine=False, fundamental=fundamental).symb
    w = np.diff(symb.snptr)
    return symb.snptr, w, np.diff(symb.rowptr) - w, symb.sn_parent


def _duplicate_coo():
    """A pattern given with every entry twice (summed by ``from_coo``)."""
    A = grid_laplacian((7, 6))
    rows, cols = A.indices, np.repeat(np.arange(A.n), np.diff(A.indptr))
    rows, cols = np.concatenate((rows, rows)), np.concatenate((cols, cols))
    return SymmetricCSC.from_coo(A.n, rows, cols, np.ones(rows.size), symmetry="lower")


EDGE_PATTERNS = {
    "n0": lambda: SymmetricCSC(0, [0], [], []),
    "n1": lambda: diagonal(1),
    "diagonal": lambda: diagonal(70),
    "dense": lambda: random_spd(40, density=1.0, seed=1),
    "disconnected": GOLDEN_PATTERNS["two_components"],
    "arrow": lambda: arrow_matrix(90, bandwidth=2, arrow_width=5),
    "star": lambda: star(90),
    "duplicate_coo": _duplicate_coo,
}

#: every benchmark workload's six served patterns and its primary
WORKLOAD_PATTERNS = {
    f"{w.name}:{k}": spec
    for w in WORKLOADS
    for k, spec in [*enumerate(w.served), ("primary", w.primary)]
}


@pytest.mark.skipif(NO_DEFAULT_CC, reason="no default compiler")
def test_a_machine_with_cc_builds_the_analysis():
    """Where ``cc`` exists and ``$CC`` does not name another compiler, the
    analysis runs compiled: the tests below compare two bodies."""
    assert _native.analysis_loops() is not None and analysis_body() == "compiled"
    assert _python(analysis_body) == "python"


# ----------------------------------------------------------------------
# each entry point against its loop
# ----------------------------------------------------------------------
class TestMinimumDegree:
    @given(patterns())
    @PROPERTY
    def test_whole_graph(self, A):
        _both(minimum_degree, adjacency_from_matrix(A))

    @given(graphs(max_n=40), st.data())
    @PROPERTY
    def test_any_split_into_pieces(self, g, data):
        # pieces of any size, leaf_size or not, induced from the top graph
        _both(_order_pieces, g, _pieces(data, g.n))

    @pytest.mark.parametrize("name", sorted(EDGE_PATTERNS))
    def test_edge_patterns(self, name):
        _both(minimum_degree, adjacency_from_matrix(EDGE_PATTERNS[name]()))

    def test_a_piece_larger_than_the_leaf_size(self):
        # a clique has no level separator: nested dissection orders it as one
        # piece of 40 vertices, above the leaf size of 8
        g = adjacency_from_matrix(SymmetricCSC.from_dense(np.ones((40, 40)) + 40 * np.eye(40)))
        perm = _both(nested_dissection, g, leaf_size=8)
        assert np.array_equal(perm, minimum_degree(g))

    def test_duplicate_neighbours(self):
        # a hand-built graph listing each neighbour twice: the sets dedupe
        base = adjacency_from_matrix(grid_laplacian((5, 4)))
        g = AdjacencyGraph(base.n, 2 * base.xadj, np.repeat(base.adjncy, 2))
        assert np.array_equal(_both(minimum_degree, g), minimum_degree(base))


class TestBreadthFirst:
    @given(graphs(), st.data())
    @PROPERTY
    def test_bfs_levels_masked_and_not(self, g, data):
        root = data.draw(st.integers(0, g.n - 1))
        mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        mask[root] = True
        _both(bfs_levels, g, root)
        _both(bfs_levels, g, root, mask=mask)

    @given(disconnected_graphs(), st.booleans(), st.integers(0, 10), st.data())
    @PROPERTY
    def test_pseudo_peripheral_vertex(self, g, masked, max_iter, data):
        start = data.draw(st.integers(0, g.n - 1))
        mask = None
        if masked:
            mask = np.asarray(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
            mask[start] = True
        _both(pseudo_peripheral_vertex, g, start, mask=mask, max_iter=max_iter)

    @given(patterns())
    @PROPERTY
    def test_reverse_cuthill_mckee(self, A):
        # every component started from a masked pseudo-peripheral vertex
        _both(reverse_cuthill_mckee, adjacency_from_matrix(A))

    @pytest.mark.parametrize("name", sorted(set(EDGE_PATTERNS) - {"n0"}))
    def test_edge_patterns(self, name):
        g = adjacency_from_matrix(EDGE_PATTERNS[name]())
        for start in {0, g.n // 2, g.n - 1}:
            _both(pseudo_peripheral_vertex, g, start)
        _both(reverse_cuthill_mckee, g)

    def test_a_root_outside_the_mask_is_refused_by_both(self):
        g = adjacency_from_matrix(tridiagonal(6))
        mask = np.array([0, 1, 1, 1, 1, 1])  # not boolean: converted
        for run in (lambda f, *a, **k: f(*a, **k), _python):
            with pytest.raises(ValueError, match="root excluded by mask"):
                run(bfs_levels, g, 0, mask=mask)
            assert run(bfs_levels, g, 1, mask=mask)[1].tolist() == [1, 2, 3, 4, 5]


class TestNestedDissection:
    @given(patterns(), st.sampled_from([1, 2, 8, 64]))
    @PROPERTY
    def test_patterns(self, A, leaf_size):
        _both(nested_dissection, adjacency_from_matrix(A), leaf_size=leaf_size)

    @given(disconnected_graphs(), st.sampled_from([1, 8]), st.sampled_from([0.0, 0.5]))
    @PROPERTY
    def test_disconnected(self, g, leaf_size, balance):
        _both(nested_dissection, g, leaf_size=leaf_size, balance=balance)

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_and_one_vertex(self, n):
        g = AdjacencyGraph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert _both(nested_dissection, g, leaf_size=1).tolist() == list(range(n))

    def test_leaf_size_one_and_a_deep_stack(self):
        # balance 0 on a path peels a vertex or two per level: hundreds deep
        g = adjacency_from_matrix(grid_laplacian((15, 14)))
        _both(nested_dissection, g, leaf_size=1)
        _both(nested_dissection, adjacency_from_matrix(tridiagonal(400)), leaf_size=1,
              balance=0.0)
        _both(nested_dissection, g, leaf_size=2, balance=1e-9)


class TestTreeLoops:
    @given(analysis_patterns())
    @PROPERTY
    def test_etree_postorder_and_counts(self, A):
        parent, post, B, parent_b = _both(_etree_inputs, A)
        _both(_liu, A.n, *_row_lists(A, np.arange(A.n)[::-1].copy()))
        _both(postorder, parent)
        _both(column_counts, A, parent, post)
        _both(column_counts, B, parent_b)  # postorder computed inside
        _both(column_counts, B, parent_b, np.arange(B.n, dtype=np.int64))

    @pytest.mark.parametrize("name", sorted(EDGE_PATTERNS))
    def test_edge_patterns(self, name):
        A = EDGE_PATTERNS[name]()
        parent, post, B, parent_b = _both(_etree_inputs, A)
        _both(column_counts, A, parent, post)
        _both(column_counts, B, parent_b)

    @pytest.mark.parametrize(
        "parent", [[1, 0, -1], [1, 2, 0], [-1, 2, 3, 2], [0]], ids=["pair", "ring", "tail", "self"]
    )
    def test_a_cycle_raises_on_both(self, parent):
        parent = np.array(parent, dtype=np.int64)
        with pytest.raises(ValueError, match="cycle"):
            postorder(parent)
        with pytest.raises(ValueError, match="cycle"):
            _python(postorder, parent)

    def test_a_tree_of_another_size_is_refused_by_both(self):
        A = tridiagonal(5)
        parent = elimination_tree(A)
        for args in ((parent[:-1],), (parent, postorder(parent)[:-1])):
            with pytest.raises(ValueError, match="shape"):
                column_counts(A, *args)
            with pytest.raises(ValueError, match="shape"):
                _python(column_counts, A, *args)


class TestMerge:
    @given(patterns(), st.sampled_from([0, 0.25, 1e9]), st.booleans())
    @PROPERTY
    def test_patterns(self, A, growth_cap, fundamental):
        _both(_merge, *_merge_inputs(A, fundamental), growth_cap)

    @pytest.mark.parametrize("growth_cap", [0, 0.25, 1e9])
    @pytest.mark.parametrize(
        "A",
        [
            grid_laplacian((16, 16)),  # a regular grid: many equal extra keys
            grid_laplacian((6, 6, 6)),
            tridiagonal(50),
            arrow_matrix(60, bandwidth=1, arrow_width=4),
            diagonal(9),
            diagonal(1),
        ],
        ids=["grid16", "grid6c", "path", "arrow", "diagonal", "n1"],
    )
    def test_many_equal_keys(self, A, growth_cap):
        for fundamental in (True, False):
            _both(_merge, *_merge_inputs(A, fundamental), growth_cap)

    @pytest.mark.parametrize("growth_cap", [0, 0.25, 1e9])
    def test_equal_keys_along_a_chain(self, growth_cap):
        # a chain of 40 unit supernodes, each merge into its parent adding
        # the same fill: every heap entry ties on its extra fill
        nsup = 40
        snptr = np.arange(nsup + 1, dtype=np.int64)
        w, b = np.ones(nsup, dtype=np.int64), np.full(nsup, 3, dtype=np.int64)
        sn_parent = np.append(np.arange(1, nsup), -1).astype(np.int64)
        _both(_merge, snptr, w, b, sn_parent, growth_cap)


# ----------------------------------------------------------------------
# whole plans
# ----------------------------------------------------------------------
def _plan_digests(A):
    """``analyze``'s digest under every ordering (nested dissection at two
    leaf sizes) with the default options."""
    return tuple(
        digest(analyze(A, ordering=o, ordering_kwargs=k))
        for o, k in (("nd", None), ("nd", {"leaf_size": 8}), ("mindeg", None), ("rcm", None))
    )


class TestPlans:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PATTERNS))
    def test_golden_set(self, name):
        _both(_plan_digests, GOLDEN_PATTERNS[name]())

    @pytest.mark.parametrize("name", sorted(EDGE_PATTERNS))
    def test_edge_patterns(self, name):
        _both(_plan_digests, EDGE_PATTERNS[name]())

    @pytest.mark.parametrize("name", sorted(WORKLOAD_PATTERNS))
    def test_benchmark_patterns(self, name):
        # the served patterns and the primaries, as the benchmark plans them
        _both(lambda A: digest(analyze(A)), build(WORKLOAD_PATTERNS[name]))

    def test_two_threads_at_once_get_the_serial_plans(self):
        """The compiled loops run with the interpreter lock released and
        keep no state: two threads planning the served patterns at once,
        over and over, both get the serial plans."""
        mats = [build(spec) for spec in WORKLOADS[2].served]
        want = [digest(analyze(A)) for A in mats]
        barrier, errors = threading.Barrier(2), []

        def run():
            try:
                for _ in range(3):
                    barrier.wait(timeout=60)
                    assert [digest(analyze(A)) for A in mats] == want
            except BaseException as exc:  # reported below, on the main thread
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and errors == []

    def test_no_compiler_gives_the_same_plans(self, tmp_path):
        """``CC=false`` with an empty cache builds nothing: a fresh process
        plans with the Python loops, and its plans are these."""
        names = ["grid2d_9pt", "kkt", "two_components", "n1"]
        script = (
            "import sys; from repro.symbolic.analyze import analysis_body; "
            "from tests.test_analysis_golden import PATTERNS; "
            "from tests.test_compiled_analysis import _plan_digests; "
            "print(analysis_body()); "
            f"[print(*_plan_digests(PATTERNS[k]())) for k in {names!r}]"
        )
        env = {**os.environ, "CC": "false", "XDG_CACHE_HOME": str(tmp_path)}
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300, cwd=os.path.dirname(src), check=True,
        ).stdout.split("\n")
        assert out[0] == "python"
        assert out[1:-1] == [" ".join(_plan_digests(GOLDEN_PATTERNS[k]())) for k in names]
