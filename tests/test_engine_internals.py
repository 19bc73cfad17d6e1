"""White-box tests of the engines' inner machinery: RL assembly, RLB block
pair targeting, and degenerate inputs through the whole pipeline."""

import numpy as np
import pytest

from repro.gpu.costmodel import CPU_THREAD_CHOICES, MachineModel
from repro.numeric import (
    FactorStorage,
    assemble_update,
    commit_block_pair,
    compute_block_pair,
    factorize_rl_cpu,
    update_workspace_entries,
)
from repro.numeric.result import cpu_cost, kernel_stream
from repro.sparse import SymmetricCSC, tridiagonal
from repro.symbolic import analyze, snode_blocks
from repro.symbolic.blocks import pair_index


class TestAssembleUpdate:
    def test_matches_bruteforce_scatter(self, analyzed_vec):
        """assemble_update must equal the textbook definition: subtract
        U[i, j] from L[below[i], below[j]] for i >= j."""
        symb = analyzed_vec.symb
        rng = np.random.default_rng(0)
        # pick a supernode with several ancestors
        cand = max(range(symb.nsup),
                   key=lambda s: symb.snode_below_rows(s).size)
        below = symb.snode_below_rows(cand)
        b = below.size
        assert b > 0
        U = np.asfortranarray(rng.standard_normal((b, b)))
        st1 = FactorStorage.zeros(symb)
        moved = assemble_update(symb, st1, cand, U)
        assert moved > 0
        # brute-force dense scatter
        D = np.zeros((symb.n, symb.n))
        for i in range(b):
            for j in range(i + 1):
                D[below[i], below[j]] -= U[i, j]
        L1 = st1.to_dense_lower()
        assert np.allclose(L1, np.tril(D))

    def test_workspace_entries(self, analyzed_grid):
        symb = analyzed_grid.symb
        want = max((symb.panel_shape(s)[0] - symb.panel_shape(s)[1]) ** 2
                   for s in range(symb.nsup))
        assert update_workspace_entries(symb) == want
        # pattern-only: memoised like the other symbolic plans
        assert symb.cache()["update_workspace_entries"] == want


class TestCpuCost:
    """The pattern-only pricing walk behind every CPU-lane engine."""

    def test_memoised_per_family_machine_choices_itemsize(self, analyzed_vec):
        symb, machine = analyzed_vec.symb, MachineModel()
        one = cpu_cost(symb, "rl", machine, CPU_THREAD_CHOICES, 8)
        assert cpu_cost(symb, "rl", MachineModel(),
                        list(CPU_THREAD_CHOICES), 8) is one
        assert cpu_cost(symb, "rlb", machine, CPU_THREAD_CHOICES, 8) is not one
        fp32 = cpu_cost(symb, "rl", machine, CPU_THREAD_CHOICES, 4)
        assert fp32.seconds < one.seconds
        assert fp32.kernel_count == one.kernel_count
        slow = MachineModel(dilation=20.0)
        assert cpu_cost(symb, "rl", slow, (8, 16), 8).seconds > one.seconds
        assert dict(one.times)[one.best_threads] == one.seconds

    def test_stream_is_the_serial_call_order(self, analyzed_vec):
        symb = analyzed_vec.symb
        rl = list(kernel_stream(symb, "rl"))
        assert [e[0] for e in rl] == sorted(e[0] for e in rl)
        assert sum(e[1] == "potrf" for e in rl) == symb.nsup
        assert (sum(e[1] == "assembly" for e in rl)
                == sum(e[1] == "syrk" for e in rl))
        rlb = list(kernel_stream(symb, "rlb"))
        assert not any(e[1] == "assembly" for e in rlb)
        assert sum(e[1] == "gemm" for e in rlb) > 0
        with pytest.raises(ValueError, match="family"):
            list(kernel_stream(symb, "lu"))


class TestBlockPairTargets:
    def test_diag_pair_offsets_equal(self, analyzed_vec):
        symb = analyzed_vec.symb
        for s in range(symb.nsup):
            for blk in snode_blocks(symb, s):
                p, ro, r1, co, c1 = pair_index(symb).target(blk, blk)
                assert p == blk.owner
                assert ro == co == blk.first_row - symb.snptr[p]
                assert r1 - ro == c1 - co == blk.length

    def test_off_pair_rows_located(self, analyzed_vec):
        symb = analyzed_vec.symb
        for s in range(symb.nsup):
            blocks = snode_blocks(symb, s)
            for i, bi in enumerate(blocks):
                for bj in blocks[i + 1:]:
                    p, ro, _, co, _ = pair_index(symb).target(bi, bj)
                    assert co == bi.first_row - symb.snptr[p]
                    prows = symb.snode_rows(p)
                    assert np.array_equal(
                        prows[ro:ro + bj.length],
                        np.arange(bj.first_row, bj.first_row + bj.length))

    def test_compute_and_commit_match_bruteforce(self, analyzed_vec):
        symb = analyzed_vec.symb
        rng = np.random.default_rng(1)
        cand = max(range(symb.nsup), key=lambda s: len(snode_blocks(symb, s)))
        blocks = snode_blocks(symb, cand)
        assert len(blocks) >= 2
        m, w = symb.panel_shape(cand)
        panel = np.asfortranarray(rng.standard_normal((m, w)))
        st1 = FactorStorage.zeros(symb)
        for i, bi in enumerate(blocks):
            for bj in blocks[i:]:
                commit_block_pair(symb, st1, bi, bj, compute_block_pair(panel, w, bi, bj))
        # brute force: full update over the below rows
        below = symb.snode_below_rows(cand)
        R = panel[w:, :w]
        U = R @ R.T
        D = np.zeros((symb.n, symb.n))
        for i in range(below.size):
            for j in range(i + 1):
                D[below[i], below[j]] -= U[i, j]
        assert np.allclose(st1.to_dense_lower(), np.tril(D))


class TestDegenerateInputs:
    def test_one_by_one_matrix(self):
        A = SymmetricCSC.from_coo(1, [0], [0], [4.0])
        system = analyze(A)
        res = factorize_rl_cpu(system.symb, system.matrix)
        assert res.storage.to_dense_lower()[0, 0] == 2.0

    def test_two_by_two(self):
        A = SymmetricCSC.from_dense(np.array([[4.0, 2.0], [2.0, 5.0]]))
        system = analyze(A)
        res = factorize_rl_cpu(system.symb, system.matrix)
        L = res.storage.to_dense_lower()
        assert np.allclose(L @ L.T, system.matrix.to_dense())

    def test_diagonal_matrix(self):
        A = SymmetricCSC.from_coo(6, range(6), range(6),
                                  [4.0, 9.0, 16.0, 25.0, 1.0, 36.0])
        system = analyze(A)
        res = factorize_rl_cpu(system.symb, system.matrix)
        L = res.storage.to_dense_lower()
        assert np.allclose(np.sort(np.diag(L)),
                           [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_fully_dense_matrix(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((12, 12))
        A = SymmetricCSC.from_dense(M @ M.T + 12 * np.eye(12))
        system = analyze(A)
        assert system.nsup == 1  # one supernode: the whole matrix
        res = factorize_rl_cpu(system.symb, system.matrix)
        L = res.storage.to_dense_lower()
        assert np.allclose(L @ L.T, system.matrix.to_dense(), atol=1e-9)

    def test_path_graph_gpu(self):
        from repro.numeric import factorize_rl_gpu

        A = tridiagonal(50)
        system = analyze(A)
        res = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                               device_memory=10 ** 12)
        L = res.storage.to_dense_lower()
        assert np.allclose(L @ L.T, system.matrix.to_dense(), atol=1e-10)
