"""Cross-engine integration and whole-pipeline property tests.

The strongest invariant in the system: all five factorization engines must
produce the same factor, and that factor must solve linear systems to
near-machine accuracy through the whole ordering/merging/refinement
pipeline.
"""

import numpy as np
import pytest
import repro
from hypothesis import given, settings, strategies as st

from repro.numeric import (
    factorize_rl_cpu,
    factorize_rl_gpu,
    factorize_rlb_cpu,
    factorize_rlb_gpu,
)
from repro.solve import solve_factored
from repro.sparse import (
    anisotropic_laplacian,
    arrow_matrix,
    grid_laplacian,
    kkt_like,
    random_spd,
    vector_stencil,
)
from repro.symbolic import analyze

BIG_MEM = 10 ** 15

ALL_ENGINES = {
    "rl": lambda s, m: factorize_rl_cpu(s, m),
    "rlb": lambda s, m: factorize_rlb_cpu(s, m),
    "rl_gpu": lambda s, m: factorize_rl_gpu(s, m, device_memory=BIG_MEM),
    "rlb_gpu_v1": lambda s, m: factorize_rlb_gpu(s, m, version=1,
                                                 device_memory=BIG_MEM),
    "rlb_gpu_v2": lambda s, m: factorize_rlb_gpu(s, m, version=2,
                                                 device_memory=BIG_MEM),
}

MATRICES = {
    "grid3d": lambda: grid_laplacian((6, 6, 4)),
    "aniso": lambda: anisotropic_laplacian((7, 5, 4)),
    "vec3": lambda: vector_stencil((4, 4, 4), 3, seed=13),
    "kkt": lambda: kkt_like(80, 20, density=0.05, seed=5),
    "arrow": lambda: arrow_matrix(80, bandwidth=2, arrow_width=3),
}


@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_all_engines_agree(matrix):
    system = analyze(MATRICES[matrix]())
    factors = {}
    for name, engine in ALL_ENGINES.items():
        res = engine(system.symb, system.matrix)
        factors[name] = res.storage.to_dense_lower()
    ref = factors["rl"]
    for name, L in factors.items():
        err = np.abs(L - ref).max()
        assert err < 1e-10, f"{name} differs from rl by {err}"


@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_solve_residuals_small(matrix):
    A = MATRICES[matrix]()
    rng = np.random.default_rng(99)
    x_true = rng.standard_normal(A.n)
    b = A.matvec(x_true)
    factor = repro.plan(A).factorize(engine="rl")
    x = factor.solve(b)
    assert factor.residual_norm(x, b) < 1e-10


class TestHypothesisPipeline:
    @given(st.integers(min_value=5, max_value=60), st.integers(0, 100_000),
           st.sampled_from(["nd", "mindeg"]))
    @settings(max_examples=20, deadline=None)
    def test_random_spd_full_pipeline(self, n, seed, ordering):
        A = random_spd(n, density=0.12, seed=seed % 769)
        system = analyze(A, ordering=ordering)
        res = factorize_rl_cpu(system.symb, system.matrix)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        y = solve_factored(res.storage, b[system.perm])
        x = np.empty_like(y)
        x[system.perm] = y
        r = b - A.matvec(x)
        assert np.abs(r).max() / max(np.abs(b).max(), 1e-300) < 1e-8

    @given(st.integers(min_value=4, max_value=40), st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_gpu_engines_match_cpu_random(self, n, seed):
        A = random_spd(n, density=0.2, seed=seed % 523)
        system = analyze(A)
        cpu = factorize_rl_cpu(system.symb, system.matrix)
        gpu = factorize_rl_gpu(system.symb, system.matrix, threshold=0,
                               device_memory=BIG_MEM)
        assert np.allclose(cpu.storage.to_dense_lower(),
                           gpu.storage.to_dense_lower(), atol=1e-10)

    @given(st.integers(min_value=4, max_value=30), st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_llt_reconstructs_a(self, n, seed):
        A = random_spd(n, density=0.25, seed=seed % 389)
        system = analyze(A)
        res = factorize_rlb_cpu(system.symb, system.matrix)
        L = res.storage.to_dense_lower()
        assert np.allclose(L @ L.T, system.matrix.to_dense(), atol=1e-8)


class TestSuiteMatrixSmoke:
    """One real suite matrix end-to-end (the small one, to stay fast)."""

    def test_curlcurl2_all_methods(self):
        from repro.sparse import build_matrix

        A = build_matrix("CurlCurl_2")
        system = analyze(A)
        rl = factorize_rl_cpu(system.symb, system.matrix)
        g = factorize_rl_gpu(system.symb, system.matrix)
        assert np.allclose(rl.storage.to_dense_lower(),
                           g.storage.to_dense_lower(), atol=1e-9)
        # speedup over the CPU baseline (the Table I property)
        assert g.modeled_seconds < rl.modeled_seconds
