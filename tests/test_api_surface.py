"""Tier-1 API-surface guard: every documented public name must import.

``docs/api.md`` documents the staged pipeline; this test pins that
surface so a refactor cannot silently drop a documented
name from ``repro`` (or from the subpackage homes the docs reference).
"""

import importlib

import pytest

import repro

#: Names docs/api.md documents as importable directly from ``repro``.
DOCUMENTED_TOP_LEVEL = [
    "plan",
    "SymbolicPlan",
    "Factor",
    "ServingSession",
    "analyze",
    "pattern_fingerprint",
    "SymmetricCSC",
    "ENGINES",
    "engine_names",
    "get_engine",
    "NotPositiveDefiniteError",
    "NonFiniteValuesError",
    "WorkerDiedError",
    # direct engine entry points (power users; the staged API wraps these)
    "factorize_rl_cpu",
    "factorize_rlb_cpu",
    "factorize_rl_gpu",
    "factorize_rlb_gpu",
    "memory_plan",
    "SimulatedGpu",
    "MachineModel",
    "DeviceOutOfMemory",
    "Tracer",
    "__version__",
]

#: Documented names living in subpackages: (module, name).
DOCUMENTED_SUBPACKAGE = [
    ("repro.api", "plan"),
    ("repro.api", "SymbolicPlan"),
    ("repro.api", "Factor"),
    ("repro.api", "ServingSession"),
    ("repro.api", "same_pattern_values"),
    ("repro.api", "PatternMismatchError"),
    ("repro.sparse", "spd_value_sweep"),
    ("repro.numeric.registry", "ENGINES"),
    ("repro.numeric.registry", "EngineSpec"),
    ("repro.numeric.registry", "get_engine"),
    ("repro.numeric.registry", "engine_names"),
    ("repro.numeric.registry", "serial_twin"),
    ("repro.numeric.registry", "resolve"),
    ("repro.numeric.registry", "engine_table"),
    ("repro.numeric", "scaled_panel_entries_array"),
    ("repro.numeric.executor", "run_task_graph"),
    ("repro.numeric.executor", "dag_plan"),
    ("repro.numeric", "ProcessPool"),
    ("repro.numeric", "factorize_process"),
    ("repro.numeric.procpool", "ProcessPool"),
    ("repro.numeric.procpool", "WorkerDiedError"),
    ("repro.numeric.procpool", "factorize_process"),
    ("repro.numeric.procpool", "default_process_pool"),
    ("repro.numeric.procpool", "close_default_pools"),
    ("repro.numeric.blas_limits", "BLAS_ENV_VARS"),
    ("repro.numeric.blas_limits", "limit_blas_threads"),
    ("repro.numeric.blas_limits", "pinned_blas_env"),
    ("repro.solve", "solve_factored"),
    ("repro.solve", "solve_graph"),
    ("repro.solve", "check_rhs"),
    ("repro.solve", "refine"),
    ("repro.solve", "relative_residual"),
    ("repro.symbolic", "solve_schedule"),
    ("repro.symbolic", "solve_levels"),
    ("repro.symbolic", "SolveSchedule"),
    ("repro.solve.triangular", "serial_body"),
    ("repro.solve.triangular", "solve_in_place"),
    ("repro.dense.kernels", "check_finite"),
    ("repro.symbolic", "pattern_fingerprint"),
    ("repro.serving", "Gateway"),
    ("repro.serving", "GatewayStats"),
    ("repro.serving", "PatternStats"),
    ("repro.serving", "GatewayRejected"),
    ("repro.serving", "GatewayOverloaded"),
    ("repro.serving", "TenantBudgetExceeded"),
    ("repro.serving", "GatewayTimeout"),
    ("repro.serving", "UnknownPatternError"),
    ("repro.serving", "NoBaseFactorError"),
    ("repro.serving", "plan_nbytes"),
    ("repro.numeric.updown", "column_structure"),
    ("repro.update", "UpdateCost"),
    ("repro.update", "UpdateCostModel"),
    ("repro.update", "update_cost"),
    ("repro.update", "UpdatedMatrix"),
    ("repro.update", "structured_update"),
]

#: The complete intended ``repro.serving.__all__`` — pinned exactly, so an
#: accidental export (or a dropped one) fails loudly rather than silently
#: widening the documented gateway surface.
SERVING_ALL = [
    "Gateway",
    "GatewayStats",
    "PatternStats",
    "GatewayRejected",
    "GatewayOverloaded",
    "TenantBudgetExceeded",
    "GatewayTimeout",
    "UnknownPatternError",
    "NoBaseFactorError",
    "plan_nbytes",
]


@pytest.mark.parametrize("name", DOCUMENTED_TOP_LEVEL)
def test_top_level_name_importable(name):
    assert hasattr(repro, name), f"repro.{name} missing"


def test_all_is_complete_and_importable():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} in __all__ but missing"
    for name in DOCUMENTED_TOP_LEVEL:
        assert name in repro.__all__, f"{name} documented but not in __all__"


def test_top_level_all_has_no_accidental_additions():
    """``repro.__all__`` must equal the documented surface exactly — a new
    export has to be added to docs/api.md and this guard deliberately."""
    assert sorted(repro.__all__) == sorted(DOCUMENTED_TOP_LEVEL)


def test_serving_all_is_exact():
    """``repro.serving.__all__`` is pinned exactly (and importable)."""
    import repro.serving

    assert sorted(repro.serving.__all__) == sorted(SERVING_ALL)
    for name in repro.serving.__all__:
        assert hasattr(repro.serving, name), f"repro.serving.{name} missing"


@pytest.mark.parametrize("module,name", DOCUMENTED_SUBPACKAGE)
def test_subpackage_name_importable(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"{module}.{name} missing"


#: Names a dated "Removed" row of docs/api.md retired: (module, dotted path).
REMOVED = [
    ("repro", "SolvePlan"),
    ("repro.api", "SymbolicPlan.solve_plan"),
    ("repro.api", "Factor.solve_plan"),
    ("repro.numeric.registry", "BACKENDS"),
    ("repro.numeric.registry", "backend_engine"),
    ("repro.solve", "forward_solve_graph"),
    ("repro.solve", "backward_solve_graph"),
    ("repro", "rank1_update"),
    ("repro", "rank_k_update"),
    ("repro.numeric", "rank_k_update"),
    ("repro.numeric", "path_union"),
    ("repro.numeric.updown", "rank1_update"),
    ("repro.numeric.updown", "rank_k_update"),
    ("repro.numeric.updown", "affected_columns"),
    ("repro.numeric.updown", "path_union"),
    ("repro.symbolic.levels", "leaf_block"),
    ("repro.symbolic.levels", "LeafBlock"),
    ("repro.symbolic.levels", "LEAF_BLOCK_COLS"),
    ("repro.numeric.storage", "FactorStorage.leaf_values"),
]


@pytest.mark.parametrize("module,path", REMOVED)
def test_removed_name_is_gone(module, path):
    obj = importlib.import_module(module)
    *owners, name = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, name), f"{module}.{path} is back"


def test_registry_consistency():
    """Every registered engine resolves through get_engine under its one
    name; every row has a family, and each family one serial row; rows
    are unique on (family, backend) but for the two rlb gpu rows."""
    from repro.numeric.registry import ENGINES, engine_names, get_engine

    assert engine_names() == sorted(ENGINES)
    rows = {}
    for name, spec in ENGINES.items():
        assert get_engine(name) is spec
        assert spec.name == name
        assert callable(spec.fn)
        assert spec.family in ("rl", "rlb")
        assert spec.backend in ("serial", "threads", "gpu", "process")
        rows[spec.name] = spec
    columns = [(s.family, s.backend) for s in rows.values()
               if s.name != "rlb_gpu_v1"]
    assert len(columns) == len(set(columns))
    assert {f for f, b in columns if b == "serial"} == {"rl", "rlb"}


def test_accepts_is_read_off_the_signature():
    """``EngineSpec.accepts`` is computed, not typed in: a throw-away
    callable's keywords show up without touching any table."""
    from repro.numeric.registry import EngineSpec

    def engine(symb, A, *, knob=1, granularity="coarse", dtype=None):
        return None

    spec = EngineSpec("throwaway", engine, fixed={"granularity": "fine"})
    assert spec.accepts == {"knob", "dtype"}


def test_facade_methods_is_registry_view():
    """The registry is the only engine table: the deprecated facade, its
    ``METHODS`` view, the reference multi-device loop, the batch wrapper,
    the serving-only resolver, the stream-DAG scheduler and the pair tasks'
    helpers are gone (docs/api.md, "Removed")."""
    import repro.numeric
    import repro.numeric.executor
    import repro.numeric.rlb
    import repro.solve

    for mod, name in ((repro, "CholeskySolver"),
                      (repro.solve, "CholeskySolver"),
                      (repro, "factorize_rl_multigpu"),
                      (repro.numeric, "factorize_rl_multigpu"),
                      (repro, "FactorBatch"),
                      (repro.api, "FactorBatch"),
                      (repro.numeric.registry, "resolve_serving"),
                      (repro.numeric, "GpuStreamBackend"),
                      (repro.numeric.executor, "GpuStreamBackend"),
                      (repro.numeric, "factorize_gpu_dag"),
                      (repro.numeric, "factor_snode"),
                      (repro.numeric, "apply_block_pair"),
                      (repro.numeric, "block_pair_targets"),
                      (repro.numeric.rlb, "pair_kernel"),
                      (repro.numeric.executor, "LeavingPairs")):
        assert not hasattr(mod, name)
    assert "METHODS" not in repro.numeric.registry.__all__ + repro.solve.__all__


@pytest.mark.parametrize("path", ["docs/backends.md", "README.md"])
def test_engine_table_in_docs_is_generated(path):
    """The engine table in the docs is ``registry.engine_table()`` output,
    not a hand-kept copy; the registry's own docstring ends with it."""
    import pathlib

    from repro.numeric import registry

    text = (pathlib.Path(__file__).parent.parent / path).read_text()
    begin, end = "<!-- engine-table:begin -->\n", "\n<!-- engine-table:end -->"
    block = text[text.index(begin) + len(begin):text.index(end)]
    assert block == registry.engine_table()
    assert registry.__doc__.endswith(registry.engine_table() + "\n")


def test_version_has_one_source():
    """pyproject.toml reads ``repro.__version__``; it states no version of
    its own."""
    import pathlib

    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).parent.parent
    config = tomllib.loads((root / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"}
    assert (root / config["project"]["readme"]).exists()
