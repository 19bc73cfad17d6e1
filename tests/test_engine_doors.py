"""Every door gives the registry's answer.

A request names an engine and some options; ``registry.resolve`` decides
whether that engine takes them.  This module walks every registered engine
× a set of options through every place a request enters —
``plan.factorize``, ``plan.factorize_batch``, ``plan.serve``, ``Gateway``
and the CLI's ``factorize`` / ``batch`` / ``serve`` commands — and asserts
they all give the *same* outcome: the request runs, or ONE ``ValueError``
naming the option and the engine (exit code 2 with that message on
stderr).  Every row can be served, and a served solution has the bits of
``plan.factorize(engine=row).solve(b)``.
"""

import asyncio
import dataclasses
import functools
import inspect

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.gpu import MachineModel, Tracer
from repro.numeric import registry
from repro.numeric.procpool import close_default_pools
from repro.numeric.registry import BACKENDS, ENGINES, resolve, serial_twin
from repro.serving import Gateway
from repro.sparse import grid_laplacian
from repro.sparse.io import write_matrix_market
from tests.conftest import assert_measured

#: option -> a valid value for it (``bogus`` is a keyword no engine has)
OPTIONS = {
    "workers": 1,
    "devices": 1,  # no engine takes it: one device is the only GPU model
    "threshold": 0,
    "dtype": np.float32,
    "tracer": None,  # a fresh Tracer per request
    "granularity": "fine",
    # each granularity's pipeline-ablation switch; the other one's is fixed
    "inflight": 1,
    "async_panel_d2h": False,
    "bogus": 1,
}

#: the options each CLI command spells as a flag
CLI_FLAGS = {
    "workers": ["--workers", "1"],
    "threshold": ["--threshold", "0"],
    "dtype": ["--dtype", "fp32"],
}

#: What the ``kind`` / ``supports_dtype`` rules allowed, per engine, out of
#: {workers, threshold, dtype, tracer} — typed in here as the independent
#: record; the gpu rows also take ``tracer`` (``rlb_gpu_v1`` records its
#: serial loop's timeline through it, the others are the stream rows).  No
#: engine takes ``devices`` any more.
_CPU = {"dtype"}
_PAR = {"workers", "dtype", "tracer"}
_STREAM = {"threshold", "dtype", "tracer"}
CAPABILITIES = {
    "rl": _CPU, "rlb": _CPU,
    "rl_par": _PAR, "rlb_par": _PAR, "rl_proc": _PAR, "rlb_proc": _PAR,
    "rl_gpu": _STREAM, "rlb_gpu_v2": _STREAM, "rlb_gpu_v1": _STREAM,
}


#: the rows that measure their wall clock instead of modeling one
MEASURED = sorted(n for n, spec in ENGINES.items() if spec.backend in ("threads", "process"))


@pytest.fixture(scope="module")
def plan():
    yield repro.plan(grid_laplacian((4, 4)))
    close_default_pools()


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("doors") / "grid.mtx"
    write_matrix_market(path, grid_laplacian((4, 4)))
    return str(path)


def _value(option):
    return Tracer() if option == "tracer" else OPTIONS[option]


def _outcome(call):
    """``None`` when the request ran, else the ValueError's message."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _gateway(submit=None, **kwargs):
    """Open a one-worker ``Gateway(**kwargs)``, await ``submit(gw)`` on it
    (when given) and close it; returns what ``submit`` returned."""

    async def run():
        async with Gateway(workers=1, **kwargs) as gw:
            return None if submit is None else await submit(gw)

    return asyncio.run(run())


def test_capabilities_are_the_parents():
    assert set(CAPABILITIES) == set(ENGINES)
    for name, spec in ENGINES.items():
        got = spec.accepts & {"workers", "devices", "threshold", "dtype",
                              "tracer"}
        assert got == CAPABILITIES[name], name


def test_nine_rows_all_take_dtype_none_takes_device():
    """The paper's {rl, rlb} x {serial, threads, gpu, process} rows plus
    ``rlb_gpu_v1``: every row is in the precision lane, and a trace reaches
    a row through ``tracer=`` only — no row is handed a device."""
    assert len(ENGINES) == 9
    assert all("dtype" in spec.accepts for spec in ENGINES.values())
    assert not any("device" in spec.accepts for spec in ENGINES.values())


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_api_doors_agree(plan, name, option):
    spec = ENGINES[name]
    want = _outcome(lambda: resolve(name, **{option: _value(option)}))
    if option in spec.accepts:
        assert want is None
    else:
        assert f"{option}=" in want and repr(spec.name) in want

    got = _outcome(
        lambda: plan.factorize(engine=name, **{option: _value(option)}))
    assert got == want, "plan.factorize"
    got = _outcome(lambda: plan.factorize_batch(
        [None, None], engine=name, **{option: _value(option)}))
    assert got == want, "plan.factorize_batch"

    if option == "tracer":
        return  # serve() and the Gateway take a tracer for every row
    got = _outcome(
        lambda: plan.serve(engine=name, **{option: _value(option)}).close())
    assert got == want, "plan.serve"
    if option in ("threshold", "dtype"):
        # the Gateway's other keywords size its pool or go to analyze()
        got = _outcome(lambda: _gateway(engine=name, **{option: _value(option)}))
        assert got == want, "Gateway"


@pytest.mark.parametrize("option", sorted(CLI_FLAGS))
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_cli_doors_agree(matrix_file, capsys, name, option):
    want = _outcome(lambda: resolve(name, **{option: OPTIONS[option]}))
    commands = {
        "factorize": ["factorize", matrix_file, "--engine", name],
        "batch": ["batch", matrix_file, "--engine", name, "--batch", "2"],
        "serve": ["serve", matrix_file, "--engine", name, "--count", "2"],
    }
    if option == "threshold":
        del commands["batch"]  # no --threshold flag there
    for command, argv in commands.items():
        code = main(argv + CLI_FLAGS[option])
        err = capsys.readouterr().err
        if want is not None:
            assert (code, err.strip()) == (2, want), command
        else:
            assert code == 0, (command, err)


@pytest.mark.parametrize("dtype", [None, np.float32], ids=["None", "float32"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_row_serves_the_direct_bits(plan, name, dtype):
    """A session and a gateway run any registered row, in fp64 and fp32;
    each served solution is
    ``plan.factorize(engine=name).solve(b)`` bit for bit."""
    A = plan.matrix
    b = np.random.default_rng(3).standard_normal(plan.n)
    values = A.data * 1.5
    want = plan.factorize(values, engine=name, dtype=dtype).solve(b)
    with plan.serve(engine=name, dtype=dtype) as session:
        got = session.submit_solve(values, b).result()
    np.testing.assert_array_equal(got, want)

    B = repro.SymmetricCSC(A.n, A.indptr, A.indices, values, check=False)
    got = _gateway(lambda gw: gw.submit(B, b), engine=name, dtype=dtype)
    np.testing.assert_array_equal(got, want)


def _first_factor(door, name, A):
    """The Factor of the first request for ``A`` on row ``name`` through
    ``door``, on a plan no earlier request touched."""
    if door == "gateway":
        return _gateway(lambda gw: gw.submit(A), engine=name)
    plan = repro.plan(A)
    if door == "direct":
        return plan.factorize(engine=name, workers=2)
    if door == "batch":
        return plan.factorize_batch([None, A.data * 2], engine=name, workers=2)[0]
    with plan.serve(engine=name, workers=2) as session:
        return session.submit().result()


@pytest.mark.parametrize("door", ["direct", "batch", "session", "gateway"])
@pytest.mark.parametrize("name", MEASURED)
def test_measured_rows_report_no_model(name, door):
    """A threads or process row returns its factor and what it measured,
    at every door: no model field, and no pricing of the pattern on the
    way — the serial twin's factor, bit for bit."""
    assert len(MEASURED) == 4
    factor = _first_factor(door, name, grid_laplacian((9, 8)))
    assert_measured(factor.result)
    assert "cpu_cost" not in factor.plan.symb.cache()
    twin = factor.plan.factorize(engine=serial_twin(name))
    for p, q in zip(factor.storage.panels, twin.storage.panels, strict=True):
        assert np.array_equal(p, q)


def test_machine_is_for_the_modeled_rows_only(plan):
    """``machine=`` prices a modeled report: the serial and GPU rows take
    it at every door, a measured row refuses it with the registry's one
    ``ValueError``."""
    doors = {
        "plan.factorize": lambda **kw: plan.factorize(**kw),
        "plan.factorize_batch": lambda **kw: plan.factorize_batch([None], **kw),
        "plan.serve": lambda **kw: plan.serve(**kw).close(),
    }
    for door, call in doors.items():
        for name in MEASURED:
            with pytest.raises(ValueError, match=f"machine= is not accepted by engine {name!r}"):
                call(engine=name, machine=MachineModel())
        for name in ("rl", "rl_gpu"):
            assert _outcome(lambda: call(engine=name, machine=MachineModel())) is None, door


def test_the_doors_disagreed_at_the_parent(plan):
    """The three requests whose outcome depended on the door: a bare
    ``TypeError`` from the engine, another from the batch runtime, and a
    "multiple values" collision with the row's fixed keyword."""
    with pytest.raises(ValueError, match="threshold= is not accepted by "
                                         "engine 'rl'; accepted by: .*rl_gpu"):
        plan.factorize(engine="rl", threshold=1)
    with pytest.raises(ValueError, match="threshold= is not accepted by "
                                         "engine 'rl_par'"):
        plan.factorize_batch([None], engine="rl_par", threshold=0)
    with pytest.raises(ValueError, match="granularity= is fixed by engine "
                                         "'rl_par'"):
        plan.factorize(engine="rl_par", granularity="fine")
    with pytest.raises(ValueError, match="unknown engine"):
        repro.numeric.registry.serial_twin("nonsense")


@pytest.mark.parametrize("name,switch", [
    ("rl_gpu", "inflight"), ("rlb_gpu_v2", "async_panel_d2h"),
])
def test_the_other_granularitys_ablation_is_refused(plan, name, switch):
    """These once ran and reported the default's modeled seconds — an
    ablation typed against the wrong engine read as "no effect".  Each gpu
    row's loop takes only its own switch, so the other one is refused."""
    spec = ENGINES[name]
    assert switch not in inspect.signature(spec.fn).parameters
    assert switch not in spec.accepts
    with pytest.raises(ValueError, match=f"{switch}= is not accepted by engine {spec.name!r}"):
        plan.factorize(engine=name, **{switch: OPTIONS[switch]})
    # the row's own switch still moves the schedule
    own = ({"inflight", "async_panel_d2h"} - {switch}).pop()
    assert own in spec.accepts
    plan.factorize(engine=name, **{own: OPTIONS[own]})


def test_invalid_counts_and_dtypes_are_rejected_once(plan):
    from repro.dense.kernels import UnsupportedDtypeError

    for door in (plan.factorize,
                 lambda **kw: plan.factorize_batch([None], **kw),
                 lambda **kw: plan.serve(**kw).close()):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            door(engine="rl_par", workers=0)
        with pytest.raises(UnsupportedDtypeError):
            door(engine="rlb_par", dtype=np.float16)


class _Reached(Exception):
    """Raised by a spy engine with the keyword arguments it was called with."""


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_advertised_option_reaches_the_engine(plan, monkeypatch, name):
    """Every option the engine table lists for a row arrives at the row's
    callable through ``plan.factorize``.  The gpu rows once listed
    ``backend``, which every door reads as the substrate name, so passing a
    backend object to ``plan.factorize(engine="rl_gpu", backend=...)``
    raised ``unknown backend``."""
    spec = ENGINES[name]
    values = {"workers": 2, "dtype": np.float32}

    @functools.wraps(spec.fn)  # same signature, so the same ``accepts``
    def spy(symb, A, **kwargs):
        raise _Reached(kwargs)

    monkeypatch.setitem(registry.ENGINES, name, dataclasses.replace(spec, fn=spy))
    assert registry.ENGINES[name].accepts == spec.accepts
    for option in sorted(spec.accepts):
        value = values.get(option, object())
        with pytest.raises(_Reached) as reached:
            plan.factorize(engine=name, **{option: value})
        got = reached.value.args[0][option]
        assert got == value if option in values else got is value, option


def _refused_at_every_door(plan, matrix_file, capsys, retired):
    """``retired`` (one ``engine=`` or ``backend=``) is one registry
    ``ValueError`` at every API door; the CLI exits 2 with it, or argparse
    refuses a ``--backend`` outside its choices (``solve`` has none)."""
    ((key, value),) = retired.items()
    want = _outcome(lambda: resolve(**{"engine": "rl", **retired}))
    assert want.startswith(f"unknown {key} {value!r}")

    doors = {
        "plan.factorize": lambda: plan.factorize(**retired),
        "plan.factorize_batch": lambda: plan.factorize_batch([None], **retired),
        "plan.serve": lambda: plan.serve(**retired).close(),
        "Gateway": lambda: _gateway(**retired),
    }
    for door, call in doors.items():
        assert _outcome(call) == want, door

    flag = f"--{key}"
    commands = [["factorize", matrix_file, flag, value],
                ["solve", matrix_file, flag, value],
                ["batch", matrix_file, flag, value, "--batch", "2"],
                ["serve", matrix_file, flag, value, "--count", "2"]]
    if key == "engine":
        commands.append(["update", matrix_file, flag, value])
    for argv in commands:
        if key == "engine":
            assert main(argv) == 2, argv[0]
            assert capsys.readouterr().err.strip() == want, argv[0]
        else:  # --backend's choices are BACKENDS: argparse refuses the name
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            # solve runs on the host and takes no --backend at all
            refusal = ("unrecognized arguments: --backend" if argv[0] == "solve"
                       else f"invalid choice: {value!r}")
            assert refusal in capsys.readouterr().err


@pytest.mark.parametrize("retired", [
    {"engine": "rl_hybrid"}, {"engine": "rlb_hybrid"}, {"backend": "hybrid"},
], ids=["rl_hybrid", "rlb_hybrid", "backend-hybrid"])
def test_the_hybrid_lane_is_refused_at_every_door(plan, matrix_file, capsys, retired):
    """The CPU-worker + GPU-stream lane is gone: its engine names and its
    backend name are one registry ``ValueError`` at every door."""
    assert sorted(BACKENDS) == ["gpu", "process", "threads"]
    _refused_at_every_door(plan, matrix_file, capsys, retired)


@pytest.mark.parametrize(
    "name", ["left_looking", "multifrontal", "multifrontal_gpu"]
)
def test_the_baselines_are_refused_at_every_door(plan, matrix_file, capsys, name):
    """The left-looking and multifrontal baselines are not paper engines:
    their names are unknown engines at every door, like any other name the
    registry lacks."""
    _refused_at_every_door(plan, matrix_file, capsys, {"engine": name})


@pytest.mark.parametrize("name", ["rl_gpu_dag", "rlb_gpu_dag"])
def test_the_second_spellings_are_refused_at_every_door(plan, matrix_file, capsys, name):
    """Each row has one name: the stream rows' second spellings are unknown
    engines at every door, like any other name the registry lacks."""
    assert all(spec.name == key for key, spec in ENGINES.items())
    _refused_at_every_door(plan, matrix_file, capsys, {"engine": name})


def test_devices_is_refused_at_every_door(plan, matrix_file, capsys):
    """The simulated GPU is one host-coupled device, so ``devices=`` has no
    door left: one registry ``ValueError`` where a door resolves its
    options, a ``TypeError`` where the signature is fixed, and an unknown
    flag (exit 2) at every CLI command."""
    want = _outcome(lambda: resolve("rl_gpu", devices=2))
    assert want == "devices= is not accepted by engine 'rl_gpu'; accepted by: no engine"
    doors = {
        "plan.factorize": lambda: plan.factorize(engine="rl_gpu", devices=2),
        "plan.factorize_batch": lambda: plan.factorize_batch(
            [None], engine="rl_gpu", devices=2),
        "plan.serve": lambda: plan.serve(engine="rl_gpu", devices=2).close(),
    }
    for door, call in doors.items():
        assert _outcome(call) == want, door

    factor = plan.factorize(engine="rl")
    for door in (lambda: factor.solve(np.ones(plan.n), devices=2),
                 lambda: Gateway(devices=2)):
        with pytest.raises(TypeError, match="devices"):
            door()

    for argv in (["factorize", matrix_file], ["batch", matrix_file],
                 ["solve", matrix_file], ["serve", matrix_file]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--devices", "2"])
        assert exc.value.code == 2, argv[0]
        assert "unrecognized arguments: --devices 2" in capsys.readouterr().err
