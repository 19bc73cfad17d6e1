"""The 21-matrix benchmark suite: synthetic surrogates for the paper's set.

The paper evaluates on 21 SuiteSparse matrices with ``n >= 600,000``.  Those
inputs (and the Perlmutter node they ran on) are not available here, so each
matrix is replaced by a *structural surrogate* built by
:mod:`repro.sparse.generators` at laptop scale:

* electromagnetic ``CurlCurl_*`` → anisotropic 3-D stencils,
* ``dielFilter*`` → box-connectivity 3-D grids,
* 2-D-ish flow/reservoir problems (``PFlow_742``) → 2-D box grids with many
  tiny supernodes,
* mechanical/FEM problems (``audikw_1``, ``Serena``, ``Queen_4147``,
  ``Bump_2911``, ...) → 3-dof vector stencils whose node blocks produce the
  large dense supernodes these matrices are known for,
* ``nlpkkt80`` / ``nlpkkt120`` → 2-dof *elongated* 3-D box stencils (the
  real nlpkkt matrices are PDE-constrained KKT systems on 3-D grids); the
  elongated domain stacks many separators, so update matrices grow much
  larger than any single panel — the ``nlpkkt120`` surrogate's largest RL
  update matrix exceeds the simulated device memory, reproducing the
  paper's out-of-memory failure, while RLB version 2 still fits.

Surrogates are ordered (and sized) so the *relative* factorization work
increases down the table like the paper's, which is what the speedup trends
and performance profile depend on.  Each entry also records the paper's
measured numbers (Table I, Table II) so the benchmark harness can print
paper-vs-measured comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import generators as gen
from .csc import SymmetricCSC

__all__ = ["PaperStats", "SuiteEntry", "SUITE", "suite_names", "build_matrix"]


@dataclass(frozen=True)
class PaperStats:
    """Numbers reported in the paper for one matrix and one method."""

    runtime_s: Optional[float]  #: GPU-accelerated runtime (None = failed)
    speedup: Optional[float]    #: speedup vs best CPU time
    snodes_on_gpu: Optional[int]  #: supernodes dispatched to the GPU


@dataclass(frozen=True)
class SuiteEntry:
    """One matrix of the benchmark suite.

    Attributes
    ----------
    name:
        SuiteSparse name from the paper.
    builder:
        Zero-argument callable producing the surrogate
        :class:`~repro.sparse.csc.SymmetricCSC`.
    paper_n:
        Dimension of the real matrix.
    paper_total_snodes:
        Total number of supernodes the paper reports after merging.
    rl / rlb:
        Paper Table I / Table II statistics for the GPU-accelerated RL and
        RLB (version 2) methods.
    archetype:
        Short description of the structural family the surrogate imitates.
    """

    name: str
    builder: Callable[[], SymmetricCSC]
    paper_n: int
    paper_total_snodes: int
    rl: PaperStats
    rlb: PaperStats
    archetype: str


def _aniso(shape, weights=(1.0, 0.3, 0.05)):
    return lambda: gen.anisotropic_laplacian(shape, weights=list(weights[: len(shape)]))


def _grid(shape, connectivity="star"):
    return lambda: gen.grid_laplacian(shape, connectivity=connectivity)


def _vec(shape, dof=3, connectivity="star", seed=0):
    return lambda: gen.vector_stencil(shape, dof, connectivity=connectivity, seed=seed)


#: The 21 matrices of the paper's test set, in Table I order.
SUITE: tuple[SuiteEntry, ...] = (
    SuiteEntry("CurlCurl_2", _aniso((16, 16, 10)), 806_529, 8_822,
               PaperStats(3.800, 1.59, 98), PaperStats(4.802, 1.26, 81),
               "anisotropic 3-D electromagnetic stencil"),
    SuiteEntry("dielFilterV2real", _grid((19, 18, 9)), 1_157_456, 11_292,
               PaperStats(5.599, 1.40, 150), PaperStats(7.204, 1.09, 126),
               "3-D dielectric-filter grid"),
    SuiteEntry("dielFilterV3real", _grid((20, 18, 9)), 1_102_824, 10_156,
               PaperStats(5.669, 1.43, 148), PaperStats(6.776, 1.20, 122),
               "3-D dielectric-filter grid"),
    SuiteEntry("PFlow_742", _grid((96, 96), "box"), 742_793, 61_809,
               PaperStats(4.497, 1.35, 123), PaperStats(4.715, 1.29, 94),
               "2-D-dominated porous-flow mesh, many tiny supernodes"),
    SuiteEntry("CurlCurl_3", _aniso((20, 20, 10)), 1_219_574, 10_074,
               PaperStats(7.040, 2.01, 164), PaperStats(9.040, 1.56, 146),
               "anisotropic 3-D electromagnetic stencil"),
    SuiteEntry("StocF-1465", _grid((17, 17, 15)), 1_465_137, 40_255,
               PaperStats(9.379, 1.87, 236), PaperStats(12.082, 1.45, 199),
               "3-D stochastic flow grid"),
    SuiteEntry("bone010", _vec((9, 9, 8), seed=10), 986_703, 4_017,
               PaperStats(9.158, 1.41, 264), PaperStats(9.754, 1.32, 228),
               "3-dof micro-FEM bone model"),
    SuiteEntry("Flan_1565", _vec((10, 10, 8), seed=11), 1_564_794, 7_591,
               PaperStats(12.853, 1.31, 461), PaperStats(13.529, 1.25, 360),
               "3-dof shell/solid FEM"),
    SuiteEntry("audikw_1", _vec((10, 9, 8), seed=12), 943_695, 3_725,
               PaperStats(9.922, 1.68, 264), PaperStats(11.355, 1.46, 223),
               "3-dof automotive crankshaft FEM, dense node blocks"),
    SuiteEntry("Fault_639", _vec((9, 8, 8), seed=13), 638_802, 1_981,
               PaperStats(8.188, 1.90, 261), PaperStats(9.938, 1.56, 178),
               "3-dof faulted gas-reservoir FEM"),
    SuiteEntry("Hook_1498", _grid((18, 18, 16)), 1_498_023, 10_781,
               PaperStats(12.032, 2.29, 284), PaperStats(15.114, 1.83, 242),
               "3-D hook mesh"),
    SuiteEntry("Emilia_923", _vec((11, 10, 8), seed=14), 923_136, 2_815,
               PaperStats(12.432, 2.04, 405), PaperStats(15.253, 1.66, 267),
               "3-dof geomechanical FEM"),
    SuiteEntry("CurlCurl_4", _aniso((24, 24, 10)), 2_380_515, 17_660,
               PaperStats(15.745, 2.44, 340), PaperStats(20.324, 1.89, 277),
               "anisotropic 3-D electromagnetic stencil"),
    SuiteEntry("nlpkkt80", _vec((8, 8, 18), dof=2, connectivity="box", seed=15), 1_062_400, 5_431,
               PaperStats(12.596, 2.42, 235), PaperStats(14.886, 2.05, 208),
               "PDE-constrained KKT archetype (2-dof elongated 3-D box stencil)"),
    SuiteEntry("Geo_1438", _vec((12, 11, 8), seed=16), 1_437_960, 4_419,
               PaperStats(18.698, 2.01, 601), PaperStats(20.419, 1.84, 405),
               "3-dof geomechanical FEM"),
    SuiteEntry("Serena", _vec((12, 12, 8), seed=17), 1_391_349, 4_822,
               PaperStats(19.333, 3.00, 388), PaperStats(24.972, 2.32, 302),
               "3-dof gas-reservoir FEM"),
    SuiteEntry("Long_Coup_dt0", _vec((12, 12, 9), seed=18),
               1_470_152, 2_897,
               PaperStats(27.708, 3.22, 1_432), PaperStats(40.968, 2.18, 1_207),
               "3-dof coupled consolidation FEM (long domain)"),
    SuiteEntry("Cube_Coup_dt0", _vec((13, 13, 9), seed=19),
               2_164_760, 3_853,
               PaperStats(42.188, 3.75, 2_142), PaperStats(61.064, 2.59, 1_918),
               "3-dof coupled consolidation FEM (cube domain)"),
    SuiteEntry("Bump_2911", _vec((14, 14, 10), seed=20),
               2_911_419, 64_995,
               PaperStats(64.339, 4.47, 2_848), PaperStats(99.561, 2.89, 2_368),
               "3-dof reservoir FEM, very large factor"),
    SuiteEntry("nlpkkt120", _vec((11, 11, 50), dof=2, connectivity="box", seed=21), 3_542_400, 12_785,
               PaperStats(None, None, None), PaperStats(114.658, 3.07, 1_048),
               "PDE-constrained KKT archetype (elongated); RL update matrix exceeds GPU memory"),
    SuiteEntry("Queen_4147", _vec((15, 15, 11), seed=22),
               4_147_110, 7_158,
               PaperStats(89.552, 4.27, 3_898), PaperStats(121.299, 3.15, 3_647),
               "3-dof structural FEM, largest problem in the set"),
)

_BY_NAME = {e.name: e for e in SUITE}


def suite_names():
    """Names of the 21 suite matrices in Table I order."""
    return [e.name for e in SUITE]


def build_matrix(name):
    """Build the surrogate matrix for the given suite name."""
    try:
        entry = _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown suite matrix {name!r}; valid names: {suite_names()}"
        ) from None
    return entry.builder()


def get_entry(name) -> SuiteEntry:
    """Return the :class:`SuiteEntry` (including paper statistics) by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown suite matrix {name!r}; valid names: {suite_names()}"
        ) from None


__all__.append("get_entry")
