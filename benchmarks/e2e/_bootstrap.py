"""Import first, from a script: pins BLAS to one thread before numpy loads
it (``benchmarks/_blas.py``), and puts ``src/`` and ``benchmarks/`` on
``sys.path``.

The benchmark measures *task-level* parallelism (executor workers, gateway
clients); a BLAS pool of its own would oversubscribe the two cores.  Exits
non-zero when the repository's sources are not beside the benchmark — there
is nothing to measure then.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if "numpy" in sys.modules:
    sys.exit("benchmarks/e2e: numpy was imported before the BLAS thread pin")
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("benchmarks/e2e: src/repro not found beside the benchmark; "
             "run it from a checkout of the repository")

for _p in (ROOT / "src", HERE.parent):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from _blas import pin_blas_threads  # noqa: E402  (benchmarks/_blas.py)

pin_blas_threads(1, override=True)
