"""``python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
[--trace 0|1] [--smoke] [--sets N]`` — see README.md."""

import sys

import _bootstrap  # noqa: F401  (first: sys.path, BLAS pin before numpy)

from e2e.runner import main

if __name__ == "__main__":
    sys.exit(main())
