"""Program entry: ``python -m macwtfb`` and the installed ``macwtfb`` command.

:func:`main` runs the CLI with one OpenBLAS thread unless the user chose a
count through ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``.  The package makes no BLAS call large enough to use
more: its only one is a 1-D dot product in ``info`` on vectors far below
OpenBLAS's threading threshold.  Yet OpenBLAS starts a worker thread per
extra core when numpy loads, and those threads cost CPU time in the one
command that loads numpy, ``region discrete``.  The variable is set before
any handler imports numpy, which reads it once, at load.  :func:`macwtfb.cli.main` itself
writes no environment, so the CLI can run in-process unchanged.
"""

from __future__ import annotations

import os
import sys
from typing import Sequence

# The variables OpenBLAS reads its thread count from.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI on ``argv`` (default: the process arguments) and return
    its exit code, with one OpenBLAS thread unless a count was chosen."""
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import cli  # after the write, so no module it loads reads the count first

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
