"""The `delaymac` launcher: `python -m delaymac` and the console script.

Importing numpy takes most of a short command's start-up, so only region,
maxbits, calibrate and simulate load it, in the handler that runs their
model once every flag and input file is checked: --version, --help, energy,
bias and every flag or input-file error exit without it, and only the
models' own domain checks run after it loads (see the cli module docstring).

No delaymac code calls BLAS, yet numpy's OpenBLAS starts one worker thread
per extra core when numpy loads, which costs every array command tens of
milliseconds of start-up on a busy host. run() therefore pins OpenBLAS to
one thread before anything imports numpy. A value the user set in
OPENBLAS_NUM_THREADS wins, and importing the package as a library leaves
BLAS as it is: only this launcher sets the variable.
"""

import os
import sys


def run() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    return main()


if __name__ == "__main__":
    sys.exit(run())
