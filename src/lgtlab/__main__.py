"""The `lgtlab` command (also `python -m lgtlab`).

BLAS fixes its thread count when numpy loads it, so `--threads N` (else
LGTLAB_THREADS) goes into the environment here, before the runner
`lgtlab.cli` and with it numpy are imported.
"""

import argparse
import os
import sys


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    flag = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    flag.add_argument("--threads", type=int)
    try:
        threads = flag.parse_known_args(argv)[0].threads
    except argparse.ArgumentError:
        threads = None                  # the runner's parser reports it
    threads = threads or os.environ.get("LGTLAB_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
    from .cli import main as run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
