"""The `lgtlab` command (also `python -m lgtlab`).

BLAS fixes its thread count when numpy loads it, so `--threads N` (else
LGTLAB_THREADS) goes into the environment here, before the runner
`lgtlab.cli` and with it numpy are imported.  A count that is not a
positive integer exits 2 here, before anything is run.
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
    source = "--threads"
    if threads is None:
        threads = os.environ.get("LGTLAB_THREADS") or None
        source = "LGTLAB_THREADS"
    if threads is not None:
        if not str(threads).isdigit() or int(threads) < 1:
            print(f"error: {source} must be a positive integer, got "
                  f"{threads!r}", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
    from .cli import main as run
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
