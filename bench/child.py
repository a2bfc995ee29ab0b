"""One benchmark sample: a fresh process that runs one lgtlab scenario.

    python3 child.py ROOT RESULT SPAWN AS_LIMIT OUTDIR [--config CFG]
                     [--trace SPANS]

Runs the scenario the way `lgtlab <scenario> --config CFG --out OUTDIR`
does, but splits set-up (interpreter start, importing lgtlab.cli, parsing
the config) from the run (`cli.run`, output files included).  SPAWN is the
parent's CLOCK_MONOTONIC reading just before it started this process.
Without --config the built-in `verify --all` suite runs.  With --trace,
every public lgtlab function is wrapped and the spans go to SPANS.

After the run, a fixed kernel that does not use lgtlab is timed
(`host_speed_s`), so the parent can tell a slower program from a slower
machine.

Writes RESULT (JSON) and exits with the scenario's exit status.
"""

import argparse
import json
import os
import resource
import sys
import time


def host_speed_s():
    """Seconds a fixed mix of the work lgtlab does takes on this machine:
    interpreter loops over dicts and tuples, sparse kron embedding and
    matrix-vector products on 19,683 states, and a dense eigensolve of a
    matrix larger than the caches.  The eigensolve follows memory
    contention, which moves `spectrum_torus` more than the rest."""
    import numpy as np
    import scipy.linalg
    import scipy.sparse as sp

    dense = np.random.default_rng(0).standard_normal((600, 600))
    dense += dense.T
    a = sp.csr_matrix(np.diag([1.0, 0.0, -1.0]) + np.eye(3, k=1))
    t0 = time.perf_counter()
    for _ in range(2):
        counts = {}
        for i in range(20000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + i
        m = a
        for _ in range(8):
            m = (sp.kron(m, sp.identity(3), format="csr")
                 + sp.kron(sp.identity(m.shape[0]), a, format="csr"))
        v = np.ones(m.shape[0], dtype=complex)
        for _ in range(30):
            v = m @ v
            v /= np.linalg.norm(v)
        scipy.linalg.eigh(dense)
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("result")
    parser.add_argument("spawn", type=float)
    parser.add_argument("as_limit", type=int)
    parser.add_argument("outdir")
    parser.add_argument("--config")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    # the address-space cap applies to this process only; a blow-up then
    # fails this sample with MemoryError instead of exhausting the machine
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = args.as_limit if hard == resource.RLIM_INFINITY \
        else min(args.as_limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from lgtlab import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        print(f"lgtlab imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 4
    cfg = cli.load_config(args.config) if args.config \
        else {"scenario": "verify"}
    ready = time.monotonic()

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lgtlab" or name.startswith("lgtlab.")]
        tracing.install(tracer, modules)

    tol = cfg.get("tolerance", cli.DEFAULT_TOL)
    t0 = time.perf_counter()
    status, _manifest = cli.run(cfg, args.outdir, tol)
    run_s = time.perf_counter() - t0
    host_s = host_speed_s()

    result = {
        "setup_s": ready - args.spawn,
        "run_s": run_s,
        "host_speed_s": host_s,
        "status": status,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": len(os.listdir("/proc/self/task")),
        "as_limit": limit,
    }
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
