"""lgtlab benchmark: CLI scenarios timed end to end, one fresh process each.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1]
    python3 bench/run.py --workload all          # every workload, in turn
    python3 bench/run.py --write-reference       # regenerate bench/reference

Each sample spawns `bench/child.py`, which imports lgtlab from `src/` of
this checkout, parses the generated config and runs it with `cli.run`,
the way a physicist runs `lgtlab <scenario> --config ...`.  Samples run
one at a time (a closed loop with one client) until --seconds have
passed.  Every sample's outputs are checked; see README.md in this
directory for the metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The process exits non-zero
without that line when src/lgtlab is missing or no sample ran to the end.
"""

import argparse
import csv
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
RUN_SECONDS = 30
TAIL_BEYOND = 10                   # samples required beyond the tail value
TRACE_SAMPLES = 2                  # traced and untraced samples, at least
STOP_STARTING_S = 110              # no new sample after this long
DEADLINE_S = 170                   # children still running are killed
AS_LIMIT_MB = 3072                 # address-space cap of each child
BLAS_THREADS = "1"                 # threads of each child's BLAS pool
WARMUP_SAMPLES = 1                 # checked but not timed
HOST_NOMINAL_S = 0.25              # child.host_speed_s on the nominal host
TOL = 1e-12                        # |a - b| <= TOL * max(1, |b|)

# couplings drawn from the seed; sizes, truncations, separations and step
# counts stay fixed because they set the amount of work.  The ranges are
# narrow because the evolution cost grows with the norm of H.
DRAWS = {"g2": (1.0, 1.2), "eps": (0.45, 0.55), "mass": (0.25, 0.35)}

CHAIN_MATTER = {"model": "ks_u1", "truncation": 1, "matter": "staggered"}

WORKLOADS = {
    # 6 sector enumerations of one 559,872-state space; sectors of at most
    # a few dozen states, so enumeration and assembly dominate
    "potential_chain": {
        "config": {
            "scenario": "potential",
            "lattice": {"spatial_dim": 1, "sizes": [8], "boundary": "open"},
            "hamiltonian": CHAIN_MATTER,
            "params": {"separations": [0, 1, 2, 3, 4, 5]},
        },
        "draws": ("g2", "eps", "mass"),
        "invariant": {"potential.csv": ("R", "dim")},
    },
    # time evolution on the 15,552-state space and per-step profiles;
    # generators only, no sector enumeration
    "dynamics_chain": {
        "config": {
            "scenario": "dynamics",
            "lattice": {"spatial_dim": 1, "sizes": [6], "boundary": "open"},
            "hamiltonian": CHAIN_MATTER,
            "params": {"separation": 3, "t_final": 2.0, "steps": 80},
        },
        "draws": ("g2", "eps", "mass"),
        "invariant": {"dynamics.csv": ("t", "link"),
                      "dynamics_charge.csv": ("t", "vertex")},
    },
    # one 1,333-state sector of a 390,625-state space, solved densely:
    # the solver dominates
    "spectrum_torus": {
        "config": {
            "scenario": "spectrum",
            "lattice": {"spatial_dim": 2, "sizes": [2, 2],
                        "boundary": "periodic"},
            "hamiltonian": {"model": "ks_u1", "truncation": 2},
            "params": {"k": 4, "charges": [0, 0, 0, 0]},
        },
        "draws": ("g2",),
        "invariant": {"spectrum.csv": ("index",),
                      "manifest.json": ("dim_full", "sector_dim")},
    },
    # the built-in invariant suite: six small models of all four families
    # plus the su2rep and atommap identities; it takes no seed
    "verify_all": {"config": None, "draws": (), "invariant": None},
}

# the gated end-to-end metrics; run_s_tail and failed_frac are printed
# beside them but not gated (see README.md)
E2E_METRICS = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)


def make_config(workload, seed):
    """The workload's config for this seed (None: `verify --all`)."""
    spec = WORKLOADS[workload]
    if spec["config"] is None:
        return None
    cfg = json.loads(json.dumps(spec["config"]))
    rng = random.Random(f"{workload}:{seed}")
    for key in spec["draws"]:
        lo, hi = DRAWS[key]
        cfg["hamiltonian"][key] = round(rng.uniform(lo, hi), 6)
    return cfg


def write_config(cfg, workdir):
    """Write the config for the child; None (no file) for verify_all."""
    if cfg is None:
        return None
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return path


# ---------------------------------------------------------------------------
# one sample
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    traced: bool
    warmup: bool = False
    exit_code: int = None
    setup_s: float = None
    run_s: float = None
    host_speed_s: float = None
    maxrss_mb: float = None
    threads: int = None
    problems: list = field(default_factory=list)
    as_limit_mb: float = None
    layers: dict = None

    @property
    def ok(self):
        return not self.problems


def child_env():
    """The child's environment: lgtlab from src/ of this checkout, and a
    single-threaded BLAS.  OpenBLAS threads busy-wait between calls, so
    with its default pool a child keeps more cores busy than a 2-CPU
    machine has and its timings follow the load of other processes."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_sample(config_path, sample_dir, traced, deadline):
    """Spawn one child and collect its timings; outputs are left in
    sample_dir/out for checking."""
    os.makedirs(sample_dir)
    result_path = os.path.join(sample_dir, "result.json")
    spans_path = os.path.join(sample_dir, "spans.json")
    outdir = os.path.join(sample_dir, "out")
    log_path = os.path.join(sample_dir, "child.log")
    sample = Sample(traced)
    extra = ["--config", config_path] if config_path else []
    if traced:
        extra += ["--trace", spans_path]
    with open(log_path, "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, ROOT, result_path, repr(spawn),
             str(AS_LIMIT_MB * 2 ** 20), outdir] + extra,
            stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            env=child_env(), cwd=sample_dir)
        try:
            sample.exit_code = proc.wait(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sample.problems.append("killed at the run deadline")
            return sample
        except BaseException:
            # interrupted or terminated: never leave the child running
            proc.kill()
            proc.wait()
            raise
    if sample.exit_code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:].strip().replace("\n", " | ")
        sample.problems.append(f"exit code {sample.exit_code}: {tail}")
    if not os.path.exists(result_path):
        sample.problems.append("child wrote no result")
        return sample
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    sample.setup_s = result["setup_s"]
    sample.run_s = result["run_s"]
    sample.host_speed_s = result["host_speed_s"]
    sample.maxrss_mb = result["maxrss_kb"] / 1024.0
    sample.threads = result["threads"]
    sample.as_limit_mb = result["as_limit"] / 2 ** 20
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            sample.layers = tracer.layer_metrics(json.load(fh))
        sample.layers["cli.bytes_out"] = sum(
            os.path.getsize(os.path.join(outdir, f))
            for f in os.listdir(outdir))
        sample.layers["cli.threads"] = sample.threads
    return sample


# ---------------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------------

def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(path, ref_path, columns=None):
    """Problems found comparing a result CSV with its reference.

    columns=None compares every value to TOL; otherwise only the named
    columns, which must not depend on the seed.
    """
    name = os.path.basename(path)
    rows, ref = _read_csv(path), _read_csv(ref_path)
    if not rows or rows[0] != ref[0]:
        return [f"{name}: header differs from the reference"]
    if len(rows) != len(ref):
        return [f"{name}: {len(rows) - 1} rows, reference has "
                f"{len(ref) - 1}"]
    header = ref[0]
    keep = range(len(header)) if columns is None \
        else [header.index(c) for c in columns]
    for r, (row, want) in enumerate(zip(rows[1:], ref[1:]), start=1):
        for c in keep:
            a, b = _number(row[c]), _number(want[c])
            same = row[c] == want[c] if a is None or b is None \
                else _close(a, b)
            if not same:
                return [f"{name} row {r} column {header[c]}: {row[c]} "
                        f"!= reference {want[c]}"]
    return []


def _compare_values(got, want, where):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ from the reference"]
        out = []
        for key in sorted(want):
            out += _compare_values(got[key], want[key], f"{where}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs from the reference"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _compare_values(g, w, f"{where}[{i}]")
        return out
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if not isinstance(got, (int, float)) or not _close(got, want):
        return [f"{where}: {got!r} != reference {want!r}"]
    return []


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload, seed, outdir, reference_dir):
    """Problems with one sample's outputs; an empty list means correct.

    Every seed: the manifest reports exit status 0, every check passes and
    every listed file exists with finite values.  On the default seed (and
    for the seed-free verify_all) every value matches the stored reference
    to TOL; on other seeds the seed-independent columns must.
    """
    manifest_path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(manifest_path):
        return ["no manifest.json"]
    manifest = _read_json(manifest_path)
    problems = []
    if manifest.get("exit_status") != 0:
        problems.append(f"manifest exit_status {manifest.get('exit_status')}"
                        f": {manifest.get('error')}")
    failed = [c["name"] for c in manifest.get("checks", []) if not c["pass"]]
    if failed:
        problems.append(f"failed checks {failed}")
    for name in manifest.get("files", []):
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            problems.append(f"listed file {name} missing")
            continue
        for row in _read_csv(path)[1:]:
            if any(not math.isfinite(x) for x in map(_number, row)
                   if x is not None):
                problems.append(f"{name}: non-finite value")
                break
    if problems:
        return problems

    ref_dir = os.path.join(reference_dir, workload)
    ref_manifest = _read_json(os.path.join(ref_dir, "manifest.json"))
    invariant = WORKLOADS[workload]["invariant"]
    if invariant is None or seed == DEFAULT_SEED:
        if manifest["files"] != ref_manifest["files"]:
            return [f"files {manifest['files']} != reference "
                    f"{ref_manifest['files']}"]
        for name in ref_manifest["files"]:
            problems += compare_csv(os.path.join(outdir, name),
                                    os.path.join(ref_dir, name))
        problems += _compare_values(manifest["results"],
                                    ref_manifest["results"], "results")
        problems += _compare_values(
            [[c["name"], c["value"], c["pass"]] for c in manifest["checks"]],
            [[c["name"], c["value"], c["pass"]]
             for c in ref_manifest["checks"]], "checks")
        return problems
    for name, columns in invariant.items():
        if name == "manifest.json":
            for key in columns:
                problems += _compare_values(
                    manifest["results"].get(key),
                    ref_manifest["results"][key], f"results.{key}")
        else:
            problems += compare_csv(os.path.join(outdir, name),
                                    os.path.join(ref_dir, name), columns)
    return problems


# ---------------------------------------------------------------------------
# a run: samples until the time is up
# ---------------------------------------------------------------------------

@dataclass
class Report:
    workload: str
    seed: int
    config: dict
    samples: list

    def timed(self, traced):
        """Timed samples that ran to the end, correct or not, of one
        kind."""
        return [s for s in self.samples
                if s.run_s is not None and s.traced == traced
                and not s.warmup
                and (s.layers is not None or not traced)]

    @property
    def failed(self):
        return sum(1 for s in self.samples if not s.ok)


def run_workload(workload, seed, seconds, trace, workdir,
                 reference_dir=REFERENCE_DIR, min_samples=None):
    """Sample one workload for `seconds` and at least min_samples.

    The first WARMUP_SAMPLES samples fill the file cache; their outputs
    are checked but they are not timed.  A traced run then alternates
    untraced and traced samples, so the tracing overhead is measured
    inside the run.
    """
    if min_samples is None:
        min_samples = 2 * TRACE_SAMPLES if trace else 1
    cfg = make_config(workload, seed)
    config_path = write_config(cfg, workdir)
    report = Report(workload, seed, cfg, [])
    start = time.monotonic()
    while True:
        index = len(report.samples) - WARMUP_SAMPLES
        traced = bool(trace) and index % 2 == 1
        sample_dir = os.path.join(workdir, f"sample-{len(report.samples)}")
        sample = run_sample(config_path, sample_dir, traced,
                            start + DEADLINE_S)
        sample.warmup = index < 0
        if not sample.problems:
            sample.problems = check_outputs(
                workload, seed, os.path.join(sample_dir, "out"),
                reference_dir)
        report.samples.append(sample)
        shutil.rmtree(sample_dir, ignore_errors=True)
        elapsed = time.monotonic() - start
        if elapsed >= STOP_STARTING_S:
            break
        if elapsed >= seconds and index + 1 >= min_samples:
            break
    return report


def tail_of(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile, samples beyond); the minimum when there are too
    few samples."""
    xs = sorted(values)
    rank = max(1, len(xs) - TAIL_BEYOND)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def end_to_end(report):
    """The gated metrics, plus printed-only lines: the wall-clock medians,
    the host speed and run_s_tail.

    setup_s and run_s are each sample's wall times scaled by
    HOST_NOMINAL_S / host_speed_s, the seconds they would take on a
    machine where the fixed kernel of child.host_speed_s takes
    HOST_NOMINAL_S.  The speed of a shared host drifts by tens of percent
    within minutes, and the scaling takes most of that drift out of the
    comparison of two commits; a change to the program's own work still
    moves the scaled times in full.
    """
    ok = report.timed(False)
    scale = [HOST_NOMINAL_S / s.host_speed_s for s in ok]
    run_times = [s.run_s * k for s, k in zip(ok, scale)]
    metrics = {
        "setup_s": statistics.median(s.setup_s * k
                                     for s, k in zip(ok, scale)),
        "run_s": statistics.median(run_times),
        "peak_rss_mb": statistics.median(s.maxrss_mb for s in ok),
    }
    tail, pct, beyond = tail_of(run_times)
    extra = [
        f"setup_s_wall {statistics.median(s.setup_s for s in ok):.6g} s",
        f"run_s_wall {statistics.median(s.run_s for s in ok):.6g} s",
        f"host_speed_s {statistics.median(s.host_speed_s for s in ok):.6g}"
        f" s  (nominal {HOST_NOMINAL_S})",
        f"run_s_tail {tail:.6g} s  (p{pct:.1f} of {len(ok)} "
        f"samples, {beyond} beyond it)",
    ]
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in E2E_METRICS}, extra


def per_layer(report):
    traced, plain = report.timed(True), report.timed(False)
    out = {}
    for name, unit, _better in tracer.layer_metric_specs():
        if name == "trace.overhead_s":
            value = (statistics.median(s.run_s for s in traced)
                     - statistics.median(s.run_s for s in plain))
        else:
            value = statistics.median_low(s.layers[name] for s in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def summarize(report, trace):
    """Human-readable lines plus the result object, or None when no
    sample of a needed kind ran to the end.

    Timings come from every sample that ran to the end; a sample whose
    outputs are wrong still counts as failed.
    """
    attempted = len(report.samples)
    failed = report.failed
    if not report.timed(False) or (trace and not report.timed(True)):
        return [f"{report.workload}: no sample ran to the end"], None
    limits = sorted({s.as_limit_mb for s in report.samples
                     if s.as_limit_mb is not None})
    lines = [f"workload {report.workload} seed {report.seed} "
             f"config {json.dumps(report.config)}",
             f"as_limit_mb {limits} threads per child "
             f"{[s.threads for s in report.samples]}"]
    for s in report.samples:
        if not s.ok:
            lines.append(f"failed sample: {'; '.join(s.problems)}")
    if trace:
        metrics, extra = per_layer(report), []
    else:
        metrics, extra = end_to_end(report)
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines += extra
    lines.append(f"failed_frac {failed / attempted:.6g} "
                 f"({failed} failed / {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def write_reference(reference_dir=REFERENCE_DIR):
    """Store every workload's outputs for DEFAULT_SEED as the reference."""
    for workload in WORKLOADS:
        workdir = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            config_path = write_config(
                make_config(workload, DEFAULT_SEED), workdir)
            sample_dir = os.path.join(workdir, "sample")
            sample = run_sample(config_path, sample_dir, False,
                                time.monotonic() + DEADLINE_S)
            outdir = os.path.join(sample_dir, "out")
            if sample.problems or _read_json(os.path.join(
                    outdir, "manifest.json"))["exit_status"] != 0:
                raise SystemExit(f"{workload}: reference run failed: "
                                 f"{sample.problems}")
            dest = os.path.join(reference_dir, workload)
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(outdir, dest)
            print(f"{workload}: reference written to {dest}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed outputs as reference")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "lgtlab", "cli.py")):
        print(f"error: no lgtlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        if args.write_reference:
            write_reference()
            return 0
        return measure_and_report(args)
    finally:
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def measure_and_report(args):
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    for workload in workloads:
        workdir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK_DIR)
        try:
            report = run_workload(workload, args.seed, args.seconds,
                                  args.trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines, result = summarize(report, args.trace)
        print("\n".join(lines), flush=True)
        if result is None:
            print(f"error: {workload} produced no measurement",
                  file=sys.stderr)
            return 1
        results[workload] = result
    print(json.dumps(results[workloads[0]] if len(workloads) == 1
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
