"""Experiment runner: JSON config in, deterministic manifest + CSVs out.

Usage:
    lgtlab <scenario> --config cfg.json [--out DIR] [--threads N]
                      [--tolerance TOL]
    lgtlab verify --all [--out DIR]

Scenarios: spectrum, potential, plaquette_convergence, effective_check,
dynamics, verify, channels.

Exit codes: 0 = success, 1 = invariant violation, 2 = config error
(including any ValueError the library raises on the config), 3 =
numerical failure.  Result CSVs are byte-stable across repeated runs
(fixed solver seeds, floats printed with 17 significant digits, LF line
endings); the manifest additionally records, under `timing`, the wall
time, the process's thread count, the largest full-space dimension whose
Hamiltonian was assembled, the number of states of every Hamiltonian
assembly, the dimension and path (dense or Lanczos) of
every eigensolve, the worst relative eigenpair residual, the dimension of
every evolution, and the peak resident set size.  The `lgtlab` command enters
through `lgtlab.__main__`, which applies `--threads` before numpy loads.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

import numpy as np
import scipy

from . import __version__, atommap, gauge, observables, solver, su2rep
from .hamiltonian import KS_U1, SPIN_GAUGE, SU2, ZN, HamiltonianSpec, \
    SectorLeak, build_model, max_gauss_violation
from .lattice import build_lattice
from .matter import STAGGERED, NAIVE2D, SU2_FUNDAMENTAL

SCENARIOS = ("spectrum", "potential", "plaquette_convergence",
             "effective_check", "dynamics", "verify", "channels")

DEFAULT_TOL = 1e-10
TASKS = "/proc/self/task"          # one entry per thread of this process


class ConfigError(ValueError):
    pass


def _require_keys(d, allowed, required=(), where="config"):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


# ---------------------------------------------------------------------------
# declarative parameter schema
# ---------------------------------------------------------------------------

REQUIRED = object()     # default of a key the config must give


def _cast(kind, x, where):
    """x as `kind` (int, float, bool, str, dict, or [kind] for a list of
    them); ConfigError naming `where` if it is not of that kind."""
    if isinstance(kind, list):
        return [_cast(kind[0], v, f"{where}[{i}]")
                for i, v in enumerate(_cast(list, x, where))]
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    if number and (kind is float or (kind is int and float(x).is_integer())):
        return kind(x)
    if kind in (bool, str, list, dict) and isinstance(x, kind):
        return x
    raise ConfigError(f"{where} must be {kind.__name__}, got {x!r}")


# section -> {key: (kind, default)}; an absent or null key takes its
# default.  Hamiltonian defaults of None defer to HamiltonianSpec.
SCHEMA = {
    "lattice": {"spatial_dim": (int, REQUIRED), "sizes": ([int], REQUIRED),
                "boundary": (str, "open")},
    "hamiltonian": dict(
        model=(str, REQUIRED), matter=(str, None), terms=([str], None),
        **dict.fromkeys(("truncation", "g2", "eps", "mass", "lam", "lam_zn",
                         "eta"), (float, None))),
    "spectrum": {"k": (int, 4), "charges": ([int], None),
                 "export_sector": (bool, False)},
    "potential": {"separations": ([int], REQUIRED), "origin": (int, 0)},
    "plaquette_convergence": {"family": (str, "spin_gauge"),
                              "g2_list": ([float], None),
                              "ell_list": ([int], [1, 2, 3]),
                              "n_list": ([int], [3, 5, 7, 9]),
                              "cutoff_ref": (int, 8)},
    "effective_check": {"lam": (float, 40.0), "eta": (float, 0.1),
                        "ell": (int, 1), "g2": (float, 1.0), "k": (int, 3)},
    "dynamics": {"separation": (int, REQUIRED), "t_final": (float, REQUIRED),
                 "steps": (int, REQUIRED), "origin": (int, 0)},
    "verify": {},
    "channels": {"omega1": (float, 1.0), "omega2": (float, 2.2),
                 "couplings": (dict, None)},
}


def parse_section(section, name, where):
    """SCHEMA[name] applied to a config section: every key typed, absent or
    null ones at their default; the section itself is left untouched."""
    schema = SCHEMA[name]
    _cast(dict, section, where)
    _require_keys(section, schema, [key for key, (_, default)
                                    in schema.items() if default is REQUIRED],
                  where)
    out = {}
    for key, (kind, default) in schema.items():
        value = section.get(key)
        out[key] = default if value is None and default is not REQUIRED \
            else _cast(kind, value, f"{where}.{key}")
    return out


def parse_lattice(cfg):
    p = parse_section(cfg, "lattice", "lattice")
    try:
        return build_lattice(p["spatial_dim"], p["sizes"], p["boundary"])
    except ValueError as exc:
        raise ConfigError(f"lattice: {exc}") from exc


def parse_hamiltonian(cfg):
    p = parse_section(cfg, "hamiltonian", "hamiltonian")
    kwargs = {key: value for key, value in p.items() if value is not None}
    if "terms" in kwargs:
        kwargs["terms"] = tuple(kwargs["terms"])
    try:
        return HamiltonianSpec(**kwargs).validate()
    except ValueError as exc:
        raise ConfigError(f"hamiltonian: {exc}") from exc


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require_keys(cfg, ("scenario", "lattice", "hamiltonian", "params",
                        "tolerance"), ("scenario",), "config")
    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg['scenario']!r}; pick from {SCENARIOS}")
    return cfg


class Writer:
    def __init__(self, outdir):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self.files = []

    def csv(self, name, header, columns):
        """Write a header line and one line per row of `columns`, one
        sequence of values per header field: integer columns as %d, every
        other column with 17 significant digits, formatted in one pass."""
        columns = [np.asarray(c) for c in columns]
        line = ",".join("%d" if c.dtype.kind in "biu" else "%.17g"
                        for c in columns) + "\n"
        values = tuple(v for row in zip(*(c.tolist() for c in columns))
                       for v in row)
        n_rows = len(columns[0]) if columns else 0
        path = os.path.join(self.outdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n" + line * n_rows % values)
        self.files.append(name)
        return path

    def manifest(self, payload):
        path = os.path.join(self.outdir, "manifest.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _check(name, value, threshold, larger_is_bad=True):
    ok = bool(value < threshold) if larger_is_bad else bool(value > threshold)
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "pass": ok}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def run_spectrum(cfg, params, writer, tol):
    """Lowest levels of H; with `charges`, of its block in that Gauss
    sector, built in the sector.  gauge_invariance is then the largest
    amplitude H sends out of the sector, and no spectrum is written when
    it fails; without charges it is max_gauss_violation of the full H."""
    lat = parse_lattice(cfg.get("lattice", {}))
    spec = parse_hamiltonian(cfg.get("hamiltonian", {}))
    model = build_model(spec, lat)
    charges = params["charges"]
    results = {"dim_full": model.space.dim}
    if charges is None:
        h = model.hamiltonian()
        leak = max_gauss_violation(model, h)
    else:
        sec = gauge.sector_basis(model.space, charges)
        if sec.is_empty:
            raise solver.SolverError(f"empty Gauss sector {tuple(charges)}")
        results["sector_dim"] = sec.dim
        if params["export_sector"]:
            results["sector_indices"] = [int(i) for i in sec.indices]
        try:
            h, leak = model.hamiltonian(sector=sec), 0.0
        except SectorLeak as exc:
            h, leak = exc.block, exc.amplitude
    checks = [_check("gauge_invariance", leak, tol)]
    if charges is not None and not checks[0]["pass"]:
        return results, checks
    w, _ = solver.eigs(h, min(params["k"], h.shape[0]))
    writer.csv("spectrum.csv", ["index", "energy"], [np.arange(len(w)), w])
    results["ground_energy"] = float(w[0])
    return results, checks


def run_potential(cfg, params, writer, tol):
    lat = parse_lattice(cfg.get("lattice", {}))
    spec = parse_hamiltonian(cfg.get("hamiltonian", {}))
    curve = observables.static_potential(
        spec, lat, params["separations"], origin=params["origin"])
    writer.csv("potential.csv", ["R", "E", "dim"],
               [curve.separations, curve.energies, curve.dimensions])
    results = {"sigma": curve.sigma, "offset": curve.offset,
               "fit_residual": curve.residual}
    checks = []
    if spec.terms == ("electric",):
        c2 = 0.75 if spec.model == SU2 else 1.0
        checks.append(_check("string_tension_electric_only",
                             abs(curve.sigma - spec.g2 / 2.0 * c2), tol))
    return results, checks


def run_plaquette_convergence(cfg, params, writer, tol):
    family, cutoff_ref = params["family"], params["cutoff_ref"]
    g2_list = params["g2_list"]
    checks = []
    if family == "spin_gauge":
        if g2_list is None:
            g2_list = [0.5, 1.0, 2.0]
        rows, refs = observables.plaquette_convergence_study(
            g2_list, params["ell_list"], cutoff_ref)
        writer.csv("convergence.csv", ["g2", "ell", "E", "gap_to_ref"],
                   list(zip(*rows)))
        results = {"reference": {str(k): v for k, v in refs.items()}}
        for g2 in g2_list:
            gaps = [r[3] for r in rows if r[0] == g2]
            mono = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
            checks.append(_check(f"monotone_convergence_g2_{g2}",
                                 0.0 if mono else 1.0, 0.5))
    elif family == "zn":
        g2 = 1.0 if not g2_list else g2_list[0]
        rows, ref = observables.zn_convergence_study(params["n_list"], g2,
                                                     cutoff_ref)
        writer.csv("convergence.csv", ["N", "E_calibrated", "gap_to_ref"],
                   list(zip(*rows)))
        results = {"reference": ref}
        gaps = [r[2] for r in rows]
        mono = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
        checks.append(_check("monotone_convergence_zn",
                             0.0 if mono else 1.0, 0.5))
    else:
        raise ConfigError(f"unknown convergence family {family!r}")
    return results, checks


def run_effective_check(cfg, params, writer, tol):
    """The second-order plaquette of the penalty construction at lambda,
    2 lambda and 4 lambda.  Only the penalty term depends on lambda, and
    linearly, so the model and its four terms are assembled once and the
    penalty is scaled: by powers of two, exactly."""
    lam, eta, ell, g2, k = (params[key]
                            for key in ("lam", "eta", "ell", "g2", "k"))
    for key in ("lam", "eta"):
        # lam = 0 leaves no penalty gap, eta = 0 no plaquette to compare
        if params[key] == 0.0:
            raise ConfigError(f"params.{key} must be nonzero")
    spec = HamiltonianSpec(model=SPIN_GAUGE, truncation=ell, g2=g2, lam=lam,
                           eta=eta)
    model = build_model(spec, build_lattice(2, [2, 2]))
    penalty = model.hamiltonian(("penalty",))
    V = model.hamiltonian(("hopping",))
    He = model.hamiltonian(("electric",))
    pattern = -(2.0 * g2) * model.hamiltonian(("magnetic",))
    sec = gauge.sector_basis(model.space, [0] * 4)
    kk = min(k, sec.dim)
    rows = []
    for scale in (1.0, 2.0, 4.0):
        pen = scale * penalty
        rep = solver.effective_second_order(pen, V, sec, rest=He,
                                            pattern=pattern)
        w_eff, _ = solver.eigs(rep.h_eff, kk)
        w_exact, _ = solver.eigs(He + pen + V, kk)
        mismatch = float(np.max(np.abs(w_eff - w_exact[:kk])))
        rows.append((lam * scale, rep.pattern_coefficient.real, mismatch,
                     rep.pattern_remainder))
    writer.csv("effective.csv",
               ["lambda", "plaquette_coefficient", "low_spectrum_mismatch",
                "non_plaquette_remainder"], list(zip(*rows)))
    ratio = rows[0][1] / rows[1][1]
    shrink = rows[0][2] / rows[2][2] if rows[2][2] > 0 else np.inf
    results = {"coefficient_ratio_lam_2lam": ratio,
               "mismatch_shrink_lam_4lam": shrink}
    checks = [
        _check("coefficient_halves_with_doubled_lambda", abs(ratio - 2.0),
               2e-3),
        _check("mismatch_shrinks_8x_when_lambda_quadrupled", shrink, 8.0,
               larger_is_bad=False),
    ]
    return results, checks


def run_dynamics(cfg, params, writer, tol):
    lat = parse_lattice(cfg.get("lattice", {}))
    spec = parse_hamiltonian(cfg.get("hamiltonian", {}))
    report, model, traj = observables.flux_tube_breaking_scenario(
        spec, lat, params["separation"], params["t_final"], params["steps"],
        origin=params["origin"])

    n_times, n_links = report.flux.shape
    origins = [model.lattice.links[l][0] for l in range(n_links)]
    writer.csv("dynamics.csv", ["t", "link", "flux", "charge_density"],
               [np.repeat(report.times, n_links),
                np.tile(np.arange(n_links), n_times), report.flux.ravel(),
                report.charge[:, origins].ravel()])
    writer.csv("dynamics_charge.csv", ["t", "vertex", "charge"],
               [np.repeat(report.times, lat.vertex_count),
                np.tile(np.arange(lat.vertex_count), n_times),
                report.charge.ravel()])
    cons_tol = 1e-8
    checks = [
        _check("norm_conservation", report.max_norm_drift, cons_tol),
        _check("energy_conservation", report.max_energy_drift, cons_tol),
        _check("total_charge_conservation", report.max_charge_drift,
               cons_tol),
        _check("gauss_expectation_conservation", report.gauss_drift,
               cons_tol),
    ]
    results = {"final_flux_profile": [float(x) for x in report.flux[-1]],
               "string_survival":
                   float(report.flux[-1].sum() / max(report.flux[0].sum(),
                                                     1e-12))}
    return results, checks


def run_channels(cfg, params, writer, tol):
    couplings = params["couplings"]
    if couplings is None:
        couplings = {f: 1.0 for f in atommap.total_f_channels()}
    else:
        couplings = {float(f): _cast(float, v, f"params.couplings.{f}")
                     for f, v in couplings.items()}
    scheme = atommap.HyperfineLevelScheme(params["omega1"], params["omega2"])
    rows = [(*key, amp.real, amp.imag, int(allowed)) for *key, amp, allowed
            in atommap.channel_table(scheme, couplings)]
    writer.csv("channels.csv",
               ["m_b", "m_f", "m_b_prime", "m_f_prime", "amplitude_re",
                "amplitude_im", "allowed_by_homega"], list(zip(*rows)))
    _, dev_even = atommap.build_m_and_verify("even")
    _, dev_odd = atommap.build_m_and_verify("odd")
    checks = [
        _check("link_matrix_equals_rotation_matrix_even", dev_even, 1e-12),
        _check("link_matrix_equals_rotation_matrix_odd", dev_odd, 1e-12),
    ]
    return {"n_channels": len(rows)}, checks


def _verify_one(name, spec, lat, tol, checks):
    model = build_model(spec, lat)
    h = model.hamiltonian()
    herm = abs(h - h.conj().T)
    herm = 0.0 if herm.nnz == 0 else float(np.max(herm.data))
    checks.append(_check(f"hermiticity[{name}]", herm, 1e-12))
    checks.append(_check(f"gauge_invariance[{name}]",
                         max_gauss_violation(model, h), tol))
    return model, h


def run_verify(cfg, params, writer, tol):
    """Invariant suite for one configured model, given by both the
    lattice and hamiltonian sections, or the built-in set when the config
    has neither."""
    checks = []
    results = {}
    if "lattice" in cfg or "hamiltonian" in cfg:
        lat = parse_lattice(cfg.get("lattice", {}))
        spec = parse_hamiltonian(cfg.get("hamiltonian", {}))
        _verify_one(spec.model, spec, lat, tol, checks)
        return results, checks
    return run_verify_all(tol, checks, results)


def verify_suite():
    """(name, spec, lattice) of the six models that verify --all checks."""
    chain = build_lattice(1, [4])
    plaq = build_lattice(2, [2, 2])
    return [
        ("u1_chain_matter", HamiltonianSpec(
            model=KS_U1, truncation=1, eps=0.5, mass=0.3,
            matter=STAGGERED), chain),
        ("u1_plaquette", HamiltonianSpec(model=KS_U1, truncation=1), plaq),
        ("spin_gauge_plaquette", HamiltonianSpec(
            model=SPIN_GAUGE, truncation=2), plaq),
        ("spin_gauge_naive", HamiltonianSpec(
            model=SPIN_GAUGE, truncation=1, eps=0.4, mass=0.2,
            matter=NAIVE2D), plaq),
        ("zn_plaquette", HamiltonianSpec(model=ZN, truncation=3), plaq),
        ("su2_chain_matter", HamiltonianSpec(
            model=SU2, truncation=0.5, eps=0.4, mass=0.2,
            matter=SU2_FUNDAMENTAL), chain),
    ]


def run_verify_all(tol, checks, results):
    for name, spec, lat in verify_suite():
        model, h = _verify_one(name, spec, lat, tol, checks)
        if name == "u1_plaquette":
            dims = gauge.all_sector_dimensions(model.space)
            total = sum(dims.values())
            checks.append(_check("sector_dimensions_sum[u1_plaquette]",
                                 abs(total - model.space.dim), 0.5))
    # truncated-SU(2) trace identity with a measured defect scalar
    rot = su2rep.truncated_rotation_matrix(su2rep.su2_link_space(0.5), 0.5)
    f, residual = rot.measured_defect()
    results["trace_identity_defect_f"] = f
    checks.append(_check("trace_identity_residual", residual, 1e-12))
    _, dev_even = atommap.build_m_and_verify("even")
    _, dev_odd = atommap.build_m_and_verify("odd")
    checks.append(_check("m_equals_u_even", dev_even, 1e-12))
    checks.append(_check("mdag_equals_u_odd", dev_odd, 1e-12))
    sch = atommap.schwinger_interaction_check(3)
    checks.append(_check("schwinger_interaction_identity",
                         sch["deviation"], 1e-12))
    p = atommap.f1_projectors()
    checks.append(_check("f1_projector_traces",
                         abs(np.trace(p["P0"]).real - 1.0)
                         + abs(np.trace(p["P2"]).real - 5.0), 1e-10))
    return results, checks


RUNNERS = {
    "spectrum": run_spectrum,
    "potential": run_potential,
    "plaquette_convergence": run_plaquette_convergence,
    "effective_check": run_effective_check,
    "dynamics": run_dynamics,
    "verify": run_verify,
    "channels": run_channels,
}


def run(cfg, outdir, tol=DEFAULT_TOL):
    """Execute a parsed config; returns (exit_code, manifest_path)."""
    writer = Writer(outdir)
    t0 = time.perf_counter()
    scenario = cfg["scenario"]
    with solver.run_log() as log:
        try:
            tol = DEFAULT_TOL if tol is None \
                else _cast(float, tol, "tolerance")
            if not 0.0 < tol < np.inf:
                raise ConfigError(f"tolerance must be finite and positive, "
                                  f"got {tol!r}")
            params = parse_section(cfg.get("params", {}), scenario, "params")
            results, checks = RUNNERS[scenario](cfg, params, writer, tol)
            status = 0 if all(c["pass"] for c in checks) else 1
            error = None
        except ValueError as exc:
            # ConfigError, or a library ValueError the parsers cannot
            # foresee (a term the lattice does not support, a mis-sized
            # charge list)
            results, checks, status, error = {}, [], 2, str(exc)
        except solver.SolverError as exc:
            # numerical failure, or a full space too large for memory
            results, checks, status, error = {}, [], 3, str(exc)
    manifest = {
        "config": cfg,
        "versions": {"lgtlab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "results": results,
        "checks": checks,
        "files": writer.files,
        "error": error,
        "exit_status": status,
        "timing": dict(dataclasses.asdict(log),
                       wall_seconds=time.perf_counter() - t0,
                       threads=len(os.listdir(TASKS))
                       if os.path.isdir(TASKS) else None,
                       peak_rss_mb=resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024),
    }
    path = writer.manifest(manifest)
    return status, path


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lgtlab",
        description="lattice gauge theory laboratory runner")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="BLAS worker threads (falls back to "
                            "LGTLAB_THREADS); applied by the lgtlab command "
                            "before numpy loads")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override the default invariant tolerance")
        if name == "verify":
            p.add_argument("--all", action="store_true",
                           help="run the full built-in invariant suite")
    args = parser.parse_args(argv)

    try:
        if args.scenario == "verify" and getattr(args, "all", False):
            cfg = {"scenario": "verify"}
        else:
            if not args.config:
                print("error: --config is required", file=sys.stderr)
                return 2
            cfg = load_config(args.config)
            if cfg["scenario"] != args.scenario:
                raise ConfigError(
                    f"config names scenario {cfg['scenario']!r} but the "
                    f"{args.scenario!r} subcommand was invoked")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = args.out or "lgtlab_out"
    tol = args.tolerance
    if tol is None:
        tol = cfg.get("tolerance", DEFAULT_TOL)
    status, manifest = run(cfg, outdir, tol)
    print(f"manifest: {manifest} (exit {status})")
    return status

