"""Experiment runner: JSON config in, deterministic manifest + CSVs out.

Usage:
    lgtlab <scenario> --config cfg.json [--out DIR] [--threads N]
                      [--tolerance TOL]
    lgtlab verify --all [--out DIR]

Scenarios: spectrum, potential, plaquette_convergence, effective_check,
dynamics, verify, channels, each one entry of the SCENARIOS table: its
runner, the model sections (`lattice` and `hamiltonian`) it takes and its
params schema.  spectrum, potential and dynamics need both model
sections; verify takes both (one model) or neither (the built-in suite);
the other three take neither.  SCHEMA holds the schemas of the top level
and the model sections.

Exit codes: 0 = success, 1 = invariant violation, 2 = config error
(including any ValueError the library raises on the config), 3 =
numerical or resource failure (a MemoryError included).  Every config
error writes a manifest with the error, except a missing `--config` or
config file, which only prints to stderr.  Result CSVs are byte-stable
across repeated runs (fixed solver seeds, floats printed with 17
significant digits, LF line endings); the manifest additionally records,
under `timing`, the run's stage records in the order they end (solver.stage:
each model build, sector enumeration, Hamiltonian assembly, eigensolve,
evolution, dynamics observables read and CSV write, with its seconds and
sizes), the wall time, the process's thread count and
the peak resident set size.  The `lgtlab` command enters
through `lgtlab.__main__`, which applies `--threads` before numpy loads.
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np
import scipy

from . import __version__, atommap, gauge, linkalg, observables, solver, \
    su2rep
from .hamiltonian import KS_U1, OFF_DIAGONAL_TERMS, SPIN_GAUGE, SU2, ZN, \
    HamiltonianSpec, SectorLeak, build_model, electric_tension, \
    max_gauss_violation, penalty_second_order
from .lattice import build_lattice
from .matter import STAGGERED, NAIVE2D, SU2_FUNDAMENTAL

DEFAULT_TOL = 1e-10
TASKS = "/proc/self/task"          # one entry per thread of this process


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing against a declarative schema
# ---------------------------------------------------------------------------

REQUIRED = object()     # default of a key the config must give


def _cast(kind, x, where):
    """x as `kind`: float (finite, so never NaN or infinite), int (in
    int64, which the library's label and charge tables use), bool, str or
    dict, [kind] for a nonempty list of them (returned as a tuple), or a
    tuple of the values x may take; ConfigError naming `where` if it is
    not."""
    if isinstance(kind, tuple):
        if x in kind:
            return x
        raise ConfigError(f"{where} must be one of {list(kind)}, got {x!r}")
    if isinstance(kind, list):
        items = _cast(list, x, where)
        if not items:
            raise ConfigError(f"{where} must not be empty")
        return tuple(_cast(kind[0], v, f"{where}[{i}]")
                     for i, v in enumerate(items))
    number = isinstance(x, (int, float)) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max
    if number and (kind is float or (kind is int and float(x).is_integer()
                                      and -2 ** 63 <= x < 2 ** 63)):
        return kind(x)
    if kind in (bool, str, list, dict) and isinstance(x, kind):
        return x
    what = {float: "a finite float", int: "an int in [-2^63, 2^63)"}
    raise ConfigError(f"{where} must be {what.get(kind, kind.__name__)}, "
                      f"got {x!r}")


def parse_section(section, schema, where):
    """A section schema, {key: (kind, default)}, applied to a config
    section: every key typed, absent or null ones at their default; the
    section itself is left untouched."""
    _cast(dict, section, where)
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(schema)}")
    missing = [key for key, (_, default) in schema.items()
               if default is REQUIRED and section.get(key) is None]
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")
    return {key: default if section.get(key) is None
            else _cast(kind, section[key], f"{where}.{key}")
            for key, (kind, default) in schema.items()}


def parse_lattice(cfg):
    return build_lattice(**parse_section(cfg, SCHEMA["lattice"],
                                         "lattice"))


def parse_hamiltonian(cfg):
    p = parse_section(cfg, SCHEMA["hamiltonian"], "hamiltonian")
    return HamiltonianSpec(**{key: value for key, value in p.items()
                              if value is not None}).validate()


def _read_json(path):
    """The JSON value in file `path`: ConfigError if it is not JSON,
    OSError if the file cannot be read."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_config(path):
    """The config in file `path`, its top level checked against SCHEMA."""
    cfg = _read_json(path)
    parse_section(cfg, SCHEMA["config"], "config")
    return cfg


class Writer:
    def __init__(self, outdir):
        self.outdir = outdir
        os.makedirs(outdir, exist_ok=True)
        self.files = []

    def csv(self, name, header, columns):
        """Write a header line and one line per row of `columns`, one
        sequence of values per header field: integer columns as %d, every
        other column with 17 significant digits, formatted in one pass.
        Timed as a `write` stage (solver.stage) with the file name and its
        data rows."""
        columns = [np.asarray(c) for c in columns]
        n_rows = len(columns[0]) if columns else 0
        with solver.stage("write", file=name, rows=n_rows):
            line = ",".join("%d" if c.dtype.kind in "biu" else "%.17g"
                            for c in columns) + "\n"
            values = tuple(v for row in zip(*(c.tolist() for c in columns))
                           for v in row)
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

def run_spectrum(lat, spec, params, writer, tol):
    """Lowest levels of H; with `charges`, of its block in that Gauss
    sector, built in the sector.  gauge_invariance is then the largest
    amplitude H sends out of the sector, and no spectrum is written when
    it fails; without charges it is max_gauss_violation of the full H."""
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


def run_potential(lat, spec, params, writer, tol):
    """E(R) per separation and, when the fit window holds two points or
    more, the linear fit (sigma, offset and fit_residual, else null).  The
    electric-only tension check needs the fit."""
    electric_only = spec.terms == ("electric",)
    if electric_only and len(observables.fit_window(
            params["separations"])) < 2:
        raise ConfigError(
            f"params.separations {list(params['separations'])} leave fewer "
            f"than two points in the fit window (R > 0, less the largest of "
            f"more than two); the electric-only tension check needs a fit")
    curve = observables.static_potential(
        spec, lat, params["separations"], origin=params["origin"])
    writer.csv("potential.csv", ["R", "E", "dim"],
               [curve.separations, curve.energies, curve.dimensions])
    results = {"sigma": curve.sigma, "offset": curve.offset,
               "fit_residual": curve.residual}
    checks = []
    if electric_only:
        checks.append(_check("string_tension_electric_only",
                             abs(curve.sigma - electric_tension(spec)), tol))
    return results, checks


# plaquette_convergence family -> its truncation key, default truncations
# and CSV header
CONVERGENCE_FAMILIES = {
    SPIN_GAUGE: ("ell_list", (1, 2, 3), ["g2", "ell", "E", "gap_to_ref"]),
    ZN: ("n_list", (3, 5, 7, 9), ["g2", "N", "E_calibrated", "gap_to_ref"]),
}


def run_plaquette_convergence(lat, spec, params, writer, tol):
    """The single-plaquette gap to Kogut-Susskind U(1) over the family's
    truncations (ell_list or n_list), checked to shrink at every g2."""
    family, g2_list = params["family"], params["g2_list"]
    key, default, header = CONVERGENCE_FAMILIES[family]
    other = "n_list" if key == "ell_list" else "ell_list"
    if params[other] is not None:
        raise ConfigError(f"params.{other} does not apply to family "
                          f"{family!r}; it takes {key}")
    if params["cutoff_ref"] < 1:    # a reference with no flux reads 0
        raise ConfigError(f"params.cutoff_ref must be at least 1, got "
                          f"{params['cutoff_ref']}")
    rows, refs = observables.convergence_study(
        family, g2_list, default if params[key] is None else params[key],
        params["cutoff_ref"])
    writer.csv("convergence.csv", header, list(zip(*rows)))
    checks = []
    for g2 in refs:
        gaps = [r[3] for r in rows if r[0] == g2]
        mono = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
        checks.append(_check(f"monotone_convergence_g2_{g2}",
                             0.0 if mono else 1.0, 0.5))
    return {"reference": {str(k): v for k, v in refs.items()}}, checks


def run_effective_check(lat, spec, params, writer, tol):
    """The second-order plaquette of the penalty construction at lambda,
    2 lambda and 4 lambda, against the exact low spectrum.

    The second-order block P V Q (E0 - H0)^{-1} Q V P of the hopping V
    under the penalty H0 is built once, at lambda, in the neutral sector
    (hamiltonian.penalty_second_order); H0 is linear in lambda, so the
    block at 2 lambda and 4 lambda is it over 2 and 4, exactly for powers
    of two.  H_eff adds the sector's electric block, and the block's
    plaquette coefficient is its Frobenius projection on the sector's
    magnetic block.  The exact spectrum is that of He + penalty + V on the
    full space, each term assembled once and the penalty scaled."""
    lam, eta, ell, g2, k = (params[key]
                            for key in ("lam", "eta", "ell", "g2", "k"))
    for key in ("lam", "eta"):
        # lam = 0 leaves no penalty gap, eta = 0 no plaquette to compare
        if params[key] == 0.0:
            raise ConfigError(f"params.{key} must be nonzero")
    spec = HamiltonianSpec(model=SPIN_GAUGE, truncation=ell, g2=g2, lam=lam,
                           eta=eta)
    model = build_model(spec, build_lattice(2, [2, 2]))
    sec = gauge.sector_basis(model.space, [0] * 4)
    second = penalty_second_order(model, sec,
                                  OFF_DIAGONAL_TERMS["hopping"](model))
    rest = model.hamiltonian(("electric",), sector=sec).toarray()
    pattern = (-(2.0 * g2) * model.hamiltonian(("magnetic",),
                                               sector=sec)).toarray()
    penalty = model.hamiltonian(("penalty",))
    V = model.hamiltonian(("hopping",))
    He = model.hamiltonian(("electric",))
    kk = min(k, sec.dim)
    rows = []
    for scale in (1.0, 2.0, 4.0):
        block = second / scale
        coeff = complex(np.vdot(pattern, block) / np.vdot(pattern,
                                                          pattern).real)
        w_eff, _ = solver.eigs(block + rest, kk)
        w_exact, _ = solver.eigs(He + scale * penalty + V, kk)
        mismatch = float(np.max(np.abs(w_eff - w_exact[:kk])))
        rows.append((lam * scale, coeff.real, mismatch,
                     float(np.linalg.norm(block - coeff * pattern))))
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


def run_dynamics(lat, spec, params, writer, tol):
    report, _ = observables.flux_tube_breaking_scenario(
        spec, lat, params["separation"], params["t_final"], params["steps"],
        origin=params["origin"])

    n_times, n_links = report.flux.shape
    origins = [origin for origin, _ in lat.links]
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
    # the string's flux reads -1 on Z_2 links: divide by it, sign and all;
    # a string of no links (separation 0) has no flux that could survive
    results = {"final_flux_profile": [float(x) for x in report.flux[-1]],
               "string_survival": None if params["separation"] == 0
               else float(report.flux[-1].sum() / report.flux[0].sum())}
    return results, checks


def run_channels(lat, spec, params, writer, tol):
    channels = atommap.total_f_channels()
    couplings = params["couplings"]
    if couplings is None:
        couplings = {f: 1.0 for f in channels}
    else:
        # a key names a total-F channel, and only one key names it; another
        # channel's Clebsch-Gordan factors all vanish
        named = {}
        for key, v in couplings.items():
            try:
                f = float(key)
            except ValueError:
                f = key
            f = _cast(tuple(channels), f, f"params.couplings key {key!r}")
            if f in named:
                raise ConfigError(f"params.couplings keys {named[f][0]!r} "
                                  f"and {key!r} both name channel {f}")
            named[f] = key, _cast(float, v, f"params.couplings.{key}")
        couplings = {f: v for f, (_, v) in named.items()}
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


def _verify_one(name, spec, lat, tol):
    """The model and its hermiticity and Gauss checks of the full-space H,
    timed as one `check` stage with the model's name, H's dim and its
    nnz."""
    model = build_model(spec, lat)
    h = model.hamiltonian()
    with solver.stage("check", model=name, dim=h.shape[0], nnz=h.nnz):
        herm = abs(h - h.conj().T)
        herm = 0.0 if herm.nnz == 0 else float(np.max(herm.data))
        return model, [_check(f"hermiticity[{name}]", herm, 1e-12),
                       _check(f"gauge_invariance[{name}]",
                              max_gauss_violation(model, h), tol)]


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


def run_verify(lat, spec, params, writer, tol):
    """Invariant checks of the configured model or, when the config has no
    model sections, of the verify_suite models followed by the su2rep and
    atommap identities."""
    suite = verify_suite() if spec is None else [(spec.model, spec, lat)]
    checks = []
    for name, model_spec, model_lat in suite:
        model, model_checks = _verify_one(name, model_spec, model_lat, tol)
        checks += model_checks
        if name == "u1_plaquette":
            total = sum(gauge.all_sector_dimensions(model.space).values())
            checks.append(_check("sector_dimensions_sum[u1_plaquette]",
                                 abs(total - model.space.dim), 0.5))
    if spec is not None:
        return {}, checks
    # truncated-SU(2) trace identity with a measured defect scalar
    f, residual = su2rep.trace_defect(0.5, linkalg.su2_ops(0.5).U)
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
    return {"trace_identity_defect_f": f}, checks


# ---------------------------------------------------------------------------
# the scenario table and the config schema
# ---------------------------------------------------------------------------

# scenario -> (runner, the model sections it takes, its params schema).  Of
# the sections lattice and hamiltonian a scenario takes both, neither, or
# (verify, whose built-in suite needs none) either.  A schema is {key:
# (kind, default)}: an absent or null key takes its default.
SCENARIOS = {
    "spectrum": (run_spectrum, ("both",),
                 {"k": (int, 4), "charges": ([int], None)}),
    "potential": (run_potential, ("both",),
                  {"separations": ([int], REQUIRED), "origin": (int, 0)}),
    "plaquette_convergence": (
        run_plaquette_convergence, ("neither",),
        {"family": (tuple(CONVERGENCE_FAMILIES), SPIN_GAUGE),
         "g2_list": ([float], (0.5, 1.0, 2.0)), "ell_list": ([int], None),
         "n_list": ([int], None), "cutoff_ref": (int, 8)}),
    "effective_check": (
        run_effective_check, ("neither",),
        {"lam": (float, 40.0), "eta": (float, 0.1), "ell": (int, 1),
         "g2": (float, 1.0), "k": (int, 3)}),
    "dynamics": (
        run_dynamics, ("both",),
        {"separation": (int, REQUIRED), "t_final": (float, REQUIRED),
         "steps": (int, REQUIRED), "origin": (int, 0)}),
    "verify": (run_verify, ("both", "neither"), {}),
    "channels": (
        run_channels, ("neither",),
        {"omega1": (float, 1.0), "omega2": (float, 2.2),
         "couplings": (dict, None)}),
}

# the schemas of the config's top level and its model sections; hamiltonian
# defaults of None defer to HamiltonianSpec
SCHEMA = {
    "config": {"scenario": (tuple(SCENARIOS), REQUIRED),
               "params": (dict, {}), "tolerance": (float, DEFAULT_TOL),
               "lattice": (dict, None), "hamiltonian": (dict, None)},
    "lattice": {"spatial_dim": (int, REQUIRED), "sizes": ([int], REQUIRED),
                "boundary": (str, "open")},
    "hamiltonian": dict(
        model=(str, REQUIRED), matter=(str, None), terms=([str], None),
        **dict.fromkeys(("truncation", "g2", "eps", "mass", "lam", "lam_zn",
                         "eta"), (float, None))),
}


def run(cfg, outdir, tol=None):
    """Execute a config as load_config reads it and write its manifest;
    returns (exit_code, manifest_path).  A `tol` that is not None overrides
    the config's tolerance."""
    return _record(cfg, outdir,
                   lambda writer: _execute(cfg, tol, None, writer))


def _execute(cfg, tol, subcommand, writer):
    """Check the whole config against SCHEMA and its scenario's SCENARIOS
    entry (and, from the command line, against the subcommand), resolve the
    tolerance (tol, else the config's, else DEFAULT_TOL) and run the
    scenario; returns (results, checks)."""
    top = parse_section(cfg, SCHEMA["config"], "config")
    scenario = top["scenario"]
    if subcommand not in (None, scenario):
        raise ConfigError(
            f"config names scenario {scenario!r} but the {subcommand!r} "
            f"subcommand was invoked")
    tol = top["tolerance"] if tol is None else _cast(float, tol, "tolerance")
    if tol <= 0.0:
        raise ConfigError(f"tolerance must be positive, got {tol!r}")
    given = [key for key in ("lattice", "hamiltonian") if top[key] is not None]
    runner, takes, schema = SCENARIOS[scenario]
    if {0: "neither", 2: "both"}.get(len(given)) not in takes:
        raise ConfigError(
            f"{scenario} takes {' or '.join(takes)} of the lattice and "
            f"hamiltonian sections, got {given}")
    lat = parse_lattice(top["lattice"]) if given else None
    spec = parse_hamiltonian(top["hamiltonian"]) if given else None
    params = parse_section(top["params"], schema, "params")
    return runner(lat, spec, params, writer, tol)


def _record(cfg, outdir, work):
    """Call work(writer) for a run's (results, checks) and write the
    manifest, `cfg` as its config; returns (exit_code, manifest_path).
    Every config error, and any ValueError the library raises on the
    config, exits 2; a SolverError or a MemoryError exits 3."""
    writer = Writer(outdir)
    t0 = time.perf_counter()
    with solver.run_log() as log:
        try:
            results, checks = work(writer)
            status = 0 if all(c["pass"] for c in checks) else 1
            error = None
        except ValueError as exc:
            # ConfigError, or a library ValueError the parsers cannot
            # foresee (a term the lattice does not support, a mis-sized
            # charge list)
            results, checks, status, error = {}, [], 2, str(exc)
        except (solver.SolverError, MemoryError) as exc:
            # numerical failure, a full space too large for memory, or an
            # allocation the process could not get
            results, checks, status, error = {}, [], 3, \
                str(exc) or type(exc).__name__
    manifest = {
        "config": cfg,
        "versions": {"lgtlab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "results": results,
        "checks": checks,
        "files": writer.files,
        "error": error,
        "exit_status": status,
        "timing": {"stages": log,
                   "wall_seconds": time.perf_counter() - t0,
                   "threads": len(os.listdir(TASKS))
                   if os.path.isdir(TASKS) else None,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024},
    }
    return status, writer.manifest(manifest)


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
                       help="override the config's invariant tolerance")
        if name == "verify":
            p.add_argument("--all", action="store_true",
                           help="run the full built-in invariant suite")
    args = parser.parse_args(argv)

    fault = None
    if args.scenario == "verify" and args.all:
        cfg = {"scenario": "verify"}
    elif not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2
    else:
        try:
            cfg = _read_json(args.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            cfg, fault = None, exc

    def work(writer):
        if fault is not None:
            raise fault
        return _execute(cfg, args.tolerance, args.scenario, writer)
    status, manifest = _record(cfg, args.out or "lgtlab_out", work)
    print(f"manifest: {manifest} (exit {status})")
    return status
