import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import lgtlab
from gauge_oracle import restrict
from lgtlab import cli
from lgtlab.cli import ConfigError, load_config, main, run
from lgtlab.gauge import sector_basis

BASE = {
    "scenario": "spectrum",
    "lattice": {"spatial_dim": 2, "sizes": [2, 2], "boundary": "open"},
    "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 10.0},
    "params": {"k": 3, "charges": [0, 0, 0, 0]},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def stages(m, name):
    """The manifest's `timing` records of stage `name`, in the order they
    ended."""
    return [r for r in m["timing"]["stages"] if r["stage"] == name]


def test_spectrum_run(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    m = read_manifest(tmp_path / "out")
    assert m["results"]["sector_dim"] == 3    # loop flux -1, 0, +1
    assert all(c["pass"] for c in m["checks"])
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,energy"
    assert len(lines) == 4


def test_unknown_key_rejected(tmp_path):
    bad = dict(BASE)
    bad["extra"] = 1
    cfg = write_cfg(tmp_path, bad)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 2 and "extra" in m["error"]
    assert m["config"] == bad


def test_unknown_hamiltonian_key_rejected(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["hamiltonian"]["coupling"] = 2.0
    cfg = write_cfg(tmp_path, bad)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert "coupling" in m["error"]


def test_spatial_dim_3_rejected_with_message(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["lattice"]["spatial_dim"] = 3
    bad["lattice"]["sizes"] = [2, 2, 2]
    cfg = write_cfg(tmp_path, bad)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert "spatial_dim" in m["error"]


def test_empty_sector_is_numerical_failure(tmp_path):
    bad = json.loads(json.dumps(BASE))
    bad["params"]["charges"] = [9, -9, 0, 0]
    cfg = write_cfg(tmp_path, bad)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 3


@pytest.mark.parametrize("edit", [
    lambda c: c.update(
        lattice={"spatial_dim": 1, "sizes": [4]},
        hamiltonian={"model": "ks_u1", "truncation": 1,
                     "terms": ["magnetic"]},
        params={"k": 2}),
    lambda c: c["params"].update(charges=[0, 0, 0]),
], ids=["magnetic_on_chain", "charges_wrong_length"])
def test_library_value_error_is_config_error(tmp_path, edit):
    bad = json.loads(json.dumps(BASE))
    edit(bad)
    cfg = write_cfg(tmp_path, bad)
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 2
    assert m["error"]


CHAIN = {"spatial_dim": 1, "sizes": [4]}
CHAIN_MATTER = {"model": "ks_u1", "truncation": 1, "eps": 0.5,
                "matter": "staggered"}
MALFORMED = {
    "spectrum_k_list": dict(BASE, params={"k": [1]}),
    "potential_separations_int": {
        "scenario": "potential", "lattice": CHAIN,
        "hamiltonian": CHAIN_MATTER, "params": {"separations": 3}},
    "dynamics_t_final_list": {
        "scenario": "dynamics", "lattice": CHAIN,
        "hamiltonian": CHAIN_MATTER,
        "params": {"separation": 2, "t_final": [1.0], "steps": 2}},
    "channels_couplings_list": {
        "scenario": "channels", "params": {"couplings": [1, 2]}},
    "plaquette_convergence_n_list_int": {
        "scenario": "plaquette_convergence",
        "params": {"family": "zn", "n_list": 3}},
    "tolerance_string": dict(BASE, tolerance="x"),
    "lattice_sizes_string": dict(
        BASE, lattice={"spatial_dim": 1, "sizes": "4"}, params={"k": 2}),
    # an empty list used to run: a header-only CSV, vacuous checks
    "plaquette_convergence_n_list_empty": {
        "scenario": "plaquette_convergence",
        "params": {"family": "zn", "n_list": []}},
    "plaquette_convergence_ell_list_empty": {
        "scenario": "plaquette_convergence", "params": {"ell_list": []}},
    "hamiltonian_terms_empty": dict(
        BASE, hamiltonian=dict(BASE["hamiltonian"], terms=[])),
    # 2 pi / N used to divide by zero before N was checked: a traceback
    "plaquette_convergence_n_list_zero": {
        "scenario": "plaquette_convergence",
        "params": {"family": "zn", "n_list": [0]}},
    # channels outside 0.5 .. 3.5 have vanishing Clebsch-Gordan factors:
    # their couplings used to leave no trace
    "channels_coupling_key_9": {
        "scenario": "channels", "params": {"couplings": {"9": 1.0}}},
    "channels_coupling_key_1": {
        "scenario": "channels", "params": {"couplings": {"1": 1.0}}},
    # a key that is no number used to fail in float(): "could not convert
    # string to float", naming no key
    "channels_coupling_key_abc": {
        "scenario": "channels", "params": {"couplings": {"abc": 1.0}}},
    # two keys of one channel used to run, the last value silently kept
    "channels_coupling_keys_duplicate": {
        "scenario": "channels",
        "params": {"couplings": {"0.5": 1.0, "0.50": 2.0}}},
    # a U(1) reference of cutoff 0 used to give every reference energy
    # as 0.0 and fail the monotone checks (exit 1)
    "plaquette_convergence_cutoff_ref_zero": {
        "scenario": "plaquette_convergence", "params": {"cutoff_ref": 0}},
    # SU(2) J_max 0 used to fail in su2rep ("representation label j
    # exceeds J_max"), naming no config value
    "spectrum_su2_truncation_zero": dict(
        BASE, hamiltonian={"model": "su2", "truncation": 0},
        params={"k": 2}),
    # the electric-only tension check needs a fit, which one separation
    # cannot give
    "potential_electric_only_one_separation": {
        "scenario": "potential", "lattice": CHAIN,
        "hamiltonian": {"model": "ks_u1", "terms": ["electric"]},
        "params": {"separations": [2]}},
    # a charge beyond int64 used to pass the schema and overflow in the
    # sector enumeration: a traceback, exit 1 and no manifest
    "spectrum_charge_beyond_int64": {
        "scenario": "spectrum", "lattice": CHAIN,
        "hamiltonian": CHAIN_MATTER,
        "params": {"charges": [99999999999999999999, 0, 0, 0]}},
    # a truncation that holds no unit of flux has no string state
    "dynamics_cutoff_zero": {
        "scenario": "dynamics", "lattice": CHAIN,
        "hamiltonian": dict(CHAIN_MATTER, truncation=0),
        "params": {"separation": 2, "t_final": 1.0, "steps": 2}},
}
# what the error of a malformed config names, where it names one
MALFORMED_NAMES = {
    "plaquette_convergence_n_list_zero": "N must be >= 2",
    "channels_coupling_key_9": "'9'",
    "channels_coupling_key_1": "'1'",
    "channels_coupling_key_abc": "params.couplings key 'abc'",
    "channels_coupling_keys_duplicate": "keys '0.5' and '0.50'",
    "dynamics_cutoff_zero": "no unit of flux",
    "spectrum_charge_beyond_int64": "params.charges[0]",
    "spectrum_su2_truncation_zero": "J_max must be >= 1/2",
    "potential_electric_only_one_separation": "params.separations",
    "plaquette_convergence_cutoff_ref_zero": "params.cutoff_ref",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_param_of_wrong_type_is_config_error(tmp_path, name):
    cfg = MALFORMED[name]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    rc = main([cfg["scenario"], "--config", path, "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2 and m["error"]
    assert m["config"] == json.loads(json.dumps(cfg))   # no defaults added
    assert MALFORMED_NAMES.get(name, "") in m["error"]


def test_config_int_holds_exactly_int64():
    for x in (2 ** 63 - 1, -2 ** 63, 1e18):
        assert cli._cast(int, x, "params.k") == int(x)
    for x in (2 ** 63, -2 ** 63 - 1, 1e19):
        with pytest.raises(ConfigError, match=r"^params\.k must be an int"):
            cli._cast(int, x, "params.k")


CHAIN_SPECTRUM = {"scenario": "spectrum", "lattice": CHAIN,
                  "hamiltonian": CHAIN_MATTER, "params": {"k": 2}}
CHAIN_DYNAMICS = {"scenario": "dynamics", "lattice": CHAIN,
                  "hamiltonian": CHAIN_MATTER,
                  "params": {"separation": 2, "t_final": 1.0, "steps": 2}}


@pytest.mark.parametrize("cfg, key", [
    (CHAIN_SPECTRUM, "hamiltonian.g2"),
    (CHAIN_SPECTRUM, "hamiltonian.eps"),
    (CHAIN_DYNAMICS, "params.t_final"),
    ({"scenario": "channels", "params": {}}, "params.omega1"),
    (BASE, "tolerance"),
], ids=["g2", "eps", "t_final", "omega1", "tolerance"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_number_is_config_error(tmp_path, cfg, key, value):
    # JSON text as a hand-written config has it: NaN and Infinity are
    # literals, 1e400 overflows to infinity when parsed; every one used to
    # run, to a traceback in ARPACK (exit 1, no manifest), NaN fluxes or
    # exit 0
    section, _, name = key.rpartition(".")
    cfg = json.loads(json.dumps(cfg))
    (cfg.setdefault(section, {}) if section else cfg)[name] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"@"', value))
    out = tmp_path / "out"
    rc = main([cfg["scenario"], "--config", str(path), "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2 and key in m["error"]
    assert m["files"] == [] and m["checks"] == []


def test_spectrum_k_zero_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, dict(BASE, params={"k": 0}))
    rc = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 2 and "eigenpairs" in m["error"]


def test_fractional_truncation_rejected(tmp_path):
    for model in ("ks_u1", "spin_gauge", "zn"):
        bad = json.loads(json.dumps(BASE))
        bad["hamiltonian"].update(model=model, truncation=1.7)
        cfg = write_cfg(tmp_path, bad)
        out = tmp_path / model
        rc = main(["spectrum", "--config", cfg, "--out", str(out)])
        assert rc == 2
        m = read_manifest(out)
        assert m["exit_status"] == 2 and "truncation" in m["error"]


def test_scenario_subcommand_mismatch(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    rc = main(["potential", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 2 and "subcommand" in m["error"]
    assert m["config"] == BASE


@pytest.mark.parametrize("text, config, message", [
    ('{"scenario": "bogus"}', {"scenario": "bogus"}, "config.scenario"),
    ('{"scenario": "spectrum",', None, "not valid JSON"),
    ('[1, 2]', [1, 2], "config must be dict"),
], ids=["unknown_scenario", "invalid_json", "not_an_object"])
def test_bad_top_level_exits_2_with_a_manifest(tmp_path, text, config,
                                               message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", str(path), "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2 and message in m["error"]
    assert m["config"] == config and m["checks"] == []


@pytest.mark.parametrize("scenario, section", [
    ("effective_check", {"hamiltonian": {"model": "zn", "truncation": 3}}),
    ("channels", {"hamiltonian": {"model": "bogus"}}),
    ("plaquette_convergence", {"lattice": {"spatial_dim": 1, "sizes": [4]}}),
    ("spectrum", {"lattice": BASE["lattice"], "params": BASE["params"]}),
    ("potential", {"hamiltonian": BASE["hamiltonian"],
                   "params": {"separations": [0, 1]}}),
    ("dynamics", {"lattice": {"spatial_dim": 1, "sizes": [4]},
                  "params": {"separation": 1, "t_final": 1.0, "steps": 2}}),
], ids=["effective_check", "channels", "plaquette_convergence",
        "spectrum_without_hamiltonian", "potential_without_lattice",
        "dynamics_without_hamiltonian"])
def test_stray_model_section_is_config_error(tmp_path, scenario, section):
    # effective_check, channels and plaquette_convergence build their own
    # models: the section used to be ignored; spectrum, potential and
    # dynamics need both sections, so one alone is refused the same way
    path = write_cfg(tmp_path, dict(section, scenario=scenario))
    out = tmp_path / "out"
    rc = main([scenario, "--config", path, "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2 and m["files"] == []
    assert m["error"].startswith(f"{scenario} takes ")
    assert next(iter(section)) in m["error"]


def test_potential_row_count(tmp_path):
    cfg = {
        "scenario": "potential",
        "lattice": {"spatial_dim": 1, "sizes": [6]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 2.0,
                        "terms": ["electric"]},
        "params": {"separations": [0, 1, 2, 3]},
    }
    path = write_cfg(tmp_path, cfg)
    rc = main(["potential", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "potential.csv").read_text().splitlines()
    assert lines[0] == "R,E,dim"
    assert len(lines) == 1 + 4               # exactly len(R_list) data rows
    m = read_manifest(tmp_path / "out")
    assert m["results"]["sigma"] == pytest.approx(1.0)
    assert any(c["name"] == "string_tension_electric_only" and c["pass"]
               for c in m["checks"])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_electric_only_zn_potential_has_the_clock_tension(tmp_path, n):
    # the check used to expect g2/2 on every Abelian family: each of these
    # exited 1 (at N = 3, sigma 1.5 * lam_zn against an expected 0.5)
    lam = 1.3
    cfg = {"scenario": "potential",
           "lattice": {"spatial_dim": 1, "sizes": [5]},
           "hamiltonian": {"model": "zn", "truncation": n, "lam_zn": lam,
                           "terms": ["electric"]},
           "params": {"separations": [0, 1, 2, 3]}}
    out = tmp_path / "out"
    rc = main(["potential", "--config", write_cfg(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 0
    m = read_manifest(out)
    assert m["results"]["sigma"] == pytest.approx(
        lam * (1 - np.cos(2 * np.pi / n)), abs=1e-12)
    [check] = m["checks"]
    assert check["name"] == "string_tension_electric_only"
    assert check["value"] < 1e-12


def test_z2_string_reads_flux_minus_one(tmp_path):
    # Z_2's flux window is {-1, 0}: one unit of flux reads -1, and the
    # string used to be looked up at readout 1.0 (exit 2)
    cfg = {"scenario": "dynamics",
           "lattice": {"spatial_dim": 1, "sizes": [4]},
           "hamiltonian": {"model": "zn", "truncation": 2, "eps": 0.5,
                           "mass": 0.3, "matter": "staggered"},
           "params": {"separation": 2, "t_final": 1.0, "steps": 4}}
    out = tmp_path / "out"
    rc = main(["dynamics", "--config", write_cfg(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in
            (out / "dynamics.csv").read_text().splitlines()[1:]]
    start = {int(link): float(flux) for t, link, flux, _ in rows
             if float(t) == 0.0}
    assert start[0] == pytest.approx(-1.0, abs=1e-12)
    assert start[1] == pytest.approx(-1.0, abs=1e-12)
    assert start[2] == pytest.approx(0.0, abs=1e-12)
    # the share of the string left at the end, read against its -1 start
    assert 0.0 < read_manifest(out)["results"]["string_survival"] < 1.0


def test_dynamics_at_separation_zero_reports_no_survival(tmp_path):
    # a string of no links starts with flux 0: its survival used to be
    # the final flux over 1e-12, about 1.1e12 here
    cfg = {"scenario": "dynamics",
           "lattice": {"spatial_dim": 1, "sizes": [4]},
           "hamiltonian": {"model": "ks_u1", "truncation": 1, "eps": 0.8,
                           "mass": 0.1, "matter": "staggered"},
           "params": {"separation": 0, "t_final": 2.0, "steps": 8}}
    out = tmp_path / "out"
    rc = main(["dynamics", "--config", write_cfg(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 0
    results = read_manifest(out)["results"]
    assert results["string_survival"] is None
    assert len(results["final_flux_profile"]) == 3


def test_verify_all_passes(tmp_path):
    rc = main(["verify", "--all", "--out", str(tmp_path / "out")])
    assert rc == 0
    m = read_manifest(tmp_path / "out")
    assert all(c["pass"] for c in m["checks"])
    assert m["results"]["trace_identity_defect_f"] == pytest.approx(1.5)


def test_verify_all_times_each_models_checks_as_one_stage(tmp_path):
    # the hermiticity and Gauss checks of each suite model are one `check`
    # record, after that model's build and assembly
    main(["verify", "--all", "--out", str(tmp_path / "out")])
    m = read_manifest(tmp_path / "out")
    expected = []
    for name, spec, lat in cli.verify_suite():
        h = cli.build_model(spec, lat).hamiltonian()
        expected.append({"stage": "check", "model": name,
                         "dim": h.shape[0], "nnz": h.nnz})
    records = stages(m, "check")
    assert [{k: r[k] for k in ("stage", "model", "dim", "nnz")}
            for r in records] == expected
    assert [r["stage"] for r in m["timing"]["stages"]] \
        == ["build", "assemble", "check"] * len(expected)
    seconds = [r["seconds"] for r in m["timing"]["stages"]]
    assert min(seconds) >= 0.0
    assert sum(seconds) <= m["timing"]["wall_seconds"]


@pytest.mark.parametrize("spec, lat", [pytest.param(s, l, id=n)
                                       for n, s, l in cli.verify_suite()])
def test_verify_models_are_hermitian_bit_for_bit(spec, lat):
    # the precondition of max_gauss_violation's K- = -(K+)^dag
    h = cli.build_model(spec, lat).hamiltonian()
    assert (h != h.conj().T).nnz == 0


def test_verify_single_config(tmp_path):
    cfg = {
        "scenario": "verify",
        "lattice": {"spatial_dim": 2, "sizes": [2, 2]},
        "hamiltonian": {"model": "zn", "truncation": 5, "lam_zn": 0.8},
    }
    path = write_cfg(tmp_path, cfg)
    rc = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 0
    m = read_manifest(tmp_path / "out")
    names = [c["name"] for c in m["checks"]]
    assert any("gauge_invariance" in n for n in names)
    assert all(c["pass"] for c in m["checks"])


def test_failed_invariant_exits_1(tmp_path):
    # the gauge-variant diagonal hopping breaks the Gauss law: each hop
    # moves a vertex charge by 2, so [H, G] reaches 2 eta = 0.5, far above
    # the default tolerance, while H stays Hermitian
    cfg = {
        "scenario": "verify",
        "lattice": {"spatial_dim": 2, "sizes": [2, 2]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "eta": 0.25,
                        "terms": ["electric", "hopping"]},
    }
    path = write_cfg(tmp_path, cfg)
    rc = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 1
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 1
    assert m["error"] is None
    failed = [c for c in m["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["gauge_invariance[ks_u1]"]
    assert failed[0]["value"] == 0.5


@pytest.mark.parametrize("via", ["flag", "key", "run"])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")],
                         ids=str)
def test_tolerance_not_finite_positive_is_config_error(tmp_path, tol, via):
    # at the parent 0, -1 and nan failed 6 of verify --all's 18 checks
    # (exit 1) and inf passed every tolerance-gated check; cli.run read no
    # tolerance from the config at all
    out = tmp_path / "out"
    if via == "run":
        rc, _ = run(dict(BASE, tolerance=tol), str(out))
    elif via == "flag":
        rc = main(["verify", "--all", "--tolerance", str(tol),
                   "--out", str(out)])
    else:
        rc = main(["spectrum", "--config",
                   write_cfg(tmp_path, dict(BASE, tolerance=tol)),
                   "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2 and "tolerance" in m["error"]
    assert m["checks"] == []


def lgtlab_env(**extra):
    """The environment of a fresh `python -m lgtlab` process: no thread
    settings of its own, lgtlab importable from this source tree."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "LGTLAB_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(lgtlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return dict(env, **extra)


@pytest.mark.parametrize("flag, env", [
    (["--threads", "0"], {}),
    (["--threads", "-2"], {}),
    ([], {"LGTLAB_THREADS": "abc"}),
    ([], {"LGTLAB_THREADS": "0"}),
    ([], {"LGTLAB_THREADS": "-2"}),
    ([], {"LGTLAB_THREADS": "²"}),
], ids=["flag-0", "flag-minus-2", "env-abc", "env-0", "env-minus-2",
        "env-superscript-2"])
def test_thread_count_not_positive_integer_exits_2(tmp_path, flag, env):
    # refused before the runner (and numpy's BLAS pool) is loaded; at the
    # parent each of these ran with the default pool and exited 0
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lgtlab", "verify", "--all", *flag, "--out",
         str(out)], env=lgtlab_env(**env), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 2
    assert "must be a positive integer" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="thread count is read from /proc")
def test_threads_flag_takes_effect(tmp_path):
    # the BLAS pool size is fixed when numpy loads, so only a fresh
    # process started through the lgtlab command can show the flag working
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "lgtlab", "verify", "--all", "--threads", "1",
         "--out", str(out)], env=lgtlab_env(), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert read_manifest(out)["timing"]["threads"] == 1


def test_channels_csv(tmp_path):
    cfg = {"scenario": "channels", "params": {"omega1": 1.0, "omega2": 2.2}}
    path = write_cfg(tmp_path, cfg)
    rc = main(["channels", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "channels.csv").read_text().splitlines()
    assert lines[0] == ("m_b,m_f,m_b_prime,m_f_prime,amplitude_re,"
                        "amplitude_im,allowed_by_homega")
    allowed = [ln for ln in lines[1:] if ln.endswith(",1")]
    assert len(allowed) == 16                # 8 per parity


def test_dynamics_and_reproducibility(tmp_path):
    cfg = {
        "scenario": "dynamics",
        "lattice": {"spatial_dim": 1, "sizes": [6]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 1.0,
                        "eps": 0.8, "mass": 0.1, "matter": "staggered"},
        "params": {"separation": 3, "t_final": 1.0, "steps": 5},
    }
    path = write_cfg(tmp_path, cfg)
    rc1 = main(["dynamics", "--config", path, "--out", str(tmp_path / "a")])
    rc2 = main(["dynamics", "--config", path, "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    # result files are byte-identical between identical runs
    for name in ("dynamics.csv", "dynamics_charge.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False)
    # manifests agree except for the wall-time record
    ma = read_manifest(tmp_path / "a")
    mb = read_manifest(tmp_path / "b")
    ma.pop("timing"), mb.pop("timing")
    assert ma == mb


def test_dynamics_overflowing_evolution_exits_3(tmp_path):
    # t_final 1e308 overflows the dense path's phases: a numerical
    # failure with a manifest, and no dynamics table of nan rows
    cfg = {
        "scenario": "dynamics",
        "lattice": {"spatial_dim": 1, "sizes": [6]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "eps": 0.8,
                        "mass": 0.1, "matter": "staggered"},
        "params": {"separation": 3, "t_final": 1e308, "steps": 10},
    }
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["dynamics", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    m = read_manifest(out)
    assert m["exit_status"] == 3 and "norm drift nan" in m["error"]
    assert m["files"] == [] and not (out / "dynamics.csv").exists()


def test_plaquette_convergence_zn_family(tmp_path):
    cfg = {"scenario": "plaquette_convergence",
           "params": {"family": "zn", "n_list": [3, 5, 7], "cutoff_ref": 6}}
    path = write_cfg(tmp_path, cfg)
    rc = main(["plaquette_convergence", "--config", path,
               "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "g2,N,E_calibrated,gap_to_ref"
    assert len(lines) == 1 + 3 * 3          # default g2_list times n_list


CONVERGENCE = {"family": "spin_gauge", "g2_list": [1.0, 2.0],
               "ell_list": [1, 2, 3], "cutoff_ref": 4}


@pytest.mark.parametrize("edit", [{"ell_list": [3, 2, 1]},
                                  {"g2_list": [1.0, 1.0, 2.0]},
                                  {"g2_list": [2.0, 1.0],
                                   "ell_list": [2, 1, 3, 1]}],
                         ids=["ell_321", "g2_repeated", "both_unsorted"])
def test_plaquette_convergence_runs_each_distinct_value_once_in_order(
        tmp_path, edit):
    # ell_list [3, 2, 1] used to exit 1 with every monotone check failing,
    # and a repeated g2 gave two identical checks
    def run_case(name, params):
        path = write_cfg(tmp_path, {"scenario": "plaquette_convergence",
                                    "params": params}, f"{name}.json")
        rc = main(["plaquette_convergence", "--config", path,
                   "--out", str(tmp_path / name)])
        csv = (tmp_path / name / "convergence.csv").read_bytes()
        return rc, csv, read_manifest(tmp_path / name)
    rc, csv, m = run_case("edited", dict(CONVERGENCE, **edit))
    rc_ref, csv_ref, m_ref = run_case("sorted", CONVERGENCE)
    assert rc == rc_ref == 0
    assert csv == csv_ref
    assert m["results"] == m_ref["results"] and m["checks"] == m_ref["checks"]
    assert [c["name"] for c in m["checks"]] == [
        "monotone_convergence_g2_1.0", "monotone_convergence_g2_2.0"]


@pytest.mark.parametrize("family, key", [("spin_gauge", "n_list"),
                                         ("zn", "ell_list")])
def test_truncation_list_of_the_other_family_is_config_error(tmp_path,
                                                             family, key):
    # the other family's list used to be ignored
    path = write_cfg(tmp_path, {"scenario": "plaquette_convergence",
                                "params": {"family": family, key: [3]}})
    out = tmp_path / "out"
    rc = main(["plaquette_convergence", "--config", path, "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2 and m["files"] == []
    assert f"params.{key}" in m["error"]


def test_memory_error_exits_3_with_a_manifest(tmp_path, monkeypatch):
    def runner(*args):
        raise MemoryError
    monkeypatch.setitem(cli.SCENARIOS, "spectrum",
                        (runner, *cli.SCENARIOS["spectrum"][1:]))
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", write_cfg(tmp_path, BASE),
               "--out", str(out)])
    assert rc == 3
    m = read_manifest(out)
    assert m["exit_status"] == 3 and m["error"] == "MemoryError"
    assert m["results"] == {} and m["checks"] == []


def test_effective_check_scenario(tmp_path):
    cfg = {"scenario": "effective_check",
           "params": {"lam": 40.0, "eta": 0.1, "ell": 1, "g2": 1.0}}
    path = write_cfg(tmp_path, cfg)
    rc = main(["effective_check", "--config", path,
               "--out", str(tmp_path / "out")])
    assert rc == 0
    m = read_manifest(tmp_path / "out")
    assert m["results"]["coefficient_ratio_lam_2lam"] == pytest.approx(
        2.0, rel=1e-3)
    assert m["results"]["mismatch_shrink_lam_4lam"] >= 8.0


@pytest.mark.parametrize("key", ["lam", "eta"])
def test_effective_check_zero_lam_or_eta_is_config_error(tmp_path, key):
    # at the parent eta = 0 died on a ZeroDivisionError (exit 1, no
    # manifest) and lam = 0 exited 3 on a singular resolvent
    path = write_cfg(tmp_path, {"scenario": "effective_check",
                                "params": {key: 0.0}})
    out = tmp_path / "out"
    rc = main(["effective_check", "--config", path, "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2 and f"params.{key}" in m["error"]


def test_effective_check_assembles_each_term_once(tmp_path, monkeypatch):
    # only the penalty depends on lambda: the full space assembles penalty,
    # hopping and electric for the exact spectrum, the sector electric and
    # magnetic for H_eff and its plaquette pattern, once for all three
    # lambdas, and the second-order block is built once
    from lgtlab.hamiltonian import Model
    calls = []
    hamiltonian = Model.hamiltonian

    def counted(self, terms=None, sector=None):
        calls.append((terms, sector is None))
        return hamiltonian(self, terms, sector)
    monkeypatch.setattr(Model, "hamiltonian", counted)
    path = write_cfg(tmp_path, {"scenario": "effective_check"})
    rc = main(["effective_check", "--config", path,
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert sorted(calls) == [(("electric",), False), (("electric",), True),
                             (("hopping",), True), (("magnetic",), False),
                             (("penalty",), True)]
    m = read_manifest(tmp_path / "out")
    assert sorted(r["dim"] for r in stages(m, "assemble")) == [3, 3, 81, 81,
                                                                81]
    assert [(r["dim"], r["targets"]) for r in stages(m, "second_order")] \
        == [(3, 8)]
    rows = (tmp_path / "out" / "effective.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["40", "80", "160"]


def test_potential_separation_wrapping_a_ring_is_config_error(tmp_path):
    # R = 6 on a ring of 6 would put the -1 charge on the +1 at the origin
    cfg = {"scenario": "potential",
           "lattice": {"spatial_dim": 1, "sizes": [6],
                       "boundary": "periodic"},
           "hamiltonian": CHAIN_MATTER, "params": {"separations": [1, 2, 6]}}
    path = write_cfg(tmp_path, cfg)
    rc = main(["potential", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert "winds around" in m["error"]
    assert m["files"] == []


@pytest.mark.parametrize("scenario,params,named", [
    ("potential", {"separations": [0, 1, 5]}, "separation 5 from origin 0"),
    ("dynamics", {"separation": 2, "origin": 2, "t_final": 1.0, "steps": 4},
     "separation 2 from origin 2")], ids=["potential", "dynamics"])
def test_string_past_the_open_edge_is_config_error(tmp_path, scenario,
                                                   params, named):
    # used to exit 2 with "no link at (3,) in direction 1", which names
    # neither the separation nor the origin
    cfg = {"scenario": scenario,
           "lattice": {"spatial_dim": 1, "sizes": [4]},
           "hamiltonian": dict(CHAIN_MATTER, mass=0.3), "params": params}
    path = write_cfg(tmp_path, cfg)
    rc = main([scenario, "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 2 and named in m["error"]
    assert m["files"] == []


@pytest.mark.parametrize("separations", [[4], [0, 1]], ids=["R4", "R0_R1"])
def test_potential_without_a_fit_window_reports_a_null_fit(tmp_path,
                                                           separations):
    # fewer than two separations R > 0 used to exit 2 ("fit window needs
    # at least two points") and write no potential.csv
    cfg = {"scenario": "potential",
           "lattice": {"spatial_dim": 1, "sizes": [6]},
           "hamiltonian": CHAIN_MATTER,
           "params": {"separations": separations}}
    out = tmp_path / "out"
    rc = main(["potential", "--config", write_cfg(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 0
    m = read_manifest(out)
    assert m["results"] == {"sigma": None, "offset": None,
                            "fit_residual": None}
    rows = (out / "potential.csv").read_text().splitlines()
    assert rows[0] == "R,E,dim"
    assert [int(row.split(",")[0]) for row in rows[1:]] == separations


def test_potential_origin_beyond_the_chain_is_config_error(tmp_path):
    # vertex 10 of a chain of 6 used to die with an IndexError traceback
    cfg = {"scenario": "potential",
           "lattice": {"spatial_dim": 1, "sizes": [6]},
           "hamiltonian": CHAIN_MATTER,
           "params": {"separations": [0, 1, 2], "origin": 10}}
    path = write_cfg(tmp_path, cfg)
    rc = main(["potential", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert "origin 10" in m["error"]
    assert m["files"] == []


def test_dynamics_negative_origin_is_config_error(tmp_path):
    # origin -1 used to start the string at the last vertex of the ring
    cfg = {"scenario": "dynamics",
           "lattice": {"spatial_dim": 1, "sizes": [6],
                       "boundary": "periodic"},
           "hamiltonian": dict(CHAIN_MATTER, mass=0.3),
           "params": {"separation": 2, "t_final": 1.0, "steps": 4,
                      "origin": -1}}
    path = write_cfg(tmp_path, cfg)
    rc = main(["dynamics", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert "origin -1" in m["error"]
    assert m["files"] == []


@pytest.mark.parametrize("missing", ["lattice", "hamiltonian"])
def test_verify_with_one_model_section_is_config_error(tmp_path, missing):
    cfg = {"scenario": "verify",
           "lattice": {"spatial_dim": 1, "sizes": [3]},
           "hamiltonian": {"model": "ks_u1", "truncation": 1}}
    del cfg[missing]
    path = write_cfg(tmp_path, cfg)
    rc = main(["verify", "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    m = read_manifest(tmp_path / "out")
    assert m["checks"] == [] and missing in m["error"]


def test_load_config_requires_scenario(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"lattice": {}}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def potential_runs_in_sectors(tmp_path, monkeypatch, n, separations):
    """Run `potential` on the staggered chain of n with every full-space
    path barred, and check its manifest against the CSV."""
    from lgtlab.tensor import ProductSpace

    def refuse(*args, **kwargs):
        raise AssertionError("full-space object built")
    monkeypatch.setattr(ProductSpace, "labels", property(refuse))
    monkeypatch.setattr(ProductSpace, "embed", refuse)
    cfg = {
        "scenario": "potential",
        "lattice": {"spatial_dim": 1, "sizes": [n]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 1.1,
                        "eps": 0.5, "mass": 0.3, "matter": "staggered"},
        "params": {"separations": separations},
    }
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 0
    m = read_manifest(tmp_path / "out")
    assert m["error"] is None
    rows = (tmp_path / "out" / "potential.csv").read_text().splitlines()[1:]
    dims = [int(row.split(",")[2]) for row in rows]
    assert max(r["dim_full"] for r in stages(m, "assemble")) \
        == 3 ** (n - 1) * 2 ** n
    solves = stages(m, "solve")
    assert [r["dim"] for r in solves] == dims
    assert 0.0 <= max(r["residual"] for r in solves) <= 1e-9
    assert stages(m, "evolve") == []
    assert m["timing"]["peak_rss_mb"] > 0
    return dims, [r["path"] for r in solves]


def test_potential_chain_10_runs_in_sectors(tmp_path, monkeypatch):
    # 20,155,392 product states: the run must never build the full-space
    # label table or embed an operator
    dims, paths = potential_runs_in_sectors(tmp_path, monkeypatch, 10,
                                            [0, 1, 2, 3, 4])
    assert paths == ["dense"] * len(dims)


def test_potential_chain_18_runs_beyond_16_modes(tmp_path, monkeypatch):
    # 18 fermion modes, 3^17 * 2^18 product states: the modes are tensor
    # factors like the links, so no cap on their number applies
    dims, paths = potential_runs_in_sectors(tmp_path, monkeypatch, 18,
                                            [1, 2])
    assert dims == [12087, 12087]
    assert paths == ["lanczos"] * 2


def potential_rows(tmp_path, separations, name):
    cfg = {
        "scenario": "potential",
        "lattice": {"spatial_dim": 1, "sizes": [8]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 1.1,
                        "eps": 0.5, "mass": 0.3, "matter": "staggered"},
        "params": {"separations": separations},
    }
    status, _ = run(cfg, str(tmp_path / name))
    assert status == 0
    rows = (tmp_path / name / "potential.csv").read_text().splitlines()[1:]
    return rows, read_manifest(tmp_path / name)


def test_potential_chain_assembles_once(tmp_path, monkeypatch):
    # the six small sectors of the chain of 8 (195 states in all) are
    # merged and assembled in one Model.hamiltonian call
    from lgtlab.hamiltonian import Model
    calls = []
    assemble = Model.hamiltonian
    monkeypatch.setattr(Model, "hamiltonian", lambda self, *args, **kw: (
        calls.append(kw.get("sector")), assemble(self, *args, **kw))[1])
    rows, m = potential_rows(tmp_path, [0, 1, 2, 3, 4, 5], "out")
    assert len(calls) == 1
    assert [r["dim"] for r in stages(m, "assemble")] == [195]
    solve_dims = [r["dim"] for r in stages(m, "solve")]
    assert solve_dims == [61, 33, 33, 24, 25, 19]
    assert [int(row.split(",")[2]) for row in rows] == solve_dims


def test_potential_chain_times_every_stage(tmp_path):
    # the bench's potential_chain: six sectors enumerated, assembled as
    # one, solved one by one; the stages do not overlap
    _, m = potential_rows(tmp_path, [0, 1, 2, 3, 4, 5], "out")
    assert [r["dim"] for r in stages(m, "enumerate")] \
        == [61, 33, 33, 24, 25, 19]
    assert {r["dim_full"] for r in stages(m, "enumerate")} \
        == {3 ** 7 * 2 ** 8}
    assert [r["dim"] for r in stages(m, "assemble")] == [195]
    assert [r["dim"] for r in stages(m, "solve")] == [61, 33, 33, 24, 25, 19]
    assert [r["stage"] for r in m["timing"]["stages"]] \
        == ["build"] + ["enumerate"] * 6 + ["assemble"] + ["solve"] * 6 \
        + ["write"]
    seconds = [r["seconds"] for r in m["timing"]["stages"]]
    assert min(seconds) >= 0.0
    assert sum(seconds) <= m["timing"]["wall_seconds"]
    assert set(m["timing"]) == {"stages", "wall_seconds", "threads",
                                "peak_rss_mb"}


def test_potential_repeated_separations_match_single_ones(tmp_path,
                                                          monkeypatch):
    from lgtlab import observables
    enumerated = []
    enumerate_sector = observables.sector_basis
    monkeypatch.setattr(observables, "sector_basis", lambda space, q: (
        enumerated.append(tuple(q)), enumerate_sector(space, q))[1])
    repeated, m = potential_rows(tmp_path, [1, 1, 2], "repeated")
    assert len(enumerated) == 2
    assert [r["dim"] for r in stages(m, "assemble")] == [66]
    single, _ = potential_rows(tmp_path, [1, 2], "single")
    reversed_, _ = potential_rows(tmp_path, [2, 1], "reversed")
    assert repeated == [single[0], single[0], single[1]]
    assert single == reversed_[::-1]


def test_potential_without_merging_gives_the_same_blocks(tmp_path,
                                                         monkeypatch):
    # with DENSE_LIMIT at 0 every sector is assembled alone (and solved by
    # Lanczos): the same blocks reach the solver, bitwise
    from lgtlab import solver
    blocks = []
    solve = solver.ground_energy
    monkeypatch.setattr(solver, "ground_energy", lambda h: (
        blocks.append(h.toarray()), solve(h))[1])
    merged, m = potential_rows(tmp_path, [0, 1, 2, 3, 4, 5], "merged")
    merged_blocks, blocks[:] = list(blocks), []
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    alone, m0 = potential_rows(tmp_path, [0, 1, 2, 3, 4, 5], "alone")
    assert [r["dim"] for r in stages(m, "assemble")] == [195]
    assert [r["dim"] for r in stages(m0, "assemble")] \
        == [61, 33, 33, 24, 25, 19]
    assert [r["path"] for r in stages(m0, "solve")] == ["lanczos"] * 6
    assert len(blocks) == len(merged_blocks) == 6
    for a, b in zip(blocks, merged_blocks):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(alone, merged):
        r_a, e_a, dim_a = a.split(",")
        r_b, e_b, dim_b = b.split(",")
        assert (r_a, dim_a) == (r_b, dim_b)
        assert float(e_a) == pytest.approx(float(e_b), abs=1e-10)


def test_oversized_full_space_exits_3_before_allocating(tmp_path):
    # 3^13 * 2^14 and 3^17 * 2^18 states cannot fit anywhere: the memory
    # guard raises before the label table or any embedding is built
    for n in (14, 18):
        cfg = {
            "scenario": "spectrum",
            "lattice": {"spatial_dim": 1, "sizes": [n]},
            "hamiltonian": {"model": "ks_u1", "truncation": 1, "eps": 0.5,
                            "matter": "staggered"},
        }
        status, _ = run(cfg, str(tmp_path / f"out{n}"))
        assert status == 3
        m = read_manifest(tmp_path / f"out{n}")
        assert m["exit_status"] == 3
        assert "MiB" in m["error"]
        assert max(r["dim_full"] for r in stages(m, "assemble")) \
            == 3 ** (n - 1) * 2 ** n


def test_dynamics_timing_records_the_sector_evolution(tmp_path):
    cfg = {
        "scenario": "dynamics",
        "lattice": {"spatial_dim": 1, "sizes": [6]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 1.0,
                        "eps": 0.8, "mass": 0.1, "matter": "staggered"},
        "params": {"separation": 3, "t_final": 1.0, "steps": 5},
    }
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 0
    m = read_manifest(tmp_path / "out")
    assert max(r["dim_full"] for r in stages(m, "assemble")) \
        == 3 ** 5 * 2 ** 6
    evolutions = stages(m, "evolve")
    assert [r["dim"] for r in evolutions] == [7]  # the string's Gauss sector
    assert [r["path"] for r in evolutions] == ["dense"]
    assert stages(m, "solve") == []


def test_dynamics_chain_records_every_stage_in_order(tmp_path):
    # the bench's dynamics_chain at seed 0: one record per stage, none
    # opened inside another, in the order they end
    cfg = {
        "scenario": "dynamics",
        "lattice": {"spatial_dim": 1, "sizes": [6], "boundary": "open"},
        "hamiltonian": {"model": "ks_u1", "truncation": 1,
                        "matter": "staggered", "g2": 1.09399,
                        "eps": 0.465328, "mass": 0.300856},
        "params": {"separation": 3, "t_final": 2.0, "steps": 80},
    }
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 0
    m = read_manifest(tmp_path / "out")
    assert [r["stage"] for r in m["timing"]["stages"]] == [
        "build", "enumerate", "assemble", "evolve", "observables", "write",
        "write"]
    assert [r["dim_full"] for r in stages(m, "build")] == [3 ** 5 * 2 ** 6]
    assert [(r["dim"], r["samples"]) for r in stages(m, "observables")] \
        == [(7, 81)]
    assert [(r["file"], r["rows"]) for r in stages(m, "write")] == [
        ("dynamics.csv", 81 * 5), ("dynamics_charge.csv", 81 * 6)]
    seconds = [r["seconds"] for r in m["timing"]["stages"]]
    assert min(seconds) >= 0.0
    assert sum(seconds) <= m["timing"]["wall_seconds"]


def test_dynamics_decodes_its_sector_once(tmp_path, monkeypatch):
    # the string state is decoded for its charges, and the sector once:
    # the Hamiltonian and every profile read that one label table
    from lgtlab.tensor import ProductSpace
    decoded = []
    decode = ProductSpace.decode

    def counted(self, indices):
        decoded.append(len(indices))
        return decode(self, indices)
    monkeypatch.setattr(ProductSpace, "decode", counted)
    cfg = {
        "scenario": "dynamics",
        "lattice": {"spatial_dim": 1, "sizes": [6]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 1.0,
                        "eps": 0.8, "mass": 0.1, "matter": "staggered"},
        "params": {"separation": 3, "t_final": 1.0, "steps": 5},
    }
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 0
    assert decoded == [1, 7]


TORUS = {"spatial_dim": 2, "sizes": [2, 2], "boundary": "periodic"}
CHARGED_SPECTRA = {
    # the bench's spectrum_torus at seed 0: 1,333 of 390,625 states
    "torus_cutoff2": (TORUS, {"model": "ks_u1", "truncation": 2,
                              "g2": 1.094928}, 1333),
    "torus_cutoff1": (TORUS, {"model": "ks_u1", "truncation": 1,
                              "g2": 0.8}, 115),
    "open_2x2": (BASE["lattice"], BASE["hamiltonian"], 3),
}


@pytest.mark.parametrize("name", CHARGED_SPECTRA)
def test_charged_spectrum_never_builds_the_full_space(tmp_path, monkeypatch,
                                                      name):
    lattice, hamiltonian, sector_dim = CHARGED_SPECTRA[name]
    cfg = {"scenario": "spectrum", "lattice": lattice,
           "hamiltonian": hamiltonian,
           "params": {"k": 4, "charges": [0, 0, 0, 0]}}
    # the full-space oracle, built before the full-space paths are barred
    model = cli.build_model(cli.parse_hamiltonian(hamiltonian),
                            cli.parse_lattice(lattice))
    h = restrict(model.hamiltonian(), sector_basis(model.space, [0] * 4))
    oracle = scipy.linalg.eigh(h.toarray(), eigvals_only=True)[:4]

    from lgtlab.tensor import ProductSpace

    def refuse(*args, **kwargs):
        raise AssertionError("full-space object built")
    monkeypatch.setattr(ProductSpace, "labels", property(refuse))
    monkeypatch.setattr(ProductSpace, "embed", refuse)
    monkeypatch.setattr(cli, "max_gauss_violation", refuse)
    status, _ = run(cfg, str(tmp_path / "out"))
    m = read_manifest(tmp_path / "out")
    assert status == 0, m["error"]
    assert [r["dim"] for r in stages(m, "solve")] == [sector_dim]
    assert [r["path"] for r in stages(m, "solve")] == [
        "lanczos" if sector_dim > cli.solver.DENSE_LIMIT else "dense"]
    assert m["results"]["sector_dim"] == sector_dim
    assert m["checks"] == [{"name": "gauge_invariance", "value": 0.0,
                            "threshold": 1e-10, "pass": True}]
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    energies = np.array([float(row.split(",")[1]) for row in rows])
    assert energies.shape == oracle.shape
    assert np.max(np.abs(energies - oracle)) <= 1e-10


def test_spectrum_torus_records_nnz_and_matvecs(tmp_path):
    # the bench's spectrum_torus at seed 0: one Lanczos solve and its
    # missed-level guard, whose counts are deterministic
    lattice, hamiltonian, _ = CHARGED_SPECTRA["torus_cutoff2"]
    cfg = {"scenario": "spectrum", "lattice": lattice,
           "hamiltonian": hamiltonian,
           "params": {"k": 4, "charges": [0, 0, 0, 0]}}
    solves = []
    for out in ("first", "second"):
        status, _ = run(cfg, str(tmp_path / out))
        assert status == 0
        solves.append(stages(read_manifest(tmp_path / out), "solve"))
    first, second = solves
    assert [r["path"] for r in first] == ["lanczos"]
    assert first[0]["nnz"] > first[0]["dim"]
    assert 0 < first[0]["guard_matvecs"] < first[0]["matvecs"]
    for key in ("nnz", "matvecs", "guard_matvecs"):
        assert [r[key] for r in first] == [r[key] for r in second]


OVERFLOWING_SPECTRA = {
    # g2 = 1e308 makes the electric energy g2/2 sum E^2 of the states with
    # flux 2 on one link, or flux 1 on all four, overflow to inf
    "torus_cutoff2_lanczos": (TORUS, 2),
    "open_2x2_cutoff1_dense": (BASE["lattice"], 1),
}


@pytest.mark.parametrize("name", OVERFLOWING_SPECTRA)
def test_spectrum_of_a_non_finite_h_exits_3_with_a_manifest(tmp_path, name):
    lattice, cutoff = OVERFLOWING_SPECTRA[name]
    cfg = {"scenario": "spectrum", "lattice": lattice,
           "hamiltonian": {"model": "ks_u1", "truncation": cutoff,
                           "g2": 1e308},
           "params": {"k": 4, "charges": [0, 0, 0, 0]}}
    out = tmp_path / "out"
    # the electric energy overflows in numpy, which says so
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main(["spectrum", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out)])
    assert rc == 3
    m = read_manifest(out)
    assert m["exit_status"] == 3
    assert "non-finite" in m["error"]
    assert not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("lattice, hamiltonian", [
    (TORUS, {"model": "ks_u1", "truncation": 1, "g2": 1e-320}),
    (BASE["lattice"], {"model": "zn", "truncation": 3, "g2": 1e-310})])
def test_overflowing_magnetic_coefficient_is_a_config_error(
        tmp_path, lattice, hamiltonian):
    # -1/(2 g2) overflows for any g2 below about 2.8e-309
    cfg = {"scenario": "spectrum", "lattice": lattice,
           "hamiltonian": hamiltonian,
           "params": {"k": 4, "charges": [0, 0, 0, 0]}}
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", write_cfg(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 2
    m = read_manifest(out)
    assert m["exit_status"] == 2
    assert "g2" in m["error"] and "overflows" in m["error"]
    assert m["timing"]["stages"] == []


# in the one-state sector with horizontal links at +1 and vertical links at
# 0, every hop U_a U_b^dag annihilates the state and only the adjoint hops
# leave the sector
@pytest.mark.parametrize("charges", [[0, 0, 0, 0], [1, 1, -1, -1]])
def test_gauge_variant_charged_spectrum_fails_its_check(tmp_path, charges):
    # the microscopic hopping moves flux between perpendicular links and
    # leaves every Gauss sector: the check carries the amplitude it sends
    # out (eta), and no spectrum is written
    cfg = json.loads(json.dumps(BASE))
    cfg["hamiltonian"].update(terms=["electric", "magnetic", "hopping"],
                              eta=0.1)
    cfg["params"]["charges"] = charges
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 1
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 1 and m["error"] is None
    [check] = m["checks"]
    assert check["name"] == "gauge_invariance" and not check["pass"]
    assert check["value"] > check["threshold"]
    assert check["value"] == pytest.approx(0.1)
    assert m["files"] == []
    assert not (tmp_path / "out" / "spectrum.csv").exists()


def test_charged_spectrum_beyond_int64_exits_3_before_enumerating(tmp_path):
    # the open 5x5 at cutoff 1 has 3^40 > 2^63 product states
    cfg = json.loads(json.dumps(BASE))
    cfg["lattice"]["sizes"] = [5, 5]
    cfg["hamiltonian"]["g2"] = 1.0
    cfg["params"]["charges"] = [0] * 25
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 3
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 3
    assert str(3 ** 40) in m["error"]
    # nothing enumerated or assembled
    assert [r["stage"] for r in m["timing"]["stages"]] == ["build"]


def test_potential_beyond_int64_exits_3_before_enumerating(tmp_path):
    # the staggered chain of 25 has 3^24 * 2^25 > 2^63 product states
    cfg = {
        "scenario": "potential",
        "lattice": {"spatial_dim": 1, "sizes": [25]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "eps": 0.5,
                        "matter": "staggered"},
        "params": {"separations": [0, 1]},
    }
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 3
    m = read_manifest(tmp_path / "out")
    assert m["exit_status"] == 3
    assert str(3 ** 24 * 2 ** 25) in m["error"]
    # nothing enumerated or assembled
    assert [r["stage"] for r in m["timing"]["stages"]] == ["build"]


def test_uncharged_su2_spectrum_checks_gauss_law_like_the_oracle(tmp_path):
    # without charges the full H is checked by max_gauss_violation, whose
    # SU(2) branch reads G^z from labels and x, y through G^+-
    import su2_oracle
    lattice = {"spatial_dim": 1, "sizes": [3]}
    hamiltonian = {"model": "su2", "truncation": 0.5, "eps": 0.4,
                   "mass": 0.2, "matter": "su2fundamental"}
    cfg = {"scenario": "spectrum", "lattice": lattice,
           "hamiltonian": hamiltonian}
    status, _ = run(cfg, str(tmp_path / "out"))
    m = read_manifest(tmp_path / "out")
    assert status == 0, m["error"]
    model = cli.build_model(cli.parse_hamiltonian(hamiltonian),
                            cli.parse_lattice(lattice))
    oracle = su2_oracle.max_gauss_violation(
        su2_oracle.gauss_generators_su2(model.space,
                                        model.spec.truncation),
        model.hamiltonian())
    assert [c["name"] for c in m["checks"]] == ["gauge_invariance"]
    assert m["checks"][0]["value"] == oracle


def readme_block(language):
    """The first fenced block of `language` in README.md."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, capsys):
    exec(readme_block("python"), {})
    assert capsys.readouterr().out == "0.0\n"
    cfg = json.loads(readme_block("json"))
    status, _ = run(cfg, str(tmp_path / "out"))
    assert status == 0, read_manifest(tmp_path / "out")["error"]
