import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import lgtlab
from lgtlab import cli
from lgtlab.cli import ConfigError, load_config, main, run
from lgtlab.gauge import sector_basis
from lgtlab.solver import restrict

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


def test_verify_all_passes(tmp_path):
    rc = main(["verify", "--all", "--out", str(tmp_path / "out")])
    assert rc == 0
    m = read_manifest(tmp_path / "out")
    assert all(c["pass"] for c in m["checks"])
    assert m["results"]["trace_identity_defect_f"] == pytest.approx(1.5)


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


@pytest.mark.parametrize("via", ["flag", "key"])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")],
                         ids=str)
def test_tolerance_not_finite_positive_is_config_error(tmp_path, tol, via):
    # at the parent 0, -1 and nan failed 6 of verify --all's 18 checks
    # (exit 1) and inf passed every tolerance-gated check
    if via == "flag":
        argv = ["verify", "--all", "--tolerance", str(tol)]
    else:
        argv = ["spectrum", "--config",
                write_cfg(tmp_path, dict(BASE, tolerance=tol))]
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
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
], ids=["flag-0", "flag-minus-2", "env-abc", "env-0", "env-minus-2"])
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


def test_plaquette_convergence_zn_family(tmp_path):
    cfg = {"scenario": "plaquette_convergence",
           "params": {"family": "zn", "n_list": [3, 5, 7], "cutoff_ref": 6}}
    path = write_cfg(tmp_path, cfg)
    rc = main(["plaquette_convergence", "--config", path,
               "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "N,E_calibrated,gap_to_ref"
    assert len(lines) == 4


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
    # only the penalty depends on lambda: penalty, hopping, electric and
    # magnetic are assembled once for all three lambdas
    from lgtlab.hamiltonian import Model
    calls = []
    hamiltonian = Model.hamiltonian

    def counted(self, terms=None, sector=None):
        calls.append(terms)
        return hamiltonian(self, terms, sector)
    monkeypatch.setattr(Model, "hamiltonian", counted)
    path = write_cfg(tmp_path, {"scenario": "effective_check"})
    rc = main(["effective_check", "--config", path,
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert sorted(calls) == [("electric",), ("hopping",), ("magnetic",),
                             ("penalty",)]
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
    assert m["timing"]["dim_full"] == 3 ** (n - 1) * 2 ** n
    assert m["timing"]["solve_dims"] == dims
    assert 0.0 <= m["timing"]["worst_relative_residual"] <= 1e-9
    assert m["timing"]["evolve_dims"] == []
    assert m["timing"]["peak_rss_mb"] > 0
    return dims, m["timing"]["solve_paths"]


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
    assert m["timing"]["assembly_dims"] == [195]
    assert m["timing"]["solve_dims"] == [61, 33, 33, 24, 25, 19]
    assert [int(row.split(",")[2]) for row in rows] == m["timing"][
        "solve_dims"]


def test_potential_repeated_separations_match_single_ones(tmp_path,
                                                          monkeypatch):
    from lgtlab import observables
    enumerated = []
    enumerate_sector = observables.sector_basis
    monkeypatch.setattr(observables, "sector_basis", lambda space, q: (
        enumerated.append(tuple(q)), enumerate_sector(space, q))[1])
    repeated, m = potential_rows(tmp_path, [1, 1, 2], "repeated")
    assert len(enumerated) == 2
    assert m["timing"]["assembly_dims"] == [66]
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
    assert m["timing"]["assembly_dims"] == [195]
    assert m0["timing"]["assembly_dims"] == [61, 33, 33, 24, 25, 19]
    assert m0["timing"]["solve_paths"] == ["lanczos"] * 6
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
        assert m["timing"]["dim_full"] == 3 ** (n - 1) * 2 ** n


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
    timing = read_manifest(tmp_path / "out")["timing"]
    assert timing["dim_full"] == 3 ** 5 * 2 ** 6
    assert timing["evolve_dims"] == [7]       # the string's Gauss sector
    assert timing["evolve_paths"] == ["dense"]
    assert timing["solve_dims"] == []


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
    assert m["timing"]["solve_dims"] == [sector_dim]
    assert m["timing"]["solve_paths"] == [
        "lanczos" if sector_dim > cli.solver.DENSE_LIMIT else "dense"]
    assert m["results"]["sector_dim"] == sector_dim
    assert m["checks"] == [{"name": "gauge_invariance", "value": 0.0,
                            "threshold": 1e-10, "pass": True}]
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    energies = np.array([float(row.split(",")[1]) for row in rows])
    assert energies.shape == oracle.shape
    assert np.max(np.abs(energies - oracle)) <= 1e-10


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
    assert m["timing"]["dim_full"] is None     # no Hamiltonian assembled


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
    assert m["timing"]["dim_full"] is None     # no Hamiltonian assembled


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
        su2_oracle.gauss_generators_su2(model.space, model.link_space),
        model.hamiltonian())
    assert [c["name"] for c in m["checks"]] == ["gauge_invariance"]
    assert m["checks"][0]["value"] == oracle
