"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are fixed here, not configurable.
"""

import filecmp
import json
import os
import time
import warnings

import numpy as np
import pytest

from lgtlab import atommap, linkalg, su2rep
from lgtlab.cli import run as cli_run
from lgtlab.gauge import sector_basis
from lgtlab.hamiltonian import OFF_DIAGONAL_TERMS, HamiltonianSpec, \
    build_model, max_gauss_violation, penalty_second_order
from lgtlab.lattice import build_lattice
from lgtlab.observables import convergence_study, \
    flux_tube_breaking_scenario, static_potential
from lgtlab.solver import eigs

CHAIN4 = build_lattice(1, [4])
CHAIN6 = build_lattice(1, [6])
PLAQ = build_lattice(2, [2, 2])


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_gauge_invariance_suite():
    """max ||[H, G]|| < 1e-10 for every family, lattice, matter combo."""
    cases = [
        ("ks_u1", 2, None, CHAIN4), ("ks_u1", 2, "staggered", CHAIN4),
        ("ks_u1", 2, None, PLAQ), ("ks_u1", 2, "staggered", PLAQ),
        ("spin_gauge", 3, None, CHAIN4),
        ("spin_gauge", 3, "staggered", CHAIN4),
        ("spin_gauge", 3, None, PLAQ), ("spin_gauge", 2, "naive2d", PLAQ),
        ("zn", 3, None, CHAIN4), ("zn", 3, "staggered", CHAIN4),
        ("zn", 3, None, PLAQ), ("zn", 3, "staggered", PLAQ),
        ("zn", 5, None, CHAIN4), ("zn", 5, None, PLAQ),
        ("su2", 0.5, None, CHAIN4), ("su2", 0.5, "su2fundamental", CHAIN4),
        ("su2", 0.5, None, PLAQ), ("su2", 0.5, "su2fundamental", PLAQ),
    ]
    worst = 0.0
    for model_name, trunc, matter, lat in cases:
        spec = HamiltonianSpec(model=model_name, truncation=trunc, g2=1.3,
                               eps=0.6 if matter else 0.0,
                               mass=0.4 if matter else 0.0, matter=matter)
        model = build_model(spec, lat)
        v = max_gauss_violation(model, model.hamiltonian())
        worst = max(worst, v)
    report(1, worst < 1e-10,
           f"gauge invariance over {len(cases)} model/lattice/matter "
           f"combos, worst commutator {worst:.2e} < 1e-10")


def test_criterion_2_string_tension():
    """Electric-only sigma = (g^2/2) C2 to 1e-10, in under 5 seconds."""
    t0 = time.perf_counter()
    g2 = 1.6
    u1 = static_potential(
        HamiltonianSpec(model="ks_u1", truncation=2,
                        g2=g2).with_terms("electric"),
        CHAIN6, [0, 1, 2, 3, 4])
    su2 = static_potential(
        HamiltonianSpec(model="su2", truncation=0.5,
                        g2=g2).with_terms("electric"),
        CHAIN6, [0, 1, 2, 3, 4])
    elapsed = time.perf_counter() - t0
    err_u1 = abs(u1.sigma - g2 / 2.0)
    err_su2 = abs(su2.sigma - g2 / 2.0 * 0.75)
    ok = err_u1 < 1e-10 and u1.residual < 1e-10 \
        and err_su2 < 1e-10 and su2.residual < 1e-10 and elapsed < 5.0
    report(2, ok,
           f"sigma errors U(1) {err_u1:.2e}, SU(2) {err_su2:.2e}; fit "
           f"residuals {u1.residual:.2e}/{su2.residual:.2e}; {elapsed:.2f}s")


def test_criterion_3_truncation_convergence():
    """|E0(spin-gauge ell) - E0(KS cutoff 8)| strictly decreasing over
    ell in {1,2,3} at g2 in {0.5, 1, 2}; the x2 shrink at g2=1 is a soft
    warning threshold."""
    rows, _ = convergence_study("spin_gauge", [0.5, 1.0, 2.0], [1, 2, 3],
                               cutoff_ref=8)
    monotone = True
    for g2 in (0.5, 1.0, 2.0):
        gaps = [r[3] for r in rows if r[0] == g2]
        monotone &= gaps[0] > gaps[1] > gaps[2]
    gaps1 = [r[3] for r in rows if r[0] == 1.0]
    factor = gaps1[0] / gaps1[2]
    if factor < 2.0:
        warnings.warn(
            f"soft threshold: ell=3 deviation shrinks x{factor:.2f} < x2 "
            f"at g2=1 (monotonicity itself holds)")
    report(3, monotone,
           f"strict monotone convergence at all three couplings; "
           f"ell=1 -> ell=3 shrink factor {factor:.2f} at g2=1 "
           f"(x2 is a soft threshold)")


def test_criterion_4_zn_to_u1_trend():
    """Calibrated Z_N ground energy approaches truncated U(1) monotonically
    over N in {3,5,7,9}."""
    rows, _ = convergence_study("zn", [1.0], [3, 5, 7, 9], cutoff_ref=8)
    gaps = [r[3] for r in rows]
    monotone = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    report(4, monotone,
           "gaps to the U(1) reference " +
           " > ".join(f"{g:.3e}" for g in gaps))


def test_criterion_5_truncated_su2_machinery():
    """Trace identity with one measured scalar f; M = U (even mapping) and
    M^dag = U (odd mapping) to 1e-12."""
    f, residual = su2rep.trace_defect(0.5, linkalg.su2_ops(0.5).U)
    _, dev_even = atommap.build_m_and_verify("even")
    _, dev_odd = atommap.build_m_and_verify("odd")
    ok = residual < 1e-12 and dev_even < 1e-12 and dev_odd < 1e-12
    report(5, ok,
           f"tr(U^dag U) = 2 - f P with measured f = {f:.6f}, residual "
           f"{residual:.2e}; ||M-U|| = {dev_even:.2e}, "
           f"||M^dag-U|| = {dev_odd:.2e}")


def _effective_run(lam, eta=0.1, ell=1, g2=1.0, k=3):
    spec = HamiltonianSpec(model="spin_gauge", truncation=ell, g2=g2,
                           lam=lam, eta=eta)
    model = build_model(spec, PLAQ)
    sec = sector_basis(model.space, [0, 0, 0, 0])
    second = penalty_second_order(model, sec,
                                  OFF_DIAGONAL_TERMS["hopping"](model))
    pattern = (-(2.0 * g2) * model.hamiltonian(("magnetic",),
                                               sector=sec)).toarray()
    coeff = np.vdot(pattern, second) / np.vdot(pattern, pattern)
    h_eff = second + model.hamiltonian(("electric",), sector=sec).toarray()
    kk = min(k, sec.dim)
    w_eff, _ = eigs(h_eff, kk)
    w_ex, _ = eigs(sum(model.hamiltonian((t,)) for t in
                       ("electric", "penalty", "hopping")), kk)
    mismatch = float(np.max(np.abs(w_eff - w_ex[:kk])))
    return coeff, mismatch


def test_criterion_6_effective_hamiltonian_scaling():
    """Low-spectrum mismatch shrinks >= x8 when lambda is quadrupled;
    the extracted plaquette coefficient halves when lambda doubles,
    to 0.1% relative."""
    lam = 40.0
    coeff1, mis1 = _effective_run(lam)
    coeff2, _ = _effective_run(2 * lam)
    _, mis4 = _effective_run(4 * lam)
    ratio = coeff1 / coeff2
    shrink = mis1 / mis4
    ok = abs(ratio - 2.0) <= 2e-3 and shrink >= 8.0
    report(6, ok,
           f"coefficient ratio {ratio:.6f} (target 2 within 0.1%), "
           f"mismatch shrink x{shrink:.1f} (>= x8) when lambda x4")


def test_criterion_7_dynamics_conservation():
    """Flux-tube evolution on a 1x6 chain conserves norm, energy, charge
    and every <G_n> to 1e-8; the eps = 0 trajectory is static."""
    live = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.8,
                           mass=0.1, matter="staggered")
    rep, _ = flux_tube_breaking_scenario(live, CHAIN6, separation=3,
                                         t_final=2.0, steps=10)
    drifts = (rep.max_norm_drift, rep.max_energy_drift,
              rep.max_charge_drift, rep.gauss_drift)
    frozen = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.0,
                             mass=0.1, matter="staggered")
    rep0, _ = flux_tube_breaking_scenario(frozen, CHAIN6, separation=3,
                                          t_final=2.0, steps=10)
    static = float(np.max(np.abs(rep0.flux - rep0.flux[0])))
    ok = max(drifts) < 1e-8 and static < 1e-8
    report(7, ok,
           f"max drift (norm/energy/charge/gauss) = {max(drifts):.2e} "
           f"< 1e-8; eps=0 profile drift {static:.2e}")


def test_criterion_8_atomic_dictionary():
    """Structural m_F zeros, F=1 projector traces (1, 5), Schwinger
    interaction identity below 1e-12."""
    couplings = {f: 1.7 - 0.3 * f for f in atommap.total_f_channels()}
    worst_offdiag = 0.0
    for m_b in range(-2, 3):
        for m_f in (-1.5, -0.5, 0.5, 1.5):
            for m_b_p in range(-2, 3):
                for m_f_p in (-1.5, -0.5, 0.5, 1.5):
                    if abs((m_b_p + m_f_p) - (m_b + m_f)) < 1e-12:
                        continue
                    v = atommap.scattering_matrix_element(
                        m_b_p, m_f_p, m_b, m_f, couplings)
                    worst_offdiag = max(worst_offdiag, abs(v))
    p = atommap.f1_projectors()
    tr0 = np.trace(p["P0"]).real
    tr2 = np.trace(p["P2"]).real
    sch = atommap.schwinger_interaction_check(3)
    ok = worst_offdiag == 0.0 and abs(tr0 - 1) < 1e-10 \
        and abs(tr2 - 5) < 1e-10 and sch["deviation"] < 1e-12
    report(8, ok,
           f"m_F-violating amplitudes identically {worst_offdiag}; "
           f"projector traces ({tr0:.1f}, {tr2:.1f}); Schwinger identity "
           f"deviation {sch['deviation']:.2e}")


def test_criterion_9_reproducibility(tmp_path):
    """Two consecutive identical CLI runs produce byte-identical result
    files (the manifest additionally logs wall time)."""
    cfg = {
        "scenario": "dynamics",
        "lattice": {"spatial_dim": 1, "sizes": [6]},
        "hamiltonian": {"model": "ks_u1", "truncation": 1, "g2": 1.0,
                        "eps": 0.8, "mass": 0.1, "matter": "staggered"},
        "params": {"separation": 3, "t_final": 1.0, "steps": 5},
    }
    rc1, _ = cli_run(cfg, str(tmp_path / "a"))
    rc2, _ = cli_run(cfg, str(tmp_path / "b"))
    assert rc1 == 0 and rc2 == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    identical = True
    for name in names:
        if name == "manifest.json":
            with open(tmp_path / "a" / name) as fh:
                ma = json.load(fh)
            with open(tmp_path / "b" / name) as fh:
                mb = json.load(fh)
            ma.pop("timing"), mb.pop("timing")
            identical &= ma == mb
        else:
            identical &= filecmp.cmp(tmp_path / "a" / name,
                                     tmp_path / "b" / name, shallow=False)
    report(9, identical,
           f"{len(names) - 1} result files byte-identical across reruns; "
           f"manifests agree up to the wall-time record")
