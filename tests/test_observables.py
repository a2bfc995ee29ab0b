import itertools

import numpy as np
import pytest

import su2_oracle
from gauge_oracle import basis_matrix, gauge_transformation_unitary, \
    generators, restrict
from lattice_oracle import parity
from lgtlab.gauge import sector_basis
from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice
from lgtlab.matter import STAGGERED, dirac_sea_state
from lgtlab.observables import charge_profile, convergence_study, \
    flux_profile, flux_tube_breaking_scenario, static_potential, \
    strong_coupling_ground, string_link_path
from lgtlab.solver import SolverError

CHAIN6 = build_lattice(1, [6])


# ---------------------------------------------------------------------------
# flux profiles and string states
# ---------------------------------------------------------------------------

def test_flux_profile_of_string_and_vacuum():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1, g2=2.0),
                        CHAIN6)
    psi = strong_coupling_ground(model, 0, 3)
    profile = flux_profile(model, psi, model.space.labels)
    on_string = string_link_path(CHAIN6, 0, 3)
    for l in range(CHAIN6.link_count):
        assert profile[l] == pytest.approx(1.0 if l in on_string else 0.0)
    # discrete Gauss theorem: total flux equals charge times separation
    assert profile.sum() == pytest.approx(3.0)

    vac = strong_coupling_ground(model, 0, 0)
    assert np.allclose(flux_profile(model, vac, model.space.labels), 0.0)


def test_profiles_of_a_one_state_stack_keep_its_row():
    # a (1, dim) stack is a stack: one row of k values, not k values
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.5,
                           mass=0.2, matter=STAGGERED)
    model = build_model(spec, build_lattice(1, [4]))
    psi = strong_coupling_ground(model, 0, 2)
    labels = model.space.labels
    for profile, k in ((flux_profile, 3), (charge_profile, 4)):
        one = profile(model, psi, labels)
        stack = profile(model, psi[None], labels)
        assert one.shape == (k,)
        assert stack.shape == (1, k)
        assert np.array_equal(stack[0], one)


def test_charge_profile_needs_matter():
    # without matter the mode factors add nothing, so the charge rows would
    # read zero: the profile refuses instead
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1, g2=2.0),
                        CHAIN6)
    psi = strong_coupling_ground(model, 0, 3)
    with pytest.raises(ValueError, match="no matter"):
        charge_profile(model, psi, model.space.labels)


def test_flux_profile_gauge_invariant():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1, g2=2.0),
                        build_lattice(1, [3]))
    h = model.hamiltonian()
    # a gauge-invariant superposition: ground state of the zero sector
    sec = sector_basis(model.space, [0, 0, 0])
    from lgtlab.solver import eigs
    w, v = eigs(restrict(h, sec), 1)
    psi = basis_matrix(sec, model.space.dim) @ v[:, 0]
    rng = np.random.default_rng(2)
    theta = gauge_transformation_unitary(
        model.space, generators(model), rng.uniform(-2, 2, size=3))
    p0 = flux_profile(model, psi, model.space.labels)
    p1 = flux_profile(model, theta @ psi, model.space.labels)
    assert np.allclose(p0, p1, atol=1e-12)


def test_su2_string_flux_profile_reads_casimir():
    model = build_model(HamiltonianSpec(model="su2", truncation=0.5, g2=1.0),
                        CHAIN6)
    psi = strong_coupling_ground(model, 0, 2)
    profile = flux_profile(model, psi, model.space.labels)
    on_string = string_link_path(CHAIN6, 0, 2)
    for l in range(CHAIN6.link_count):
        expect = 0.75 if l in on_string else 0.0     # j(j+1) at j = 1/2
        assert profile[l] == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("spec,c2", [
    (HamiltonianSpec(model="ks_u1", truncation=1, g2=2.0), 1.0),
    (HamiltonianSpec(model="su2", truncation=0.5, g2=2.0), 0.75),
])
def test_strong_coupling_string_energy(spec, c2):
    model = build_model(spec, CHAIN6)
    he = model.hamiltonian(("electric",))
    for r in (0, 2, 3):
        psi = strong_coupling_ground(model, 0, r)
        e = np.vdot(psi, he @ psi).real
        assert e == pytest.approx(spec.g2 / 2 * c2 * r, abs=1e-12)


def test_string_needs_room():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1),
                        build_lattice(1, [3]))
    with pytest.raises(ValueError):
        strong_coupling_ground(model, 0, 5)


# ---------------------------------------------------------------------------
# static potential
# ---------------------------------------------------------------------------

def test_static_potential_electric_only_exact():
    for model_name, trunc, c2 in (("ks_u1", 1, 1.0), ("spin_gauge", 2, 1.0),
                                  ("su2", 0.5, 0.75)):
        spec = HamiltonianSpec(model=model_name, truncation=trunc,
                               g2=1.4).with_terms("electric")
        curve = static_potential(spec, CHAIN6, [0, 1, 2, 3, 4])
        assert curve.sigma == pytest.approx(1.4 / 2 * c2, abs=1e-10)
        assert curve.residual < 1e-10


def test_static_potential_perturbative_regime():
    # strong coupling, heavy matter, weak hopping: the mass gap keeps
    # screening outside the fit window (the string does break at the
    # largest separation, which the default window drops) and the fitted
    # tension stays within 5% of g^2/2
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=10.0, eps=0.3,
                           mass=3.0, matter=STAGGERED).with_terms(
                               "electric", "gauge_matter", "mass")
    curve = static_potential(spec, CHAIN6, [0, 1, 2, 3, 4])
    assert abs(curve.sigma - 5.0) / 5.0 < 0.05


def test_static_potential_fit_window_ignores_list_order():
    # the window is chosen by R, not by list position: R = 0 and the
    # largest of more than two separations drop out wherever they are
    # listed (the window used to be the list less its first point if that
    # was R = 0 and its last: [3, 2, 1, 0] gave sigma 0.389, not 0.232)
    spec = HamiltonianSpec(model="ks_u1", truncation=1, eps=0.5, mass=0.2,
                           matter=STAGGERED)
    chain8 = build_lattice(1, [8])
    ref = static_potential(spec, chain8, [0, 1, 2, 3])
    assert ref.sigma == pytest.approx(0.2324, abs=1e-4)
    for order in itertools.permutations([0, 1, 2, 3]):
        curve = static_potential(spec, chain8, list(order))
        assert (curve.sigma, curve.offset, curve.residual) \
            == (ref.sigma, ref.offset, ref.residual), order


def test_static_potential_charge_conjugation():
    # pure gauge: flipping the static charges is an exact degeneracy
    spec = HamiltonianSpec(model="ks_u1", truncation=2, g2=1.0)
    model = build_model(spec, CHAIN6)
    h = model.hamiltonian()
    from lgtlab.solver import eigs
    for r in (1, 3):
        charges = [0] * 6
        charges[0], charges[r] = 1, -1
        flipped = [-q for q in charges]
        e_plus = eigs(restrict(h, sector_basis(model.space, charges)), 1)[0][0]
        e_minus = eigs(restrict(h, sector_basis(model.space, flipped)),
                       1)[0][0]
        assert e_plus == pytest.approx(e_minus, abs=1e-10)


def test_static_potential_conjugation_with_matter_needs_reflection():
    # staggered matter ties charge sign to sublattice parity, so the
    # degenerate partner of a flipped sector is the spatially reflected one
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=10.0, eps=0.3,
                           mass=3.0, matter=STAGGERED).with_terms(
                               "electric", "gauge_matter", "mass")
    model = build_model(spec, CHAIN6)
    h = model.hamiltonian()
    from lgtlab.solver import eigs
    for r in (1, 3):
        charges = [0] * 6
        charges[0], charges[r] = 1, -1
        refl_flip = [0] * 6
        for n, q in enumerate(charges):
            refl_flip[5 - n] = -q
        e = eigs(restrict(h, sector_basis(model.space, charges)), 1)[0][0]
        e_c = eigs(restrict(h, sector_basis(model.space, refl_flip)), 1)[0][0]
        assert e == pytest.approx(e_c, abs=1e-10)


def test_static_potential_empty_sector_raises():
    # a frozen link space (cutoff 0) cannot carry any flux at all
    spec = HamiltonianSpec(model="ks_u1", truncation=0,
                           g2=1.0).with_terms("electric")
    with pytest.raises(SolverError):
        static_potential(spec, build_lattice(1, [3]), [0, 1])


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_flux_tube_static_without_matter_coupling():
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.0,
                           mass=0.4, matter=STAGGERED)
    report, _ = flux_tube_breaking_scenario(
        spec, CHAIN6, separation=3, t_final=1.0, steps=5)
    assert np.allclose(report.flux, report.flux[0], atol=1e-9)
    assert report.max_norm_drift < 1e-9
    assert report.max_charge_drift < 1e-9
    assert report.gauss_drift < 1e-9


def test_flux_tube_breaking_two_regimes():
    # heavy matter: the string barely moves; light matter: pair creation
    # depletes the interior flux
    heavy = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.2,
                            mass=4.0, matter=STAGGERED)
    light = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=1.0,
                            mass=0.05, matter=STAGGERED)
    rep_h, _ = flux_tube_breaking_scenario(
        heavy, CHAIN6, separation=3, t_final=3.0, steps=12)
    rep_l, _ = flux_tube_breaking_scenario(
        light, CHAIN6, separation=3, t_final=3.0, steps=12)
    for rep in (rep_h, rep_l):
        assert rep.max_norm_drift < 1e-8
        assert rep.max_energy_drift < 1e-8
        assert rep.max_charge_drift < 1e-8
        assert rep.gauss_drift < 1e-8
    string_links = string_link_path(CHAIN6, 0, 3)
    mid = string_links[1]
    survival_h = rep_h.flux[-1, mid] / rep_h.flux[0, mid]
    survival_l = rep_l.flux[-1, mid] / rep_l.flux[0, mid]
    assert survival_h > 0.9
    assert survival_l < survival_h


def test_flux_tube_needs_matter_and_chain():
    with pytest.raises(ValueError):
        flux_tube_breaking_scenario(
            HamiltonianSpec(model="ks_u1", truncation=1), CHAIN6, 2, 1.0, 4)
    with pytest.raises(ValueError):
        flux_tube_breaking_scenario(
            HamiltonianSpec(model="ks_u1", truncation=1, matter=STAGGERED),
            build_lattice(2, [2, 2]), 1, 1.0, 4)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g2", [0.5, 1.0, 2.0])
def test_single_plaquette_matches_mathieu_oracle(g2):
    # in the loop basis the single plaquette is the quantum pendulum
    # H = 2 g^2 f^2 - (1/g^2) cos(theta); its ground energy is the Mathieu
    # characteristic value (g^2/2) a_0(1/g^4), an oracle entirely
    # independent of the operator assembly and sector enumeration
    from scipy.special import mathieu_a
    from lgtlab.observables import single_plaquette_ground
    e_trunc, _ = single_plaquette_ground(
        HamiltonianSpec(model="ks_u1", truncation=8, g2=g2))
    e_mathieu = 0.5 * g2 * mathieu_a(0, 1.0 / g2 ** 2)
    assert e_trunc == pytest.approx(e_mathieu, abs=1e-12)


@pytest.mark.parametrize("g2", [0.5, 1.0, 2.0])
def test_spin_gauge_ell1_plaquette_closed_form(g2):
    # ell=1 loop basis {-1,0,1}: electric diag(2g2, 0, 2g2), magnetic
    # couples f=0 to f=+-1 with unit normalized-ladder factors; the
    # symmetric block gives E0 = g2 - sqrt(g2^2 + 1/(2 g2^2))
    from lgtlab.observables import single_plaquette_ground
    e, dim = single_plaquette_ground(
        HamiltonianSpec(model="spin_gauge", truncation=1, g2=g2))
    assert dim == 3
    closed = g2 - np.sqrt(g2 ** 2 + 1.0 / (2 * g2 ** 2))
    assert e == pytest.approx(closed, abs=1e-12)


def test_plaquette_convergence_monotone():
    rows, refs = convergence_study("spin_gauge", [1.0], [1, 2, 3],
                                   cutoff_ref=8)
    gaps = [r[3] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    # strong coupling limit: every model's ground energy approaches zero
    rows_strong, refs_strong = convergence_study("spin_gauge", [50.0], [1],
                                                 cutoff_ref=2)
    assert abs(refs_strong[50.0]) < 1e-3
    assert abs(rows_strong[0][2]) < 1e-3


def test_zn_convergence_monotone():
    # the Z_N magnetic term reads g2, so the trend holds at every coupling
    rows, refs = convergence_study("zn", [0.5, 1.0, 2.0], [3, 5, 7],
                                   cutoff_ref=6)
    assert sorted(refs) == [0.5, 1.0, 2.0]
    for g2 in refs:
        gaps = [r[3] for r in rows if r[0] == g2]
        assert gaps[0] > gaps[1] > gaps[2]


def test_plaquette_convergence_ignores_list_order_and_repeats():
    # each distinct g2 and truncation runs once, in increasing order; an
    # unsorted list used to come back unsorted and a repeat twice
    rows, refs = convergence_study("spin_gauge", [0.5, 1.0], [1, 2, 3],
                                   cutoff_ref=4)
    assert [r[:2] for r in rows] == [(g2, ell) for g2 in (0.5, 1.0)
                                     for ell in (1, 2, 3)]
    for g2_list, ells in (([1.0, 0.5], [3, 2, 1]),
                          ([0.5, 1.0, 0.5], [2, 3, 1, 2])):
        again, again_refs = convergence_study("spin_gauge", g2_list, ells,
                                              cutoff_ref=4)
        assert again == rows
        assert list(again_refs.items()) == list(refs.items())


def test_flux_tube_embeddings_do_not_scale_with_steps(monkeypatch):
    # the string evolves in its Gauss sector: the Hamiltonian's pieces are
    # applied to the sector's states as label shifts, a number fixed by the
    # Hamiltonian, not by the time steps, and nothing is kron-embedded
    from lgtlab.tensor import ProductSpace
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.5,
                           mass=0.2, matter=STAGGERED)
    calls = {"shift": 0, "embed": 0}

    def counting(name):
        method = getattr(ProductSpace, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return counted
    for name in calls:
        monkeypatch.setattr(ProductSpace, name, counting(name))

    per_run = []
    for steps in (4, 40):
        calls.update(shift=0, embed=0)
        flux_tube_breaking_scenario(spec, build_lattice(1, [4]), 2, 1.0,
                                    steps)
        per_run.append(calls["shift"])
        assert calls["embed"] == 0
    assert per_run[0] == per_run[1]
    assert per_run[0] > 0


@pytest.mark.parametrize("j_max", [0.5, 1.0])
def test_su2_string_matches_the_recursive_oracle(j_max):
    model = build_model(HamiltonianSpec(model="su2", truncation=j_max),
                        build_lattice(1, [5]))
    for R in range(5):
        expected = su2_oracle.su2_string_state(
            model, string_link_path(model.lattice, 0, R))
        psi = strong_coupling_ground(model, 0, R)
        assert np.max(np.abs(psi - expected)) <= 1e-14


def test_su2_string_starts_from_the_dirac_sea():
    # like every Abelian string, the SU(2) one puts two-color matter in the
    # Dirac sea: each odd vertex is full, so E(0) is the sea's mass energy
    # -2m per odd vertex, and each unit of separation adds 3 g^2 / 8
    spec = HamiltonianSpec(model="su2", truncation=0.5, eps=0.4, mass=0.5,
                           matter="su2fundamental")
    lat = build_lattice(1, [3])
    model = build_model(spec, lat)
    space = model.space
    psi = strong_coupling_ground(model, 0, 0)
    (index,) = np.flatnonzero(psi)
    assert psi[index] == 1.0
    assert list(space.decode([index])[space.n_links:, 0]) \
        == dirac_sea_state(space.layout)
    odd = sum(parity(v) == -1 for v in lat.vertices)
    curve = static_potential(spec, lat, [0, 1, 2])
    assert curve.energies[0] == pytest.approx(-2 * spec.mass * odd)
    assert np.diff(curve.energies) == pytest.approx([0.375, 0.375])
    assert curve.sigma == pytest.approx(0.375)


def test_su2_string_embeds_no_full_space_operator(monkeypatch):
    # (U_1 ... U_R)_{mm'} |vacuum> is contracted on vectors: 4 R single-link
    # applications, each as label shifts of a vector's support, and no
    # full-space operator is embedded
    from lgtlab.tensor import ProductSpace
    model = build_model(HamiltonianSpec(model="su2", truncation=0.5),
                        build_lattice(1, [5]))
    calls = {"shift": 0}
    shift = ProductSpace.shift

    def counted(self, *args, **kwargs):
        calls["shift"] += 1
        return shift(self, *args, **kwargs)

    def refused(self, *args, **kwargs):
        raise AssertionError("full-space operator embedded")
    monkeypatch.setattr(ProductSpace, "shift", counted)
    monkeypatch.setattr(ProductSpace, "embed", refused)
    psi = strong_coupling_ground(model, 0, 4)
    assert calls["shift"] == 16
    assert np.linalg.norm(psi) == pytest.approx(1.0)


@pytest.mark.parametrize("lat,origin,separation", [
    (build_lattice(1, [4]), 0, 5), (build_lattice(1, [4]), 2, 2),
    (build_lattice(1, [4]), 3, 1), (build_lattice(2, [2, 2]), 2, 1)],
    ids=["chain4-from0-R5", "chain4-from2-R2", "chain4-from3-R1",
         "plaq-from2-R1"])
def test_string_path_off_an_open_edge_names_separation_and_origin(
        lat, origin, separation):
    # used to raise "no link at (3,) in direction 1", naming neither
    assert string_link_path(lat, origin, 0) == []
    with pytest.raises(ValueError, match=f"separation {separation} from "
                                         f"origin {origin} runs off"):
        string_link_path(lat, origin, separation)


@pytest.mark.parametrize("separation", [6, 7, 12])
def test_string_path_does_not_wind_around_a_ring(separation):
    ring = build_lattice(1, [6], "periodic")
    assert string_link_path(ring, 2, 5) == [2, 3, 4, 5, 0]
    with pytest.raises(ValueError, match="winds around"):
        string_link_path(ring, 2, separation)
