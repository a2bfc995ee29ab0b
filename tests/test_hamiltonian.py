import numpy as np
import pytest

from gauge_oracle import basis_matrix, generators, restrict
from lattice_oracle import FORWARD
from lgtlab import su2rep
from lgtlab.gauge import sector_basis
from lgtlab.hamiltonian import HamiltonianSpec, build_model, \
    max_gauss_violation
from lgtlab.lattice import build_lattice
from lgtlab.matter import NAIVE2D, STAGGERED, SU2_FUNDAMENTAL, \
    dirac_sea_state, hop

CHAIN4 = build_lattice(1, [4])
PLAQ = build_lattice(2, [2, 2])


def vacuum_state(model, link_value_index=None):
    space = model.space
    if link_value_index is None:
        link_value_index = (space.link_dim - 1) // 2
    vals = [link_value_index] * space.n_links
    return space.basis_vector(space.encode(vals))


# ---------------------------------------------------------------------------
# electric
# ---------------------------------------------------------------------------

def test_electric_vacuum_and_single_flux():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=2, g2=2.0),
                        build_lattice(1, [2]))
    he = model.hamiltonian(("electric",))
    vac = vacuum_state(model)
    assert np.vdot(vac, he @ vac) == pytest.approx(0.0)
    two = model.space.basis_vector(model.space.encode([4]))
    assert np.vdot(two, he @ two) == pytest.approx(4.0)   # (g2/2) m^2 = 4


def test_electric_su2_fundamental_string_value():
    model = build_model(HamiltonianSpec(model="su2", truncation=0.5, g2=2.0),
                        build_lattice(1, [2]))
    he = model.hamiltonian(("electric",))
    labels = su2rep.link_labels(model.spec.truncation)
    v = model.space.basis_vector(
        model.space.encode([labels.index((0.5, 0.5, -0.5))]))
    assert np.vdot(v, he @ v) == pytest.approx(0.75)      # (g2/2) j(j+1)


def test_electric_zn_vacuum_offset():
    model = build_model(HamiltonianSpec(model="zn", truncation=3,
                                        lam_zn=1.3), CHAIN4)
    he = model.hamiltonian(("electric",))
    vac = vacuum_state(model)
    assert np.vdot(vac, he @ vac) == pytest.approx(-1.3 * 3)


# ---------------------------------------------------------------------------
# magnetic
# ---------------------------------------------------------------------------

def loop_state_values(model, flux):
    """Per-link basis indices of the plaquette loop state with given flux."""
    plq = model.lattice.plaquettes[0]
    mid = (model.space.link_dim - 1) // 2
    vals = [mid] * model.space.n_links
    for l, fwd in zip(plq, FORWARD):
        vals[l] = mid + flux if fwd else mid - flux
    return vals


def test_magnetic_element_between_loop_states():
    g2 = 1.7
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1, g2=g2),
                        PLAQ)
    hb = model.hamiltonian(("magnetic",))
    space = model.space
    zero = space.basis_vector(
        space.encode(loop_state_values(model, 0)))
    loop = space.basis_vector(
        space.encode(loop_state_values(model, 1)))
    assert np.vdot(loop, hb @ zero) == pytest.approx(-1 / (2 * g2))


def test_zn_magnetic_reads_g2():
    # -1/(2 g2) in every family: at g2 = 2 the Z_N term is exactly half
    hb = [build_model(HamiltonianSpec(model="zn", truncation=3, g2=g2),
                      PLAQ).hamiltonian(("magnetic",)) for g2 in (1.0, 2.0)]
    assert hb[0].nnz > 0
    assert np.array_equal(hb[1].toarray(), 0.5 * hb[0].toarray())


@pytest.mark.parametrize("spec", [
    HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9),
    HamiltonianSpec(model="spin_gauge", truncation=2, g2=0.9),
    HamiltonianSpec(model="zn", truncation=3),
    HamiltonianSpec(model="su2", truncation=0.5, g2=0.9),
])
def test_magnetic_commutes_with_gauss(spec):
    model = build_model(spec, PLAQ)
    hb = model.hamiltonian(("magnetic",))
    assert max_gauss_violation(model, hb) < 1e-10


def test_magnetic_rejected_on_chain():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1), CHAIN4)
    with pytest.raises(ValueError):
        model.hamiltonian(terms=("electric", "magnetic"))
    # default terms silently drop the (absent) plaquette sum
    assert model.effective_terms() == ("electric", "gauge_matter", "mass")


def test_spin_gauge_magnetic_approaches_ks():
    # the vacuum -> unit-loop element is exact for every ell (the ladder
    # normalization is built for it); the ladder prefactors show up from
    # flux 1 -> 2 on, and approach the unitary-link value as ell grows
    g2 = 1.0
    ref = build_model(HamiltonianSpec(model="ks_u1", truncation=2, g2=g2),
                      PLAQ)
    hb_ref = ref.hamiltonian(("magnetic",))
    one_ref = ref.space.basis_vector(
        ref.space.encode(loop_state_values(ref, 1)))
    two_ref = ref.space.basis_vector(
        ref.space.encode(loop_state_values(ref, 2)))
    target = np.vdot(two_ref, hb_ref @ one_ref)
    assert target == pytest.approx(-1 / (2 * g2))

    prev_gap = None
    for ell in (2, 3, 5, 8):
        model = build_model(
            HamiltonianSpec(model="spin_gauge", truncation=ell, g2=g2), PLAQ)
        hb = model.hamiltonian(("magnetic",))
        one = model.space.basis_vector(
            model.space.encode(loop_state_values(model, 1)))
        two = model.space.basis_vector(
            model.space.encode(loop_state_values(model, 2)))
        val = np.vdot(two, hb @ one)
        expect = target * (1 - 2 / (ell * (ell + 1))) ** 2
        assert val == pytest.approx(expect, abs=1e-12)
        gap = abs(val - target)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 5e-2


# ---------------------------------------------------------------------------
# gauge-matter
# ---------------------------------------------------------------------------

def test_gauge_matter_zero_when_disabled():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, eps=0.0,
                        matter=STAGGERED), CHAIN4)
    assert model.hamiltonian(("gauge_matter",)).nnz == 0


def test_gauge_matter_pair_creation_respects_gauss():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, eps=0.8,
                        matter=STAGGERED), build_lattice(1, [2]))
    hgm = model.hamiltonian(("gauge_matter",))
    space = model.space
    sea = space.basis_vector(
        space.encode([1] + dirac_sea_state(space.layout)))
    out = hgm @ sea
    assert np.linalg.norm(out) > 0
    # the image stays inside the zero-charge sector
    for g in generators(model):
        assert np.linalg.norm((g @ out)) < 1e-12
    # flux on the link was raised by the hop
    flux = space.embed([(1.0, [(0, np.diag(space.linkops.flux))])])
    amp = np.vdot(out, flux @ out) / np.vdot(out, out)
    assert amp == pytest.approx(1.0)


@pytest.mark.parametrize("spec,lat", [
    (HamiltonianSpec(model="ks_u1", truncation=1, eps=0.5, mass=0.3,
                     matter=STAGGERED), CHAIN4),
    (HamiltonianSpec(model="spin_gauge", truncation=1, eps=0.5, mass=0.3,
                     matter=STAGGERED), CHAIN4),
    (HamiltonianSpec(model="spin_gauge", truncation=1, eps=0.5, mass=0.3,
                     matter=NAIVE2D), PLAQ),
    (HamiltonianSpec(model="zn", truncation=3, eps=0.5, mass=0.3,
                     matter=STAGGERED), CHAIN4),
    (HamiltonianSpec(model="su2", truncation=0.5, eps=0.5, mass=0.3,
                     matter=SU2_FUNDAMENTAL), CHAIN4),
])
def test_gauge_matter_commutes_with_gauss(spec, lat):
    model = build_model(spec, lat)
    hgm = model.hamiltonian(("gauge_matter",))
    assert max_gauss_violation(model, hgm) < 1e-10


def test_su2_needs_two_colors():
    with pytest.raises(ValueError):
        HamiltonianSpec(model="su2", truncation=0.5, eps=0.5,
                        matter=STAGGERED).validate()


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def test_mass_dirac_sea_energy():
    m = 0.7
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, mass=m,
                        matter=STAGGERED), CHAIN4)
    hm = model.hamiltonian(("mass",))
    space = model.space
    sea = space.basis_vector(
        space.encode([1, 1, 1] + dirac_sea_state(space.layout)))
    assert np.vdot(sea, hm @ sea) == pytest.approx(-2 * m)
    empty = space.basis_vector(space.encode([1, 1, 1] + [0, 0, 0, 0]))
    assert np.vdot(empty, hm @ empty) == pytest.approx(0.0)
    # particle + antiparticle on top of the sea costs 2m
    pair = space.basis_vector(
        space.encode([2, 1, 1] + [1, 0, 0, 1]))
    d_e = np.vdot(pair, hm @ pair) - np.vdot(sea, hm @ sea)
    assert d_e == pytest.approx(2 * m)


def test_mass_ground_state_is_dirac_sea():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, mass=1.0,
                        matter=STAGGERED), CHAIN4)
    hm = model.hamiltonian(("mass",)).toarray()
    diag = np.diag(hm).real
    sea_idx = model.space.encode(
        [1, 1, 1] + dirac_sea_state(model.space.layout))
    assert diag[sea_idx] == pytest.approx(diag.min())


# ---------------------------------------------------------------------------
# penalty and microscopic hopping
# ---------------------------------------------------------------------------

def test_penalty_kernel_and_single_link_violation():
    lam = 3.0
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, lam=lam),
        build_lattice(1, [2]))
    hp = model.hamiltonian(("penalty",))
    space = model.space
    sec = sector_basis(space, [0, 0])
    B = basis_matrix(sec, space.dim)
    assert np.max(np.abs(hp @ B)) < 1e-14            # kernel = zero sector
    one = space.basis_vector(space.encode([2]))
    assert np.vdot(one, hp @ one) == pytest.approx(2 * lam)
    for g in generators(model):
        assert np.max(np.abs((hp @ g - g @ hp).toarray())) < 1e-12
    w = np.linalg.eigvalsh(hp.toarray())
    assert w.min() > -1e-12                          # positive semidefinite


def test_microscopic_hopping_properties():
    model = build_model(
        HamiltonianSpec(model="spin_gauge", truncation=1, eta=0.4), PLAQ)
    v = model.hamiltonian(("hopping",))
    # gauge-variant: violates at least one vertex generator
    assert max_gauss_violation(model, v) > 1e-3
    # kills the all-top truncation-edge state
    top = model.space.basis_vector(
        model.space.encode([2, 2, 2, 2]))
    assert np.linalg.norm(v @ top) < 1e-14
    # P0 V P0 = 0 on the zero-charge sector
    sec = sector_basis(model.space, [0, 0, 0, 0])
    assert np.max(np.abs(restrict(v, sec).toarray())) < 1e-14


# ---------------------------------------------------------------------------
# assembled operators
# ---------------------------------------------------------------------------

def test_total_hermitian_and_term_order_stable():
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9, eps=0.4,
                           mass=0.2, matter=STAGGERED)
    model = build_model(spec, PLAQ)
    h1 = model.hamiltonian(("electric", "magnetic", "gauge_matter", "mass"))
    h2 = model.hamiltonian(("mass", "gauge_matter", "magnetic", "electric"))
    assert np.max(np.abs((h1 - h1.conj().T).toarray())) == 0.0
    assert np.max(np.abs((h1 - h2).toarray())) < 1e-12


def test_total_fermion_number_conserved():
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9, eps=0.4,
                           mass=0.2, matter=STAGGERED)
    model = build_model(spec, CHAIN4)
    h = model.hamiltonian()
    layout = model.space.layout
    ntot = None
    for v in range(CHAIN4.vertex_count):
        f = layout.factor(v)
        n = model.space.embed([(1.0, hop(f, f))])
        ntot = n if ntot is None else ntot + n
    assert np.max(np.abs((h @ ntot - ntot @ h).toarray())) < 1e-12


def test_naive_charge_model_gauge_invariant():
    spec = HamiltonianSpec(model="spin_gauge", truncation=1, g2=1.0,
                           eps=0.3, mass=0.5, matter=NAIVE2D)
    model = build_model(spec, PLAQ)
    h = model.hamiltonian()
    assert max_gauss_violation(model, h) < 1e-10


@pytest.mark.parametrize("spec,lat", [
    (HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9), PLAQ),
    (HamiltonianSpec(model="ks_u1", truncation=1, g2=1.1, lam=3.0, eta=0.2,
                     terms=("electric", "magnetic", "penalty", "hopping")),
     PLAQ),
    (HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9, eps=0.4,
                     mass=0.2, matter=STAGGERED), CHAIN4),
    (HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9, eps=0.3,
                     mass=0.5, matter=NAIVE2D), PLAQ),
    (HamiltonianSpec(model="spin_gauge", truncation=2, g2=1.3), PLAQ),
    (HamiltonianSpec(model="spin_gauge", truncation=1, g2=0.8, eps=-0.5,
                     mass=0.3, matter=STAGGERED), CHAIN4),
    (HamiltonianSpec(model="spin_gauge", truncation=1, g2=1.0, eps=-0.4,
                     mass=-0.2, matter=NAIVE2D), PLAQ),
    (HamiltonianSpec(model="zn", truncation=3, lam_zn=1.3), PLAQ),
    (HamiltonianSpec(model="zn", truncation=3, eps=0.5, mass=0.3,
                     matter=STAGGERED), CHAIN4),
    (HamiltonianSpec(model="su2", truncation=0.5, g2=0.9), PLAQ),
    (HamiltonianSpec(model="su2", truncation=0.5, g2=1.3, eps=-0.5,
                     mass=-0.3, matter=SU2_FUNDAMENTAL), CHAIN4),
], ids=["u1-plaquette", "u1-penalty-hopping", "u1-staggered", "u1-naive",
        "spin_gauge-plaquette", "spin_gauge-staggered", "spin_gauge-naive",
        "zn-plaquette", "zn-staggered", "su2-plaquette", "su2-two_color"])
def test_assembled_equals_sum_of_terms_and_is_hermitian(spec, lat):
    model = build_model(spec, lat)
    h = model.hamiltonian()
    total = None
    for t in model.effective_terms():
        term = model.hamiltonian((t,))
        total = term if total is None else total + term
    assert h.shape == total.shape
    assert (h != total).nnz == 0
    assert (h != h.conj().T).nnz == 0
