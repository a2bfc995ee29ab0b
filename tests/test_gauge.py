import numpy as np
import pytest

from gauge_oracle import basis_matrix, canonical_sign_transform, \
    clock_matrix, gauge_transformation_unitary, gauss_generators_u1, \
    gauss_generators_zn, generators, su2_zero_charge_sector, \
    zn_gauge_transformation
from lgtlab import linkalg, su2rep
from lgtlab.gauge import all_sector_dimensions, sector_basis
from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice
from lgtlab.matter import STAGGERED, fermion_ops
from lgtlab.tensor import ProductSpace
from lattice_oracle import link_index
from su2_oracle import derived_generators_su2


def u1_space(sizes, cutoff=1, dim=1, matter=False, boundary="open"):
    lat = build_lattice(dim, sizes, boundary)
    layout = fermion_ops(lat, STAGGERED) if matter else None
    return ProductSpace(lat, linkalg.u1_ops(cutoff), layout)


def test_single_link_generators():
    sp = u1_space([2])
    gens = gauss_generators_u1(sp)
    L = sp.embed([(1.0, [(0, np.diag(sp.linkops.flux))])]).toarray()
    assert np.allclose(gens[0].toarray(), L)      # G_left = L
    assert np.allclose(gens[1].toarray(), -L)     # G_right = -L


def test_flux_line_interior_divergence_free():
    sp = u1_space([4])
    gens = gauss_generators_u1(sp)
    # |m=1> on all three links
    idx = sp.encode([2, 2, 2])
    v = np.zeros(sp.dim); v[idx] = 1.0
    for n in (1, 2):                          # interior vertices
        assert np.allclose(gens[n] @ v, 0.0)
    assert np.vdot(v, gens[0] @ v) == pytest.approx(1.0)
    assert np.vdot(v, gens[3] @ v) == pytest.approx(-1.0)


def test_dirac_sea_zero_charge():
    from lgtlab.matter import dirac_sea_state
    sp = u1_space([4], matter=True)
    gens = gauss_generators_u1(sp)
    idx = sp.encode([1, 1, 1] + dirac_sea_state(sp.layout))
    v = np.zeros(sp.dim); v[idx] = 1.0
    for g in gens:
        assert np.allclose(g @ v, 0.0)


def test_zn_single_link_generators():
    lat = build_lattice(1, [2])
    sp = ProductSpace(lat, linkalg.zn_ops(3))
    gens = gauss_generators_zn(sp)
    P = sp.embed([(1.0, [(0, clock_matrix(sp.linkops))])]).toarray()
    assert np.allclose(gens[0].toarray(), P.conj().T)
    assert np.allclose(gens[1].toarray(), P)


def test_zn_periodic_product_is_identity():
    lat = build_lattice(1, [4], "periodic")
    sp = ProductSpace(lat, linkalg.zn_ops(3))
    gens = gauss_generators_zn(sp)
    prod = gens[0]
    for g in gens[1:]:
        prod = prod @ g
    assert np.allclose(prod.toarray(), np.eye(sp.dim))


def test_zn_vacuum_eigenvalue_one():
    lat = build_lattice(1, [3])
    sp = ProductSpace(lat, linkalg.zn_ops(3))
    gens = gauss_generators_zn(sp)
    idx = sp.encode([1, 1])                   # both links at m = 0
    v = np.zeros(sp.dim); v[idx] = 1.0
    for g in gens:
        assert np.vdot(v, g @ v) == pytest.approx(1.0)


def test_sector_single_link_forced_flux():
    sp = u1_space([2])
    sec = sector_basis(sp, [1, -1])
    assert sec.dim == 1
    link_vals = tuple(sp.decode(sec.indices[:1])[:, 0])
    assert link_vals == (2,)                  # the |m=1> state


def test_sector_single_plaquette_loop_states():
    sp = u1_space([2, 2], cutoff=1, dim=2)
    sec = sector_basis(sp, [0, 0, 0, 0])
    assert sec.dim == 3                       # loop flux -1, 0, +1


def test_sector_zn_single_link():
    lat = build_lattice(1, [2])
    sp = ProductSpace(lat, linkalg.zn_ops(3))
    sec = sector_basis(sp, [1, -1])
    assert sec.dim == 1


def test_sector_dimensions_partition_the_space():
    for matter in (False, True):
        sp = u1_space([3], matter=matter)
        dims = all_sector_dimensions(sp)
        assert sum(dims.values()) == sp.dim
        # sectors are disjoint by construction; spot-check orthogonality
        keys = sorted(dims)[:2]
        s0 = sector_basis(sp, keys[0])
        s1 = sector_basis(sp, keys[1])
        assert set(s0.indices).isdisjoint(set(s1.indices))


def test_empty_sector_reported():
    sp = u1_space([2], cutoff=1)
    sec = sector_basis(sp, [5, -5])           # beyond the cutoff window
    assert sec.is_empty and sec.dim == 0


def test_su2_zero_sector_and_vacuum():
    lat = build_lattice(1, [3])
    sp = ProductSpace(lat, linkalg.su2_ops(0.5))
    gens = derived_generators_su2(sp)
    # per-vertex left-type algebra [G_i, G_j] = -i eps G_k
    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    ax = {"x": 0, "y": 1, "z": 2}
    for triple in gens:
        for (a, b), c in eps.items():
            comm = (triple[ax[a]] @ triple[ax[b]]
                    - triple[ax[b]] @ triple[ax[a]]).toarray()
            assert np.allclose(comm, -1j * triple[ax[c]].toarray(),
                               atol=1e-12)
    # different vertices commute
    comm = (gens[0][0] @ gens[2][1] - gens[2][1] @ gens[0][0]).toarray()
    assert np.allclose(comm, 0.0)
    B = su2_zero_charge_sector(sp, gens)
    assert B.shape[1] >= 1
    # the all-singlet product state is in the sector
    vac = np.zeros(sp.dim)
    vac[sp.encode([su2rep.link_labels(0.5).index((0, 0, 0))] * 2)] = 1.0
    overlap = np.linalg.norm(B.conj().T @ vac)
    assert overlap == pytest.approx(1.0)


def test_su2_plaquette_sector_restriction_matches_full_space():
    # the J_max = 1/2 plaquette has a two-dimensional zero-charge sector
    # (bare vacuum + the loop-dressed state); restricted diagonalization
    # reproduces the corresponding full-space eigenvalues exactly
    from lgtlab.solver import eigs
    model = build_model(HamiltonianSpec(model="su2", truncation=0.5,
                                        g2=1.0), build_lattice(2, [2, 2]))
    B = su2_zero_charge_sector(model.space, generators(model))
    assert B.shape[1] == 2
    h = model.hamiltonian()
    w, _ = eigs(B.conj().T @ (h @ B), 2)
    wf, vf = np.linalg.eigh(h.toarray())
    weights = np.linalg.norm(B.conj().T @ vf, axis=0)
    in_sector = wf[weights > 0.99]
    assert np.allclose(w, in_sector[:2], atol=1e-10)


def test_gauge_transformation_invariance():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9),
                        build_lattice(2, [2, 2]))
    h = model.hamiltonian().toarray()
    rng = np.random.default_rng(7)
    angles = rng.uniform(-np.pi, np.pi, size=4)
    theta = gauge_transformation_unitary(model.space, generators(model),
                                         angles)
    assert np.allclose(theta @ theta.conj().T, np.eye(model.space.dim),
                       atol=1e-10)
    assert np.max(np.abs(theta @ h @ theta.conj().T - h)) < 1e-10
    # zero angles give the identity
    theta0 = gauge_transformation_unitary(model.space, generators(model),
                                          np.zeros(4))
    assert np.allclose(theta0, np.eye(model.space.dim))


def test_gauge_transformation_preserves_sector():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1),
                        build_lattice(1, [3]))
    sec = sector_basis(model.space, [1, -1, 0])
    theta = gauge_transformation_unitary(model.space, generators(model),
                                         [0.3, -1.1, 2.2])
    B = basis_matrix(sec, model.space.dim)
    rotated = theta @ B
    # Theta is diagonal on Abelian sectors: support unchanged
    proj = B @ B.conj().T
    assert np.linalg.norm(rotated - proj @ rotated) < 1e-10


def test_su2_gauge_transformation_invariance():
    model = build_model(
        HamiltonianSpec(model="su2", truncation=0.5, g2=1.2, eps=0.4,
                        mass=0.3, matter="su2fundamental"),
        build_lattice(1, [2]))
    h = model.hamiltonian().toarray()
    rng = np.random.default_rng(13)
    angles = rng.uniform(-1.0, 1.0, size=(2, 3))
    theta = gauge_transformation_unitary(model.space, generators(model),
                                         angles)
    assert np.allclose(theta @ theta.conj().T, np.eye(model.space.dim),
                       atol=1e-10)
    assert np.max(np.abs(theta @ h @ theta.conj().T - h)) < 1e-10


def test_zn_gauge_transformation_invariance():
    model = build_model(HamiltonianSpec(model="zn", truncation=3,
                                        lam_zn=0.7),
                        build_lattice(2, [2, 2]))
    h = model.hamiltonian()
    theta = zn_gauge_transformation(model.space, generators(model),
                                    [1, 2, 0, 1])
    diff = theta @ h @ theta.conj().T - h
    assert np.max(np.abs(diff.toarray())) < 1e-10


def test_sign_transform():
    lat = build_lattice(2, [3, 3])
    uniform = np.ones(lat.link_count)
    flipped = canonical_sign_transform(lat, uniform)
    assert set(np.round(flipped).astype(int)) == {-1, 1}
    # per-link sign equals the origin-vertex parity
    for l, (v, _k) in enumerate(lat.links):
        parity = (-1) ** sum(lat.vertices[v])
        assert flipped[l] == pytest.approx(parity)
    # involution
    assert np.allclose(canonical_sign_transform(lat, flipped), uniform)


def test_sign_transform_straightens_alternating_string():
    # a measured alternating flux line maps onto a uniform tube
    lat = build_lattice(2, [4, 2])
    readout = np.zeros(lat.link_count)
    for x in range(3):
        l = link_index(lat, (x, 0), 1)
        readout[l] = (-1) ** x                # alternating raw values
    fixed = canonical_sign_transform(lat, readout)
    vals = [fixed[link_index(lat, (x, 0), 1)] for x in range(3)]
    assert np.allclose(vals, 1.0)


@pytest.mark.parametrize("lat", [build_lattice(1, [4]),
                                 build_lattice(2, [2, 2])])
def test_block_diagonality_between_sectors(lat):
    # the full electric + magnetic + hopping + mass operator never connects
    # sectors with different static charges
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, eps=0.4, mass=0.2,
                        matter=STAGGERED), lat)
    h = model.hamiltonian()
    s0 = sector_basis(model.space, [0, 0, 0, 0])
    s1 = sector_basis(model.space, [1, -1, 0, 0])
    B0, B1 = (basis_matrix(s, model.space.dim) for s in (s0, s1))
    cross = B1.conj().T @ (h @ B0)
    assert np.max(np.abs(cross)) < 1e-10


def test_periodic_total_divergence_telescopes():
    sp = u1_space([4], boundary="periodic")
    gens = gauss_generators_u1(sp)
    total = gens[0]
    for g in gens[1:]:
        total = total + g
    assert np.max(np.abs(total.toarray())) < 1e-14
