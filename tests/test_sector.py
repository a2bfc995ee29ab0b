"""Sector-first Abelian runs against their full-space oracles.

The direct Gauss-sector enumeration is checked against the scan of the
full-space charge table it replaced, the in-sector Hamiltonian against the
restriction of the full-space one, and the in-sector flux-tube evolution
against full-space evolution of the same string state.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from lgtlab.gauge import GaussSector, abelian_charge_table, \
    all_sector_dimensions, merge_sectors, sector_basis
from lgtlab.hamiltonian import HamiltonianSpec, SectorLeak, build_model
from lgtlab.lattice import build_lattice
from lgtlab.observables import flux_profile, flux_tube_breaking_scenario, \
    strong_coupling_ground
from lgtlab.solver import SolverError, restrict


def chain(n, boundary="open"):
    return build_lattice(1, [n], boundary)


def lattice_2d(*sizes):
    return build_lattice(2, list(sizes))


def scan_sector(space, charges):
    """The full-space scan sector_basis used to do: every product index
    whose charge-table column equals the charges (modulo N on Z_N)."""
    table = abelian_charge_table(space)
    target = np.array(charges)[:, None]
    if space.linkops.model == "zn":
        n = space.linkops.param
        table, target = table % n, target % n
    return np.nonzero(np.all(table == target, axis=0))[0]


# (model, truncation, matter, lattice)
ENUMERATION_CASES = [
    ("ks_u1", 1, None, chain(2)),
    ("ks_u1", 1, None, chain(3)),
    ("ks_u1", 1, None, chain(5)),
    ("ks_u1", 1, None, chain(6)),
    ("ks_u1", 1, None, chain(7)),
    ("ks_u1", 1, None, chain(8)),
    ("ks_u1", 1, "staggered", chain(2)),
    ("ks_u1", 1, "staggered", chain(5)),
    ("ks_u1", 2, "staggered", chain(4)),
    ("ks_u1", 1, "staggered", chain(4, "periodic")),
    ("ks_u1", 1, None, lattice_2d(2, 2)),
    ("ks_u1", 1, None, lattice_2d(3, 2)),
    ("ks_u1", 2, None, lattice_2d(2, 2)),
    ("ks_u1", 1, "naive2d", lattice_2d(2, 2)),
    ("spin_gauge", 1, "staggered", chain(4)),
    ("spin_gauge", 2, None, lattice_2d(2, 2)),
    ("spin_gauge", 1, "naive2d", lattice_2d(2, 2)),
    ("zn", 3, "staggered", chain(5)),
    ("zn", 4, "staggered", chain(4, "periodic")),
    ("zn", 3, None, lattice_2d(3, 2)),
    ("zn", 4, None, lattice_2d(2, 2)),
]


def case_id(case):
    model, trunc, matter, lat = case
    sizes = "x".join(map(str, lat.sizes))
    return f"{model}-{trunc}-{matter or 'pure'}-{lat.boundary}{sizes}"


@pytest.mark.parametrize("case", ENUMERATION_CASES, ids=case_id)
def test_direct_enumeration_matches_scan(case):
    model, trunc, matter, lat = case
    space = build_model(HamiltonianSpec(model=model, truncation=trunc,
                                        matter=matter), lat).space
    dims = all_sector_dimensions(space)
    assert sum(dims.values()) == space.dim
    for charges, dim in dims.items():
        sec = sector_basis(space, charges)
        assert sec.dim == dim
        assert np.array_equal(sec.indices, scan_sector(space, charges))
    # unreachable charges give the (equally scanned) empty sector
    far = (space.n_links + space.n_modes + 9,) + (0,) * (lat.vertex_count - 1)
    sec = sector_basis(space, far)
    assert np.array_equal(sec.indices, scan_sector(space, far))
    if model != "zn":
        assert sec.is_empty


def test_sector_basis_charges_beyond_int16():
    # a link algebra whose flux values (+-40,000) no longer fit the int16
    # partial charges: the enumeration must not wrap them
    from lgtlab.linkalg import LinkOperatorSet
    from lgtlab.tensor import ProductSpace
    flux = np.diag([-40000.0, 0.0, 40000.0])
    linkops = LinkOperatorSet("u1_truncated", 3, 1, {"flux": flux})
    space = ProductSpace(chain(3), linkops)
    for charges in all_sector_dimensions(space):
        assert max(map(abs, charges)) <= 80000
        assert np.array_equal(sector_basis(space, charges).indices,
                              scan_sector(space, charges))
    assert sector_basis(space, (40000, 0, -40000)).dim == 1


def test_sector_basis_rejects_su2():
    space = build_model(HamiltonianSpec(model="su2", truncation=0.5),
                        chain(3)).space
    with pytest.raises(ValueError):
        sector_basis(space, [0, 0, 0])


# (spec, lattice, terms beyond the default ones)
HAMILTONIAN_CASES = [
    (HamiltonianSpec(model="ks_u1", truncation=1, g2=1.3, eps=0.5, mass=0.3,
                     matter="staggered"), chain(6), ()),
    (HamiltonianSpec(model="ks_u1", truncation=2, g2=0.8, eps=-0.4,
                     mass=-0.2, matter="staggered"), chain(4, "periodic"), ()),
    (HamiltonianSpec(model="ks_u1", truncation=2, g2=1.1),
     build_lattice(2, [2, 2], "periodic"), ()),
    (HamiltonianSpec(model="ks_u1", truncation=1, g2=0.9, eps=0.4, mass=0.2,
                     matter="naive2d"), lattice_2d(2, 2), ()),
    (HamiltonianSpec(model="spin_gauge", truncation=2, g2=0.7, lam=3.0),
     lattice_2d(3, 2), ("penalty",)),
    (HamiltonianSpec(model="spin_gauge", truncation=1, g2=1.2, eps=0.6,
                     mass=0.1, matter="staggered"), chain(5), ()),
    (HamiltonianSpec(model="zn", truncation=3, lam_zn=0.8), lattice_2d(3, 2),
     ()),
    (HamiltonianSpec(model="zn", truncation=4, eps=0.5, mass=0.3,
                     matter="staggered"), chain(4), ()),
]


def largest_sectors(space, count=3):
    dims = all_sector_dimensions(space)
    return sorted(dims, key=lambda key: (-dims[key], key))[:count]


@pytest.mark.parametrize("case", HAMILTONIAN_CASES,
                         ids=lambda c: f"{c[0].model}-{c[0].matter}-"
                                       f"{'x'.join(map(str, c[1].sizes))}")
def test_sector_hamiltonian_equals_restricted_full(case):
    spec, lat, extra = case
    model = build_model(spec, lat)
    terms = model.effective_terms() + extra
    sectors = [sector_basis(model.space, charges)
               for charges in largest_sectors(model.space)]
    for part in [(t,) for t in terms] + [terms]:
        h = model.hamiltonian(part)
        for sec in sectors:
            own = model.hamiltonian(part, sector=sec)
            assert own.shape == (sec.dim, sec.dim)
            diff = own.toarray() - restrict(h, sec).toarray()
            assert np.max(np.abs(diff), initial=0.0) <= 1e-14


def expected_dtype(spec):
    # every family is real in the flux-and-occupation basis except the
    # naive-fermion hop, whose Dirac structure i sigma_k is complex
    naive_hop = spec.matter == "naive2d" and spec.eps != 0.0
    return np.complex128 if naive_hop else np.float64


DTYPE_CASES = [
    (HamiltonianSpec(model=model, truncation=trunc, matter=matter,
                     **(dict(g2=1.1, eps=0.5, mass=0.3) if matter else {})),
     lat, ()) for model, trunc, matter, lat in ENUMERATION_CASES
] + HAMILTONIAN_CASES


@pytest.mark.parametrize("case", DTYPE_CASES,
                         ids=lambda c: f"{c[0].model}-{c[0].truncation}-"
                                       f"{c[0].matter}-{c[1].boundary}"
                                       f"{'x'.join(map(str, c[1].sizes))}-"
                                       f"{'+'.join(c[2]) or 'default'}")
def test_hamiltonian_dtype_is_the_model_s_own(case):
    # assembled in float64 or complex128 from the start, on the full space
    # and on every sector: on their merge, whose diagonal blocks are the
    # sector Hamiltonians bitwise
    spec, lat, extra = case
    model = build_model(spec, lat)
    terms = model.effective_terms() + extra
    want = expected_dtype(spec)
    assert model.hamiltonian(terms).dtype == want
    every = merge_sectors([sector_basis(model.space, charges)
                           for charges in all_sector_dimensions(model.space)])
    assert every.dim == model.space.dim
    assert model.hamiltonian(terms, sector=every).dtype == want


def test_su2_hamiltonians_are_float64():
    for spec, lat in [
            (HamiltonianSpec(model="su2", truncation=0.5, eps=0.4, mass=0.2,
                             matter="su2fundamental"), chain(3)),
            (HamiltonianSpec(model="su2", truncation=0.5), lattice_2d(2, 2)),
            (HamiltonianSpec(model="su2", truncation=1), chain(3))]:
        assert build_model(spec, lat).hamiltonian().dtype == np.float64


def csr_parts(m):
    m = m.tocsr()
    m.sort_indices()
    return m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()


@pytest.mark.parametrize("case", HAMILTONIAN_CASES,
                         ids=lambda c: f"{c[0].model}-{c[0].matter}-"
                                       f"{'x'.join(map(str, c[1].sizes))}")
def test_merged_sector_blocks_equal_each_sector_alone(case):
    spec, lat, extra = case
    model = build_model(spec, lat)
    terms = model.effective_terms() + extra
    sectors = [sector_basis(model.space, charges)
               for charges in largest_sectors(model.space)]
    assert len(sectors) == 3
    merged = merge_sectors(sectors)
    assert np.all(np.diff(merged.indices) > 0)
    for b, sec in enumerate(sectors):
        assert np.array_equal(merged.indices[merged.blocks == b],
                              sec.indices)
    h = model.hamiltonian(terms, sector=merged)
    blocks = merged.diagonal_blocks(h)
    # nothing off the diagonal blocks
    assert h.nnz == sum(block.nnz for block in blocks)
    for sec, block in zip(sectors, blocks):
        assert csr_parts(block) == csr_parts(
            model.hamiltonian(terms, sector=sec))


def test_merge_of_one_sector_is_the_sector():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1),
                        lattice_2d(2, 2))
    sec = sector_basis(model.space, [0] * 4)
    assert merge_sectors([sec]) is sec
    h = model.hamiltonian(sector=sec)
    assert sec.blocks is None and sec.diagonal_blocks(h)[0] is h


def test_hopping_between_merged_sectors_is_a_leak():
    # merging every sector gives back the full space, so no hop lands
    # outside the merge: only the blocks show that it leaves its sector
    spec = HamiltonianSpec(model="spin_gauge", truncation=1, eta=0.1)
    model = build_model(spec, lattice_2d(2, 2))
    merged = merge_sectors([sector_basis(model.space, charges)
                            for charges in all_sector_dimensions(
                                model.space)])
    assert np.array_equal(merged.indices, np.arange(model.space.dim))
    with pytest.raises(SectorLeak, match="hopping") as leak:
        model.hamiltonian(("hopping",), sector=merged)
    assert leak.value.amplitude == pytest.approx(0.1, abs=1e-15)
    unmerged = GaussSector((), model.space.dim, indices=merged.indices,
                           labels=merged.labels)
    full = model.hamiltonian(("hopping",))
    assert csr_parts(model.hamiltonian(("hopping",), sector=unmerged)) \
        == csr_parts(full)
    # the gauge-invariant terms stay in their sectors
    invariant = ("electric", "magnetic")
    assert np.max(np.abs((model.hamiltonian(invariant, sector=merged)
                          - model.hamiltonian(invariant)).toarray())) == 0.0


def test_hopping_raises_on_a_sector():
    spec = HamiltonianSpec(model="spin_gauge", truncation=1, eta=0.1)
    model = build_model(spec, lattice_2d(2, 2))
    sec = sector_basis(model.space, [0] * 4)
    with pytest.raises(ValueError, match="hopping"):
        model.hamiltonian(("hopping",), sector=sec)


# the one state of the second sector has horizontal links at +1 and
# vertical ones at 0: every hop U_a U_b^dag annihilates it, and only the
# adjoint hops leave the sector
@pytest.mark.parametrize("charges", [[0, 0, 0, 0], [1, 1, -1, -1]])
def test_sector_leak_carries_the_out_of_sector_amplitude_and_block(charges):
    spec = HamiltonianSpec(model="ks_u1", truncation=1, eta=0.1,
                           terms=("electric", "magnetic", "hopping"))
    model = build_model(spec, lattice_2d(2, 2))
    sec = sector_basis(model.space, charges)
    h = model.hamiltonian()
    with pytest.raises(SectorLeak) as leak:
        model.hamiltonian(sector=sec)
    # oracle: the largest entry of the full H from a sector state to a
    # state outside the sector
    outside = np.ones(model.space.dim, dtype=bool)
    outside[sec.indices] = False
    columns = h[:, sec.indices].toarray()
    assert leak.value.amplitude == pytest.approx(
        np.max(np.abs(columns[outside])), abs=1e-15)
    assert leak.value.amplitude == pytest.approx(0.1, abs=1e-15)
    diff = leak.value.block.toarray() - restrict(h, sec).toarray()
    assert np.max(np.abs(diff)) <= 1e-14


def test_sector_basis_refuses_a_space_beyond_int64():
    # 3^40 product states on the open 5x5 at cutoff 1: int64 indices
    # would wrap, so the enumeration must not start
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1),
                        lattice_2d(5, 5))
    assert model.space.dim == 3 ** 40 > np.iinfo(np.int64).max
    with pytest.raises(SolverError, match=str(3 ** 40)):
        sector_basis(model.space, [0] * 25)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sector_dynamics_matches_full_space(n):
    spec = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.1, eps=0.7,
                           mass=0.2, matter="staggered")
    lat = chain(n)
    report, model, traj = flux_tube_breaking_scenario(spec, lat, 2, 1.5, 6)
    h = model.hamiltonian()
    psi0 = strong_coupling_ground(model, 0, 2)
    states = expm_multiply(-1j * h.tocsc(), psi0, start=0.0, stop=1.5,
                           num=7, endpoint=True)
    charges = [0] * lat.vertex_count
    charges[0], charges[2] = 1, -1
    sec = sector_basis(model.space, charges)
    assert traj.states.shape == (7, sec.dim)
    inside = states[:, sec.indices]
    assert np.max(np.abs(inside - traj.states)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(inside, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(flux_profile(model, states, model.space.labels)
                          - report.flux)) <= 1e-12
