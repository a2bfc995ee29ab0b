"""The label-table reads against the kron-embedded operators they replace.

Every Abelian diagonal (label table, charge table and sectors, Gauss
generators, flux and charge profiles, electric, mass and penalty terms, and
the gauge-invariance check) is compared with a straightforward full-space
construction from sparse kron embeddings, kept here as the oracle.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from scipy import sparse

from gauge_oracle import clock_matrix, gauss_generators_u1, \
    gauss_generators_zn
from jw_oracle import JordanWigner, charge_operator, embed_matter, \
    mass_diagonal, occupation_bits
from lattice_oracle import incidence
from lgtlab.gauge import all_sector_dimensions, charge_rows, sector_basis
from lgtlab.hamiltonian import HamiltonianSpec, build_model, \
    max_gauss_violation
from lgtlab.lattice import build_lattice
from lgtlab.matter import NAIVE2D, STAGGERED
from lgtlab.observables import charge_profile, flux_profile

TOL = 1e-14

FAMILIES = [("ks_u1", 1), ("spin_gauge", 1), ("zn", 3)]
LATTICES = {
    "chain4": build_lattice(1, [4]),
    "chain5": build_lattice(1, [5]),
    "chain6": build_lattice(1, [6]),
    "ring4": build_lattice(1, [4], "periodic"),
    "plaq": build_lattice(2, [2, 2]),
}


def _cases():
    cases = []
    for model, trunc in FAMILIES:
        for lat in LATTICES:
            matters = [None, STAGGERED] + ([NAIVE2D] if lat == "plaq" else [])
            cases += [(model, trunc, lat, m) for m in matters]
    # wider flux windows: cutoff 2 and the even-N clock relabeling
    cases += [("ks_u1", 2, "chain4", STAGGERED), ("zn", 4, "chain4", None),
              ("zn", 4, "chain4", STAGGERED)]
    return cases


CASES = _cases()


@functools.lru_cache(maxsize=None)
def make_model(model, trunc, lat, matter):
    # naive fermions hop only on U(1)-type links
    eps = 0.0 if (model == "zn" and matter == NAIVE2D) else 0.45
    spec = HamiltonianSpec(model=model, truncation=trunc, g2=1.3,
                           eps=eps if matter else 0.0,
                           mass=0.35 if matter else 0.0, lam=2.5,
                           lam_zn=0.8, matter=matter)
    return build_model(spec, LATTICES[lat])


def case_id(case):
    model, trunc, lat, matter = case
    return f"{model}{trunc}-{lat}-{matter or 'pure'}"


# ---------------------------------------------------------------------------
# kron-embedded oracles
# ---------------------------------------------------------------------------

def kron_charge_ops(space):
    jw = JordanWigner(space.layout)
    return [embed_matter(space, charge_operator(jw, v))
            for v in range(space.lattice.vertex_count)]


def kron_charge_table(space):
    lat = space.lattice
    fluxop = np.diag(space.linkops.flux)
    charges = kron_charge_ops(space) if space.layout is not None else None
    table = np.zeros((lat.vertex_count, space.dim))
    for v, (out_links, in_links) in enumerate(incidence(lat)):
        for l in out_links:
            table[v] += space.embed([(1.0, [(l, fluxop)])]).diagonal().real
        for l in in_links:
            table[v] -= space.embed([(1.0, [(l, fluxop)])]).diagonal().real
        if charges is not None:
            table[v] -= charges[v].diagonal().real
    return np.rint(table).astype(int)


def kron_generators(model):
    space, lat = model.space, model.lattice
    charges = kron_charge_ops(space) if space.layout is not None else None
    gens = []
    for v, (out_links, in_links) in enumerate(incidence(lat)):
        if model.spec.model == "zn":
            delta = 2.0 * np.pi / space.linkops.param
            P = clock_matrix(space.linkops)
            g = space.embed([(1.0, [(l, P.conj().T) for l in out_links]
                              + [(l, P) for l in in_links])])
            if charges is not None:
                g = g @ sparse.diags(np.exp(1j * delta
                                            * charges[v].diagonal().real))
        else:
            flux = np.diag(space.linkops.flux)
            g = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
            for l in out_links:
                g = g + space.embed([(1.0, [(l, flux)])])
            for l in in_links:
                g = g - space.embed([(1.0, [(l, flux)])])
            if charges is not None:
                g = g - charges[v]
        gens.append(g.tocsr())
    return gens


def kron_electric(model):
    spec, space = model.spec, model.space
    if spec.model == "zn":
        P = clock_matrix(space.linkops)
        local = -(spec.lam_zn / 2.0) * (P + P.conj().T)
    else:
        flux = np.diag(space.linkops.flux)
        local = (spec.g2 / 2.0) * (flux @ flux)
    h = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for l in range(space.n_links):
        h = h + space.embed([(1.0, [(l, local)])])
    return h


def kron_mass(model):
    return model.space.diagonal_op(mass_diagonal(model))


def kron_gauss_violation(h, gens):
    worst = 0.0
    for g in gens:
        c = h @ g - g @ h
        if c.nnz:
            worst = max(worst, float(np.max(np.abs(c.data))))
    return worst


def max_abs_diff(a, b):
    d = abs(sparse.csr_matrix(a) - sparse.csr_matrix(b))
    return 0.0 if d.nnz == 0 else float(d.max())


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# tables and sectors: exact equality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_label_table_decodes_every_index(case):
    space = make_model(*case).space
    labels = space.labels
    assert labels.shape == (space.n_links + space.n_modes, space.dim)
    assert labels.dtype == np.uint8
    # every (links, occupation index) in mixed-radix order: link 0 the
    # most significant, the matter last
    columns = itertools.product(
        itertools.product(range(space.link_dim), repeat=space.n_links),
        range(2 ** space.n_modes))
    for index, (links, matter) in enumerate(columns):
        bits = occupation_bits(space.layout, matter) \
            if space.layout is not None else ()
        assert tuple(labels[:, index]) == tuple(links) + tuple(bits)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_charge_table_and_sectors_match_kron(case):
    model = make_model(*case)
    space = model.space
    modular = model.spec.model == "zn"
    oracle = kron_charge_table(space)
    table = charge_rows(space, space.labels)
    assert np.array_equal(table, oracle)
    assert table.dtype.itemsize == 1
    if modular:
        oracle = oracle % space.linkops.param
    keys, counts = np.unique(oracle, axis=1, return_counts=True)
    dims = all_sector_dimensions(space)
    assert dims == {tuple(int(x) for x in k): int(c)
                    for k, c in zip(keys.T, counts)}
    for key in list(dims)[:3] + [tuple(keys[:, -1] + 1)]:
        target = np.array(key)[:, None]
        if modular:
            target = target % space.linkops.param
        want = np.nonzero(np.all(oracle == target, axis=0))[0]
        got = sector_basis(space, key).indices
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_charge_rows_read_one_gauss_law_per_space(case, monkeypatch):
    # the Gauss law is built once per space: a second charge_rows call
    # neither walks the links nor reads the matter layout's Gauss tables
    model = build_model(make_model(*case).spec, LATTICES[case[2]])
    space = model.space
    indices = np.arange(0, space.dim, 7)
    first = charge_rows(space, space.decode(indices))
    assert np.array_equal(first, kron_charge_table(space)[:, indices])

    # a rebuilt plan would read the lattice's ends
    monkeypatch.setattr(space, "lattice",
                        dataclasses.replace(space.lattice, ends=None))
    if space.layout is not None:
        for table in ("gauss_base", "gauss_columns"):
            monkeypatch.delattr(space.layout, table)
    again = charge_rows(space, space.decode(indices))
    assert np.array_equal(again, first) and again.dtype == first.dtype


# ---------------------------------------------------------------------------
# operators and values: agreement to 1e-14
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_generators_match_kron(case):
    model = make_model(*case)
    build = gauss_generators_zn if model.spec.model == "zn" \
        else gauss_generators_u1
    for g, ref in zip(build(model.space), kron_generators(model)):
        assert max_abs_diff(g, ref) < TOL


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_profiles_match_kron(case):
    model = make_model(*case)
    space = model.space
    psi = random_state(space.dim, 5)
    flux = np.diag(space.linkops.flux)
    ref = [np.vdot(psi, space.embed([(1.0, [(l, flux)])]) @ psi).real
           for l in range(space.n_links)]
    assert np.max(np.abs(flux_profile(model, psi, space.labels) - ref)) < TOL
    if space.layout is not None:
        ref = [np.vdot(psi, q @ psi).real for q in kron_charge_ops(space)]
        assert np.max(np.abs(charge_profile(model, psi, space.labels)
                             - ref)) < TOL


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_diagonal_terms_match_kron(case):
    model = make_model(*case)
    assert max_abs_diff(model.hamiltonian(("electric",)),
                        kron_electric(model)) < TOL
    if model.space.layout is not None:
        assert max_abs_diff(model.hamiltonian(("mass",)),
                            kron_mass(model)) < TOL
    if model.spec.model != "zn":
        ref = sum(g @ g for g in kron_generators(model))
        assert max_abs_diff(model.hamiltonian(("penalty",)),
                            model.spec.lam * ref) < TOL


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_gauss_check_matches_commutators(case):
    model = make_model(*case)
    space = model.space
    gens = kron_generators(model)
    h = model.hamiltonian()
    assert abs(max_gauss_violation(model, h)
               - kron_gauss_violation(h, gens)) < TOL
    # a gauge-variant hop on link 0 must be seen with the same size
    up = space.linkops.U[0][0]
    if model.spec.model == "zn":
        up = up.T                   # the clock shift Q that lowers m
    hop = space.embed([(1.0, [(0, up)])])
    bad = h + 0.7 * (hop + hop.conj().T)
    value = max_gauss_violation(model, bad)
    assert value > 0.1
    assert abs(value - kron_gauss_violation(bad, gens)) < TOL


def test_su2_diagonals_match_kron():
    # the Casimir electric term, the two-color mass and the Casimir flux
    # readout are diagonal in the |j m m'> x occupation basis too
    model = build_model(HamiltonianSpec(model="su2", truncation=0.5, g2=1.3,
                                        eps=0.4, mass=0.35,
                                        matter="su2fundamental"),
                        build_lattice(1, [3]))
    space = model.space
    local = (model.spec.g2 / 2.0) * np.diag(space.linkops.flux)
    ref = sum(space.embed([(1.0, [(l, local)])])
              for l in range(space.n_links))
    assert max_abs_diff(model.hamiltonian(("electric",)), ref) < TOL
    assert max_abs_diff(model.hamiltonian(("mass",)), kron_mass(model)) < TOL
    psi = random_state(space.dim, 9)
    flux = np.diag(space.linkops.flux)
    ref = [np.vdot(psi, space.embed([(1.0, [(l, flux)])]) @ psi).real
           for l in range(space.n_links)]
    assert np.max(np.abs(flux_profile(model, psi, space.labels) - ref)) < TOL
