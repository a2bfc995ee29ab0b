"""ProductSpace.embed against an explicit dense kron chain, and
ProductSpace.shift against embed."""

import numpy as np
import pytest
from scipy import sparse

from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice
from lgtlab.matter import hop

SPACES = {
    "chain3_staggered": (HamiltonianSpec(matter="staggered"), (1, [3])),
    "plaquette_2x2": (HamiltonianSpec(), (2, [2, 2])),
}

# tensor-factor positions of each case's random factors: links reduced
# modulo the link count (on the two-link chain the four-factor case visits
# each link twice), fermion modes after the links
CASES = {
    "first": lambda s: [0],
    "middle": lambda s: [s.n_links // 2],
    "last": lambda s: [s.n_links - 1],
    "two_links": lambda s: [0, s.n_links - 1],
    "four_links": lambda s: [l % s.n_links for l in range(4)],
    "same_link_twice": lambda s: [s.n_links // 2, s.n_links // 2],
    "matter_only": lambda s: [s.n_links, s.n_links + s.n_modes - 1],
    "link_and_matter": lambda s: [s.n_links - 1, s.n_links + 1],
    "mode_factor": lambda s: [s.n_links + 1],
    "same_mode_twice": lambda s: [s.n_links + 1, s.n_links + 1],
}
# fermion hops with their fixed 2x2 factors: across the middle mode the
# Jordan-Wigner string is a Pauli Z factor
HOPS = {
    "z_string": lambda s: hop(s.n_links, s.n_links + 2),
    "z_string_reversed": lambda s: hop(s.n_links + 2, s.n_links),
    "link_and_z_string": lambda s: [(0, s.linkops.U[0][0])]
    + hop(s.n_links, s.n_links + 2),
}
WITH_MATTER = ("matter_only", "link_and_matter", "mode_factor",
               "same_mode_twice", *HOPS)
RUNS = [(where, case) for where in SPACES for case in [*CASES, *HOPS]
        if case not in WITH_MATTER or SPACES[where][0].matter]


def random_matrix(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m[rng.random((d, d)) < 0.3] = 0.0
    return m


def case_factors(space, case, rng):
    if case in HOPS:
        return HOPS[case](space)
    return [(f, random_matrix(rng, space.radices[f]))
            for f in CASES[case](space)]


def dense_kron_chain(space, factors):
    mats = [None] * len(space.radices)
    for f, m in factors:
        mats[f] = m if mats[f] is None else mats[f] @ m
    out = np.ones((1, 1), dtype=complex)
    for d, m in zip(space.radices, mats):
        out = np.kron(out, np.eye(d) if m is None else m)
    return out


@pytest.mark.parametrize("where,case", RUNS)
def test_embed_equals_dense_kron_chain(where, case):
    spec, (dim, sizes) = SPACES[where]
    space = build_model(spec, build_lattice(dim, sizes)).space
    factors = case_factors(space, case, np.random.default_rng(7))
    out = space.embed([(1.0, factors)])
    assert out.shape == (space.dim, space.dim)
    assert np.array_equal(out.toarray(), dense_kron_chain(space, factors))
    # the same product applied to every product state as label shifts
    source, target, value = space.shift(np.arange(space.dim),
                                          space.labels, factors)
    shifted = sparse.coo_matrix((value, (target, source)), shape=out.shape)
    assert np.array_equal(shifted.toarray(), out.toarray())


@pytest.mark.parametrize("where,case", RUNS)
def test_embed_sum_equals_scaled_embeds(where, case):
    # two draws of the case's factors (the same draw for the fixed hops),
    # so every entry is summed from both pieces
    spec, (dim, sizes) = SPACES[where]
    space = build_model(spec, build_lattice(dim, sizes)).space
    rng = np.random.default_rng(11)
    pieces = [(0.3 - 0.7j, case_factors(space, case, rng)),
              (1.9, case_factors(space, case, rng))]
    got = space.embed(pieces)
    want = sum((c * space.embed([(1.0, f)]) for c, f in pieces[1:]),
               pieces[0][0] * space.embed([(1.0, pieces[0][1])])).tocsr()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_embed_matter_on_space_without_matter_raises():
    space = build_model(HamiltonianSpec(), build_lattice(2, [2, 2])).space
    with pytest.raises(ValueError):
        space.embed([(1.0, [(space.n_links, np.eye(2))])])
    with pytest.raises(ValueError):
        space.shift([0], space.decode([0]), [(space.n_links, np.eye(2))])


ENCODE_SPACES = {
    "chain3_staggered": (HamiltonianSpec(matter="staggered"), (1, [3])),
    "plaquette_naive2d": (HamiltonianSpec(matter="naive2d"), (2, [2, 2])),
    "su2_chain3_two_color": (
        HamiltonianSpec(model="su2", truncation=0.5, matter="su2fundamental"),
        (1, [3])),
}


@pytest.mark.parametrize("where", ENCODE_SPACES)
def test_encode_inverts_decode_on_every_index(where):
    spec, (dim, sizes) = ENCODE_SPACES[where]
    space = build_model(spec, build_lattice(dim, sizes)).space
    assert space.n_modes > 0
    labels = space.decode(np.arange(space.dim))
    for i in range(space.dim):
        assert space.encode(labels[:, i]) == i
    with pytest.raises(ValueError):
        space.encode(labels[:-1, 0])
