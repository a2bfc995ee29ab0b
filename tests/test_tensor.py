"""ProductSpace.embed against an explicit dense kron chain."""

import numpy as np
import pytest

from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice

SPACES = {
    "chain3_staggered": (HamiltonianSpec(matter="staggered"), (1, [3])),
    "plaquette_2x2": (HamiltonianSpec(), (2, [2, 2])),
}

# link positions of each case's factors, reduced modulo the link count (on
# the two-link chain the four-factor case visits each link twice)
CASES = {
    "first": lambda n: [0],
    "middle": lambda n: [n // 2],
    "last": lambda n: [n - 1],
    "two_links": lambda n: [0, n - 1],
    "four_links": lambda n: [l % n for l in range(4)],
    "same_link_twice": lambda n: [n // 2, n // 2],
    "matter_only": lambda n: [],
    "link_and_matter": lambda n: [n - 1],
}
WITH_MATTER = ("matter_only", "link_and_matter")
RUNS = [(where, case) for where in SPACES for case in CASES
        if case not in WITH_MATTER or SPACES[where][0].matter]


def random_matrix(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m[rng.random((d, d)) < 0.3] = 0.0
    return m


def dense_kron_chain(space, factors, matter):
    mats = [None] * space.n_links
    for l, m in factors:
        mats[l] = m if mats[l] is None else mats[l] @ m
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, np.eye(space.link_dim) if m is None else m)
    return np.kron(out, np.eye(space.matter_dim) if matter is None
                   else matter)


@pytest.mark.parametrize("where,case", RUNS)
def test_embed_equals_dense_kron_chain(where, case):
    spec, (dim, sizes) = SPACES[where]
    space = build_model(spec, build_lattice(dim, sizes)).space
    rng = np.random.default_rng(7)
    factors = [(l, random_matrix(rng, space.link_dim))
               for l in CASES[case](space.n_links)]
    matter = random_matrix(rng, space.matter_dim) \
        if case in WITH_MATTER else None
    out = space.embed(factors, matter)
    assert out.shape == (space.dim, space.dim)
    assert np.array_equal(out.toarray(),
                          dense_kron_chain(space, factors, matter))


def test_embed_matter_on_space_without_matter_raises():
    space = build_model(HamiltonianSpec(), build_lattice(2, [2, 2])).space
    with pytest.raises(ValueError):
        space.embed((), np.eye(2))
