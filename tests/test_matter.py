"""Fermion modes as 2-state tensor factors, checked on the occupation
space and against the Jordan-Wigner matrices of ``jw_oracle``."""

from functools import partial
from itertools import product

import numpy as np
import pytest

import jw_oracle
from jw_oracle import JordanWigner, charge_operator, occupation_bits
from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice
from lgtlab.matter import NAIVE2D, STAGGERED, SU2_FUNDAMENTAL, \
    dirac_sea_state, fermion_ops, hop
from su2_oracle import su2_charge
from test_label_table import CASES, case_id, make_model
from test_sector import HAMILTONIAN_CASES


def anticomm(a, b):
    return (a @ b + b @ a).toarray()


def matter_space(lat, scheme):
    spec = HamiltonianSpec(model="su2", truncation=0.5, matter=scheme) \
        if scheme == SU2_FUNDAMENTAL else HamiltonianSpec(matter=scheme)
    return build_model(spec, lat).space


def occupation_matrix(space, terms):
    """The 2^modes matrix of sum coeff * (product of the factors) for
    factors on modes only: the block of its embedding with every link at
    label 0."""
    n = 2 ** space.n_modes
    return sum(coeff * space.embed([(1.0, factors)])[:n, :n]
               for coeff, factors in terms).toarray()


def occupation_index(space, occupations):
    """Occupation-space index of per-mode occupation labels: the full-space
    index with every link at label 0."""
    return space.encode([0] * space.n_links + list(occupations))


def test_canonical_anticommutation():
    lat = build_lattice(1, [3])
    lay = JordanWigner(fermion_ops(lat, STAGGERED))
    for i in range(3):
        for j in range(3):
            ci, cj = lay.c(i), lay.c(j)
            assert np.allclose(anticomm(ci, cj.conj().T.tocsr()),
                               np.eye(lay.dim) if i == j else 0.0)
            assert np.allclose(anticomm(ci, cj), 0.0)


def test_number_eigenvalues_binary():
    lat = build_lattice(1, [2])
    space = matter_space(lat, STAGGERED)
    f = space.layout.factor(0)
    n = occupation_matrix(space, [(1.0, hop(f, f))])
    vals = np.linalg.eigvalsh(n)
    assert set(np.round(vals).astype(int)) <= {0, 1}


def test_jw_hop_sign_two_modes():
    # c0^dag c1 |01> = +|10> in the chosen global ordering (no modes
    # between 0 and 1, so the string contributes no sign)
    lat = build_lattice(1, [2])
    space = matter_space(lat, STAGGERED)
    lay = space.layout
    hop01 = occupation_matrix(space,
                              [(1.0, hop(lay.factor(0), lay.factor(1)))])
    v01 = np.zeros(4); v01[0b01] = 1.0
    out = hop01 @ v01
    expect = np.zeros(4); expect[0b10] = 1.0
    assert np.allclose(out, expect)


def test_jw_string_sign_distant_hop():
    # hopping across an occupied middle mode picks up the string sign
    lat = build_lattice(1, [3])
    space = matter_space(lat, STAGGERED)
    lay = space.layout
    hop02 = occupation_matrix(space,
                              [(1.0, hop(lay.factor(0), lay.factor(2)))])
    v = np.zeros(8); v[0b011] = 1.0          # modes 1,2 occupied
    out = hop02 @ v
    expect = np.zeros(8); expect[0b110] = 1.0
    assert np.allclose(out, -expect)         # Z on mode 1 flips the sign


def test_staggered_charge_spectrum():
    lat = build_lattice(1, [2])
    lay = JordanWigner(fermion_ops(lat, STAGGERED))
    even = charge_operator(lay, 0).toarray()
    odd = charge_operator(lay, 1).toarray()
    assert set(np.round(np.diag(even).real).astype(int)) == {0, 1}
    assert set(np.round(np.diag(odd).real).astype(int)) == {-1, 0}
    # occupied even vertex -> +1; occupied odd -> 0; vacant odd -> -1
    v = np.zeros(4); v[0b10] = 1.0
    assert np.vdot(v, even @ v) == pytest.approx(1.0)
    assert np.vdot(v, odd @ v) == pytest.approx(-1.0)
    w = np.zeros(4); w[0b01] = 1.0
    assert np.vdot(w, odd @ w) == pytest.approx(0.0)


def test_su2_charge_algebra_and_singlets():
    lat = build_lattice(1, [2])
    space = matter_space(lat, SU2_FUNDAMENTAL)
    dim = 2 ** space.n_modes
    q = {a: occupation_matrix(space, su2_charge(space.layout, 0, a))
         for a in "xyz"}
    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    for (a, b), c in eps.items():
        comm = q[a] @ q[b] - q[b] @ q[a]
        assert np.allclose(comm, 1j * q[c], atol=1e-13)
    # empty and doubly occupied vertex are charge singlets
    empty = np.zeros(dim); empty[0] = 1.0
    full = np.zeros(dim); full[0b1100] = 1.0    # both colors at vertex 0
    for a in "xyz":
        assert np.allclose(q[a] @ empty, 0.0)
        assert np.allclose(q[a] @ full, 0.0)
    # singly occupied: Q^z = +-1/2
    up = np.zeros(dim); up[0b1000] = 1.0        # color 0 at vertex 0
    assert np.vdot(up, q["z"] @ up) == pytest.approx(0.5)
    vals = np.linalg.eigvalsh(q["z"])
    assert set(np.round(2 * vals).astype(int)) == {-1, 0, 1}


def test_charges_commute_between_vertices():
    lat = build_lattice(1, [3])
    lay = JordanWigner(fermion_ops(lat, STAGGERED))
    q0 = charge_operator(lay, 0)
    q2 = charge_operator(lay, 2)
    assert np.allclose((q0 @ q2 - q2 @ q0).toarray(), 0.0)


def test_dirac_sea():
    lat = build_lattice(1, [4])
    space = matter_space(lat, STAGGERED)
    lay = JordanWigner(space.layout)
    idx = occupation_index(space, dirac_sea_state(lay.layout))
    assert occupation_bits(lay.layout, idx) == (0, 1, 0, 1)
    v = np.zeros(lay.dim); v[idx] = 1.0
    for n in range(4):
        q = charge_operator(lay, n)
        assert np.vdot(v, q @ v) == pytest.approx(0.0)

    space2 = matter_space(lat, SU2_FUNDAMENTAL)
    lay2 = space2.layout
    idx2 = occupation_index(space2, dirac_sea_state(lay2))
    bits = occupation_bits(lay2, idx2)
    assert sum(bits) == 2 * 2                # two odd vertices, two colors
    v2 = np.zeros(2 ** space2.n_modes); v2[idx2] = 1.0
    for n in range(4):
        for a in "xyz":
            q = occupation_matrix(space2, su2_charge(lay2, n, a))
            assert np.allclose(q @ v2, 0.0)


def test_naive_charge():
    lat = build_lattice(2, [2, 2])
    lay = JordanWigner(fermion_ops(lat, NAIVE2D))
    q = charge_operator(lay, 0).toarray()
    assert set(np.round(np.diag(q).real).astype(int)) == {-1, 0, 1}


def test_naive_needs_2d():
    lat = build_lattice(1, [4])
    with pytest.raises(ValueError):
        fermion_ops(lat, NAIVE2D)


# ---------------------------------------------------------------------------
# the Jordan-Wigner matrices as the oracle of the mode factors
# ---------------------------------------------------------------------------

def test_hop_factors_equal_jordan_wigner_bilinears():
    # every ordered pair of 5 modes, the number operator included: the Z
    # string on the modes strictly between carries the sign
    space = matter_space(build_lattice(1, [5]), STAGGERED)
    jw = JordanWigner(space.layout)
    for a, b in product(range(5), repeat=2):
        got = space.embed([(1.0, hop(space.layout.factor(a),
                                     space.layout.factor(b)))])
        want = jw_oracle.embed_matter(space, jw.cdag(a) @ jw.c(b))
        assert (got != want).nnz == 0


def su2_chain(n):
    spec = HamiltonianSpec(model="su2", truncation=0.5, g2=1.3, eps=0.4,
                           mass=0.35, matter=SU2_FUNDAMENTAL)
    return build_model(spec, build_lattice(1, [n]))


def sizes(lat):
    return lat.boundary + "x".join(map(str, lat.sizes))


# every matter model of the label-table and sector-Hamiltonian cases, and
# SU(2) two-color chains
ORACLE_MODELS = {
    **{"label-" + case_id(case): partial(make_model, *case)
       for case in CASES if case[3] is not None},
    **{f"sector-{spec.model}-{spec.matter}-{sizes(lat)}":
       partial(build_model, spec, lat)
       for spec, lat, _ in HAMILTONIAN_CASES if spec.matter is not None},
    "su2-chain2": partial(su2_chain, 2),
    "su2-chain3": partial(su2_chain, 3),
}


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_hamiltonian_equals_jordan_wigner_oracle(name):
    # open and periodic staggered chains (the wrap-around hop crosses every
    # mode), naive2d 2x2 (vertical hops cross the other modes) and SU(2)
    # two-color chains: bit for bit
    model = ORACLE_MODELS[name]()
    h, want = model.hamiltonian(), jw_oracle.hamiltonian(model)
    assert h.shape == want.shape
    assert (h != want).nnz == 0
