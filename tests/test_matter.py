import numpy as np
import pytest

from lgtlab.lattice import build_lattice
from lgtlab.matter import NAIVE2D, STAGGERED, SU2_FUNDAMENTAL, \
    charge_operator, dirac_sea_state, fermion_ops, occupation_bits, su2_charge


def anticomm(a, b):
    return (a @ b + b @ a).toarray()


def test_canonical_anticommutation():
    lat = build_lattice(1, [3])
    lay = fermion_ops(lat, STAGGERED)
    for i in range(3):
        for j in range(3):
            ci, cj = lay.c(i), lay.c(j)
            assert np.allclose(anticomm(ci, cj.conj().T.tocsr()),
                               np.eye(lay.dim) if i == j else 0.0)
            assert np.allclose(anticomm(ci, cj), 0.0)


def test_number_eigenvalues_binary():
    lat = build_lattice(1, [2])
    lay = fermion_ops(lat, STAGGERED)
    n = lay.number(0).toarray()
    vals = np.linalg.eigvalsh(n)
    assert set(np.round(vals).astype(int)) <= {0, 1}


def test_jw_hop_sign_two_modes():
    # c0^dag c1 |01> = +|10> in the chosen global ordering (no modes
    # between 0 and 1, so the string contributes no sign)
    lat = build_lattice(1, [2])
    lay = fermion_ops(lat, STAGGERED)
    v01 = np.zeros(4); v01[0b01] = 1.0
    out = (lay.cdag(0) @ lay.c(1)) @ v01
    expect = np.zeros(4); expect[0b10] = 1.0
    assert np.allclose(out, expect)


def test_jw_string_sign_distant_hop():
    # hopping across an occupied middle mode picks up the string sign
    lat = build_lattice(1, [3])
    lay = fermion_ops(lat, STAGGERED)
    v = np.zeros(8); v[0b011] = 1.0          # modes 1,2 occupied
    out = (lay.cdag(0) @ lay.c(2)) @ v
    expect = np.zeros(8); expect[0b110] = 1.0
    assert np.allclose(out, -expect)         # Z on mode 1 flips the sign


def test_staggered_charge_spectrum():
    lat = build_lattice(1, [2])
    lay = fermion_ops(lat, STAGGERED)
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
    lay = fermion_ops(lat, SU2_FUNDAMENTAL)
    q = {a: su2_charge(lay, 0, a).toarray() for a in "xyz"}
    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    for (a, b), c in eps.items():
        comm = q[a] @ q[b] - q[b] @ q[a]
        assert np.allclose(comm, 1j * q[c], atol=1e-13)
    # empty and doubly occupied vertex are charge singlets
    empty = np.zeros(lay.dim); empty[0] = 1.0
    full = np.zeros(lay.dim); full[0b1100] = 1.0    # both colors at vertex 0
    for a in "xyz":
        assert np.allclose(q[a] @ empty, 0.0)
        assert np.allclose(q[a] @ full, 0.0)
    # singly occupied: Q^z = +-1/2
    up = np.zeros(lay.dim); up[0b1000] = 1.0        # color 0 at vertex 0
    assert np.vdot(up, q["z"] @ up) == pytest.approx(0.5)
    vals = np.linalg.eigvalsh(q["z"])
    assert set(np.round(2 * vals).astype(int)) == {-1, 0, 1}


def test_charges_commute_between_vertices():
    lat = build_lattice(1, [3])
    lay = fermion_ops(lat, STAGGERED)
    q0 = charge_operator(lay, 0)
    q2 = charge_operator(lay, 2)
    assert np.allclose((q0 @ q2 - q2 @ q0).toarray(), 0.0)


def test_dirac_sea():
    lat = build_lattice(1, [4])
    lay = fermion_ops(lat, STAGGERED)
    idx = dirac_sea_state(lay)
    assert occupation_bits(lay, idx) == (0, 1, 0, 1)
    v = np.zeros(lay.dim); v[idx] = 1.0
    for n in range(4):
        q = charge_operator(lay, n)
        assert np.vdot(v, q @ v) == pytest.approx(0.0)

    lay2 = fermion_ops(lat, SU2_FUNDAMENTAL)
    idx2 = dirac_sea_state(lay2)
    bits = occupation_bits(lay2, idx2)
    assert sum(bits) == 2 * 2                # two odd vertices, two colors
    v2 = np.zeros(lay2.dim); v2[idx2] = 1.0
    for n in range(4):
        for a in "xyz":
            assert np.allclose(su2_charge(lay2, n, a) @ v2, 0.0)


def test_naive_charge():
    lat = build_lattice(2, [2, 2])
    lay = fermion_ops(lat, NAIVE2D)
    q = charge_operator(lay, 0).toarray()
    assert set(np.round(np.diag(q).real).astype(int)) == {-1, 0, 1}


def test_mode_limit_enforced():
    lat = build_lattice(2, [3, 3])
    with pytest.raises(ValueError):
        fermion_ops(lat, SU2_FUNDAMENTAL)    # 18 modes > 16


def test_naive_needs_2d():
    lat = build_lattice(1, [4])
    with pytest.raises(ValueError):
        fermion_ops(lat, NAIVE2D)
