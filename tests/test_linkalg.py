"""The link sets' per-label tables against the single-link algebras they
encode.  The named matrices are derived here from a set's own tables: the
flux L = diag(flux), the ladder L_+ = sqrt(ell(ell+1)) U, the clock phases
P = diag(exp(i 2 pi flux / N)) and the clock shift Q = U^T."""

import numpy as np
import pytest

from gauge_oracle import clock_matrix
from lgtlab.linkalg import spin_gauge_ops, su2_ops, u1_ops, zn_ops


def test_u1_basics():
    ops = u1_ops(1)
    assert ops.local_dim == 3
    L, U = np.diag(ops.flux), ops.U[0][0]
    zero = np.zeros(3); zero[1] = 1.0            # |m=0>
    assert np.allclose(L @ zero, 0.0)
    top = np.zeros(3); top[2] = 1.0              # |m=1>
    assert np.allclose(U @ zero, top)            # U|0> = |1>
    assert np.allclose(U @ top, 0.0)             # hard truncation


@pytest.mark.parametrize("cutoff", [1, 2, 4])
def test_u1_commutator_defect_localized(cutoff):
    # hard truncation keeps [L,U] = U exact (both sides vanish on the top
    # state); what the cutoff breaks is unitarity, with the defect of
    # norm 1 pinned to |m| = cutoff regardless of cutoff size
    ops = u1_ops(cutoff)
    L, U = np.diag(ops.flux), ops.U[0][0]
    defect = L @ U - U @ L - U
    for m in range(-cutoff, cutoff + 1):
        v = np.zeros(ops.local_dim)
        v[m + cutoff] = 1.0
        assert np.allclose(defect @ v, 0.0)
    unit_defect = U.T @ U - np.eye(ops.local_dim)
    assert np.linalg.norm(unit_defect, 2) == pytest.approx(1.0)
    top = np.zeros(ops.local_dim)
    top[-1] = 1.0
    assert np.linalg.norm(unit_defect @ top) == pytest.approx(1.0)
    for m in range(-cutoff, cutoff):
        v = np.zeros(ops.local_dim)
        v[m + cutoff] = 1.0
        assert np.allclose(unit_defect @ v, 0.0)


def test_spin_gauge_ladder():
    ops = spin_gauge_ops(1)
    assert ops.local_dim == 3
    unorm = ops.U[0][0]
    low = np.zeros(3); low[0] = 1.0              # |1,-1>
    mid = np.zeros(3); mid[1] = 1.0              # |1,0>
    top = np.zeros(3); top[2] = 1.0
    # sqrt(1 - m(m+1)/(l(l+1))) at m=-1 equals 1
    assert np.allclose(unorm @ low, mid)
    assert np.allclose(unorm @ top, 0.0)
    assert np.allclose(ops.flux, [-1, 0, 1])


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_spin_gauge_su2_algebra(ell):
    ops = spin_gauge_ops(ell)
    Lp = np.sqrt(ell * (ell + 1)) * ops.U[0][0]
    Lm, Lz = Lp.T, np.diag(ops.flux)
    assert np.allclose(Lp.conj().T, Lm)
    assert np.allclose(Lz @ Lp - Lp @ Lz, Lp)            # [Lz, L+] = L+
    assert np.allclose(Lp @ Lm - Lm @ Lp, 2 * Lz)        # [L+, L-] = 2Lz
    casimir = Lz @ Lz + (Lp @ Lm + Lm @ Lp) / 2
    assert np.allclose(casimir, ell * (ell + 1) * np.eye(ops.local_dim))


def test_zn_algebra_n3():
    ops = zn_ops(3)
    P, Q = clock_matrix(ops), ops.U[0][0].T
    delta = 2 * np.pi / 3
    plus = np.zeros(3, dtype=complex); plus[2] = 1.0       # |m=1>
    minus = np.zeros(3, dtype=complex); minus[0] = 1.0     # |m=-1>
    assert np.allclose(P @ plus, np.exp(1j * delta) * plus)
    assert np.allclose(Q @ minus, plus)                    # cyclic wrap
    assert np.allclose(P.conj().T @ Q @ P, np.exp(1j * delta) * Q)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_zn_unitarity_and_cyclicity(n):
    ops = zn_ops(n)
    P, Q = clock_matrix(ops), ops.U[0][0].T
    eye = np.eye(n)
    assert np.allclose(P @ P.conj().T, eye)
    assert np.allclose(Q @ Q.conj().T, eye)
    pn = np.linalg.matrix_power(P, n)
    qn = np.linalg.matrix_power(Q, n)
    assert np.allclose(pn, eye, atol=1e-12)
    assert np.allclose(qn, eye, atol=1e-12)
    # exact restatement of the defining relation
    delta = 2 * np.pi / n
    assert np.linalg.norm(P @ Q - np.exp(-1j * delta) * Q @ P) < 1e-12


def test_zn_phases_converge_to_u1():
    # P eigenvalue on a fixed |m> is exp(i m 2pi/N) for every N
    for m in (-1, 0, 1):
        for n in (3, 5, 9, 101):
            ops = zn_ops(n)
            idx = m + (n - 1) // 2
            val = clock_matrix(ops)[idx, idx]
            assert val == pytest.approx(np.exp(1j * m * 2 * np.pi / n))


def test_zn_rejects_tiny():
    with pytest.raises(ValueError):
        zn_ops(1)


def test_real_link_operators_are_float64():
    # every link matrix and per-label table is real in the flux basis
    for ops in (u1_ops(2), spin_gauge_ops(2), zn_ops(3), zn_ops(4),
                su2_ops(0.5)):
        tables = {"flux": ops.flux, "electric": ops.electric}
        for a, row in enumerate(ops.U):
            tables.update({f"U[{a}][{b}]": u for b, u in enumerate(row)})
        for name, mat in tables.items():
            assert mat.dtype == np.float64, (ops.model, name)
