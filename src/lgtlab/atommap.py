"""The cold-atom <-> gauge-theory dictionary.

Verifies the identities that let hyperfine-conserving atomic collisions
stand in for local gauge invariance:

* S-wave scattering matrix elements between an F=2 boson and an F=3/2
  fermion, built from Clebsch-Gordan products over the total-F channels;
  total m_F conservation is structural.
* Channel enumeration under the static level Hamiltonian: level energies
  are arranged so that exactly the link-matrix processes conserve energy,
  provided the two Rabi scales are nondegenerate (Omega1 != Omega2 and
  2 Omega1 != Omega2).
* The 2x2 boson bilinear matrix on the five-level link space and its
  identification with the truncated rotation matrix under the even/odd
  relabelings (M = U on even links, M^dag = U on odd ones).
* F=1 spinor-condensate projectors P0, P2 with couplings g0, g2.
* The Schwinger-boson interaction identity c^dag L_+ d + d^dag L_- c =
  c^dag a^dag b d + d^dag b^dag a c.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linkalg, su2rep
from .su2rep import cg, spin_matrices

F_BOSON = 2.0
F_FERMION = 1.5

# mapped hyperfine levels of the four fermionic species
M_F_EVEN = {0: -1.5, 1: 1.5}     # psi_1, psi_2 on even vertices
M_F_ODD = {0: 0.5, 1: -0.5}      # chi_1, chi_2 on odd vertices


@dataclass(frozen=True)
class HyperfineLevelScheme:
    """Level energies of the static Hamiltonian H_Omega.

    Boson level m sits at -sign(m) * Omega_|m| (a tilted ladder: positive-m
    levels below the m = 0 reference, negative-m above); even-vertex
    fermions psi_1/psi_2 at +-(Omega1 + Omega2)/2, odd-vertex chi_1/chi_2
    at +-(Omega1 - Omega2)/2.
    """

    omega1: float
    omega2: float

    def validate(self):
        if abs(self.omega1 - self.omega2) < 1e-12:
            raise ValueError("degenerate level scheme: Omega1 = Omega2")
        if abs(2 * self.omega1 - self.omega2) < 1e-12:
            raise ValueError("degenerate level scheme: 2 Omega1 = Omega2")
        return self

    def boson_energy(self, m):
        if m == 0:
            return 0.0
        omega = self.omega1 if abs(m) == 1 else self.omega2
        return -np.sign(m) * omega

    def fermion_energy(self, m_f, parity):
        if parity == "even":
            scale = 0.5 * (self.omega1 + self.omega2)
            return scale if m_f == -1.5 else -scale
        scale = 0.5 * (self.omega1 - self.omega2)
        return scale if m_f == 0.5 else -scale


def scattering_matrix_element(m_b_out, m_f_out, m_b_in, m_f_in, couplings):
    """<F_b m_b_out, F_f m_f_out| V_S |F_b m_b_in, F_f m_f_in> with
    F_b = F_BOSON and F_f = F_FERMION.

    couplings: map {F_total: C_F} over the allowed channels
    |F_b - F_f| <= F <= F_b + F_f.  Elements violating total-m_F
    conservation are structurally zero.
    """
    if abs((m_b_out + m_f_out) - (m_b_in + m_f_in)) > 1e-12:
        return 0.0
    M = m_b_in + m_f_in
    total = 0.0
    for F, C in couplings.items():
        total += C * cg(F_BOSON, m_b_out, F_FERMION, m_f_out, F, M) \
            * cg(F_BOSON, m_b_in, F_FERMION, m_f_in, F, M)
    return total


def total_f_channels():
    """The total-F channels |F_b - F_f| .. F_b + F_f of the boson-fermion
    pair."""
    lo = abs(F_BOSON - F_FERMION)
    return [lo + i for i in range(round(F_BOSON + F_FERMION - lo) + 1)]


def enumerate_channels(scheme, parity="even"):
    """All (m_b, m_f) -> (m_b', m_f') transitions conserving total m_F and
    the static level energy, for fermion hopping onto the given parity
    vertex (incoming fermion lives on the opposite parity).

    Returns a list of dicts with the channel data, its level-energy gap
    and the `allowed` flag (True on every listed channel).
    """
    return [c for c in _transitions(scheme, parity) if c["allowed"]]


def channel_table(scheme, couplings):
    """Every (m_b, m_f) -> (m_b', m_f') transition, hops onto even vertices
    first, as (m_b, m_f, m_b', m_f', amplitude, allowed): its S-wave
    amplitude under `couplings` (scattering_matrix_element) and whether
    enumerate_channels lists it."""
    return [(c["m_b_in"], c["m_f_in"], c["m_b_out"], c["m_f_out"],
             complex(scattering_matrix_element(
                 c["m_b_out"], c["m_f_out"], c["m_b_in"], c["m_f_in"],
                 couplings)), c["allowed"])
            for parity in ("even", "odd")
            for c in _transitions(scheme, parity)]


def _transitions(scheme, parity):
    """Every (m_b, m_f) -> (m_b', m_f') transition of a hop onto the given
    parity vertex, in loop order, as a dict with its level-energy gap and
    whether it is allowed: total m_F and the static level energy are both
    conserved."""
    scheme.validate()
    src = M_F_ODD if parity == "even" else M_F_EVEN
    dst = M_F_EVEN if parity == "even" else M_F_ODD
    src_parity = "odd" if parity == "even" else "even"
    for m_b_in, f_in, m_b_out, f_out in product(
            range(-2, 3), src.values(), range(-2, 3), dst.values()):
        e_in = scheme.boson_energy(m_b_in) + \
            scheme.fermion_energy(f_in, src_parity)
        e_out = scheme.boson_energy(m_b_out) + \
            scheme.fermion_energy(f_out, parity)
        yield {"m_b_in": m_b_in, "m_f_in": f_in,
               "m_b_out": m_b_out, "m_f_out": f_out,
               "energy_gap": e_out - e_in,
               "allowed": abs((m_b_out + f_out) - (m_b_in + f_in)) <= 1e-12
               and abs(e_out - e_in) < 1e-9}


# ---------------------------------------------------------------------------
# the M matrix and its identification with the truncated rotation matrix
# ---------------------------------------------------------------------------

def _single_atom_bilinears():
    """b_m^dag b_m' restricted to the single-atom subspace: |m><m'| on the
    five boson levels ordered m = -2 ... 2."""
    def e(m, mp):
        out = np.zeros((5, 5), dtype=complex)
        out[m + 2, mp + 2] = 1.0
        return out
    return e


def m_matrix():
    """The 2x2 link matrix of boson bilinears on the 5-level space,
    M = (1/sqrt 2) [[b2+ b0 + b0+ b-2, -b1+ b0 + b0+ b-1],
                    [-b-1+ b0 + b0+ b1, b0+ b2 + b-2+ b0]]."""
    e = _single_atom_bilinears()
    s = 1.0 / np.sqrt(2.0)
    return [
        [s * (e(2, 0) + e(0, -2)), s * (-e(1, 0) + e(0, -1))],
        [s * (-e(-1, 0) + e(0, 1)), s * (e(0, 2) + e(-2, 0))],
    ]


def _level_map(mapping):
    """Signed basis map boson level -> (sign, link-space state (j, m, mp))."""
    if mapping == "even":
        return {
            2: (1.0, (0.5, 0.5, 0.5)),
            1: (-1.0, (0.5, 0.5, -0.5)),
            0: (1.0, (0.0, 0.0, 0.0)),
            -1: (-1.0, (0.5, -0.5, 0.5)),
            -2: (1.0, (0.5, -0.5, -0.5)),
        }
    if mapping == "odd":
        return {
            2: (1.0, (0.5, -0.5, -0.5)),
            1: (1.0, (0.5, 0.5, -0.5)),
            0: (1.0, (0.0, 0.0, 0.0)),
            -1: (1.0, (0.5, -0.5, 0.5)),
            -2: (1.0, (0.5, 0.5, 0.5)),
        }
    raise ValueError(f"mapping must be 'even' or 'odd', got {mapping!r}")


def build_m_and_verify(mapping="even"):
    """Relabel the M matrix onto the |j m m'> basis and compare with the
    truncated rotation matrix of linkalg.su2_ops at J_max = 1/2.

    Returns (M entries in the link basis, max deviation), where the
    deviation is ||M - U||_max for the even mapping and ||M^dag - U||_max
    for the odd one.
    """
    U = linkalg.su2_ops(0.5).U
    labels = su2rep.link_labels(0.5)
    levels = _level_map(mapping)
    S = np.zeros((5, 5), dtype=complex)   # link basis <- boson basis
    for m_b, (sign, state) in levels.items():
        S[labels.index(state), m_b + 2] = sign
    M = m_matrix()
    mapped = [[S @ M[i][j] @ S.conj().T for j in range(2)] for i in range(2)]

    dev = 0.0
    for i in range(2):
        for j in range(2):
            if mapping == "even":
                d = np.max(np.abs(mapped[i][j] - U[i][j]))
            else:
                d = np.max(np.abs(mapped[j][i].conj().T - U[i][j]))
            dev = max(dev, float(d))
    return mapped, dev


# ---------------------------------------------------------------------------
# F=1 spinor projectors
# ---------------------------------------------------------------------------

def f1_projectors(a0=1.0, a2=1.0, mass=1.0):
    """Two-atom F=1 projectors P0 = (1 - F1.F2)/3, P2 = (F1.F2 + 2)/3 on
    the bosonic (symmetric) subspace, and the couplings
    g0 = 4 pi (2 a2 + a0)/(3 m), g2 = 4 pi (a2 - a0)/(3 m).
    """
    if mass <= 0 or a0 <= 0 or a2 <= 0:
        raise ValueError("scattering lengths and mass must be positive")
    Tz, Tp, Tm, Tx, Ty = spin_matrices(1.0)
    eye = np.eye(3)
    fdotf = sum(np.kron(T, T) for T in (Tx, Ty, Tz))
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[i * 3 + j, j * 3 + i] = 1.0
    sym = (np.eye(9) + swap) / 2.0
    p0 = (np.eye(9) - fdotf) / 3.0 @ sym
    p2 = (fdotf + 2.0 * np.eye(9)) / 3.0 @ sym
    g0 = 4.0 * np.pi * (2.0 * a2 + a0) / (3.0 * mass)
    g2 = 4.0 * np.pi * (a2 - a0) / (3.0 * mass)
    return {"P0": p0, "P2": p2, "g0": g0, "g2": g2, "FdotF": fdotf,
            "sym": sym}


# ---------------------------------------------------------------------------
# Schwinger-boson interaction identity
# ---------------------------------------------------------------------------

def schwinger_interaction_check(n_max):
    """Deviation of c^dag L_+ d + d^dag L_- c from c^dag a^dag b d +
    d^dag b^dag a c on the (bosons x two-fermion-mode) space.

    The identity is definitional (L_+ = a^dag b); the returned deviation is
    a machine-zero check.  Also returns commutators with the conserved
    quantities: total boson number and ellhat.
    """
    sw = su2rep.schwinger_u1(n_max)
    bdim = sw["a"].shape[0]
    # two fermionic modes c, d via Jordan-Wigner on the matter factor
    z = np.diag([1.0, -1.0])
    low = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.kron(low, np.eye(2)).astype(complex)
    d = np.kron(z, low).astype(complex)

    def both(bop, fop):
        return np.kron(bop, fop)

    eye_f = np.eye(4, dtype=complex)
    lhs = both(sw["Lp"], c.conj().T @ d) + both(sw["Lm"], d.conj().T @ c)
    rhs = both(sw["a"].conj().T @ sw["b"], c.conj().T @ d) + \
        both(sw["b"].conj().T @ sw["a"], d.conj().T @ c)
    deviation = float(np.max(np.abs(lhs - rhs)))

    ntot = both(sw["ntot"], eye_f)
    ellhat = both(sw["ellhat"], eye_f)
    comm_n = float(np.max(np.abs(ntot @ lhs - lhs @ ntot)))
    comm_ell = float(np.max(np.abs(ellhat @ lhs - lhs @ ellhat)))
    return {"deviation": deviation, "comm_total_number": comm_n,
            "comm_ellhat": comm_ell}

