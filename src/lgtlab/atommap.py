"""The cold-atom <-> gauge-theory dictionary.

Verifies the identities that let hyperfine-conserving atomic collisions
stand in for local gauge invariance:

* S-wave scattering matrix elements between an F=2 boson and an F=3/2
  fermion, built from Clebsch-Gordan products over the total-F channels;
  total m_F conservation is structural.
* The static level Hamiltonian as two tables (``HyperfineLevelScheme.levels``):
  the energy of each boson level, and per vertex parity the energy of its
  two fermion species.  ``channel_table`` enumerates every transition of
  both hop directions once and reads its energy gap from those tables:
  exactly the link-matrix processes conserve m_F and energy, provided the
  two Rabi scales are nondegenerate (Omega1 != Omega2 and
  2 Omega1 != Omega2).
* The 2x2 boson bilinear matrix on the five-level link space and its
  identification with the truncated rotation matrix under the even/odd
  relabelings (M = U on even links, M^dag = U on odd ones), each relabeling
  one signed table of ``_LEVEL_MAPS``.
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

    def levels(self):
        """The level tables of a valid scheme: {m_b: energy} over the five
        boson levels, and (even, odd) with {m_F: energy} over each vertex
        parity's two species in M_F_EVEN / M_F_ODD order."""
        self.validate()
        omega = {1: self.omega1, 2: self.omega2}
        bosons = {0: 0.0, **{m: -np.sign(m) * omega[abs(m)]
                             for m in (-2, -1, 1, 2)}}
        fermions = tuple(
            dict(zip(species.values(), (scale, -scale)))
            for species, scale in (
                (M_F_EVEN, 0.5 * (self.omega1 + self.omega2)),
                (M_F_ODD, 0.5 * (self.omega1 - self.omega2))))
        return bosons, fermions


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


def channel_table(scheme, couplings):
    """Every (m_b, m_f) -> (m_b', m_f') transition, hops from odd onto even
    vertices first, as (m_b, m_f, m_b', m_f', amplitude, allowed): its
    S-wave amplitude under `couplings` (scattering_matrix_element) and
    whether it conserves both total m_F and the static level energy."""
    bosons, (even, odd) = scheme.levels()
    return [(m_b, m_f, m_bp, m_fp,
             complex(scattering_matrix_element(m_bp, m_fp, m_b, m_f,
                                               couplings)),
             abs((m_bp + m_fp) - (m_b + m_f)) <= 1e-12
             and abs((bosons[m_bp] + dst[m_fp])
                     - (bosons[m_b] + src[m_f])) < 1e-9)
            for src, dst in ((odd, even), (even, odd))
            for m_b, m_f, m_bp, m_fp in product(range(-2, 3), src,
                                                range(-2, 3), dst)]


# ---------------------------------------------------------------------------
# the M matrix and its identification with the truncated rotation matrix
# ---------------------------------------------------------------------------

def m_matrix():
    """The 2x2 link matrix of boson bilinears on the 5-level space,
    M = (1/sqrt 2) [[b2+ b0 + b0+ b-2, -b1+ b0 + b0+ b-1],
                    [-b-1+ b0 + b0+ b1, b0+ b2 + b-2+ b0]]."""
    # b_m^dag b_m' on the single-atom subspace is |m><m'| = e[m + 2, m' + 2]
    e = np.eye(25, dtype=complex).reshape(5, 5, 5, 5)
    s = 1.0 / np.sqrt(2.0)
    return [
        [s * (e[4, 2] + e[2, 0]), s * (-e[3, 2] + e[2, 1])],
        [s * (-e[1, 2] + e[2, 3]), s * (e[2, 4] + e[0, 2])],
    ]


# signed basis map boson level -> (sign, link-space state (j, m, m')) of
# each relabeling
_LEVEL_MAPS = {
    "even": {
        2: (1.0, (0.5, 0.5, 0.5)),
        1: (-1.0, (0.5, 0.5, -0.5)),
        0: (1.0, (0.0, 0.0, 0.0)),
        -1: (-1.0, (0.5, -0.5, 0.5)),
        -2: (1.0, (0.5, -0.5, -0.5)),
    },
    "odd": {
        2: (1.0, (0.5, -0.5, -0.5)),
        1: (1.0, (0.5, 0.5, -0.5)),
        0: (1.0, (0.0, 0.0, 0.0)),
        -1: (1.0, (0.5, -0.5, 0.5)),
        -2: (1.0, (0.5, 0.5, 0.5)),
    },
}


def build_m_and_verify(mapping="even"):
    """Relabel the M matrix onto the |j m m'> basis and compare with the
    truncated rotation matrix of linkalg.su2_ops at J_max = 1/2.

    Returns (M entries in the link basis, max deviation), where the
    deviation is ||M - U||_max for the even mapping and ||M^dag - U||_max
    for the odd one.
    """
    if mapping not in _LEVEL_MAPS:
        raise ValueError(f"mapping must be 'even' or 'odd', got {mapping!r}")
    U = linkalg.su2_ops(0.5).U
    labels = su2rep.link_labels(0.5)
    S = np.zeros((5, 5), dtype=complex)   # link basis <- boson basis
    for m_b, (sign, state) in _LEVEL_MAPS[mapping].items():
        S[labels.index(state), m_b + 2] = sign
    M = m_matrix()
    mapped = [[S @ M[i][j] @ S.conj().T for j in range(2)] for i in range(2)]
    compared = mapped if mapping == "even" else \
        [[mapped[j][i].conj().T for j in range(2)] for i in range(2)]
    dev = max(float(np.max(np.abs(compared[i][j] - U[i][j])))
              for i in range(2) for j in range(2))
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
    Tz, _, _, Tx, Ty = spin_matrices(1.0)
    fdotf = sum(np.kron(T, T) for T in (Tx, Ty, Tz))
    swap = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]
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
    # two fermionic modes c, d via Jordan-Wigner on the matter factor
    z = np.diag([1.0, -1.0])
    low = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.kron(low, np.eye(2)).astype(complex)
    d = np.kron(z, low).astype(complex)

    eye_f = np.eye(4, dtype=complex)
    lhs = np.kron(sw["Lp"], c.conj().T @ d) + \
        np.kron(sw["Lm"], d.conj().T @ c)
    rhs = np.kron(sw["a"].conj().T @ sw["b"], c.conj().T @ d) + \
        np.kron(sw["b"].conj().T @ sw["a"], d.conj().T @ c)
    deviation = float(np.max(np.abs(lhs - rhs)))

    ntot = np.kron(sw["ntot"], eye_f)
    ellhat = np.kron(sw["ellhat"], eye_f)
    comm_n = float(np.max(np.abs(ntot @ lhs - lhs @ ntot)))
    comm_ell = float(np.max(np.abs(ellhat @ lhs - lhs @ ellhat)))
    return {"deviation": deviation, "comm_total_number": comm_n,
            "comm_ellhat": comm_ell}

