"""SU(2) representation machinery for the truncated non-Abelian link space.

Contents:

* Clebsch-Gordan coefficients in the Condon-Shortley convention, computed
  from the Racah closed form with exact integer/fraction arithmetic and
  emitted as floats.
* The truncated link space spanned by |j m m'> for j = 0, 1/2, ..., J_max
  as tables, each a function of J_max: the (j, m, m') labels; the ladders
  of the commuting left and right SU(2) algebras, the left generators
  acting on the m index and the right ones on the m' index, with the sign
  conventions of the left/right split of the link algebra,
  [L_i, L_j] = -i eps_ijk L_k and [R_i, R_j] = +i eps_ijk R_k; the
  entries of the gauge-covariant (but non-unitary) rotation matrix U^j,
  built by Clebsch-Gordan sums over representation pairs (J, K) truncated
  at J_max; and the measured defect of its trace identity.

  Each call builds its arrays afresh; linkalg.su2_ops builds the link set
  from them once per J_max and shares it.
* Two-mode Schwinger-boson and four-mode prepotential realizations of the
  same algebras on Fock spaces, used as independent cross-checks and as the
  operator content of the atomic constructions.
"""

from fractions import Fraction
from math import factorial, sqrt

import numpy as np
from scipy.linalg import block_diag


def _is_half_integer(x):
    return abs(2 * x - round(2 * x)) < 1e-12


def _check_triangle(j1, j2, j3):
    return (abs(j1 - j2) <= j3 <= j1 + j2) and _is_half_integer(j1 + j2 + j3) \
        and abs((j1 + j2 + j3) - round(j1 + j2 + j3)) < 1e-12


def cg(j1, m1, j2, m2, J, M):
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | J M> (Condon-Shortley).

    Evaluated through the Racah algebraic sum with Fraction arithmetic, so
    the only floating-point step is the final square root.  Selection-rule
    violations return exactly 0.0.
    """
    for j, m in ((j1, m1), (j2, m2), (J, M)):
        if not (_is_half_integer(j) and _is_half_integer(m)):
            raise ValueError("angular momenta must be integers or half-integers")
        if abs(m) > j + 1e-12 or not _is_half_integer(j - m) or \
                abs((j - m) - round(j - m)) > 1e-12:
            return 0.0
    if abs(M - (m1 + m2)) > 1e-12:
        return 0.0
    if not _check_triangle(j1, j2, J):
        return 0.0

    def f(x):
        n = round(x)
        if n < 0:
            raise ValueError("negative factorial argument")
        return Fraction(factorial(n))

    pre = Fraction(round(2 * J + 1)) * f(j1 + j2 - J) * f(j1 - j2 + J) * \
        f(-j1 + j2 + J) / f(j1 + j2 + J + 1)
    pre *= f(J + M) * f(J - M) * f(j1 - m1) * f(j1 + m1) * \
        f(j2 - m2) * f(j2 + m2)

    kmin = max(0, round(j2 - J - m1), round(j1 + m2 - J))
    kmax = min(round(j1 + j2 - J), round(j1 - m1), round(j2 + m2))
    s = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = f(k) * f(j1 + j2 - J - k) * f(j1 - m1 - k) * \
            f(j2 + m2 - k) * f(J - j2 + m1 + k) * f(J - j1 - m2 + k)
        s += Fraction((-1) ** k) / denom
    if s == 0:
        return 0.0
    val = sqrt(float(pre)) * float(s)
    return val


def _half_range(j):
    """m values -j ... j in steps of one."""
    n = round(2 * j) + 1
    return [-j + i for i in range(n)]


def _j_values(j_cap):
    return [q / 2.0 for q in range(round(2 * j_cap) + 1)]


def spin_matrices(j):
    """Standard spin-j matrices (T_z, T_plus, T_minus, T_x, T_y) on the
    basis |j, m> with m increasing."""
    d = round(2 * j) + 1
    m = np.array(_half_range(j), dtype=float)
    Tz = np.diag(m)
    Tp = np.zeros((d, d))
    for i in range(d - 1):
        Tp[i + 1, i] = sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    Tm = Tp.T
    Tx = (Tp + Tm) / 2.0
    Ty = (Tp - Tm) / 2.0j
    return Tz, Tp, Tm, Tx, Ty


def link_labels(j_max):
    """The (j, m, m') labels of the link states |j m m'>, j = 0 ... J_max,
    ordered by (j, m, m')."""
    if j_max < 0 or not _is_half_integer(j_max):
        raise ValueError("j_max must be a non-negative half-integer")
    return [(j, m, mp) for j in _j_values(j_max)
            for m in _half_range(j) for mp in _half_range(j)]


def link_ladders(j_max):
    """The ladders L^x + i L^y and R^x + i R^y of the link space, one block
    per j.  Left generators act on m with transposed spin-j matrices and
    right generators on m' untransposed, so the left ladder is T_- (x) 1
    and the right one 1 (x) T_+."""
    blocks = [(spin_matrices(j), np.eye(round(2 * j) + 1))
              for j in _j_values(j_max)]
    return (block_diag(*(np.kron(T[2], eye) for T, eye in blocks)),
            block_diag(*(np.kron(eye, T[1]) for T, eye in blocks)))


def rotation_entries(j_max, j):
    """The entries of the rotation matrix U^j on the link space of J_max,
    from the Clebsch-Gordan series: entries[a][b] is the matrix of
    U^j_{m m'} with m = j - a and m' = j - b (row index a runs over
    decreasing m).

    U^j_{mm'} = sum_{J <= J_max} sum_{K=|J-j|..J+j, K <= J_max}
                sqrt((2J+1)/(2K+1)) u^j_{mm'}(J,K)
    where u maps the J sector into the K sector with CG weights
    <J j M m|K M+m> on the left index and <J j M' m'|K M'+m'> on the right.
    Block by block: for each allowed (J, K), block (K, J) of the entry
    (m, m') is pref C_m (x) C_m', with C_m the Clebsch-Gordan matrix
    <J M j m|K N> (rows N, columns M) and pref = sqrt((2J+1)/(2K+1)).
    """
    if j > j_max + 1e-12:
        raise ValueError("representation label j exceeds J_max")
    labels = link_labels(j_max)
    dim = len(labels)
    block = {J: slice(labels.index((J, -J, -J)), labels.index((J, J, J)) + 1)
             for J in _j_values(j_max)}
    ms = list(reversed(_half_range(j)))   # m = j ... -j

    entries = [[np.zeros((dim, dim)) for _ in ms] for _ in ms]
    for J in _j_values(j_max):
        for K in _j_values(j_max):
            if not _check_triangle(J, j, K):
                continue
            pref = sqrt((2 * J + 1) / (2 * K + 1))
            C = [np.array([[cg(J, M, j, m, K, N) for M in _half_range(J)]
                           for N in _half_range(K)]) for m in ms]
            # + 0.0 turns the -0.0 of a zero CG times a negative one into
            # the +0.0 of an entry no CG product reaches
            for a, left in enumerate(C):
                for b, right in enumerate(C):
                    entries[a][b][block[K], block[J]] = \
                        np.kron(pref * left, right) + 0.0
    return entries


def trace_defect(j_max, entries):
    """Scalar f and residual of tr(U^dag U) = (2j+1) - f P_{J_max} for the
    entries of U^j on the link space of J_max; f is measured from the
    matrices, never assumed."""
    top = np.array([j == j_max for j, _, _ in link_labels(j_max)])
    D = len(entries) * np.eye(len(top)) \
        - sum(e.conj().T @ e for row in entries for e in row)
    f = np.sum(D.diagonal() * top) / np.sum(top)
    np.fill_diagonal(D, D.diagonal() - f * top)
    return f, np.max(np.abs(D))


# ---------------------------------------------------------------------------
# Fock-space realizations
# ---------------------------------------------------------------------------

def boson_annihilators(n_modes, n_max):
    """Annihilation matrices for n_modes bosonic modes, each truncated at
    occupation n_max.  Mode 0 is the leftmost tensor factor."""
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1).astype(complex)
    return [np.kron(np.kron(np.eye(d ** i), a), np.eye(d ** (n_modes - 1 - i)))
            for i in range(n_modes)]


def schwinger_u1(n_max):
    """Two-mode Schwinger-boson representation of the spin-gauge algebra.

    Returns matrices on the (n_max+1)^2 Fock space:
    L_z = (a^dag a - b^dag b)/2, L_+ = a^dag b, L_- = b^dag a and the
    total-spin readout ellhat = (a^dag a + b^dag b)/2.  Restricted to the
    subspace of fixed total number 2*ell this reproduces spin_gauge_ops(ell)
    exactly.
    """
    a, b = boson_annihilators(2, n_max)
    na = a.conj().T @ a
    nb = b.conj().T @ b
    return {
        "a": a,
        "b": b,
        "Lz": (na - nb) / 2.0,
        "Lp": a.conj().T @ b,
        "Lm": b.conj().T @ a,
        "ellhat": (na + nb) / 2.0,
        "ntot": na + nb,
    }


def prepotential_decomposition(n_max):
    """Left/right oscillator-doublet (prepotential) link operators.

    Four modes (a1, a2 | b1, b2), each truncated at occupation n_max.
    Returns the 2x2 operator matrices U_L (number-normalized on the left)
    and U_R (on the right), their product U = U_L U_R, the excitation
    numbers N_L, N_R, the projector onto N_L = N_R, and the left/right
    SU(2) generators built from the two doublets.
    """
    a1, a2, b1, b2 = boson_annihilators(4, n_max)
    dim = a1.shape[0]
    NL = a1.conj().T @ a1 + a2.conj().T @ a2
    NR = b1.conj().T @ b1 + b2.conj().T @ b2

    # N_L and N_R are diagonal by construction
    inv_sqrt_NL1, inv_sqrt_NR1 = (
        np.diag(1.0 / np.sqrt(np.diag(n).real + 1.0)).astype(complex)
        for n in (NL, NR))

    UL = [[inv_sqrt_NL1 @ a1.conj().T, -inv_sqrt_NL1 @ a2],
          [inv_sqrt_NL1 @ a2.conj().T, inv_sqrt_NL1 @ a1]]
    UR = [[b1.conj().T @ inv_sqrt_NR1, b2.conj().T @ inv_sqrt_NR1],
          [-b2 @ inv_sqrt_NR1, b1 @ inv_sqrt_NR1]]
    U = [[UL[i][0] @ UR[0][j] + UL[i][1] @ UR[1][j] for j in range(2)]
         for i in range(2)]

    sigma = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    amodes = (a1, a2)
    bmodes = (b1, b2)
    L = {}
    R = {}
    for key, s in sigma.items():
        # left algebra uses the transposed Pauli contraction
        L[key] = sum(0.5 * s[jj, ii] * (amodes[ii].conj().T @ amodes[jj])
                     for ii in range(2) for jj in range(2))
        R[key] = sum(0.5 * s[ii, jj] * (bmodes[ii].conj().T @ bmodes[jj])
                     for ii in range(2) for jj in range(2))

    diagNL = np.diag(NL).real.round().astype(int)
    diagNR = np.diag(NR).real.round().astype(int)
    proj_equal = np.diag((diagNL == diagNR).astype(float)).astype(complex)

    return {
        "modes": {"a1": a1, "a2": a2, "b1": b1, "b2": b2},
        "U_L": UL,
        "U_R": UR,
        "U": U,
        "N_L": NL,
        "N_R": NR,
        "P_NL_eq_NR": proj_equal,
        "L": L,
        "R": R,
        "dim": dim,
    }
