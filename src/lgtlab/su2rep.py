"""SU(2) representation machinery for the truncated non-Abelian link space.

Contents:

* Clebsch-Gordan coefficients in the Condon-Shortley convention, computed
  from the Racah closed form with exact integer/fraction arithmetic and
  emitted as floats.
* The truncated link space spanned by |j m m'> for j = 0, 1/2, ..., J_max,
  carrying commuting left and right SU(2) algebras: the left generators act
  on the m index, the right generators on the m' index.  The sign
  conventions follow the left/right split of the link algebra,
  [L_i, L_j] = -i eps_ijk L_k and [R_i, R_j] = +i eps_ijk R_k.
* The gauge-covariant (but non-unitary) rotation-matrix operators built by
  Clebsch-Gordan sums over representation pairs (J, K), truncated at J_max.

  The link space is built once per J_max and each rotation matrix once per
  (J_max, j); callers share them, so every array they hold is read-only
  and an attempt to write one raises ValueError.
* Two-mode Schwinger-boson and four-mode prepotential realizations of the
  same algebras on Fock spaces, used as independent cross-checks and as the
  operator content of the atomic constructions.
"""

from dataclasses import dataclass, field
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


@dataclass
class SU2LinkSpace:
    """Single-link Hilbert space of the truncated SU(2) theory.

    The basis states |j m m'> are ordered by (j, m, m').  Left generators
    L act on m, right generators R on m'; both Casimirs are diagonal with
    eigenvalue j(j+1).
    """

    j_max: float
    basis: list = field(repr=False)      # (j, m, mp) tuples
    index: dict = field(repr=False)
    L: dict = field(repr=False)          # axis -> matrix, axes "x","y","z","p","m"
    R: dict = field(repr=False)
    projectors: dict = field(repr=False)  # j -> P_j
    casimir: np.ndarray = field(repr=False)
    rotations: dict = field(default_factory=dict, repr=False)  # j -> U^j

    @property
    def local_dim(self):
        return len(self.basis)

    def state_index(self, j, m, mp):
        return self.index[(j, m, mp)]


_LINK_SPACES = {}


def su2_link_space(j_max):
    """The |j m m'> space with its left/right generator matrices, built on
    the first call for a J_max and shared after; its arrays are
    read-only."""
    if j_max < 0 or not _is_half_integer(j_max):
        raise ValueError("j_max must be a non-negative half-integer")
    if j_max not in _LINK_SPACES:
        _LINK_SPACES[j_max] = _build_link_space(j_max)
    return _LINK_SPACES[j_max]


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False


def _build_link_space(j_max):
    basis = []
    for j in _j_values(j_max):
        for m in _half_range(j):
            for mp in _half_range(j):
                basis.append((j, m, mp))
    index = {b: i for i, b in enumerate(basis)}
    js = np.array([j for j, _, _ in basis])

    # one block per j, the spin-j matrices by axis: left generators act on
    # m with transposed representation matrices, right generators on m'
    # untransposed, so the left ladders L_+- = L_x -+ i L_y hold T_-+^T and
    # the right ladders R_+- = R_x +- i R_y hold T_+-
    blocks = [(dict(zip("zpmxy", spin_matrices(j))), np.eye(round(2 * j) + 1))
              for j in _j_values(j_max)]
    flip = {"p": "m", "m": "p"}
    L = {k: block_diag(*(np.kron(T[flip.get(k, k)].T, eye)
                         for T, eye in blocks)) for k in "xyzpm"}
    R = {k: block_diag(*(np.kron(eye, T[k]) for T, eye in blocks))
         for k in "xyzpm"}
    projectors = {j: np.diag((js == j).astype(float))
                  for j in _j_values(j_max)}
    casimir = np.diag(js * (js + 1))
    _read_only([*L.values(), *R.values(), *projectors.values(), casimir])
    return SU2LinkSpace(j_max, basis, index, L, R, projectors, casimir)


@dataclass
class TruncatedRotationMatrix:
    """Operator-valued rotation matrix U^j on a truncated link space.

    entries[a][b] is the local_dim x local_dim matrix of U^j_{m m'} with
    m = j - a and m' = j - b (row index a runs over decreasing m).
    """

    j: float
    space: SU2LinkSpace
    entries: list = field(repr=False)

    def entry(self, m, mp):
        a = round(self.j - m)
        b = round(self.j - mp)
        return self.entries[a][b]

    def dagger(self):
        d = round(2 * self.j) + 1
        ent = [[self.entries[b][a].conj().T for b in range(d)] for a in range(d)]
        return TruncatedRotationMatrix(self.j, self.space, ent)

    def trace_udag_u(self):
        """Matrix of tr(U^dag U) = sum_{mm'} U_{mm'}^dag U_{mm'}."""
        return sum(e.conj().T @ e for row in self.entries for e in row)

    def measured_defect(self):
        """Scalar f and residual of tr(U^dag U) = (2j+1) - f P_{J_max}.

        f is measured from the constructed matrices, never assumed.
        """
        dim = self.space.local_dim
        D = (round(2 * self.j) + 1) * np.eye(dim) - self.trace_udag_u()
        P = self.space.projectors[self.space.j_max]
        f = (np.trace(P @ D) / np.trace(P)).real
        residual = np.max(np.abs(D - f * P))
        return f, residual


def truncated_rotation_matrix(space, j):
    """U^j on `space` from the Clebsch-Gordan series, built on the first
    call for a (space, j) and kept on the space after; its entries are
    read-only.

    U^j_{mm'} = sum_{J <= J_max} sum_{K=|J-j|..J+j, K <= J_max}
                sqrt((2J+1)/(2K+1)) u^j_{mm'}(J,K)
    where u maps the J sector into the K sector with CG weights
    <J j M m|K M+m> on the left index and <J j M' m'|K M'+m'> on the right.
    """
    if j > space.j_max + 1e-12:
        raise ValueError("representation label j exceeds J_max")
    if j not in space.rotations:
        space.rotations[j] = _build_rotation_matrix(space, j)
    return space.rotations[j]


def _build_rotation_matrix(space, j):
    dim = space.local_dim
    d = round(2 * j) + 1
    ms = list(reversed(_half_range(j)))   # m = j ... -j

    entries = [[np.zeros((dim, dim)) for _ in range(d)]
               for _ in range(d)]
    for a, m in enumerate(ms):
        for b, mp in enumerate(ms):
            mat = entries[a][b]
            for J in _j_values(space.j_max):
                for K in _j_values(space.j_max):
                    if not _check_triangle(J, j, K):
                        continue
                    pref = sqrt((2 * J + 1) / (2 * K + 1))
                    for M in _half_range(J):
                        N = M + m
                        if abs(N) > K:
                            continue
                        cl = cg(J, M, j, m, K, N)
                        if cl == 0.0:
                            continue
                        for Mp in _half_range(J):
                            Np = Mp + mp
                            if abs(Np) > K:
                                continue
                            cr = cg(J, Mp, j, mp, K, Np)
                            if cr == 0.0:
                                continue
                            row = space.state_index(K, N, Np)
                            col = space.state_index(J, M, Mp)
                            mat[row, col] += pref * cl * cr
    _read_only(e for row in entries for e in row)
    return TruncatedRotationMatrix(j, space, entries)


# ---------------------------------------------------------------------------
# Fock-space realizations
# ---------------------------------------------------------------------------

def boson_annihilators(n_modes, n_max):
    """Annihilation matrices for n_modes bosonic modes, each truncated at
    occupation n_max.  Mode 0 is the leftmost tensor factor."""
    d = n_max + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = sqrt(n)
    eye = np.eye(d)
    out = []
    for i in range(n_modes):
        factors = [eye] * n_modes
        factors[i] = a
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        out.append(m)
    return out


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

    inv_sqrt_NL1 = _func_of_hermitian(NL, lambda x: 1.0 / sqrt(x + 1.0))
    inv_sqrt_NR1 = _func_of_hermitian(NR, lambda x: 1.0 / sqrt(x + 1.0))

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


def _func_of_hermitian(mat, fn):
    """Apply a scalar function to a Hermitian matrix (here: diagonal number
    operators, so this is just a diagonal map)."""
    d = np.diag(mat)
    if np.max(np.abs(mat - np.diag(d))) < 1e-14:
        return np.diag([fn(x.real) for x in d]).astype(complex)
    w, v = np.linalg.eigh(mat)
    return (v * np.array([fn(x) for x in w])) @ v.conj().T
