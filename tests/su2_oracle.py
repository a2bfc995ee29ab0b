"""The SU(2) Gauss law built axis by axis: the oracle the charge rows and
raising operator of ``lgtlab.gauge`` (``charge_rows``,
``gauss_raising``) and the check ``lgtlab.hamiltonian.max_gauss_violation``
are compared against.

Each of the three components G^a = sum_out L^a - sum_in R^a - Q^a of a
vertex is summed from full-space embeddings of link generators built here
from the spin-j matrices, not read from the link set, and the Gauss check
forms h @ g - g @ h for every one of them.  Also the generators read back
from a link set's tables, and the representation tables that
``lgtlab.su2rep`` is checked with: a precomputed Clebsch-Gordan table and
the fixed-spin subspace of the two-mode Schwinger-boson Fock space, the
rotation matrix summed entry by entry over its Clebsch-Gordan series
(``lgtlab.su2rep`` builds it from Clebsch-Gordan blocks), and the
strong-coupling string state formed by the recursion over full-space
products that ``lgtlab.observables.strong_coupling_ground`` replaces by a
contraction on the vacuum vector.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag

from jw_oracle import PAULI
from lattice_oracle import incidence
from lgtlab import matter as matter_mod
from lgtlab.gauge import charge_rows, gauss_raising
from lgtlab.su2rep import _check_triangle, _half_range, _j_values, cg, \
    link_labels, spin_matrices


def su2_charge(layout, vertex, axis):
    """Color charge Q^a = (1/2) psi^dag sigma^a psi at a vertex, as a list
    of (coeff, factors) terms of c^dag_i c_j.

    The two species are the color components (index 0 = up).  Empty and
    doubly occupied vertices are charge singlets.
    """
    if layout.scheme != matter_mod.SU2_FUNDAMENTAL:
        raise ValueError("su2_charge needs the su2fundamental scheme")
    s = PAULI[axis]
    return [(0.5 * s[i, j], matter_mod.hop(layout.factor(vertex, i),
                                           layout.factor(vertex, j)))
            for i in range(2) for j in range(2) if s[i, j] != 0]


def link_generators(j_max):
    """The left and right generators of the |j m m'> link space by axis
    x, y, z, built here from su2rep.spin_matrices and not from the link
    set: L^a = (T^a)^T (x) 1 and R^a = 1 (x) T^a on each j block."""
    blocks = [(spin_matrices(j), np.eye(round(2 * j) + 1))
              for j in _j_values(j_max)]
    L, R = {}, {}
    for axis, k in (("z", 0), ("x", 3), ("y", 4)):
        L[axis] = block_diag(*(np.kron(T[k].T, eye) for T, eye in blocks))
        R[axis] = block_diag(*(np.kron(eye, T[k]) for T, eye in blocks))
    return L, R


def set_generators(ops):
    """The left and right generators read from an SU(2) link set's tables,
    by axis x, y, z, p, m: G^z is half the set's `gauss` row, G^+ =
    G^x + i G^y its ladder and G^- = (G^+)^T.  The left algebra's G^+ is
    L_m = L^x + i L^y (its sign convention is flipped), the right one's
    R_p."""
    gens = []
    for side, (up_key, down_key) in enumerate(("mp", "pm")):
        up = ops.ladders[side]
        down = up.T
        gens.append({"x": (up + down) / 2, "y": (up - down) / 2j,
                     "z": np.diag(ops.gauss[side] / 2),
                     up_key: up, down_key: down})
    return tuple(gens)


def gauss_generators_su2(space, j_max):
    """Three generators per vertex: sum_out L^a - sum_in R^a - Q^a, with
    the link generators of link_generators(j_max)."""
    lat = space.lattice
    left, right = link_generators(j_max)
    gens = []
    for v, (out_links, in_links) in enumerate(incidence(lat)):
        triple = []
        for axis in "xyz":
            g = None
            for l in out_links:
                t = space.embed([(1.0, [(l, left[axis])])])
                g = t if g is None else g + t
            for l in in_links:
                t = space.embed([(1.0, [(l, right[axis])])])
                g = -t if g is None else g - t
            if g is None:
                g = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
            if space.layout is not None:
                for coeff, factors in su2_charge(space.layout, v, axis):
                    g = g - coeff * space.embed([(1.0, factors)])
            triple.append(g.tocsr())
        gens.append(triple)
    return gens


def max_gauss_violation(generators, h):
    """max |h @ g - g @ h| over every vertex and component."""
    return max(float(abs(h @ g - g @ h).max())
               for triple in generators for g in triple)


def derived_generators_su2(space):
    """Three generators per vertex, G^x, G^y, G^z, derived from lgtlab's
    Gauss law: G^x = (G^+ + G^-)/2, G^y = (G^+ - G^-)/2i with G^+ from
    gauss_raising and G^- = (G^+)^dag, and G^z half the vertex's charge
    row (2 G^z in half units)."""
    gens = []
    for v, row in enumerate(charge_rows(space, space.labels)):
        raising = gauss_raising(space, v)
        lowering = raising.conj().T
        gens.append([((raising + lowering) / 2).tocsr(),
                     ((raising - lowering) / 2j).tocsr(),
                     space.diagonal_op(row / 2)])
    return gens


@dataclass(frozen=True)
class CGTable:
    """All CG coefficients with j1, j2, J <= j_cap, keyed by
    (j1, m1, j2, m2, J, M)."""

    j_cap: float
    table: dict = field(repr=False)

    def __call__(self, j1, m1, j2, m2, J, M):
        return self.table.get((j1, m1, j2, m2, J, M), 0.0)


def build_cg_table(j_cap):
    table = {}
    for j1 in _j_values(j_cap):
        for j2 in _j_values(j_cap):
            for J in _j_values(j_cap):
                if not _check_triangle(j1, j2, J):
                    continue
                for m1 in _half_range(j1):
                    for m2 in _half_range(j2):
                        M = m1 + m2
                        if abs(M) > J:
                            continue
                        c = cg(j1, m1, j2, m2, J, M)
                        if c != 0.0:
                            table[(j1, m1, j2, m2, J, M)] = c
    return CGTable(j_cap, table)


def rotation_matrix_entries(j_max, j):
    """entries[a][b] of U^j on the link space of J_max (m = j - a,
    m' = j - b), each element sqrt((2J+1)/(2K+1)) <J M j m|K N>
    <J M' j m'|K N'> added to zero in its own loop iteration."""
    index = {label: i for i, label in enumerate(link_labels(j_max))}
    dim = len(index)
    ms = list(reversed(_half_range(j)))
    entries = [[np.zeros((dim, dim)) for _ in ms] for _ in ms]
    for a, m in enumerate(ms):
        for b, mp in enumerate(ms):
            mat = entries[a][b]
            for J in _j_values(j_max):
                for K in _j_values(j_max):
                    if not _check_triangle(J, j, K):
                        continue
                    pref = np.sqrt((2 * J + 1) / (2 * K + 1))
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
                            row = index[(K, N, Np)]
                            col = index[(J, M, Mp)]
                            mat[row, col] += pref * cl * cr
    return entries


def fixed_ell_subspace(n_max, ell):
    """Isometry (columns) from the spin-ell multiplet, ordered by increasing
    L_z, into the two-mode Fock space with a^dag a + b^dag b = 2*ell."""
    d = n_max + 1
    if 2 * ell > n_max:
        raise ValueError("n_max too small for requested ell")
    cols = []
    for m in range(-ell, ell + 1):
        na = ell + m
        nb = ell - m
        v = np.zeros(d * d)
        v[na * d + nb] = 1.0
        cols.append(v)
    return np.array(cols).T


def su2_chain(space, U, links, a, b):
    """Matrix of (U_{l1} U_{l2} ... U_{lR})_{ab} with index contraction,
    for the 2x2 entries U of U^{1/2} (index 0 is m = 1/2, 1 is -1/2)."""
    if len(links) == 1:
        return space.embed([(1.0, [(links[0], U[a][b])])])
    total = None
    for mid in range(2):
        head = space.embed([(1.0, [(links[0], U[a][mid])])])
        tail = su2_chain(space, U, links[1:], mid, b)
        term = head @ tail
        total = term if total is None else total + term
    return total


def su2_string_state(model, links):
    """(U_1 U_2 ... U_R)_{m m'} |vacuum> summed over m, m' and normalized:
    the SU(2) string along `links`, the vacuum itself (every link in the
    singlet |0 0 0>, matter in the Dirac sea) when there are none."""
    space = model.space
    singlet = link_labels(model.spec.truncation).index((0, 0, 0))
    matter = [] if space.layout is None \
        else matter_mod.dirac_sea_state(space.layout)
    psi = space.basis_vector(space.encode([singlet] * space.n_links
                                          + matter))
    if not links:
        return psi
    out = np.zeros_like(psi)
    for a in range(2):
        for b in range(2):
            out += su2_chain(space, space.linkops.U, links, a, b) @ psi
    return out / np.linalg.norm(out)
