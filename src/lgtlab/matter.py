"""Fermionic matter on lattice vertices via ordered antisymmetrization.

Modes are ordered by (vertex index, species index) following the lattice's
lexicographic vertex order; the Jordan-Wigner string runs along this single
global order.  All creation/annihilation matrices act on the 2^modes
occupation space (bit 0 = mode 0 = most significant position in the tensor
product), and satisfy the canonical anticommutation relations exactly.

Layouts:

* staggered:      one species per vertex, particles on even vertices and
                  antiparticles (holes) on odd ones,
* naive2d:        two species per vertex forming a two-component spinor,
* su2fundamental: two color components per vertex coupled to SU(2) links.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .lattice import staggered_sign

STAGGERED = "staggered"
NAIVE2D = "naive2d"
SU2_FUNDAMENTAL = "su2fundamental"

_SPECIES = {STAGGERED: 1, NAIVE2D: 2, SU2_FUNDAMENTAL: 2}

MAX_MODES = 16

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])   # c|1> = |0>


@dataclass
class FermionLayout:
    scheme: str
    lattice: object
    n_modes: int
    annihilators: list = field(repr=False)     # sparse matrices, mode order

    @property
    def species_per_vertex(self):
        return _SPECIES[self.scheme]

    @property
    def dim(self):
        return 2 ** self.n_modes

    def mode_index(self, vertex, species=0):
        return vertex * self.species_per_vertex + species

    def c(self, vertex, species=0):
        return self.annihilators[self.mode_index(vertex, species)]

    def cdag(self, vertex, species=0):
        return self.c(vertex, species).conj().T.tocsr()

    def number(self, vertex, species=0):
        c = self.c(vertex, species)
        return (c.conj().T @ c).tocsr()


def _jordan_wigner(n_modes):
    """Annihilation matrices c_j = Z x ... x Z x lower x 1 x ... x 1."""
    eye = sparse.identity(2, format="csr")
    z = sparse.csr_matrix(_PAULI_Z)
    low = sparse.csr_matrix(_LOWER)
    ops = []
    for j in range(n_modes):
        factors = [z] * j + [low] + [eye] * (n_modes - j - 1)
        m = factors[0]
        for f in factors[1:]:
            m = sparse.kron(m, f, format="csr")
        ops.append(m.astype(complex))
    return ops


def fermion_ops(lat, scheme):
    """Jordan-Wigner fermion layout for a lattice and species scheme."""
    if scheme not in _SPECIES:
        raise ValueError(f"unknown matter scheme {scheme!r}")
    if scheme == NAIVE2D and lat.spatial_dim != 2:
        raise ValueError("naive2d matter requires a 2d lattice")
    n_modes = lat.vertex_count * _SPECIES[scheme]
    if n_modes > MAX_MODES:
        raise ValueError(
            f"{n_modes} fermionic modes exceed the configured limit {MAX_MODES}")
    return FermionLayout(scheme, lat, n_modes, _jordan_wigner(n_modes))


def charge_shift(layout, vertex):
    """The constant c in Q_n = (occupied modes at vertex n) - c.

    Staggered: (1 - (-1)^n)/2, so Q_n has eigenvalues {0, +1} on even
    vertices and {-1, 0} on odd ones (an occupied even vertex carries a
    particle of charge +1, a vacant odd vertex an antiparticle of charge
    -1).  Naive: 1, for Q_n = psi^dag psi - 1 of the two-component spinor.
    """
    if layout.scheme == STAGGERED:
        return 0 if staggered_sign(layout.lattice.vertices[vertex]) == 1 \
            else 1
    if layout.scheme == NAIVE2D:
        return 1
    raise ValueError("the two-color charge is not diagonal in the "
                     "occupation basis")


_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def su2_charge(layout, vertex, axis):
    """Color charge Q^a = (1/2) psi^dag sigma^a psi at a vertex.

    The two species are the color components (index 0 = up).  Empty and
    doubly occupied vertices are charge singlets.
    """
    if layout.scheme != SU2_FUNDAMENTAL:
        raise ValueError("su2_charge needs the su2fundamental scheme")
    s = _SIGMA[axis]
    out = None
    for i in range(2):
        for j in range(2):
            if s[i, j] == 0:
                continue
            term = 0.5 * s[i, j] * (layout.cdag(vertex, i) @ layout.c(vertex, j))
            out = term if out is None else out + term
    return out.tocsr()


def charge_operator(layout, vertex, axis=None):
    """Charge operator of a vertex: the occupied modes at the vertex minus
    charge_shift (staggered, naive), or the color charge Q^axis (SU(2))."""
    if layout.scheme == SU2_FUNDAMENTAL:
        return su2_charge(layout, vertex, axis)
    n = sum(layout.number(vertex, s)
            for s in range(layout.species_per_vertex))
    shift = float(charge_shift(layout, vertex))
    return (n - shift * sparse.identity(layout.dim, format="csr")).tocsr()


def dirac_sea_state(layout):
    """Index of the no-particle reference state: odd vertices fully
    occupied, even vertices empty.  Every staggered / SU(2) charge
    vanishes on it."""
    if layout.scheme == NAIVE2D:
        raise ValueError("naive fermions have no staggered Dirac-sea state")
    lat = layout.lattice
    bits = 0
    for v, coords in enumerate(lat.vertices):
        occupied = staggered_sign(coords) == -1
        for s in range(layout.species_per_vertex):
            bits = (bits << 1) | (1 if occupied else 0)
    return bits


def occupation_bits(layout, basis_index):
    """Occupation tuple (mode order) of a computational basis index."""
    return tuple((basis_index >> (layout.n_modes - 1 - j)) & 1
                 for j in range(layout.n_modes))
