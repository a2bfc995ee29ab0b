"""Fermionic matter on lattice vertices via ordered antisymmetrization.

Modes are ordered by (vertex index, species index) following the lattice's
lexicographic vertex order; the Jordan-Wigner string runs along this single
global order.  Each mode is a 2-state tensor factor of the product space
(|0> empty, |1> occupied), placed after the lattice's links in mode order,
so a fermion bilinear c^dag_a c_b is a list of 2x2 local matrices on mode
factors (``hop``), embedded by ``ProductSpace.embed`` as one
(coefficient, factors) piece or applied to a sector's states by
``ProductSpace.shift`` like any link operator; no 2^modes matrix is built.
Occupations and charges are read from the occupation-bit rows of a label
table that the caller passes in (``ProductSpace.vertex_occupations``).

Layouts:

* staggered:      one species per vertex, particles on even vertices and
                  antiparticles (holes) on odd ones,
* naive2d:        two species per vertex forming a two-component spinor,
* su2fundamental: two color components per vertex coupled to SU(2) links.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import staggered_sign

STAGGERED = "staggered"
NAIVE2D = "naive2d"
SU2_FUNDAMENTAL = "su2fundamental"

_SPECIES = {STAGGERED: 1, NAIVE2D: 2, SU2_FUNDAMENTAL: 2}

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])   # c|1> = |0>
_RAISE = _LOWER.T


@dataclass
class FermionLayout:
    scheme: str
    lattice: object
    n_modes: int

    @property
    def species_per_vertex(self):
        return _SPECIES[self.scheme]

    def mode_index(self, vertex, species=0):
        return vertex * self.species_per_vertex + species

    def factor(self, vertex, species=0):
        """Tensor-factor position of a mode: after the lattice's links."""
        return self.lattice.link_count + self.mode_index(vertex, species)


def hop(a, b):
    """c^dag_a c_b as (factor, 2x2 matrix) pairs, for the mode factors a
    and b: raising on a, Pauli Z on every mode strictly between them (the
    Jordan-Wigner string), lowering on b; the number operator when a == b.
    """
    lo, hi = sorted((a, b))
    return ([(a, _RAISE)] + [(k, _PAULI_Z) for k in range(lo + 1, hi)]
            + [(b, _LOWER)])


def fermion_ops(lat, scheme):
    """Fermion layout for a lattice and species scheme."""
    if scheme not in _SPECIES:
        raise ValueError(f"unknown matter scheme {scheme!r}")
    if scheme == NAIVE2D and lat.spatial_dim != 2:
        raise ValueError("naive2d matter requires a 2d lattice")
    return FermionLayout(scheme, lat, lat.vertex_count * _SPECIES[scheme])


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
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def dirac_sea_state(layout):
    """Occupation labels, in mode order, of the no-particle reference
    state: odd vertices fully occupied, even vertices empty.  Every
    staggered / SU(2) charge vanishes on it."""
    if layout.scheme == NAIVE2D:
        raise ValueError("naive fermions have no staggered Dirac-sea state")
    return [int(staggered_sign(coords) == -1)
            for coords in layout.lattice.vertices
            for _ in range(layout.species_per_vertex)]
