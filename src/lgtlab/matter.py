"""Fermionic matter on lattice vertices via ordered antisymmetrization.

Modes are ordered by (vertex index, species index) following the lattice's
lexicographic vertex order; the Jordan-Wigner string runs along this single
global order.  Each mode is a 2-state tensor factor of the product space
(|0> empty, |1> occupied), placed after the lattice's links in mode order,
so a fermion bilinear c^dag_a c_b is a list of 2x2 local matrices on mode
factors (``hop``), embedded by ``ProductSpace.embed`` as one
(coefficient, factors) piece or applied to a sector's states by
``ProductSpace.shift`` like any link operator; no 2^modes matrix is built.

Each layout is described once, by tables that ``fermion_ops`` builds on
its ``FermionLayout`` and every reader reads with no branch on the scheme:
``gauss_base`` per vertex and ``gauss_columns`` per mode (what the empty
modes and each occupation bit add to the vertex's diagonal Gauss
generator, so Q_n = -(base + columns at the occupations)), ``mass_signs``
per mode (the mass term m sum sign n; the Dirac sea fills the modes of
negative sign) and ``hops`` per lattice axis (the species structure g of
the gauge-matter hop eps g_st psi^dag_{a, s r + i} U_ij psi_{b, t r + j}).

Layouts:

* staggered:      one species per vertex, particles on even vertices and
                  antiparticles (holes) on odd ones: base (1 - (-1)^n)/2,
* naive2d:        two species per vertex forming a two-component spinor:
                  Q_n = psi^dag psi - 1, mass sigma_z, hop i sigma_k,
* su2fundamental: two color components per vertex coupled to SU(2) links:
                  columns -1 (up) and +1 (down), 2 G^z in half units.
"""

from dataclasses import dataclass

import numpy as np

STAGGERED = "staggered"
NAIVE2D = "naive2d"
SU2_FUNDAMENTAL = "su2fundamental"

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])   # c|1> = |0>
_RAISE = _LOWER.T


@dataclass(eq=False)
class FermionLayout:
    """A matter layout's tables (see the module docstring), modes in
    (vertex, species) order."""

    scheme: str
    lattice: object
    species_per_vertex: int
    gauss_base: np.ndarray      # per vertex, int8
    gauss_columns: np.ndarray   # per mode, int8
    mass_signs: np.ndarray      # per mode, int8
    hops: tuple                 # per lattice axis

    @property
    def n_modes(self):
        return len(self.mass_signs)

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
    """The fermion layout of a species scheme on a lattice, its tables
    built once."""
    count, axes, stagger = lat.vertex_count, lat.spatial_dim, lat.stagger
    same = (np.ones((1, 1)),) * axes
    if scheme == STAGGERED:
        base, columns, signs, hops = (1 - stagger) // 2, [-1], stagger, same
    elif scheme == NAIVE2D:
        if axes != 2:
            raise ValueError("naive2d matter requires a 2d lattice")
        base, columns = np.ones(count, np.int8), [-1, -1]
        signs = np.tile(np.int8([1, -1]), count)
        hops = (np.array([[0, 1j], [1j, 0]]),          # i sigma_x
                np.array([[0.0, 1.0], [-1.0, 0.0]]))   # i sigma_y
    elif scheme == SU2_FUNDAMENTAL:
        base, columns = np.zeros(count, np.int8), [-1, 1]
        signs, hops = np.repeat(stagger, 2), same
    else:
        raise ValueError(f"unknown matter scheme {scheme!r}")
    return FermionLayout(scheme, lat, len(columns), base,
                         np.tile(np.int8(columns), count), signs, hops)


def dirac_sea_state(layout):
    """Occupation labels, in mode order, of the no-particle reference
    state: exactly the modes of negative mass sign occupied, so odd
    vertices are full and even ones empty.  Every staggered / SU(2) charge
    vanishes on it."""
    if layout.scheme == NAIVE2D:
        raise ValueError("naive fermions have no staggered Dirac-sea state")
    return [int(sign < 0) for sign in layout.mass_signs]
