"""Jordan-Wigner matrices on the 2^modes occupation space: the oracle the
per-mode tensor factors of ``lgtlab.matter`` are checked against.

Every mode's annihilator is c_j = Z x ... x Z x lower x 1 x ... x 1 over
the modes in layout order (mode 0 the most significant bit), and a
full-space operator with matter is the product of its link factors times
one occupation-space matrix, the matter being the last tensor factor.
"""

from itertools import product

import numpy as np
from scipy import sparse

from lattice_oracle import ends, parity
from lgtlab import matter as matter_mod
from lgtlab.hamiltonian import DIAGONAL_TERMS, OFF_DIAGONAL_TERMS
from lgtlab.tensor import ProductSpace

_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])   # c|1> = |0>
PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": _PAULI_Z,
}


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


class JordanWigner:
    """c, c^dag and n of every mode of a FermionLayout as 2^modes
    matrices."""

    def __init__(self, layout):
        self.layout = layout
        self.dim = 2 ** layout.n_modes
        self.annihilators = _jordan_wigner(layout.n_modes)

    def c(self, vertex, species=0):
        return self.annihilators[self.layout.mode_index(vertex, species)]

    def cdag(self, vertex, species=0):
        return self.c(vertex, species).conj().T.tocsr()

    def number(self, vertex, species=0):
        c = self.c(vertex, species)
        return (c.conj().T @ c).tocsr()


def charge_operator(jw, vertex):
    """Occupied modes at the vertex minus a shift: (1 - (-1)^n)/2 for
    staggered fermions (a vacant odd vertex holds an antiparticle of
    charge -1), 1 for the naive two-component spinor."""
    n = sum(jw.number(vertex, s)
            for s in range(jw.layout.species_per_vertex))
    if jw.layout.scheme == matter_mod.SU2_FUNDAMENTAL:
        raise ValueError("the two-color charge is not diagonal in the "
                         "occupation basis")
    if jw.layout.scheme == matter_mod.NAIVE2D:
        shift = 1.0
    else:
        shift = float(parity(jw.layout.lattice.vertices[vertex]) < 0)
    return (n - shift * sparse.identity(jw.dim, format="csr")).tocsr()


def su2_charge(jw, vertex, axis):
    """Color charge Q^a = (1/2) psi^dag sigma^a psi at a vertex."""
    s = PAULI[axis]
    return sum(0.5 * s[i, j] * (jw.cdag(vertex, i) @ jw.c(vertex, j))
               for i, j in product(range(2), repeat=2) if s[i, j] != 0)


def occupation_bits(layout, basis_index):
    """Occupation tuple (mode order) of an occupation-space index."""
    return tuple((basis_index >> (layout.n_modes - 1 - j)) & 1
                 for j in range(layout.n_modes))


def embed_matter(space, op, factors=()):
    """The product of the link factors times the occupation-space
    operator `op`, on the full space."""
    links = ProductSpace(space.lattice, space.linkops)
    return sparse.kron(links.embed([(1.0, factors)]), op, format="csr")


def gauge_matter_pieces(model):
    """(coeff, link factors, occupation-space operator) of every piece of
    the gauge-matter term, with the fermion bilinears built from the
    Jordan-Wigner matrices."""
    spec, space, lat = model.spec, model.space, model.lattice
    if spec.eps == 0.0:
        return
    jw = JordanWigner(space.layout)
    for l, (a, b) in enumerate(ends(lat)):
        if spec.matter == matter_mod.NAIVE2D:
            s = PAULI["x" if lat.links[l][1] == 1 else "y"]
            ferm = sum(s[i, j] * (jw.cdag(a, i) @ jw.c(b, j))
                       for i in range(2) for j in range(2) if s[i, j] != 0)
            yield spec.eps, [(l, 1j * space.linkops.U[0][0])], ferm
        elif spec.model == "su2":
            for i, j in product(range(2), repeat=2):
                yield (spec.eps, [(l, space.linkops.U[i][j])],
                       jw.cdag(a, i) @ jw.c(b, j))
        else:
            yield (spec.eps, [(l, space.linkops.U[0][0])],
                   jw.cdag(a) @ jw.c(b))


def mass_diagonal(model):
    """Staggered m sum (-1)^n n_n or naive M sum (n_up - n_down), from the
    Jordan-Wigner number matrices."""
    spec, lat = model.spec, model.lattice
    jw = JordanWigner(model.space.layout)
    ferm = sparse.csr_matrix((jw.dim, jw.dim), dtype=complex)
    for v in range(lat.vertex_count):
        if spec.matter == matter_mod.NAIVE2D:
            ferm = ferm + jw.number(v, 0) - jw.number(v, 1)
        else:
            sign = parity(lat.vertices[v])
            for species in range(jw.layout.species_per_vertex):
                ferm = ferm + sign * jw.number(v, species)
    return spec.mass * embed_matter(model.space, ferm).diagonal().real


def hamiltonian(model):
    """The full-space H = D + T + T^dag of the model's default terms, summed
    as Model.hamiltonian sums them, with the gauge-matter pieces and the
    mass built from the Jordan-Wigner matrices."""
    space = model.space
    diag = np.zeros(space.dim)
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    data = [np.zeros(0, dtype=complex)]
    for t in model.effective_terms():
        if t == "mass":
            diag += mass_diagonal(model)
        elif t in DIAGONAL_TERMS:
            diag += DIAGONAL_TERMS[t](model, space.labels)
        elif t == "gauge_matter":
            for coeff, factors, ferm in gauge_matter_pieces(model):
                piece = (coeff * embed_matter(space, ferm, factors)).tocoo()
                rows.append(piece.row)
                cols.append(piece.col)
                data.append(piece.data)
        else:
            for coeff, factors in OFF_DIAGONAL_TERMS[t](model):
                piece = (coeff * space.embed([(1.0, factors)])).tocoo()
                rows.append(piece.row)
                cols.append(piece.col)
                data.append(piece.data)
    off = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim, space.dim)).tocsr()
    return (off + off.conj().T + space.diagonal_op(diag)).tocsr()
