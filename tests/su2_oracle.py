"""The SU(2) Gauss law built axis by axis: the oracle the label-row and
raising-operator form of ``lgtlab.gauge.su2_gauss_law`` and the check
``lgtlab.hamiltonian.max_gauss_violation`` are compared against.

Each of the three components G^a = sum_out L^a - sum_in R^a - Q^a of a
vertex is summed from full-space embeddings, and the Gauss check forms
h @ g - g @ h for every one of them.
"""

from scipy import sparse

from lgtlab import matter as matter_mod

def su2_charge(layout, vertex, axis):
    """Color charge Q^a = (1/2) psi^dag sigma^a psi at a vertex, as a list
    of (coeff, factors) terms of c^dag_i c_j.

    The two species are the color components (index 0 = up).  Empty and
    doubly occupied vertices are charge singlets.
    """
    if layout.scheme != matter_mod.SU2_FUNDAMENTAL:
        raise ValueError("su2_charge needs the su2fundamental scheme")
    s = matter_mod._SIGMA[axis]
    return [(0.5 * s[i, j], matter_mod.hop(layout.factor(vertex, i),
                                           layout.factor(vertex, j)))
            for i in range(2) for j in range(2) if s[i, j] != 0]


def gauss_generators_su2(space, link_space):
    """Three generators per vertex: sum_out L^a - sum_in R^a - Q^a."""
    lat = space.lattice
    gens = []
    for v in range(lat.vertex_count):
        out_links, in_links = lat.links_at_vertex(v)
        triple = []
        for axis in "xyz":
            g = None
            for l in out_links:
                t = space.embed([(l, link_space.L[axis])])
                g = t if g is None else g + t
            for l in in_links:
                t = space.embed([(l, link_space.R[axis])])
                g = -t if g is None else g - t
            if g is None:
                g = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
            if space.layout is not None:
                for coeff, factors in su2_charge(space.layout, v, axis):
                    g = g - coeff * space.embed(factors)
            triple.append(g.tocsr())
        gens.append(triple)
    return gens


def max_gauss_violation(generators, h):
    """max |h @ g - g @ h| over every vertex and component."""
    return max(float(abs(h @ g - g @ h).max())
               for triple in generators for g in triple)
