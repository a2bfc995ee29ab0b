"""Finite lattice geometry: vertices, directed links, plaquettes and their
incidence, every fact a table built once.

Gauge degrees of freedom live on directed links (vertex, direction); matter
lives on vertices.  Everything downstream (operator ordering, fermion
ordering, basis enumeration) refers to the deterministic orderings fixed
here: vertices are enumerated lexicographically (row-major, last coordinate
fastest) and links are enumerated per vertex, direction 1 before direction 2.

``build_lattice`` is the one place that does coordinate arithmetic: it
stores every geometric fact as a field of the frozen ``Lattice``, and every
reader indexes those tables.
"""

from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType

import numpy as np

OPEN = "open"
PERIODIC = "periodic"


@dataclass(frozen=True, eq=False)
class Lattice:
    """A lattice as its tables, built by build_lattice:

    vertices    coordinate tuple per vertex, lexicographic;
    links       (origin vertex, direction k in 1..d) per link;
    ends        (origin, target) vertex per link;
    link_from   {(vertex, k): the link leaving the vertex in direction k},
                read-only, with no key on an open far edge;
    incident    per vertex its (outgoing, incoming) links, in link order;
    stagger     (-1)^(sum of coordinates) per vertex, int8, read-only;
    plaquettes  (l1, l2, l3, l4) per unit square, traversed
                n -> n+x -> n+x+y -> n+y -> n: l1 and l2 forward, l3 and
                l4 in reverse.
    """

    spatial_dim: int
    sizes: tuple
    boundary: str
    vertices: tuple = field(repr=False)
    links: tuple = field(repr=False)
    ends: tuple = field(repr=False)
    link_from: MappingProxyType = field(repr=False)
    incident: tuple = field(repr=False)
    stagger: np.ndarray = field(repr=False)
    plaquettes: tuple = field(repr=False)

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def link_count(self):
        return len(self.links)


def build_lattice(spatial_dim, sizes, boundary=OPEN):
    """Build a 1d chain or 2d square lattice with deterministic orderings.

    Open boundaries omit the outgoing links on the far edge; periodic
    boundaries wrap them around.  Plaquettes exist only for spatial_dim = 2.
    """
    if spatial_dim not in (1, 2):
        raise ValueError(f"spatial_dim must be 1 or 2, got {spatial_dim}")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != spatial_dim:
        raise ValueError("one size per direction required")
    if any(s < 2 for s in sizes):
        raise ValueError("every direction needs at least 2 vertices")
    if boundary not in (OPEN, PERIODIC):
        raise ValueError(f"unknown boundary {boundary!r}")

    vertices = tuple(product(*[range(s) for s in sizes]))
    index = {c: i for i, c in enumerate(vertices)}

    def step(v, k):
        """The vertex one step from v in direction k; None past an open
        edge."""
        coords = list(vertices[v])
        coords[k - 1] += 1
        if boundary == PERIODIC:
            coords[k - 1] %= sizes[k - 1]
        return index.get(tuple(coords))

    links, ends = [], []
    for v, k in product(range(len(vertices)), range(1, spatial_dim + 1)):
        if (target := step(v, k)) is not None:
            links.append((v, k))
            ends.append((v, target))
    link_from = MappingProxyType({lk: l for l, lk in enumerate(links)})
    outgoing, incoming = [[] for _ in vertices], [[] for _ in vertices]
    for l, (a, b) in enumerate(ends):
        outgoing[a].append(l)
        incoming[b].append(l)
    stagger = np.array([1 - 2 * (sum(c) % 2) for c in vertices], np.int8)
    stagger.flags.writeable = False

    # n -> n+x -> n+x+y -> n+y -> n, wherever all four links exist
    squares = [(link_from.get((v, 1)), link_from.get((step(v, 1), 2)),
                link_from.get((step(v, 2), 1)), link_from.get((v, 2)))
               for v in range(len(vertices))] if spatial_dim == 2 else []
    return Lattice(spatial_dim, sizes, boundary, vertices, tuple(links),
                   tuple(ends), link_from,
                   tuple(zip(map(tuple, outgoing), map(tuple, incoming))),
                   stagger, tuple(s for s in squares if None not in s))


def diagonal_link_pairs(lat):
    """Pairs of links of different direction sharing a vertex.

    Each pair is returned once as (link_a, link_b, shared_vertex) with
    link_a in direction 1 and link_b in direction 2.  These are the
    perpendicular neighbors between which single-atom hopping acts.
    """
    pairs = []
    for v, (out, inc) in enumerate(lat.incident):
        touching = sorted(set(out) | set(inc))
        dir1 = [i for i in touching if lat.links[i][1] == 1]
        dir2 = [i for i in touching if lat.links[i][1] == 2]
        for a in dir1:
            for b in dir2:
                pairs.append((a, b, v))
    return pairs
