"""Finite lattice geometry: vertices, directed links, plaquettes, index maps.

Gauge degrees of freedom live on directed links (vertex, direction); matter
lives on vertices.  Everything downstream (operator ordering, fermion
ordering, basis enumeration) refers to the deterministic orderings fixed
here: vertices are enumerated lexicographically (row-major, last coordinate
fastest) and links are enumerated per vertex, direction 1 before direction 2.
"""

from dataclasses import dataclass, field
from itertools import product


OPEN = "open"
PERIODIC = "periodic"


@dataclass(frozen=True)
class Plaquette:
    """Unit square of four link indices, ordered by the traversal convention:
    links 1 and 2 are traversed forward, links 3 and 4 in reverse."""

    links: tuple          # (l1, l2, l3, l4) link indices
    forward: tuple = (True, True, False, False)


@dataclass
class Lattice:
    spatial_dim: int
    sizes: tuple
    boundary: str
    vertices: tuple = field(repr=False)        # coordinate tuples, lexicographic
    links: tuple = field(repr=False)           # (vertex_index, direction k in 1..d)
    plaquettes: tuple = field(repr=False)
    _link_lookup: dict = field(repr=False, default_factory=dict)
    _outgoing: tuple = field(repr=False, default=())
    _incoming: tuple = field(repr=False, default=())

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def link_count(self):
        return len(self.links)

    @property
    def plaquette_count(self):
        return len(self.plaquettes)

    def vertex_index(self, coords):
        """Lexicographic index of a vertex coordinate tuple."""
        coords = tuple(int(c) % s if self.boundary == PERIODIC else int(c)
                       for c, s in zip(coords, self.sizes))
        idx = 0
        for c, s in zip(coords, self.sizes):
            if not 0 <= c < s:
                raise ValueError(f"coordinate {coords} outside lattice")
            idx = idx * s + c
        return idx

    def link_index(self, coords, k):
        """Index of the link emanating from `coords` in direction k (1-based)."""
        key = (self.vertex_index(coords), k)
        try:
            return self._link_lookup[key]
        except KeyError:
            raise ValueError(f"no link at {coords} in direction {k}") from None

    def link_endpoints(self, link_idx):
        """(origin vertex index, target vertex index) of a link."""
        v, k = self.links[link_idx]
        coords = list(self.vertices[v])
        coords[k - 1] += 1
        if self.boundary == PERIODIC:
            coords[k - 1] %= self.sizes[k - 1]
        return v, self.vertex_index(tuple(coords))

    def links_at_vertex(self, v):
        """(outgoing, incoming) link indices at vertex index v."""
        return self._outgoing[v], self._incoming[v]


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
    vidx = {c: i for i, c in enumerate(vertices)}

    links = []
    for c in vertices:
        for k in range(1, spatial_dim + 1):
            if boundary == OPEN and c[k - 1] == sizes[k - 1] - 1:
                continue
            links.append((vidx[c], k))
    links = tuple(links)

    lat = Lattice(spatial_dim, sizes, boundary, vertices, links, ())
    lat._link_lookup = {lk: i for i, lk in enumerate(links)}
    outgoing = [[] for _ in vertices]
    incoming = [[] for _ in vertices]
    for i in range(len(links)):
        a, b = lat.link_endpoints(i)
        outgoing[a].append(i)
        incoming[b].append(i)
    lat._outgoing = tuple(tuple(o) for o in outgoing)
    lat._incoming = tuple(tuple(o) for o in incoming)

    plaquettes = []
    if spatial_dim == 2:
        for c in vertices:
            x, y = c
            if boundary == OPEN and (x == sizes[0] - 1 or y == sizes[1] - 1):
                continue
            # traversal n -> n+x -> n+x+y -> n+y -> n
            l1 = lat.link_index((x, y), 1)
            l2 = lat.link_index((x + 1, y), 2)
            l3 = lat.link_index((x, y + 1), 1)
            l4 = lat.link_index((x, y), 2)
            plaquettes.append(Plaquette((l1, l2, l3, l4)))
    lat.plaquettes = tuple(plaquettes)
    return lat


def staggered_sign(coords):
    """(-1)^(sum of coordinates): +1 on even vertices, -1 on odd ones."""
    return 1 if sum(coords) % 2 == 0 else -1


def diagonal_link_pairs(lat):
    """Pairs of links of different direction sharing a vertex.

    Each pair is returned once as (link_a, link_b, shared_vertex) with
    link_a in direction 1 and link_b in direction 2.  These are the
    perpendicular neighbors between which single-atom hopping acts.
    """
    pairs = []
    for v in range(lat.vertex_count):
        out, inc = lat.links_at_vertex(v)
        touching = sorted(set(out) | set(inc))
        dir1 = [i for i in touching if lat.links[i][1] == 1]
        dir2 = [i for i in touching if lat.links[i][1] == 2]
        for a in dir1:
            for b in dir2:
                pairs.append((a, b, v))
    return pairs
