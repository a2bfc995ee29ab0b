"""Coordinate oracle for the lattice tables.

Every geometric fact is derived here from vertex coordinates on each call,
independently of the tables ``build_lattice`` stores: vertices row-major
(last coordinate fastest), a link per (vertex, direction) that has a
neighbor, in vertex order and direction 1 first, and plaquettes traversed
n -> n+x -> n+x+y -> n+y -> n.
"""

from lgtlab.lattice import PERIODIC

# the orientation of the four plaquette links along that traversal
FORWARD = (True, True, False, False)


def vertex_at(lat, coords):
    """Lexicographic index of a coordinate tuple, wrapped on a periodic
    lattice; None outside an open one."""
    if lat.boundary == PERIODIC:
        coords = tuple(c % s for c, s in zip(coords, lat.sizes))
    if not all(0 <= c < s for c, s in zip(coords, lat.sizes)):
        return None
    idx = 0
    for c, s in zip(coords, lat.sizes):
        idx = idx * s + c
    return idx


def shifted(coords, k, by=1):
    """`coords` moved by `by` steps in direction k (unwrapped)."""
    return tuple(c + by * (i == k - 1) for i, c in enumerate(coords))


def link_pairs(lat):
    """(origin vertex, direction) of every link, in link order."""
    return [(v, k) for v, c in enumerate(lat.vertices)
            for k in range(1, lat.spatial_dim + 1)
            if vertex_at(lat, shifted(c, k)) is not None]


def link_index(lat, coords, k):
    """The link leaving `coords` in direction k; None past an open edge."""
    pair = (vertex_at(lat, coords), k)
    pairs = link_pairs(lat)
    return pairs.index(pair) if pair in pairs else None


def ends(lat):
    """(origin, target) vertex of every link."""
    return [(v, vertex_at(lat, shifted(lat.vertices[v], k)))
            for v, k in link_pairs(lat)]


def incidence(lat):
    """Per vertex its (outgoing, incoming) links, in link order."""
    pairs = ends(lat)
    return [(tuple(l for l, (a, _) in enumerate(pairs) if a == v),
             tuple(l for l, (_, b) in enumerate(pairs) if b == v))
            for v in range(len(lat.vertices))]


def parity(coords):
    """(-1)^(sum of coordinates)."""
    return 1 if sum(coords) % 2 == 0 else -1


def plaquettes(lat):
    """(l1, l2, l3, l4) of every unit square whose four links exist, in
    vertex order of its corner n."""
    if lat.spatial_dim != 2:
        return []
    out = []
    for c in lat.vertices:
        square = (link_index(lat, c, 1), link_index(lat, shifted(c, 1), 2),
                  link_index(lat, shifted(c, 2), 1), link_index(lat, c, 2))
        if None not in square:
            out.append(square)
    return out


def diagonal_pairs(lat):
    """(direction-1 link, direction-2 link, vertex) for every two links
    of different direction touching a vertex, each list sorted by link."""
    pairs = []
    for v, c in enumerate(lat.vertices):
        touching = {k: sorted({link_index(lat, c, k),
                               link_index(lat, shifted(c, k, -1), k)}
                              - {None}) for k in (1, 2)}
        pairs += [(a, b, v) for a in touching[1] for b in touching[2]]
    return pairs
