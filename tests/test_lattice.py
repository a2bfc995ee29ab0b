import dataclasses

import numpy as np
import pytest

import lattice_oracle as oracle
from lgtlab.lattice import OPEN, PERIODIC, build_lattice, diagonal_link_pairs


@pytest.mark.parametrize("dim,sizes,boundary,nv,nl,np_", [
    (1, [4], OPEN, 4, 3, 0),
    (2, [2, 2], OPEN, 4, 4, 1),
    (2, [3, 3], PERIODIC, 9, 18, 9),
    (1, [5], PERIODIC, 5, 5, 0),
    (2, [3, 2], OPEN, 6, 7, 2),
])
def test_counts(dim, sizes, boundary, nv, nl, np_):
    lat = build_lattice(dim, sizes, boundary)
    assert lat.vertex_count == nv
    assert lat.link_count == nl
    assert len(lat.plaquettes) == np_


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        build_lattice(3, [2, 2, 2])
    with pytest.raises(ValueError):
        build_lattice(1, [1])
    with pytest.raises(ValueError):
        build_lattice(2, [2])
    with pytest.raises(ValueError):
        build_lattice(2, [2, 2], "twisted")


def test_index_roundtrip():
    lat = build_lattice(2, [3, 4], OPEN)
    for i, coords in enumerate(lat.vertices):
        assert oracle.vertex_at(lat, coords) == i
    for l, (v, k) in enumerate(lat.links):
        assert lat.link_from[v, k] == l
        assert oracle.link_index(lat, lat.vertices[v], k) == l


@pytest.mark.parametrize("coords,sign", [
    ((0, 0), 1), ((1, 0), -1), ((1, 1), 1), ((0,), 1), ((3,), -1),
    ((2, 1), -1),
])
def test_staggered_sign(coords, sign):
    lat = build_lattice(len(coords), [4] * len(coords))
    assert lat.stagger[oracle.vertex_at(lat, coords)] == sign


def test_plaquette_closure():
    # traversing the four links with their orientation flags returns home
    for boundary in (OPEN, PERIODIC):
        lat = build_lattice(2, [3, 3], boundary)
        for plq in lat.plaquettes:
            pos = lat.ends[plq[0]][0]
            for l, fwd in zip(plq, oracle.FORWARD):
                a, b = lat.ends[l]
                if fwd:
                    assert a == pos
                    pos = b
                else:
                    assert b == pos
                    pos = a
            assert pos == lat.ends[plq[0]][0]


def test_link_plaquette_borders():
    # periodic: every link borders exactly two plaquettes; open: boundary
    # links border one
    lat = build_lattice(2, [3, 3], PERIODIC)
    count = [0] * lat.link_count
    for plq in lat.plaquettes:
        for l in plq:
            count[l] += 1
    assert all(c == 2 for c in count)

    lat = build_lattice(2, [3, 3], OPEN)
    count = [0] * lat.link_count
    for plq in lat.plaquettes:
        for l in plq:
            count[l] += 1
    assert set(count) == {1, 2}


def test_diagonal_pairs_single_plaquette():
    lat = build_lattice(2, [2, 2], OPEN)
    pairs = diagonal_link_pairs(lat)
    # one direction-1 times direction-2 pair at each of the four corners
    assert len(pairs) == 4
    for a, b, v in pairs:
        assert lat.links[a][1] == 1 and lat.links[b][1] == 2


# every lattice shape the suite builds (tests, CLI configs and bench
# workloads), plus the open and periodic 2x3 and 6x4
SHAPES = [(1, [n], OPEN) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 25)] \
    + [(1, [n], PERIODIC) for n in (2, 3, 4, 5, 6, 8)] \
    + [(2, list(s), b) for b in (OPEN, PERIODIC)
       for s in ((2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (4, 2), (4, 3),
                 (5, 5), (6, 4))]


@pytest.mark.parametrize("dim,sizes,boundary", SHAPES, ids=[
    "x".join(map(str, sizes)) + "-" + boundary for _, sizes, boundary in SHAPES])
def test_tables_match_coordinate_oracle(dim, sizes, boundary):
    lat = build_lattice(dim, sizes, boundary)
    ends = oracle.ends(lat)
    assert list(lat.links) == oracle.link_pairs(lat)
    assert list(lat.ends) == ends
    assert lat.link_from == {(v, k): l for l, (v, k) in enumerate(lat.links)}
    for v, c in enumerate(lat.vertices):
        for k in range(1, dim + 1):
            assert lat.link_from.get((v, k)) == oracle.link_index(lat, c, k)
    assert list(lat.incident) == oracle.incidence(lat)
    assert list(lat.plaquettes) == oracle.plaquettes(lat)
    for plq in lat.plaquettes:
        # the traversal closes: forward along l1, l2 and back along l3, l4
        pos = start = ends[plq[0]][0]
        for l, fwd in zip(plq, oracle.FORWARD):
            a, b = ends[l] if fwd else ends[l][::-1]
            assert a == pos
            pos = b
        assert pos == start
    assert lat.stagger.dtype == np.int8
    assert list(lat.stagger) == [oracle.parity(c) for c in lat.vertices]
    assert diagonal_link_pairs(lat) == oracle.diagonal_pairs(lat)


def test_stagger_refuses_writes():
    lat = build_lattice(2, [2, 2])
    with pytest.raises(ValueError):
        lat.stagger[0] = -1
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.stagger = np.zeros(4, np.int8)
    assert lat.stagger[0] == 1
