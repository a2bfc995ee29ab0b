"""Gauss-law charges and gauge sectors, read from the label table.

For the Abelian families the generators are diagonal in the product basis
(flux eigenbasis x occupation basis), so a sector is a set of product
states, enumerated exactly and directly from the charge each tensor factor
adds (``sector_basis``, no full-space table); no linear algebra is
involved.  For SU(2) the three generators per vertex do not commute; the
Gauss law is checked as a commutator, from the G^z row of the label table
and one raising operator per vertex (``su2_gauss_law``).

Conventions:

* U(1)/spin-gauge:  G_n = sum_out L - sum_in L - Q_n, integer spectrum.
* Z_N:              G_n = prod_out P^dag prod_in P (x exp(i delta Q_n) with
                    matter), unitary with eigenvalues exp(-i delta m).
* SU(2):            G^a_n = sum_out L^a - sum_in R^a - Q^a_n; the three
                    components close the left-type algebra
                    [G^i, G^j] = -i eps_ijk G^k at each vertex.  G^z is
                    diagonal and read from the label table; x and y come
                    through the raising operator G^+ = G^x + i G^y and
                    G^- = (G^+)^dag (``su2_gauss_law``).
"""

from dataclasses import dataclass, field

import numpy as np

from . import linkalg, matter as matter_mod
from .solver import SolverError


@dataclass
class GaussSector:
    """A static-charge sector: the sorted product-basis `indices` of its
    states and their `labels` (ProductSpace.decode of the indices), which
    every diagonal read and label shift on the sector uses.  A merge of
    several sectors (merge_sectors) also sets `blocks`, the source sector
    of every state, and its `charges` are the source sectors' charges; H is
    block diagonal on it, one block per source.
    """

    charges: tuple
    dim_full: int
    indices: np.ndarray
    labels: np.ndarray = field(default=None, repr=False)
    blocks: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self):
        return len(self.indices)

    @property
    def is_empty(self):
        return self.dim == 0

    def diagonal_blocks(self, op):
        """The diagonal blocks of an operator on the sector's states, one
        per source sector in merge order: [op] itself when not merged."""
        if self.blocks is None:
            return [op]
        positions = [np.flatnonzero(self.blocks == b)
                     for b in range(len(self.charges))]
        return [op[pos][:, pos] for pos in positions]


# ---------------------------------------------------------------------------
# the Gauss law per state
# ---------------------------------------------------------------------------

def matter_charge_row(space, vertex, labels):
    """Matter charge Q_n of every state of a label table, staggered or
    naive, read from the occupation bits: occupied modes at the vertex
    minus matter.charge_shift."""
    q = space.vertex_occupations(vertex, labels).sum(axis=0, dtype=np.int8)
    q -= matter_mod.charge_shift(space.layout, vertex)
    return q


def zn_generator_phases(space):
    """exp(-i delta q) for q = 0 .. N-1: the Z_N generator eigenvalue of a
    state whose charge-table entry is q modulo N."""
    n = space.linkops.param
    return np.exp(-1j * (2.0 * np.pi / n) * np.arange(n))


def generator_eigenvalues(space, table):
    """The Gauss generator's eigenvalue per state, one row of a charge
    table (charge_rows) at a time: the charge itself on U(1)-type links,
    exp(-i delta q) of its residue q modulo N on Z_N links."""
    modulus = _zn_modulus(space)
    if modulus is None:
        return iter(table)
    phases = zn_generator_phases(space)
    return (phases[row % modulus] for row in table)


def _zn_modulus(space):
    """N on Z_N links, where charges count modulo N; None otherwise."""
    return space.linkops.param if space.linkops.model == linkalg.ZN \
        else None


def su2_gauss_law(space, link_space, vertex):
    """The SU(2) Gauss law G^a = sum_out L^a - sum_in R^a - Q^a at a vertex
    in two parts: the G^z eigenvalue of every state and the raising
    operator G^+ = G^x + i G^y.

    L^z, R^z and Q^z = (n_up - n_down)/2 are diagonal in the |j m m'> x
    occupation basis, so the z row is read from the label table.  G^+ sums
    one embedded term per out link (L^x + i L^y, the ladder L["m"]), per in
    link (-(R^x + i R^y), the ladder -R["p"]) and, with matter,
    -c^dag_up c_down in one COO pass; all of them are real, so G^+ is.
    """
    out_links, in_links = space.lattice.links_at_vertex(vertex)
    labels = space.labels
    L, R = link_space.L, link_space.R
    z = np.zeros(space.dim)
    for l in out_links:
        z += np.diag(L["z"])[labels[l]]
    for l in in_links:
        z -= np.diag(R["z"])[labels[l]]
    pieces = [(1.0, [(l, L["m"])]) for l in out_links] \
        + [(-1.0, [(l, R["p"])]) for l in in_links]
    if space.layout is not None:
        up, down = space.vertex_occupations(vertex, labels)
        z -= (up.astype(float) - down) / 2
        pieces.append((-1.0, matter_mod.hop(space.layout.factor(vertex, 0),
                                            space.layout.factor(vertex, 1))))
    return z, space.embed(pieces)


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

def abelian_charge_table(space):
    """Integer matrix (n_vertices x dim) of div(flux) - Q per basis state:
    charge_rows of the full-space label table, cached on the space."""
    return space.cached("abelian_charge_table",
                        lambda: charge_rows(space, space.labels))


def charge_rows(space, labels):
    """div(flux) - Q of every state of a label table, one row per vertex,
    in the narrowest signed integer that holds every entry: the base
    charges plus what each tensor factor's label adds (_gauss_plan)."""
    base, factors, lo, hi = _gauss_plan(space)
    lo, hi = base + lo[0], base + hi[0]
    dtype = np.min_scalar_type(-int(max(-lo.min(), hi.max(), 0)) - 1)
    table = np.repeat(base.astype(dtype)[:, None], labels.shape[1], axis=1)
    for (vertices, columns), row in zip(factors, labels):
        for v, column in zip(vertices, columns):
            table[v] += column.astype(dtype)[row]
    return table


def _gauss_plan(space):
    """The Abelian Gauss law factor by factor, built once per space: the
    charges div(flux) - Q of the state with every label 0 except the
    fluxes (the matter charge shifts); per tensor factor in the mixed-radix
    order its vertices and a (vertices, radix) array of what each of its
    labels adds at each of them; and lo[f], hi[f], the extremes of what
    the factors from f on can still add per vertex.  The charges and
    columns are int16, the partial charges' type in sector_basis, unless
    the base plus every factor's largest contribution does not fit it; then
    they are int64."""
    def build():
        lat = space.lattice
        flux = np.rint(space.linkops.flux_values).astype(np.int64)
        base = np.zeros(lat.vertex_count, dtype=np.int64)
        effects = [(list(lat.link_endpoints(l)), np.stack([flux, -flux]))
                   for l in range(space.n_links)]
        if space.layout is not None:
            base[:] = [matter_mod.charge_shift(space.layout, v)
                       for v in range(lat.vertex_count)]
            effects += [([j // space.layout.species_per_vertex],
                         np.array([[0, -1]])) for j in range(space.n_modes)]
        lo = np.zeros((len(effects) + 1, len(base)), dtype=np.int64)
        hi = lo.copy()
        for f in range(len(effects) - 1, -1, -1):
            vertices, columns = effects[f]
            lo[f], hi[f] = lo[f + 1], hi[f + 1]
            lo[f, vertices] += columns.min(axis=1)
            hi[f, vertices] += columns.max(axis=1)
        bound = np.abs(base).max() + sum(np.abs(c).max() for _, c in effects)
        dtype = np.int16 if bound <= np.iinfo(np.int16).max else np.int64
        factors = [(vertices, columns.astype(dtype))
                   for vertices, columns in effects]
        return base.astype(dtype), factors, lo, hi
    return space.cached("gauss_plan", build)


def sector_basis(space, charges):
    """Enumerate the Abelian Gauss sector with the given static charges.

    charges: one integer per vertex (on Z_N links interpreted modulo N,
    labeling the eigenvalue exp(-i delta q)).  Returns a GaussSector of
    the sorted product-state indices; empty sectors are valid results.

    The sector is built without the full space: partial states are extended
    one tensor factor at a time in the mixed-radix order (links, then
    occupation modes), each carrying its vertices' partial charges, and a
    partial state is dropped as soon as some vertex can no longer reach its
    target with the factors still unset.  Each factor moves a vertex's
    charge within an integer interval, so what the unset factors can still
    add is the interval [lo, hi] of the sums of their extremes; on Z_N
    links only the residue modulo N has to be reachable.  The kept states
    are decoded once, into the sector's label table.

    The indices are int64: a space with more product states than that
    holds raises SolverError before anything is enumerated.
    """
    lat = space.lattice
    charges = tuple(int(q) for q in charges)
    if len(charges) != lat.vertex_count:
        raise ValueError("one charge per vertex required")
    if space.linkops.model not in (linkalg.U1_TRUNCATED, linkalg.SPIN_GAUGE,
                                   linkalg.ZN):
        raise ValueError("sector enumeration needs Abelian links")
    if space.dim - 1 > np.iinfo(np.int64).max:
        raise SolverError(
            f"product space of {space.dim} states exceeds the int64 index "
            f"range of the sector enumeration")
    base, factors, lo, hi = _gauss_plan(space)
    # a vertex with charge c can still reach its target after the first f
    # factors when 0 <= target - lo[f] - c <= hi[f] - lo[f] (modulo N on
    # Z_N links)
    shift, span = np.array(charges, dtype=np.int64) - lo, hi - lo
    modulus = _zn_modulus(space)

    def reachable(charge, f, vertices):
        keep = True
        for v in vertices:
            need = shift[f, v] - charge[:, v]
            if modulus is not None:
                need %= modulus
            keep = keep & (need >= 0) & (need <= span[f, v])
        return keep

    charge = base[None, :]
    keep = reachable(charge, 0, range(lat.vertex_count))
    indices, charge = np.zeros(1, dtype=np.int64)[keep], charge[keep]
    for f, (vertices, columns) in enumerate(factors):
        radix = columns.shape[1]
        indices = (indices[:, None] * radix + np.arange(radix)).ravel()
        charge = charge.repeat(radix, axis=0)
        # factor f moves the charge, and lo and hi, only at its own
        # vertices: those columns are updated in place and re-checked,
        # every other vertex stays reachable
        per_label = charge.reshape(-1, radix, lat.vertex_count)
        for v, column in zip(vertices, columns):
            per_label[:, :, v] += column
        keep = reachable(charge, f + 1, vertices)
        indices, charge = indices[keep], charge[keep]
    return GaussSector(charges, space.dim, indices=indices,
                       labels=space.decode(indices))


def merge_sectors(sectors):
    """One sector holding the states of several, in sorted
    index order, their label columns taken along, with `blocks` giving each
    state's source sector (the position in `sectors`); a single sector is
    returned as it is.

    The sectors must have distinct charges, so no state is in two; H
    assembled on the merge is then block diagonal, and each of its
    diagonal_blocks is bitwise the H of that sector alone.
    """
    if len(sectors) == 1:
        return sectors[0]
    indices = np.concatenate([s.indices for s in sectors])
    order = np.argsort(indices)
    blocks = np.repeat(np.arange(len(sectors)), [s.dim for s in sectors])
    labels = np.concatenate([s.labels for s in sectors], axis=1)
    return GaussSector(tuple(s.charges for s in sectors),
                       sectors[0].dim_full, indices=indices[order],
                       labels=labels[:, order], blocks=blocks[order])


def all_sector_dimensions(space):
    """Map {charge tuple -> dimension} over every occupied Abelian sector
    (charges modulo N on Z_N links)."""
    table, modulus = abelian_charge_table(space), _zn_modulus(space)
    if modulus is not None:
        table = table % modulus
    keys, counts = np.unique(table, axis=1, return_counts=True)
    return {tuple(int(x) for x in key): int(c)
            for key, c in zip(keys.T, counts)}

