"""Gauss-law charges and gauge sectors, read from the label table.

Every link family has a diagonal Gauss generator per vertex, given by one
integer plan per space (``_gauss_plan``) from the link set's ``gauss``
values and the matter layout's ``gauss_base`` and ``gauss_columns``.
``charge_rows`` is its one reader on a label table: the generator's rows,
or from ``first = space.n_links`` on the mode factors' part alone, -Q_n
(``observables.charge_profile``); ``generator_eigenvalues`` maps the rows
through the link set.  For the Abelian families it is the whole law, so a
sector is a set of product states, enumerated directly from what each
tensor factor adds (``sector_basis``, no full-space table).  SU(2) adds
only its raising operator per vertex (``gauss_raising``): G^x and G^y are
not diagonal.

Conventions (row -> generator eigenvalue):

* U(1)/spin-gauge:  G_n = sum_out L - sum_in L - Q_n, the row itself.
* Z_N:              G_n = prod_out P^dag prod_in P (x exp(i delta Q_n) with
                    matter), unitary with eigenvalues exp(-i delta m).
* SU(2):            G^a_n = sum_out L^a - sum_in R^a - Q^a_n; the three
                    components close the left-type algebra
                    [G^i, G^j] = -i eps_ijk G^k at each vertex.  The row is
                    G^z in half units, so G^z is half of it; x and y come
                    through G^+ = G^x + i G^y and G^- = (G^+)^dag.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linkalg, matter as matter_mod
from .solver import SolverError, stage


@dataclass
class GaussSector:
    """A static-charge sector: the sorted product-basis `indices` of its
    states and their `labels` (ProductSpace.decode of the indices), which
    every diagonal read and label shift on the sector uses: every sector
    operator (Model.hamiltonian, hamiltonian.penalty_second_order) is built
    from them, so the sector carries no product-space size.
    """

    charges: tuple
    indices: np.ndarray
    labels: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return len(self.indices)

    @property
    def is_empty(self):
        return self.dim == 0


# ---------------------------------------------------------------------------
# the Gauss law per state
# ---------------------------------------------------------------------------

def generator_eigenvalues(space, labels):
    """The diagonal Gauss generator's eigenvalue on every state of a label
    table, one vertex at a time from its charge row (charge_rows): the row
    itself on U(1)-type links, exp(-i delta q) of its residue q modulo N on
    Z_N links, half of it (G^z) on SU(2) links."""
    table, n = charge_rows(space, labels), space.linkops.modulus
    if n is not None:
        phases = np.exp(-1j * (2.0 * np.pi / n) * np.arange(n))
        return (phases[row % n] for row in table)
    if space.linkops.model == linkalg.SU2:
        return (row / 2 for row in table)
    return iter(table)


def gauss_raising(space, vertex):
    """G^+ = G^x + i G^y at a vertex as one full-space CSR, None on the
    Abelian families: L^x + i L^y per out link, -(R^x + i R^y) per in link
    (the link set's ladders) and, with matter, -c^dag_up c_down, embedded
    in one COO pass; all are real, so G^+ is."""
    if space.linkops.ladders is None:
        return None
    left, right = space.linkops.ladders
    out_links, in_links = space.lattice.incident[vertex]
    pieces = [(1.0, [(l, left)]) for l in out_links] \
        + [(-1.0, [(l, right)]) for l in in_links]
    if space.layout is not None:
        pieces.append((-1.0, matter_mod.hop(space.layout.factor(vertex, 0),
                                            space.layout.factor(vertex, 1))))
    return space.embed(pieces)


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

def charge_rows(space, labels, first=0):
    """div(flux) - Q (2 G^z on SU(2)) of every state of a label table, one
    row per vertex, in the plan's integer type: the base charges plus what
    each tensor factor's label adds (_gauss_plan), over the factors from
    `first` on.  From first = space.n_links only the modes add, so the
    rows are -Q_n (-2 Q^z on two-color matter): any partial sum lies
    within the plan's type, whose range holds its negation too."""
    base, factors, _, _ = _gauss_plan(space)
    table = np.repeat(base[:, None], labels.shape[1], axis=1)
    for (vertices, columns), row in zip(factors[first:], labels[first:]):
        for v, column in zip(vertices, columns):
            table[v] += column[row]
    return table


def _gauss_plan(space):
    """The diagonal Gauss generator of any family factor by factor, built
    once per space: the charges of the state with every label 0 except the
    fluxes (the matter bases); per tensor factor in the mixed-radix order
    its vertices and a (vertices, radix) array of what each of its labels
    adds at each (a link's `gauss` at its out end, minus it at its in end;
    a mode's column); and lo[f], hi[f], the extremes of what the factors
    from f on can still add per vertex.  The charges and columns are in
    the narrowest signed integer that holds base + lo[0] and base + hi[0];
    every factor's column spans 0, so every partial charge (sector_basis)
    and every charge row (charge_rows) lies between them."""
    def build():
        lat, layout = space.lattice, space.layout
        ends = space.linkops.gauss * [[1], [-1]]
        base = np.zeros(lat.vertex_count, dtype=np.int64)
        effects = [(list(link), ends) for link in lat.ends]
        if layout is not None:
            base += layout.gauss_base
            effects += [([m // layout.species_per_vertex], np.array([[0, c]]))
                        for m, c in enumerate(layout.gauss_columns)]
        lo = np.zeros((len(effects) + 1, len(base)), dtype=np.int64)
        hi = lo.copy()
        for f in range(len(effects) - 1, -1, -1):
            vertices, columns = effects[f]
            lo[f], hi[f] = lo[f + 1], hi[f + 1]
            lo[f, vertices] += columns.min(axis=1)
            hi[f, vertices] += columns.max(axis=1)
        dtype = np.min_scalar_type(
            -int(max(-(base + lo[0]).min(), (base + hi[0]).max(), 0)) - 1)
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
    are decoded once, into the sector's label table.  The enumeration is
    timed as an `enumerate` stage (solver.stage) with the sector's states
    (dim) and the product-space dimension (dim_full).

    The indices are int64: a space with more product states than that
    holds raises SolverError before anything is enumerated, and leaves no
    stage record.
    """
    lat = space.lattice
    charges = tuple(int(q) for q in charges)
    if len(charges) != lat.vertex_count:
        raise ValueError("one charge per vertex required")
    if space.linkops.ladders is not None:
        raise ValueError("sector enumeration needs Abelian links")
    if space.dim - 1 > np.iinfo(np.int64).max:
        raise SolverError(
            f"product space of {space.dim} states exceeds the int64 index "
            f"range of the sector enumeration")
    with stage("enumerate", dim_full=space.dim) as record:
        base, factors, lo, hi = _gauss_plan(space)
        # a vertex with charge c can still reach its target after the first f
        # factors when 0 <= target - lo[f] - c <= hi[f] - lo[f] (modulo N on
        # Z_N links)
        shift, span = np.array(charges, dtype=np.int64) - lo, hi - lo
        modulus = space.linkops.modulus

        def reachable(charge, f, vertices):
            keep = True
            for v in vertices:
                # int64 whatever the plan's charge type: need can exceed it
                need = np.subtract(shift[f, v], charge[:, v], dtype=np.int64)
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
        record["dim"] = len(indices)
        return GaussSector(charges, indices=indices,
                           labels=space.decode(indices))


def merge_sectors(sectors):
    """One state set holding the states of one or more sectors, in sorted
    index order, their label columns taken along, its `charges` the tuple
    of the sectors' charges; a merge of one sector is a copy of it.  The
    sectors must have distinct charges, so no state is in two.
    """
    indices = np.concatenate([s.indices for s in sectors])
    order = np.argsort(indices)
    labels = np.concatenate([s.labels for s in sectors], axis=1)
    return GaussSector(tuple(s.charges for s in sectors),
                       indices=indices[order], labels=labels[:, order])


def all_sector_dimensions(space):
    """Map {charge tuple -> dimension} over every occupied Abelian sector
    (charges modulo N on Z_N links)."""
    table, modulus = charge_rows(space, space.labels), space.linkops.modulus
    if modulus is not None:
        table = table % modulus
    keys, counts = np.unique(table, axis=1, return_counts=True)
    return {tuple(int(x) for x in key): int(c)
            for key, c in zip(keys.T, counts)}

