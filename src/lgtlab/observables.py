"""Physics extraction: flux profiles, static potentials and string tensions,
strong-coupling string states, flux-tube dynamics, truncation convergence.

The strong-coupling relation used as an oracle:  a straight flux string of
length R between opposite static charges is an eigenstate of the electric
Hamiltonian with energy R times hamiltonian.electric_tension: g^2/2 for
U(1)-type links (unit flux) and the spin-gauge L_z^2 (unit m),
lambda_zn (1 - cos 2 pi / N) on Z_N links and (g^2/2) j(j+1) = 3g^2/8 for
the SU(2) fundamental string.
"""

from dataclasses import dataclass

import numpy as np

from . import linkalg, solver
from .hamiltonian import KS_U1, SU2, ZN, HamiltonianSpec, build_model
from .gauge import charge_rows, generator_eigenvalues, merge_sectors, \
    sector_basis
from .lattice import build_lattice
from .matter import dirac_sea_state


def flux_profile(model, state, labels):
    """Per-link flux expectation <flux_l> for a normalized state, or one
    row per state for a (times, dim) stack of states, whose amplitudes are
    on the states of the label table `labels` (a sector's labels, or
    space.labels for the full space).

    The readout is the link set's `flux` table: the flux m (U(1)), L_z
    (spin-gauge), the clock label m (Z_N) or the Casimir j(j+1) (SU(2)),
    one value per label, read per link from the label table.
    """
    space = model.space
    return _expectations(state, space.linkops.flux[labels[:space.n_links]])[0]


def charge_profile(model, state, labels):
    """Per-vertex dynamical charge expectation, for one state or a
    (times, dim) stack of states, whose amplitudes are on the states of
    the label table `labels` (on two-color matter the charge 2 Q^z).  The
    charge Q_n is the matter's part of the Gauss law, negated: the
    charge_rows of the mode factors alone.  A space without matter
    raises ValueError."""
    space = model.space
    if space.layout is None:
        raise ValueError("space carries no matter")
    charges = -charge_rows(space, labels, first=space.n_links)
    return _expectations(state, charges)[0]


def _expectations(state, *tables):
    """<psi| diag(d) |psi> for every row d of each per-state table: one
    value per row for a state, one row per state for a (times, dim) stack.
    |psi|^2 is formed once, then read by one product per table."""
    probabilities = np.abs(state) ** 2
    return [probabilities @ table.T for table in tables]


def string_link_path(lat, origin, separation):
    """Link indices of the straight axis-1 path origin -> origin + R, from
    a vertex index 0 .. n_vertices - 1.  On a periodic axis of L vertices R
    must stay below L: a longer path would wind around the ring and revisit
    links, and at R = L its far end would be the origin.  On an open axis
    a path that runs past the far edge raises, naming R and the origin."""
    if not 0 <= origin < lat.vertex_count:
        raise ValueError(f"origin {origin} is not a vertex index "
                         f"0 .. {lat.vertex_count - 1}")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    if lat.boundary == "periodic" and separation >= lat.sizes[0]:
        raise ValueError(f"separation {separation} winds around the "
                         f"periodic axis of {lat.sizes[0]} vertices")
    links, vertex = [], origin
    for _ in range(separation):
        if (vertex, 1) not in lat.link_from:
            raise ValueError(f"separation {separation} from origin {origin} "
                             f"runs off the open edge of axis 1")
        links.append(lat.link_from[vertex, 1])
        vertex = lat.ends[links[-1]][1]
    return links


def strong_coupling_ground(model, origin, separation):
    """The straight-line flux-string state for charges at origin and
    origin + R x-hat, with matter in the Dirac sea when present.

    For the Abelian families this is a single product basis state (flux 1
    on the connecting links).  For SU(2) it is the entangled state
    (prod U)_{mm'} |vacuum> summed over the internal path indices,
    normalized, with |vacuum> the R = 0 product state; its electric energy
    is (g^2/2) (3/4) R exactly.
    """
    space = model.space
    if model.spec.model == SU2:
        psi = space.basis_vector(string_state_index(model, origin, 0))
        if separation == 0:
            return psi
        links = string_link_path(model.lattice, origin, separation)
        out = _su2_string(space, links, psi)
        n = np.linalg.norm(out)
        if n == 0:
            raise ValueError("string state vanished (truncation too small)")
        return out / n

    return space.basis_vector(string_state_index(model, origin, separation))


def string_state_index(model, origin, separation):
    """Product-state index of the Abelian string: one unit of flux (the
    link set's unit label: flux 1, or -1 on Z_2) on the links of the
    straight path origin -> origin + R x-hat, the vacuum elsewhere, matter
    in the Dirac sea when present.  At R = 0 it is also the SU(2) vacuum."""
    space, ops = model.space, model.space.linkops
    links = string_link_path(model.lattice, origin, separation)
    if links and ops.unit is None:
        raise ValueError(f"{ops.model} truncation {ops.param} holds no unit "
                         f"of flux")
    link_vals = [ops.unit if l in links else ops.vacuum
                 for l in range(space.n_links)]
    matter = dirac_sea_state(space.layout) if space.layout is not None \
        else []
    return space.encode(link_vals + matter)


def _su2_string(space, links, psi):
    """sum over m, mp of (U_l1 U_l2 ... U_lR)_{m mp} psi, contracted right
    to left on vectors: one per open left index, four single-link
    applications per link, each as label shifts (ProductSpace.shift) of
    the vector's support, accumulated into a new vector."""
    U = space.linkops.U
    vectors = [psi] * 2
    for l in reversed(links):
        vectors = [sum(_shifted(space, [(l, U[m][mid])], v)
                       for mid, v in enumerate(vectors)) for m in range(2)]
    return vectors[0] + vectors[1]


def _shifted(space, factors, v):
    """The product of local matrices `factors` applied to the full-space
    vector v, from the labels of its nonzero entries only."""
    support = np.flatnonzero(v)
    source, target, value = space.shift(support, space.decode(support),
                                        factors)
    out = np.zeros_like(v)
    np.add.at(out, target, value * v[support][source])
    return out


def fit_window(separations):
    """The separations a tension fit reads, in whatever order they are
    listed: each distinct R > 0, less the largest when more than two
    remain (boundary contamination)."""
    r = np.unique(separations)
    r = r[r > 0]
    return r[:-1] if len(r) > 2 else r


@dataclass
class StaticPotentialCurve:
    separations: list
    energies: list
    dimensions: list
    sigma: float = None
    offset: float = None
    residual: float = None

    def fit(self):
        """Least-squares linear fit E(R) = sigma R + offset over the
        fit_window of the separations; with fewer than two points in it,
        sigma, offset and residual stay None."""
        r = fit_window(self.separations)
        if len(r) < 2:
            return self
        energy = dict(zip(self.separations, self.energies))
        e = np.array([energy[R] for R in r], dtype=float)
        A = np.vstack([r, np.ones(len(r))]).T
        coef, *_ = np.linalg.lstsq(A, e, rcond=None)
        self.sigma, self.offset = float(coef[0]), float(coef[1])
        self.residual = float(np.max(np.abs(A @ coef - e)))
        return self


def static_potential(spec, lat, separations, origin=0):
    """Ground energy per static-charge separation, with a linear fit over
    fit_window(separations): R = 0 and, beyond two remaining separations,
    the largest one are dropped, whatever the order of the list.

    U(1)-family sectors are diagonalized exactly in the (+1 at origin,
    -1 at origin+R) charge sector, each enumerated once however often its
    separation is listed.  Every sector of at most solver.DENSE_LIMIT
    states joins one merge (gauge.merge_sectors): H is assembled once on
    it and split into one block per sector (_sector_blocks), bitwise the H
    the sector alone gives; an H that couples two merged sectors raises
    ValueError.  Each larger sector is assembled on itself and solved
    before the next one is assembled, so at most one large H is held at a
    time.  The SU(2) potential is evaluated on the explicit strong-coupling
    string state with the full-space Hamiltonian (zero-charge sector
    machinery does not label non-Abelian external charges).  Empty sectors
    raise.
    """
    model = build_model(spec, lat)
    if spec.model == SU2:
        h = model.hamiltonian()
        energies = []
        for R in separations:
            psi = strong_coupling_ground(model, origin, R)
            energies.append(float(np.vdot(psi, h @ psi).real))
        dims = [1] * len(separations)
    else:
        energies, dims = _sector_ground_energies(model, separations, origin)
    return StaticPotentialCurve(list(separations), energies, dims).fit()


def _sector_ground_energies(model, separations, origin):
    """(ground energies, sector dimensions) per separation, each sector
    enumerated once; the sectors of at most solver.DENSE_LIMIT states are
    assembled in one merge, and each larger one on itself, its H dropped
    before the next is assembled."""
    lat = model.lattice
    sectors, keys = {}, []
    for R in separations:
        charges = [0] * lat.vertex_count
        links = string_link_path(lat, origin, R)
        if links:
            charges[origin] = 1
            charges[lat.ends[links[-1]][1]] = -1
        keys.append(tuple(charges))
        if keys[-1] not in sectors:
            sec = sector_basis(model.space, keys[-1])
            if sec.is_empty:
                raise solver.SolverError(
                    f"empty Gauss sector for separation {R}")
            sectors[keys[-1]] = sec
    small = [sec for sec in sectors.values() if sec.dim <= solver.DENSE_LIMIT]
    ground = dict(zip([sec.charges for sec in small],
                      map(solver.ground_energy, _sector_blocks(model, small))))
    # one large H at a time: each is dropped once its sector is solved
    ground.update((key, solver.ground_energy(model.hamiltonian(sector=sec)))
                  for key, sec in sectors.items()
                  if sec.dim > solver.DENSE_LIMIT)
    return [float(ground[k]) for k in keys], [sectors[k].dim for k in keys]


def _sector_blocks(model, group):
    """The H of each sector of a group, assembled once on their merge and
    sliced at each sector's positions among the merged states; an empty
    group gives no blocks.  An assembled H stores no zeros (scipy's sparse
    sums drop them), so blocks holding fewer entries than H mean that H
    couples two merged sectors, which raises ValueError."""
    if not group:
        return []
    merged = merge_sectors(group)
    h = model.hamiltonian(sector=merged)
    positions = (np.searchsorted(merged.indices, s.indices) for s in group)
    blocks = [h[pos][:, pos] for pos in positions]
    if sum(block.nnz for block in blocks) < h.nnz:
        raise ValueError(f"H couples merged Gauss sectors {merged.charges}")
    return blocks


@dataclass
class DynamicsReport:
    """The string's observables at every sampled time and the largest drift
    of each conserved quantity from its value at t = 0 (of the norm, from
    1)."""

    times: np.ndarray
    flux: np.ndarray              # (times, links)
    charge: np.ndarray            # (times, vertices)
    max_norm_drift: float
    max_energy_drift: float
    max_charge_drift: float
    gauss_drift: float            # max |<G_n>(t) - <G_n>(0)|


def _drift(series):
    """max |x(t) - x(0)| over a series of values or rows of values."""
    return float(np.max(np.abs(series - series[0])))


def flux_tube_breaking_scenario(spec, lat, separation, t_final, steps,
                                origin=0):
    """Evolve the strong-coupling string and track its decay observables;
    returns (DynamicsReport, states), the states a (times, dim) array of
    amplitudes on the string's Gauss sector.

    Requires a 1d chain with Abelian links and dynamical staggered matter.
    The string is one product state, so it evolves in its own Gauss sector
    (charges decoded from its labels) with the sector Hamiltonian.
    Conservation of the norm, energy, total charge and every Gauss
    generator expectation is reported (they are exact up to solver
    tolerance).  The observables are read as an `observables` stage: <H>
    first, then |psi|^2 is formed once and every diagonal observable (flux,
    charge, total charge, Gauss generators) is one product of it with that
    quantity's table over the sector's labels.
    """
    if lat.spatial_dim != 1:
        raise ValueError("flux-tube scenario runs on 1d chains")
    if spec.matter is None:
        raise ValueError("flux-tube breaking needs dynamical matter")
    model = build_model(spec, lat)
    space = model.space
    start = string_state_index(model, origin, separation)
    sec = sector_basis(space, charge_rows(space, space.decode([start]))[:, 0])
    h = model.hamiltonian(sector=sec)
    psi0 = np.zeros(sec.dim, dtype=complex)
    psi0[np.searchsorted(sec.indices, start)] = 1.0
    times, states = solver.evolve(h, psi0, t_final, steps)

    with solver.stage("observables", dim=sec.dim, samples=len(times)):
        # <H> before |psi|^2: its three (times, dim) temporaries are freed
        # before the probabilities exist, so they never add to the peak
        energy = np.sum(states.conj() * (h @ states.T).T, axis=1).real
        labels = sec.labels
        charges = -charge_rows(space, labels, first=space.n_links)
        generators = np.array(list(generator_eigenvalues(space, labels)))
        flux, charge, total, gauss = _expectations(
            states, space.linkops.flux[labels[:space.n_links]], charges,
            charges.sum(axis=0)[None], generators)
    return DynamicsReport(times, flux, charge, solver.norm_drift(states),
                          _drift(energy), _drift(total[:, 0]),
                          _drift(gauss)), states


def single_plaquette_ground(spec):
    """Zero-charge ground energy of the single 2x2-plaquette system."""
    lat = build_lattice(2, [2, 2])
    model = build_model(spec, lat)
    sec = sector_basis(model.space, [0] * 4)
    hr = model.hamiltonian(sector=sec)
    return float(solver.ground_energy(hr)), sec.dim


def convergence_study(family, g2_list, truncations, cutoff_ref=8):
    """Single-plaquette ground energies of a truncated link family
    (SPIN_GAUGE over ell, ZN over N) against the Kogut-Susskind reference
    at the given flux cutoff, at every coupling g2: each distinct g2 and
    each distinct truncation once, in increasing order, whatever the order
    and repetitions of the lists.

    A Z_N energy is calibrated: the clock coupling is matched as
    lambda_zn = g^2/delta^2 with delta = 2 pi / N, and the additive clock
    offset lambda_zn per link is removed, so the calibrated energies
    approach the Kogut-Susskind value from the N -> infinity expansion of
    the cosine.

    Returns rows (g2, truncation, E, |E - E_ref|) plus the reference
    energies {g2: E_ref}.
    """
    g2_list, truncations = sorted(set(g2_list)), sorted(set(truncations))
    refs = {g2: single_plaquette_ground(HamiltonianSpec(
        model=KS_U1, truncation=cutoff_ref, g2=g2))[0] for g2 in g2_list}
    rows = []
    for g2 in g2_list:
        for t in truncations:
            linkalg.link_ops(family, t)      # rejects N < 2 before 2 pi / N
            lam_zn = g2 / (2.0 * np.pi / t) ** 2 if family == ZN else 0.0
            e, _ = single_plaquette_ground(HamiltonianSpec(
                model=family, truncation=t, g2=g2, lam_zn=lam_zn))
            e += lam_zn * 4          # the clock offset of the 4 links
            rows.append((g2, t, e, abs(e - refs[g2])))
    return rows, refs
