"""Assembly of the lattice gauge Hamiltonians as sparse operators.

Every Hamiltonian is written as

    H = D + T + T^dag

with D diagonal in the product basis and T the off-diagonal part, so
Hermiticity is structural.  ``Model.hamiltonian`` is the only place terms
are summed: each diagonal term returns one value per state of a label
table, and each off-diagonal term yields the pieces of T once, as a
coefficient and local matrices on tensor factors (links and fermion
modes).  The pieces are realized in one of two ways, chosen by whether a
Gauss sector is passed:

* full space (``model.hamiltonian()``): D reads the full label table and
  the pieces are embedded and summed in one COO pass
  (``ProductSpace.embed``).
* sector (``model.hamiltonian(sector=sec)`` with a sector from
  ``gauge.sector_basis``): D reads the sector's own label table, and each
  piece is applied to the sector's states as label shifts
  (``ProductSpace.shift``, which reads the source labels from that same
  table), its targets located among the sector's sorted indices with
  ``np.searchsorted``.  The result is the sector-dimension block, equal to
  ``solver.restrict`` of the full H, at a cost that scales with the sector
  dimension.  A piece's adjoint is applied as well where the piece keeps
  no sector state in the sector.  When T or T^dag sends nonzero amplitude
  out of the sector (the gauge-variant hopping), SectorLeak, a ValueError,
  is raised after all pieces are applied; it carries the largest such
  amplitude and the block.

D (diagonal terms):

* electric:  (g^2/2) sum_links L^2 (U(1)), L_z^2 (spin-gauge), Casimir
             (SU(2)); for Z_N the clock form -(lambda_zn/2) sum (P + P^dag).
* mass:      staggered m sum (-1)^n psi^dag psi or naive M sum psi^dag
             sigma_z psi.
* penalty:   lambda sum_n G_n^2 (Abelian generators).

T (off-diagonal terms; H carries each with its Hermitian conjugate):

* magnetic:  -(1/2g^2) sum_plaq U1 U2 U3^dag U4^dag with the spin-gauge
             normalization 1/(ell^2 (ell+1)^2), the Z_N form
             -(1/2) sum Q1 Q2 Q3^dag Q4^dag and the SU(2) trace over the
             2x2 representation indices.
* gauge-matter: eps sum_links psi^dag_n U psi_{n+k} with the model's link
             operator; the naive-fermion variant carries the Dirac
             structure i psi^dag sigma_k psi.
* microscopic hopping: the gauge-variant single-atom move between
             perpendicular neighboring links, eta sum U_a U_b^dag, which
             seeds the second-order plaquette construction.

Static charges never appear as operators; they only label Gauss sectors.
"""

from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy import sparse

from . import gauge, linkalg, matter as matter_mod, solver, su2rep
from .lattice import diagonal_link_pairs, staggered_sign
from .tensor import ProductSpace

KS_U1 = "ks_u1"
SPIN_GAUGE = "spin_gauge"
ZN = "zn"
SU2 = "su2"

MODELS = (KS_U1, SPIN_GAUGE, ZN, SU2)

DEFAULT_TERMS = ("electric", "magnetic", "gauge_matter", "mass")


@dataclass
class HamiltonianSpec:
    model: str = KS_U1
    truncation: float = 1          # cutoff, ell, N or J_max
    g2: float = 1.0
    eps: float = 0.0               # gauge-matter strength
    mass: float = 0.0              # staggered m or naive M
    lam: float = 0.0               # Gauss penalty strength
    lam_zn: float = 1.0            # Z_N electric (clock) coupling
    eta: float = 0.0               # microscopic diagonal-hopping strength
    matter: str = None             # None, staggered, naive2d, su2fundamental
    terms: tuple = None            # None = every applicable default term

    def with_terms(self, *terms):
        return replace(self, terms=tuple(terms))

    def validate(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.g2 <= 0:
            raise ValueError("g2 must be positive")
        if self.lam < 0:
            raise ValueError("penalty strength must be >= 0")
        if self.model != SU2 and not float(self.truncation).is_integer():
            raise ValueError(f"{self.model} truncation must be an integer, "
                             f"got {self.truncation!r}")
        if self.matter is not None and self.matter not in (
                matter_mod.STAGGERED, matter_mod.NAIVE2D,
                matter_mod.SU2_FUNDAMENTAL):
            raise ValueError(f"unknown matter scheme {self.matter!r}")
        if self.model == SU2 and self.matter not in (
                None, matter_mod.SU2_FUNDAMENTAL):
            raise ValueError("SU(2) links need the two-color matter layout")
        if self.model != SU2 and self.matter == matter_mod.SU2_FUNDAMENTAL:
            raise ValueError("two-color matter needs SU(2) links")
        if self.terms is not None:
            unknown = set(self.terms) - DIAGONAL_TERMS.keys() \
                - OFF_DIAGONAL_TERMS.keys()
            if unknown:
                raise ValueError(f"unknown terms {sorted(unknown)}")
        return self


@dataclass
class Model:
    """A HamiltonianSpec realized on a concrete lattice."""

    spec: HamiltonianSpec
    lattice: object
    space: ProductSpace
    link_space: object = None      # SU2LinkSpace for the non-Abelian model
    rotation: object = None        # TruncatedRotationMatrix (j = 1/2)

    def effective_terms(self, terms=None):
        terms = self.spec.terms if terms is None else terms
        if terms is None:
            terms = [t for t in DEFAULT_TERMS
                     if not (t == "magnetic" and self.lattice.spatial_dim == 1)]
        elif "magnetic" in terms and self.lattice.spatial_dim == 1:
            raise ValueError("magnetic term toggled on for a 1d chain")
        return tuple(terms)

    def hamiltonian(self, terms=None, sector=None):
        """H = D + T + T^dag for `terms` (see effective_terms): D sums the
        diagonal terms' per-state values, T the off-diagonal terms' pieces.
        The only place terms are summed.

        Without a sector, H acts on the full space and each piece is
        embedded.  With a sector (gauge.sector_basis), H is the
        sector-dimension block: D is read from the sector's labels and each
        piece (and, where T^dag might leave the sector, its adjoint) is
        applied to the sector's states as label shifts; amplitude sent out
        of the sector raises SectorLeak.  On a merge of several sectors
        (gauge.merge_sectors) H is block diagonal, each of its
        diagonal_blocks bitwise the H of that sector alone, and amplitude
        from one merged sector into another is a leak too.  Every call
        logs the number of states it assembles as a RunLog assembly_dims
        entry.
        """
        space = self.space
        solver.log_max("dim_full", space.dim)
        labels = space.labels if sector is None else sector.labels
        diag = np.zeros(labels.shape[1])
        pieces = []
        for t in self.effective_terms(terms):
            if t in DIAGONAL_TERMS:
                diag += DIAGONAL_TERMS[t](self, labels)
            else:
                pieces += [(t, piece) for piece in OFF_DIAGONAL_TERMS[t](self)]
        solver.log_append("assembly_dims", len(diag))
        off, (leak, term) = _sum_pieces(space, sector, pieces)
        h = (off + off.conj().T + space.diagonal_op(diag)).tocsr()
        if leak:
            raise SectorLeak(
                f"{term} term leaves the Gauss sector {sector.charges} "
                f"(amplitude {leak:.3e})", leak, h)
        return h


class SectorLeak(ValueError):
    """T or T^dag sends nonzero amplitude out of a Gauss sector: H is not
    block diagonal there.  `amplitude` is the largest amplitude a piece
    of T or T^dag sends out, `block` the sector block of H all the same."""

    def __init__(self, message, amplitude, block):
        super().__init__(message)
        self.amplitude = amplitude
        self.block = block


def _sum_pieces(space, sector, pieces):
    """T = the sum of the (term, (coeff, factors)) pieces as one CSR, in
    one COO pass: embedded on the full space (sector None), applied as
    label shifts on the sector's states otherwise.

    On a sector, a target is inside only if it is one of the sector's
    states and, on a merge of sectors (gauge.merge_sectors), in the same
    source sector as the state it came from: amplitude between two merged
    sectors is a leak like any other, so T stays block diagonal.  T^dag
    can leave the sector where T does not, so a piece's adjoint is applied
    too, unless the piece keeps some sector state in the sector: every
    piece moves the Gauss charges by one fixed amount (flux shifts and at
    most one fermion move), which is then 0 for the piece and its adjoint
    alike.  Also returns (the largest amplitude a piece of T or T^dag
    sends out of the sector, the term of that piece); (0.0, None) without
    a leak."""
    if sector is None:
        return space.embed(piece for _, piece in pieces), (0.0, None)
    n = sector.dim
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    data = [np.zeros(0)]
    leak = (0.0, None)
    for t, piece in pieces:
        for adjoint, (c, f) in enumerate(_directions(piece)):
            source, target, value = space.shift(sector.indices,
                                                sector.labels, f)
            row = np.searchsorted(sector.indices, target)
            inside = row < n
            inside[inside] = sector.indices[row[inside]] == target[inside]
            if sector.blocks is not None:
                inside[inside] = (sector.blocks[row[inside]]
                                  == sector.blocks[source[inside]])
            if not adjoint:
                rows.append(row[inside])
                cols.append(source[inside])
                data.append(c * value[inside])
            amplitude = float(np.max(np.abs(c * value[~inside]),
                                     initial=0.0))
            if amplitude > leak[0]:
                leak = (amplitude, t)
            if inside.any():
                break
    off = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return off, leak


def _directions(piece):
    """The piece, then (coeff, factors) of its Hermitian conjugate: the
    matrices on each factor daggered in reverse order."""
    yield piece
    coeff, factors = piece
    yield np.conj(coeff), [(f, m.conj().T) for f, m in reversed(factors)]


ABELIAN_LINK_OPS = {KS_U1: linkalg.u1_ops, SPIN_GAUGE: linkalg.spin_gauge_ops,
                    ZN: linkalg.zn_ops}


def build_model(spec, lat):
    """Realize a HamiltonianSpec on a lattice: spaces, link ops, matter."""
    spec.validate()
    layout = None
    if spec.matter is not None:
        layout = matter_mod.fermion_ops(lat, spec.matter)
    if spec.model != SU2:
        linkops = ABELIAN_LINK_OPS[spec.model](int(spec.truncation))
        return Model(spec, lat, ProductSpace(lat, linkops, layout))
    lsp = su2rep.su2_link_space(spec.truncation)
    rot = su2rep.truncated_rotation_matrix(lsp, 0.5)
    linkops = linkalg.LinkOperatorSet("su2_truncated", lsp.local_dim,
                                      spec.truncation, {"flux": lsp.casimir})
    return Model(spec, lat, ProductSpace(lat, linkops, layout),
                 link_space=lsp, rotation=rot)


# ---------------------------------------------------------------------------
# diagonal terms: one value per state of a label table
# ---------------------------------------------------------------------------

def _electric(model, labels):
    """The local electric term's diagonal read per link from the labels,
    summed in link order (every family is diagonal in its flux basis)."""
    spec, space = model.spec, model.space
    if spec.model == ZN:
        P = space.linkops["P"]
        local = -(spec.lam_zn / 2.0) * (P + P.conj().T)
    elif spec.model == SU2:
        local = (spec.g2 / 2.0) * model.link_space.casimir
    else:
        flux = space.linkops["flux"]
        local = (spec.g2 / 2.0) * (flux @ flux)
    values = np.diag(local).real
    diag = np.zeros(labels.shape[1])
    for row in labels[:space.n_links]:
        diag += values[row]
    return diag


def _mass(model, labels):
    """Staggered m sum (-1)^n n_n or naive M sum (n_up - n_down), read from
    the occupation bits; 0 without matter or mass."""
    spec, space = model.spec, model.space
    if spec.matter is None or spec.mass == 0.0:
        return 0.0
    lat = model.lattice
    count = np.zeros(labels.shape[1], dtype=np.int8)
    for v in range(lat.vertex_count):
        occ = space.vertex_occupations(v, labels).astype(np.int8)
        if spec.matter == matter_mod.NAIVE2D:
            count += occ[0] - occ[1]
        else:
            count += staggered_sign(lat.vertices[v]) * occ.sum(axis=0,
                                                               dtype=np.int8)
    return spec.mass * count


def _penalty(model, labels):
    """lam sum_n G_n^2, read from the Abelian charge rows."""
    spec, space = model.spec, model.space
    if spec.model not in (KS_U1, SPIN_GAUGE):
        raise ValueError("penalty term implemented for Hermitian Abelian "
                         "generators only")
    diag = np.zeros(labels.shape[1])
    for row in gauge.charge_rows(space, labels):
        diag += np.square(row, dtype=float)
    return spec.lam * diag


# ---------------------------------------------------------------------------
# off-diagonal terms: the pieces of T (H carries T + T^dag), each yielded
# once as (coeff, [(factor, local matrix), ...]) over links and modes
# ---------------------------------------------------------------------------

def _magnetic(model):
    """coeff U1 U2 U3^dag U4^dag (or the model's analog) per plaquette; for
    SU(2) one piece per choice of the four 2x2 representation indices,
    whose sum is the trace."""
    spec, space = model.spec, model.space
    # the spin-gauge U is already L_+/sqrt(ell(ell+1)), so the printed
    # 1/(2 g^2 ell^2 (ell+1)^2) normalization is carried by the product
    coeff = -0.5 if spec.model == ZN else -1.0 / (2.0 * spec.g2)
    if spec.model == SU2:
        U, Ud = model.rotation, model.rotation.dagger()
        loops = [(U.entry(a, b), U.entry(b, c), Ud.entry(c, d),
                  Ud.entry(d, a))
                 for a, b, c, d in product((0.5, -0.5), repeat=4)]
    else:
        up, dn = ("Q", "Qdag") if spec.model == ZN else ("U", "Udag")
        loops = [[space.linkops[k] for k in (up, up, dn, dn)]]
    for plaq in model.lattice.plaquettes:
        for mats in loops:
            yield coeff, list(zip(plaq.links, mats))


def _gauge_matter(model):
    """The gauge-matter hop eps psi^dag_a U_l psi_b on every link
    l = (a, b): one piece per link for staggered matter, one per nonzero
    entry of the Dirac structure i sigma_k for naive fermions, one per
    color pair for SU(2)."""
    spec, space, lat = model.spec, model.space, model.lattice
    if spec.eps == 0.0 or spec.matter is None:
        return
    layout = space.layout
    naive = spec.matter == matter_mod.NAIVE2D
    if naive and spec.model not in (SPIN_GAUGE, KS_U1):
        raise ValueError("naive fermions pair with U(1)-type links")
    for l in range(lat.link_count):
        a, b = lat.link_endpoints(l)
        if naive:
            s = matter_mod._SIGMA["x" if lat.links[l][1] == 1 else "y"]
            for i, j in product(range(2), repeat=2):
                if s[i, j] != 0:
                    yield (spec.eps * s[i, j],
                           [(l, 1j * space.linkops["U"])]
                           + matter_mod.hop(layout.factor(a, i),
                                            layout.factor(b, j)))
        elif spec.model == SU2:
            for (i, m), (j, mp) in product(enumerate((0.5, -0.5)),
                                           repeat=2):
                yield (spec.eps, [(l, model.rotation.entry(m, mp))]
                       + matter_mod.hop(layout.factor(a, i),
                                        layout.factor(b, j)))
        else:
            up = space.linkops["Qdag" if spec.model == ZN else "U"]
            yield spec.eps, [(l, up)] + matter_mod.hop(layout.factor(a),
                                                       layout.factor(b))


def _hopping(model):
    """Gauge-variant single-atom hopping between perpendicular links.

    eta U_a U_b^dag per perpendicular link pair.  Each hop shifts the flux
    on exactly one link up and one down, violating the divergence law at
    the two far endpoints; pairs of hops close plaquettes at second order
    in perturbation theory.
    """
    spec, space = model.spec, model.space
    if spec.model not in (KS_U1, SPIN_GAUGE):
        raise ValueError("microscopic hopping defined for U(1)-type links")
    if model.lattice.spatial_dim != 2:
        raise ValueError("diagonal hopping needs a 2d lattice")
    up, dn = space.linkops["U"], space.linkops["Udag"]
    for (a, b, _v) in diagonal_link_pairs(model.lattice):
        yield spec.eta, [(a, up), (b, dn)]


DIAGONAL_TERMS = {"electric": _electric, "mass": _mass, "penalty": _penalty}
OFF_DIAGONAL_TERMS = {"magnetic": _magnetic, "gauge_matter": _gauge_matter,
                      "hopping": _hopping}


def max_gauss_violation(model, h):
    """max over vertices (and components) of ||[H, G_n]||_maxabs for a
    full-space H `h` of the model.

    A diagonal generator with eigenvalue g per state has
    [H, G]_ij = H_ij (g_j - g_i), evaluated on H's stored entries
    (_diagonal_violation): for the Abelian families g is read from the
    charge table (gauge.generator_eigenvalues), for SU(2) it is the G^z row
    of gauge.su2_gauss_law.  The SU(2) x and y components come from
    K+- = [H, G^+-] with G^- = (G^+)^dag: [H, G^x] = (K+ + K-)/2 and
    [H, G^y] = (K+ - K-)/2i.
    Only K+ = HG^+ - G^+H is formed; K- = -(K+)^dag holds because H is
    Hermitian, and it is exact only for an H that is Hermitian bit for bit,
    as Model.hamiltonian() is by construction (T + T^dag + D).  H and G^+
    are used in the dtype they were assembled in (float64: both are real
    for SU(2)).
    """
    if model.spec.model == SU2:
        coo, worst = h.tocoo(), 0.0
        for v in range(model.lattice.vertex_count):
            z, raising = gauge.su2_gauss_law(model.space, model.link_space, v)
            k_up = h @ raising - raising @ h
            k_down = -k_up.conj().T
            worst = max(worst, _diagonal_violation(coo, [z]),
                        float(abs(k_up + k_down).max()) / 2,
                        float(abs(k_up - k_down).max()) / 2)
        return worst
    table = gauge.abelian_charge_table(model.space)
    return _diagonal_violation(
        h.tocoo(), gauge.generator_eigenvalues(model.space, table))


def _diagonal_violation(coo, rows):
    """max over the rows g of |H_ij (g_j - g_i)| on H's stored COO entries,
    only where the two states' g differ: [H, G] of the diagonal generators
    with eigenvalue g per state."""
    worst = 0.0
    for g in rows:
        differ = np.nonzero(g[coo.col] != g[coo.row])[0]
        if len(differ):
            step = np.subtract(g[coo.col[differ]], g[coo.row[differ]],
                               dtype=np.result_type(g, float))
            worst = max(worst, float(np.max(np.abs(coo.data[differ]
                                                   * step))))
    return worst
