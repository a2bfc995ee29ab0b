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
  the full H's rows and columns at the sector's indices, at a cost that
  scales with the sector dimension.  A piece's adjoint is applied as well
  where the piece keeps no sector state in the sector.  When T or T^dag
  sends nonzero amplitude out of the sector (the gauge-variant hopping),
  SectorLeak, a ValueError, is raised after all pieces are applied; it
  carries the largest such amplitude and the block.

The second order of the penalty construction, P V Q (E0 - H0)^{-1} Q V P
(``penalty_second_order``), is built from the same pass: V's pieces are
shifted off the sector's states by the code that assembles H, which
returns the amplitude it sends out of the sector, and H0, the penalty, is
read from the labels of the distinct targets.

The four link families (linkalg: ks_u1, spin_gauge, zn, su2) differ only
in their LinkOperatorSet, and the three matter layouts only in their
FermionLayout tables (matter), so every term below is one rule for all of
them.
Each family gives its link operator as an r x r matrix U of local
matrices: [[U]] on U(1), spin-gauge and Z_N links (on Z_N U is Q^dag, the
clock shift that raises the flux), the 2x2 entries of U^{1/2} on SU(2)
links; U^dag is taken entrywise, (U^dag)_ij = U_ji^dag.

D (diagonal terms):

* electric:  (c/2) sum_links e(label), with e the family's electric
             values at unit coupling (m^2 on U(1) and spin-gauge,
             -2 cos(2 pi m / N) on Z_N, the Casimir j(j+1) on SU(2)) and
             c = electric_coupling(spec): lambda_zn on Z_N, g^2 otherwise.
             On Z_N this is the clock form -(lambda_zn/2) sum (P + P^dag).
* mass:      m sum_modes s n with the layout's mass signs s: staggered
             m sum (-1)^n psi^dag psi or naive M sum psi^dag sigma_z psi.
* penalty:   lambda sum_n G_n^2 (Abelian generators).

T (off-diagonal terms; H carries each with its Hermitian conjugate):

* magnetic:  -(1/2g^2) sum_plaq tr(U1 U2 U3^dag U4^dag), one piece per
             choice of the r^4 matrix indices (with the spin-gauge
             normalization 1/(ell^2 (ell+1)^2) carried by U).
* gauge-matter: eps sum_links g_st psi^dag_{n, s r + i} U_ij
             psi_{n+k, t r + j}, g the layout's hop structure on the link's
             axis ([[1]], or i sigma_k on naive fermions).
* microscopic hopping: the gauge-variant single-atom move between
             perpendicular neighboring links, eta sum U_a U_b^dag, which
             seeds the second-order plaquette construction.

Static charges never appear as operators; they only label Gauss sectors.
The Gauss check ``max_gauss_violation`` is one rule for every family too,
read from gauge's one integer plan of the diagonal generators.
"""

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy import sparse

from . import gauge, linkalg, matter as matter_mod, solver
from .lattice import diagonal_link_pairs
from .linkalg import KS_U1, SPIN_GAUGE, SU2, ZN
from .tensor import ProductSpace

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
        if self.model not in linkalg.FAMILIES:
            raise ValueError(f"unknown model {self.model!r}")
        if self.g2 <= 0:
            raise ValueError("g2 must be positive")
        if not math.isfinite(-1.0 / (2.0 * self.g2)):
            raise ValueError(f"g2 {self.g2!r} is too small: the magnetic "
                             f"coefficient -1/(2 g2) overflows")
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
        of the sector raises SectorLeak.  The sector may be any sorted set
        of product states, a union of several sectors among them: H is
        then H restricted to that set.  Every call is timed as an
        `assemble` stage (solver.stage) with the number of states it
        assembles (dim) and the product-space dimension (dim_full).
        """
        space = self.space
        with solver.stage("assemble", dim=space.dim if sector is None
                          else sector.dim, dim_full=space.dim):
            labels = space.labels if sector is None else sector.labels
            diag = np.zeros(labels.shape[1])
            pieces = []
            for t in self.effective_terms(terms):
                if t in DIAGONAL_TERMS:
                    diag += DIAGONAL_TERMS[t](self, labels)
                else:
                    pieces += [(t, piece)
                               for piece in OFF_DIAGONAL_TERMS[t](self)]
            off, (*_, amplitude, terms) = _sum_pieces(space, sector, pieces)
            h = (off + off.conj().T + space.diagonal_op(diag)).tocsr()
        leak = np.abs(amplitude)
        if np.any(leak):
            worst = int(np.argmax(leak))
            raise SectorLeak(
                f"{terms[worst]} term leaves the Gauss sector "
                f"{sector.charges} (amplitude {leak[worst]:.3e})",
                float(leak[worst]), h)
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
    label shifts on the sector's states otherwise.  Also returns what the
    pieces of T and T^dag send out of the sector, as (source, target,
    amplitude, term) in the order the pieces and their adjoints are
    applied: the source's position in the sector, the target's product
    index, the amplitude and the term of its piece, one entry each per
    shifted state; all empty without a sector.

    On a sector, a target is inside when it is one of the sector's
    states, located among the sector's sorted indices by searchsorted.
    T^dag can leave the sector where T does not, so a piece's adjoint (the
    matrices on each factor daggered in reverse order) is applied too,
    unless the piece keeps some sector state in the sector: every piece
    moves the Gauss charges by one fixed amount (flux shifts and at most
    one fermion move), which is then 0 for the piece and its adjoint
    alike.  An adjoint applied so keeps nothing in the sector either: its
    entries between sector states are the piece's, conjugated."""
    empty = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    if sector is None:
        return space.embed(piece for _, piece in pieces), (*empty, [])
    kept, out, terms = [], [], []
    for t, (coeff, factors) in pieces:
        adjoint = [(i, m.conj().T) for i, m in reversed(factors)]
        for c, f in ((coeff, factors), (np.conj(coeff), adjoint)):
            source, target, value = space.shift(sector.indices,
                                                sector.labels, f)
            row = np.searchsorted(sector.indices, target)
            inside = row < sector.dim
            inside[inside] = sector.indices[row[inside]] == target[inside]
            out.append((source[~inside], target[~inside], c * value[~inside]))
            terms += [t] * len(out[-1][0])
            if inside.any():
                kept.append((row[inside], source[inside], c * value[inside]))
                break
    row, col, value = map(np.concatenate, zip(empty, *kept))
    off = sparse.coo_matrix((value, (row, col)),
                            shape=(sector.dim, sector.dim)).tocsr()
    return off, (*map(np.concatenate, zip(empty, *out)), terms)


def penalty_second_order(model, sector, pieces):
    """P V Q (E0 - H0)^{-1} Q V P on a Gauss sector, as a dense
    sector-dimension block: the second order of the penalty construction,
    where H0 = lam sum_n G_n^2 is the model's penalty term and V the
    (coeff, factors) `pieces` plus their adjoints.

    V is applied to the sector's states by the label-shift pass of
    Model.hamiltonian (_sum_pieces), which returns the amplitude it sends
    out of the sector.  H0 is read from the labels of the distinct
    off-sector targets, decoded once, and E0 from the sector's own labels,
    so nothing of the full space is built.  The sum over the targets is
    one sparse product W^dag (R W), with W the amplitudes (target, sector
    state) and R = (E0 - H0)^{-1} on the targets, made Hermitian bit for
    bit by averaging it with its adjoint.

    Amplitude V keeps in the sector (P V P != 0) and a penalty that is not
    one value on the sector raise ValueError; a target within 1e-9 of E0
    makes the resolvent singular and raises SolverError.  Timed as a
    `second_order` stage (solver.stage) with the sector's states (dim) and
    the distinct off-sector targets (targets).
    """
    with solver.stage("second_order", dim=sector.dim,
                      targets=None) as record:
        kept, (sources, targets, amplitudes, _) = _sum_pieces(
            model.space, sector, [(None, piece) for piece in pieces])
        if kept.count_nonzero():
            raise ValueError(f"V keeps amplitude in the Gauss sector "
                             f"{sector.charges}: P V P is not 0")
        distinct, row = np.unique(targets, return_inverse=True)
        record["targets"] = len(distinct)
        e0 = np.unique(_penalty(model, sector.labels))
        if len(e0) > 1:
            raise ValueError(f"the penalty is not one value on the sector "
                             f"{sector.charges}")
        gap = e0 - _penalty(model, model.space.decode(distinct))
        singular = np.flatnonzero(np.abs(gap) < 1e-9)
        if len(singular):
            raise solver.SolverError(
                f"singular resolvent: off-sector state "
                f"{distinct[singular[0]]} is degenerate with the sector "
                f"(gap {gap[singular[0]]:.3e})")
        w = sparse.coo_matrix((amplitudes, (row, sources)),
                              shape=(len(distinct), sector.dim)).tocsc()
        rw = w.copy()
        rw.data = rw.data / gap[rw.indices]
        second = (w.conj().T @ rw).toarray()
        return (second + second.conj().T) / 2.0


def build_model(spec, lat):
    """Realize a HamiltonianSpec on a lattice: spaces, link ops, matter;
    timed as a `build` stage (solver.stage) with the product-space
    dimension (dim_full)."""
    spec.validate()
    with solver.stage("build") as record:
        layout = None
        if spec.matter is not None:
            layout = matter_mod.fermion_ops(lat, spec.matter)
        space = ProductSpace(lat, linkalg.link_ops(spec.model,
                                                   spec.truncation), layout)
        record["dim_full"] = space.dim
    return Model(spec, lat, space)


def electric_coupling(spec):
    """The coupling of the electric term: lambda_zn on Z_N links, g^2 on
    the others."""
    return spec.lam_zn if spec.model == ZN else spec.g2


def electric_tension(spec):
    """The slope of the electric-only static potential: a unit of string
    flux costs (c/2) (e(unit) - e(vacuum)) per link, with c the electric
    coupling and e the family's electric values at unit coupling."""
    ops = linkalg.link_ops(spec.model, spec.truncation)
    return electric_coupling(spec) / 2.0 * (ops.electric[ops.unit]
                                            - ops.electric[ops.vacuum])


# ---------------------------------------------------------------------------
# diagonal terms: one value per state of a label table
# ---------------------------------------------------------------------------

def _electric(model, labels):
    """The electric term's diagonal, (c/2) e(label) read per link from the
    labels and summed in link order."""
    values = (electric_coupling(model.spec) / 2.0) \
        * model.space.linkops.electric
    diag = np.zeros(labels.shape[1])
    for row in labels[:model.space.n_links]:
        diag += values[row]
    return diag


def _mass(model, labels):
    """m sum over the modes of the layout's mass sign times the occupation
    bit; 0 without matter or mass."""
    spec, space = model.spec, model.space
    if spec.matter is None or spec.mass == 0.0:
        return 0.0
    return spec.mass * np.einsum("m,ms->s", space.layout.mass_signs,
                                 labels[space.n_links:])


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
    """coeff tr(U1 U2 U3^dag U4^dag) per plaquette: one piece
    coeff U_ab U_bc (U^dag)_cd (U^dag)_da per choice of the matrix indices,
    whose sum is the trace."""
    U = model.space.linkops.U
    r = range(len(U))
    # the spin-gauge U is already L_+/sqrt(ell(ell+1)), so the printed
    # 1/(2 g^2 ell^2 (ell+1)^2) normalization is carried by the product
    coeff = -1.0 / (2.0 * model.spec.g2)
    loops = [(U[a][b], U[b][c], U[d][c].conj().T, U[a][d].conj().T)
             for a, b, c, d in product(r, repeat=4)]
    for plaq in model.lattice.plaquettes:
        for mats in loops:
            yield coeff, list(zip(plaq, mats))


def _gauge_matter(model):
    """The gauge-matter hop eps g_st psi^dag_{a, s r + i} U_ij
    psi_{b, t r + j} on every link l = (a, b): one piece per nonzero entry
    g_st of the layout's hop structure on the link's axis and per entry
    U_ij of the link set's r x r matrix."""
    spec, space, lat = model.spec, model.space, model.lattice
    if spec.eps == 0.0 or spec.matter is None:
        return
    if spec.matter == matter_mod.NAIVE2D and spec.model not in (SPIN_GAUGE,
                                                                 KS_U1):
        raise ValueError("naive fermions pair with U(1)-type links")
    layout, U = space.layout, space.linkops.U
    r = len(U)
    for l, ((_, axis), (a, b)) in enumerate(zip(lat.links, lat.ends)):
        g = layout.hops[axis - 1]
        for s, t in zip(*np.nonzero(g)):
            for i, j in product(range(r), repeat=2):
                yield spec.eps * g[s, t], [(l, U[i][j])] + matter_mod.hop(
                    layout.factor(a, s * r + i), layout.factor(b, t * r + j))


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
    up = space.linkops.U[0][0]
    for (a, b, _v) in diagonal_link_pairs(model.lattice):
        yield spec.eta, [(a, up), (b, up.conj().T)]


DIAGONAL_TERMS = {"electric": _electric, "mass": _mass, "penalty": _penalty}
OFF_DIAGONAL_TERMS = {"magnetic": _magnetic, "gauge_matter": _gauge_matter,
                      "hopping": _hopping}


def max_gauss_violation(model, h):
    """max over vertices (and components) of ||[H, G_n]||_maxabs for a
    full-space H `h` of the model, one rule for every link family.

    A diagonal generator with eigenvalue g per state (the Abelian one, or
    G^z on SU(2): gauge.generator_eigenvalues) has
    [H, G]_ij = H_ij (g_j - g_i), evaluated on H's stored entries where g
    differs.  Where the link set also has a raising operator G^+
    (gauge.gauss_raising, SU(2) only), the x and y components come from
    K = HG^+ - G^+H, formed once per vertex: with G^- = (G^+)^dag and H
    Hermitian, [H, G^-] = -K^dag, so [H, G^x] = (K - K^dag)/2 and
    [H, G^y] = (K + K^dag)/2i.  This holds only for an H that is
    Hermitian bit for bit, as Model.hamiltonian() is by construction
    (T + T^dag + D).  H and G^+ are used in the dtype they were assembled
    in (float64: both are real for SU(2)).
    """
    space = model.space
    coo, worst = h.tocoo(), 0.0
    for v, g in enumerate(gauge.generator_eigenvalues(space, space.labels)):
        differ = np.nonzero(g[coo.col] != g[coo.row])[0]
        if len(differ):
            step = np.subtract(g[coo.col[differ]], g[coo.row[differ]],
                               dtype=np.result_type(g, float))
            worst = max(worst, float(np.max(np.abs(coo.data[differ]
                                                   * step))))
        raising = gauge.gauss_raising(space, v)
        if raising is not None:
            k = h @ raising - raising @ h
            k_dag = k.conj().T
            worst = max(worst, float(abs(k - k_dag).max()) / 2,
                        float(abs(k + k_dag).max()) / 2)
    return worst
