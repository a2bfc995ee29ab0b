"""Single-link algebras as per-label tables, one link set per family.

The four link families carry the names of ``HamiltonianSpec.model``, all in
the electric-flux eigenbasis:

* ``ks_u1``, truncated U(1): integer flux m in [-cutoff, cutoff], hard-
  truncated raising operator U (U on the top state gives zero),
* ``spin_gauge``: a spin-ell multiplet with L_z as the electric field and
  the normalized ladder L_plus / sqrt(ell(ell+1)) standing in for U,
* ``zn``, Z_N clock algebra: clock labels m, the eigenbasis of the phases
  P|m> = exp(i 2 pi m / N)|m>; U is the cyclic shift that raises m,
* ``su2``, truncated SU(2): the |j m m'> space with j <= J_max of su2rep,
  built from su2rep's tables once per J_max and shared, its arrays
  read-only.

Every family gives its link operator U as an r x r matrix of local
matrices (``LinkOperatorSet.U``): [[U]] (r = 1) on the three Abelian
families, the 2x2 entries U^{1/2}_{mm'} (m, m' = 1/2, -1/2) of the
fundamental rotation matrix on SU(2) links.  The Hamiltonian's magnetic and
gauge-matter terms are written once over these entries.  Per label, each
set carries its flux readout (m, or the Casimir j(j+1) on SU(2)) and its
electric value at unit coupling: m^2 (U(1), spin-gauge),
-2 cos(2 pi m / N) (Z_N, the diagonal of -(P + P_dag)) and j(j+1) (SU(2));
and the labels of its vacuum and of one unit of string flux: the label U
raises the vacuum to (flux 1, modulo N on Z_N, so Z_2 reads -1) and, on
SU(2), a state of the lowest Casimir above zero, j = 1/2.  The Gauss law
reads each set too: ``gauss`` is, per label, the diagonal generator's
integer value at a link's out and in ends (the flux, or 2m and 2m' on
SU(2), G^z = L^z, R^z in half units), ``modulus`` is N on Z_N links, and
SU(2)'s ``ladders`` are L^x + i L^y and R^x + i R^y.

Dimensions stay tiny (<= ~20, SU(2) 14 at J_max = 1); sparsity is handled
only at the tensor-product level.  Every link matrix is real and stored
float64 (the dtype rule of tensor.py).
"""

from dataclasses import dataclass, field

import numpy as np

from . import su2rep

KS_U1 = "ks_u1"
SPIN_GAUGE = "spin_gauge"
ZN = "zn"
SU2 = "su2"
FAMILIES = (KS_U1, SPIN_GAUGE, ZN, SU2)


@dataclass(frozen=True)
class LinkOperatorSet:
    model: str
    param: int                      # cutoff, ell, N or J_max
    flux: np.ndarray = field(repr=False)        # flux readout per label
    U: list = field(default=None, repr=False)   # r x r local matrices
    electric: np.ndarray = field(default=None, repr=False)  # per label
    vacuum: int = None              # label of zero flux
    unit: int = None                # label of one unit of flux, or None
    gauss: np.ndarray = field(default=None, repr=False)  # (2, labels) int
    modulus: int = None             # N on Z_N links
    ladders: tuple = field(default=None, repr=False)  # SU(2) G^+

    def __post_init__(self):
        if self.gauss is None:      # Abelian: the flux at both ends
            flux = np.rint(self.flux).astype(np.int64)
            object.__setattr__(self, "gauss", np.stack([flux, flux]))

    @property
    def local_dim(self):
        return len(self.flux)


def link_ops(model, truncation):
    """The link operator set of a family at its truncation: the integer
    cutoff, ell or N of an Abelian family, the half-integer J_max of
    SU(2)."""
    if model == SU2:
        return su2_ops(truncation)
    return {KS_U1: u1_ops, SPIN_GAUGE: spin_gauge_ops,
            ZN: zn_ops}[model](int(truncation))


def _abelian(model, param, m, raising, electric, modulus=None):
    """An Abelian link set on the increasing flux labels m: U carries
    `raising` on its subdiagonal, from each label to the next, and on Z_N
    (`modulus` N) also wraps the top label to the bottom one.  The vacuum
    is the label of flux 0 and the unit of flux the label U raises it to."""
    d = len(m)
    U = np.zeros((d, d))
    U[np.arange(1, d), np.arange(d - 1)] = raising
    if modulus:
        U[0, d - 1] = 1.0
    vacuum = int(np.flatnonzero(m == 0)[0])
    up = np.flatnonzero(U[:, vacuum])
    return LinkOperatorSet(model, param, m, [[U]], electric, vacuum,
                           int(up[0]) if len(up) else None, modulus=modulus)


def u1_ops(cutoff):
    """Truncated U(1) link algebra with flux cutoff >= 0.

    Flux m = -cutoff ... cutoff; U raises the flux by one unit and
    annihilates the top state, so [L, U] = U holds with L = diag(m), and
    U^dag U = 1 everywhere except on the truncation edge.  Cutoff 0 holds
    no unit of flux.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    return _abelian(KS_U1, cutoff, m, 1.0, m * m)


def spin_gauge_ops(ell):
    """Spin-ell multiplet |ell, m>, ordered by increasing m, for the
    spin-gauge model: U is the normalized ladder L_plus / sqrt(ell(ell+1))
    of su2rep.spin_matrices, in place of the U(1) raising operator."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    m = np.arange(-ell, ell + 1, dtype=float)
    ladder = np.diagonal(su2rep.spin_matrices(ell)[1], -1)
    return _abelian(SPIN_GAUGE, ell, m,
                    1.0 / np.sqrt(ell * (ell + 1)) * ladder, m * m)


def zn_ops(n):
    """Z_N clock algebra on the P eigenbasis |m>, m in {-(N-1)/2 ... (N-1)/2}.

    P|m> = exp(i m delta)|m> with delta = 2 pi / N; the link operator U
    raises m cyclically.  Even N is relabeled onto the integer window
    {-N/2 ... N/2 - 1} (the symmetric half-integer labels would only close
    the algebra projectively).
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    d = int(n)
    delta = 2.0 * np.pi / n
    m = np.arange(d, dtype=float) - d // 2
    return _abelian(ZN, n, m, 1.0, -2.0 * np.exp(1j * delta * m).real,
                    modulus=d)


_SU2_SETS = {}


def su2_ops(j_max):
    """Truncated SU(2) link space |j m m'>, 1/2 <= j_max, from su2rep's
    tables: the Casimir j(j+1) is the flux readout and the electric value,
    U is the 2x2 entries of the rotation matrix U^{1/2}, row m and column
    m' running over 1/2, -1/2.  Built on the first call for a J_max and
    shared after, so its arrays are read-only."""
    if j_max < 0.5:
        raise ValueError("J_max must be >= 1/2")
    if j_max not in _SU2_SETS:
        labels = su2rep.link_labels(j_max)
        j, m, mp = np.array(labels).T
        casimir = j * (j + 1)
        gauss = np.array([2 * m, 2 * mp], int)
        ladders = su2rep.link_ladders(j_max)
        U = su2rep.rotation_entries(j_max, 0.5)
        for a in (casimir, gauss, *ladders, *U[0], *U[1]):
            a.flags.writeable = False
        _SU2_SETS[j_max] = LinkOperatorSet(
            SU2, j_max, casimir, U, casimir, labels.index((0, 0, 0)),
            labels.index((0.5, -0.5, -0.5)), gauss, ladders=ladders)
    return _SU2_SETS[j_max]
