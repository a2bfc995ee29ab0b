"""Single-link operator algebras as small dense matrices, one per family.

The four link families carry the names of ``HamiltonianSpec.model``, all in
the electric-flux eigenbasis:

* ``ks_u1``, truncated U(1): integer flux m in [-cutoff, cutoff], hard-
  truncated raising operator U (U on the top state gives zero),
* ``spin_gauge``: a spin-ell multiplet with L_z as the electric field and
  the normalized ladder L_plus / sqrt(ell(ell+1)) standing in for U,
* ``zn``, Z_N clock algebra: unitary P (phases) and Q (cyclic shift) with
  P_dag Q P = exp(i 2 pi / N) Q; U is Q_dag, the shift that raises m,
* ``su2``, truncated SU(2): the |j m m'> space with j <= J_max of su2rep.

Every family gives its link operator U as an r x r matrix of local
matrices (``LinkOperatorSet.U``): [[U]] (r = 1) on the three Abelian
families, the 2x2 entries U^{1/2}_{mm'} (m, m' = 1/2, -1/2) of the
fundamental rotation matrix on SU(2) links.  The Hamiltonian's magnetic and
gauge-matter terms are written once over these entries.  Each set also
carries its electric values at unit coupling, one per label: m^2 (U(1),
spin-gauge), -2 cos(2 pi m / N) (Z_N, the diagonal of -(P + P_dag)) and
j(j+1) (SU(2)); and the labels of its vacuum and of one unit of string
flux: flux readout 1 (modulo N on Z_N, so Z_2 reads -1) and, on SU(2), a
state of the lowest Casimir above zero, j = 1/2.  The Gauss law reads each
set too: ``gauss`` is, per label, the diagonal generator's integer value
at a link's out and in ends (the flux, or 2m and 2m' on SU(2), G^z = L^z,
R^z in half units), ``modulus`` is N on Z_N links, and SU(2)'s
``ladders`` are L^x + i L^y and R^x + i R^y.

Dimensions stay tiny (<= ~20, SU(2) 14 at J_max = 1); sparsity is handled
only at the tensor-product level.  Every matrix is real and stored float64
except the Z_N phases P and P_dag (the dtype rule of tensor.py).
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
    local_dim: int
    param: int                      # cutoff, ell, N or J_max
    ops: dict = field(repr=False)   # name -> ndarray, float64 when real
    U: list = field(default=None, repr=False)   # r x r local matrices
    electric: np.ndarray = field(default=None, repr=False)  # per label
    vacuum: int = None              # label of zero flux
    unit: int = None                # label of one unit of flux, or None
    gauss: np.ndarray = field(default=None, repr=False)  # (2, labels) int
    modulus: int = None             # N on Z_N links
    ladders: tuple = field(default=None, repr=False)  # SU(2) L[m], R[p]

    def __post_init__(self):
        if self.gauss is None:      # Abelian: the flux at both ends
            flux = np.rint(self.flux_values).astype(np.int64)
            object.__setattr__(self, "gauss", np.stack([flux, flux]))

    def __getitem__(self, name):
        return self.ops[name]

    @property
    def flux_values(self):
        """Diagonal of the flux readout observable, in basis order."""
        return np.diag(self.ops["flux"]).copy()


def link_ops(model, truncation):
    """The link operator set of a family at its truncation: the integer
    cutoff, ell or N of an Abelian family, the half-integer J_max of
    SU(2)."""
    if model == SU2:
        return su2_ops(truncation)
    return {KS_U1: u1_ops, SPIN_GAUGE: spin_gauge_ops,
            ZN: zn_ops}[model](int(truncation))


def u1_ops(cutoff):
    """Truncated U(1) link algebra with flux cutoff >= 0.

    L = diag(-cutoff ... cutoff); U raises the flux by one unit and
    annihilates the top state, so [L, U] = U holds everywhere except on
    the truncation edge.  Cutoff 0 holds no unit of flux.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    d = 2 * cutoff + 1
    m = np.arange(-cutoff, cutoff + 1, dtype=float)
    L = np.diag(m)
    U = np.zeros((d, d))
    for i in range(d - 1):
        U[i + 1, i] = 1.0
    ops = {"L": L, "U": U, "Udag": U.T, "flux": L}
    return LinkOperatorSet(KS_U1, d, cutoff, ops, [[U]], m * m, cutoff,
                           cutoff + 1 if cutoff else None)


def spin_gauge_ops(ell):
    """Spin-ell angular momentum matrices for the spin-gauge model.

    Basis |ell, m> ordered by increasing m.  "Unorm" is the normalized
    ladder L_plus / sqrt(ell(ell+1)) that replaces the U(1) raising
    operator.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    d = 2 * ell + 1
    m = np.arange(-ell, ell + 1, dtype=float)
    Lz = np.diag(m)
    Lp = np.zeros((d, d))
    for i in range(d - 1):
        # <m+1| L_+ |m> = sqrt(ell(ell+1) - m(m+1))
        Lp[i + 1, i] = np.sqrt(ell * (ell + 1) - m[i] * (m[i] + 1))
    Lm = Lp.T
    norm = 1.0 / np.sqrt(ell * (ell + 1))
    ops = {
        "Lz": Lz,
        "Lp": Lp,
        "Lm": Lm,
        "U": norm * Lp,
        "Udag": norm * Lm,
        "flux": Lz,
    }
    return LinkOperatorSet(SPIN_GAUGE, d, ell, ops, [[ops["U"]]], m * m, ell,
                           ell + 1)


def zn_ops(n):
    """Z_N clock algebra on the P eigenbasis |m>, m in {-(N-1)/2 ... (N-1)/2}.

    P|m> = exp(i m delta)|m> with delta = 2 pi / N; Q lowers m cyclically,
    so the link operator U = Q_dag raises it.  Even N is relabeled onto the
    integer window {-N/2 ... N/2 - 1} (the symmetric half-integer labels
    would only close the algebra projectively).
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    d = int(n)
    delta = 2.0 * np.pi / n
    vacuum = d // 2
    m = np.arange(d, dtype=float) - vacuum
    P = np.diag(np.exp(1j * delta * m))
    Q = np.zeros((d, d))
    for i in range(d):
        # Q|m> = |m-1>, wrapping the bottom state to the top
        Q[(i - 1) % d, i] = 1.0
    ops = {
        "P": P,
        "Pdag": P.conj().T,
        "Q": Q,
        "Qdag": Q.T,
        "flux": np.diag(m),
    }
    return LinkOperatorSet(ZN, d, n, ops, [[ops["Qdag"]]],
                           -2.0 * P.diagonal().real, vacuum,
                           (vacuum + 1) % d, modulus=d)


def su2_ops(j_max):
    """Truncated SU(2) link space |j m m'>, j <= J_max (su2rep): the
    Casimir j(j+1) is the flux readout and the electric value, and U is
    the 2x2 entries of the rotation matrix U^{1/2}, row m and column m'
    running over 1/2, -1/2.  Both are shared with su2rep's caches."""
    lsp = su2rep.su2_link_space(j_max)
    U = su2rep.truncated_rotation_matrix(lsp, 0.5).entries
    gauss = np.array([(2 * m, 2 * mp) for _, m, mp in lsp.basis], int).T
    return LinkOperatorSet(SU2, lsp.local_dim, j_max, {"flux": lsp.casimir},
                           U, np.diag(lsp.casimir), lsp.state_index(0, 0, 0),
                           lsp.state_index(0.5, -0.5, -0.5), gauss,
                           ladders=(lsp.L["m"], lsp.R["p"]))
