"""Single-link operator algebras as small dense matrices.

Three families are provided, all in the electric-flux eigenbasis
(eigenvalues increasing along the basis order):

* truncated U(1): integer flux m in [-cutoff, cutoff], hard-truncated
  raising operator U (U on the top state gives zero),
* spin-gauge: a spin-ell multiplet with L_z as the electric field and the
  normalized ladder L_plus / sqrt(ell(ell+1)) standing in for U,
* Z_N clock algebra: unitary P (phases) and Q (cyclic shift) with
  P_dag Q P = exp(i 2 pi / N) Q.

Dimensions stay tiny (<= ~20); sparsity is handled only at the
tensor-product level.  Every matrix is real and stored float64 except the
Z_N phases P and P_dag (the dtype rule of tensor.py).
"""

from dataclasses import dataclass, field

import numpy as np

U1_TRUNCATED = "u1_truncated"
SPIN_GAUGE = "spin_gauge"
ZN = "zn"


@dataclass(frozen=True)
class LinkOperatorSet:
    model: str
    local_dim: int
    param: int                      # cutoff, ell or N
    ops: dict = field(repr=False)   # name -> ndarray, float64 when real

    def __getitem__(self, name):
        return self.ops[name]

    @property
    def flux_values(self):
        """Diagonal of the flux readout observable, in basis order."""
        return np.diag(self.ops["flux"]).copy()


def u1_ops(cutoff):
    """Truncated U(1) link algebra with flux cutoff >= 0.

    L = diag(-cutoff ... cutoff); U raises the flux by one unit and
    annihilates the top state, so [L, U] = U holds everywhere except on
    the truncation edge.
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
    return LinkOperatorSet(U1_TRUNCATED, d, cutoff, ops)


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
    return LinkOperatorSet(SPIN_GAUGE, d, ell, ops)


def zn_ops(n):
    """Z_N clock algebra on the P eigenbasis |m>, m in {-(N-1)/2 ... (N-1)/2}.

    P|m> = exp(i m delta)|m> with delta = 2 pi / N; Q lowers m cyclically.
    Even N is relabeled onto the integer window {-N/2 ... N/2 - 1} (the
    symmetric half-integer labels would only close the algebra
    projectively).
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    d = int(n)
    delta = 2.0 * np.pi / n
    if d % 2 == 1:
        m = np.arange(d, dtype=float) - (d - 1) / 2.0
    else:
        m = np.arange(d, dtype=float) - d / 2.0
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
    return LinkOperatorSet(ZN, d, n, ops)
