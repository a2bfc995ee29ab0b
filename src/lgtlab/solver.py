"""Sparse linear-algebra backend: sector restriction, low eigenpairs,
real-time evolution, and second-order effective Hamiltonians from
energy-penalty constraints.

Everything is deterministic: the iterative eigensolver always starts from
the normalized all-ones vector and small problems fall back to dense
diagonalization, so repeated runs give identical output.
"""

import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, expm_multiply

DENSE_LIMIT = 2000


class SolverError(RuntimeError):
    """Numerical or resource failure (non-convergence, singular resolvent,
    a full space too large for memory, ...)."""


@dataclass
class RunLog:
    """Problem sizes of one run, for its manifest: the largest full-space
    dimension whose Hamiltonian was assembled, and the dimension of every
    eigensolve and evolution, in call order."""

    dim_full: int = None
    solve_dims: list = field(default_factory=list)
    evolve_dims: list = field(default_factory=list)


_RUN_LOG = contextvars.ContextVar("run_log", default=None)


@contextlib.contextmanager
def run_log():
    """Collect a RunLog of the assemblies, solves and evolutions inside."""
    log = RunLog()
    token = _RUN_LOG.set(log)
    try:
        yield log
    finally:
        _RUN_LOG.reset(token)


def log_dim_full(dim):
    """Note a full-space dimension in the active RunLog, if any."""
    log = _RUN_LOG.get()
    if log is not None:
        log.dim_full = max(dim, log.dim_full or 0)


def _log(name, dim):
    log = _RUN_LOG.get()
    if log is not None:
        getattr(log, name).append(dim)


def restrict(op, sector):
    """B^dag A B with B the sector isometry.

    Exact (an index selection) for enumeration sectors; a dense projection
    for kernel-based sectors.  Returns a sparse matrix in the first case
    and a dense array in the second.
    """
    if sector.dim_full != op.shape[0]:
        raise ValueError("operator and sector dimensions differ")
    if sector.indices is not None:
        if sparse.issparse(op):
            csr = op.tocsr()
            return csr[sector.indices, :][:, sector.indices]
        return np.asarray(op)[np.ix_(sector.indices, sector.indices)]
    B = sector.basis
    return B.conj().T @ (op @ B)


def eigs(op, k=1, tol=0.0):
    """k lowest eigenpairs of a Hermitian operator, ascending.

    Dense diagonalization below DENSE_LIMIT (of the real part when the
    imaginary part is exactly zero, and only for the k lowest pairs),
    otherwise Lanczos with the fixed all-ones start vector.  Residuals
    ||A v - w v|| are checked to 1e-9; non-convergence raises SolverError
    with the iteration report.
    """
    if sparse.issparse(op):
        dim = op.shape[0]
        dense = dim <= DENSE_LIMIT
    else:
        op = np.asarray(op)
        dim = op.shape[0]
        dense = True
    if k < 1:
        raise ValueError(f"asked for {k} eigenpairs; need at least 1")
    if k > dim:
        raise ValueError(f"asked for {k} eigenpairs of a dim-{dim} operator")
    _log("solve_dims", dim)

    if dense:
        mat = op.toarray() if sparse.issparse(op) else op
        if np.iscomplexobj(mat) and not mat.imag.any():
            mat = mat.real
        w, v = eigh(mat, subset_by_index=[0, k - 1])
    else:
        v0 = np.ones(dim) / np.sqrt(dim)
        try:
            w, v = eigsh(op, k=k, which="SA", v0=v0, tol=tol)
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"eigensolver failed to converge: {exc}") from exc
        order = np.argsort(w)
        w, v = w[order], v[:, order]

    for i in range(k):
        r = np.linalg.norm(op @ v[:, i] - w[i] * v[:, i])
        if r > 1e-9 * max(1.0, abs(w[i])):
            raise SolverError(f"eigenpair {i} residual {r:.3e} too large")
    return w, v


def ground_energy(op):
    return eigs(op, 1)[0][0]


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (len(times), dim)

    def norms(self):
        return np.linalg.norm(self.states, axis=1)

    def expectation(self, op):
        out = np.empty(len(self.times), dtype=complex)
        for i, psi in enumerate(self.states):
            out[i] = np.vdot(psi, op @ psi)
        return out


def evolve(op, state, t, steps):
    """Unitary evolution exp(-i H s)|psi> sampled at `steps`+1 times in
    [0, t], via the sparse action of the matrix exponential (scaled
    truncated-Taylor applications, no explicit dense exponential).

    Norm drift beyond 1e-9 raises SolverError (the step-convergence flag).
    """
    state = np.asarray(state, dtype=complex)
    n0 = np.linalg.norm(state)
    if abs(n0 - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _log("evolve_dims", op.shape[0])
    A = (-1j) * op.tocsc()
    states = expm_multiply(A, state, start=0.0, stop=float(t),
                           num=steps + 1, endpoint=True)
    times = np.linspace(0.0, float(t), steps + 1)
    traj = Trajectory(times, np.asarray(states))
    drift = np.max(np.abs(traj.norms() - 1.0))
    if drift > 1e-9:
        raise SolverError(f"evolution norm drift {drift:.3e} exceeds 1e-9")
    return traj


@dataclass
class EffectiveHamiltonianReport:
    """Second-order effective Hamiltonian on a protected sector."""

    h_eff: np.ndarray
    e0: float
    first_order: np.ndarray = field(repr=False, default=None)
    second_order: np.ndarray = field(repr=False, default=None)
    pvp_norm: float = 0.0
    leakage_min_gap: float = 0.0
    pattern_coefficient: complex = None
    pattern_remainder: float = None


def effective_second_order(h0, v, sector, rest=None, pattern=None,
                           gap_tol=1e-9):
    """Degenerate second-order perturbation theory on a penalty sector.

    h0 must be diagonal in the product basis (true for the Abelian penalty
    lambda sum G^2) and constant on the sector; v is the perturbation with
    P v P = 0 there.  Returns

        H_eff = P rest P + P v Q (E0 - h0)^{-1} Q v P

    restricted to the sector.  `pattern` (an operator on the full space)
    requests the Frobenius projection of the second-order block onto the
    restriction of that operator: the returned coefficient is the weight of
    the pattern inside H_eff's second-order part, and pattern_remainder is
    the norm of what is left after subtracting it.
    """
    if sector.indices is None:
        raise ValueError("effective construction needs an enumeration sector")
    diag = np.asarray(h0.diagonal()).real
    off = h0 - sparse.diags(h0.diagonal())
    if off.nnz and np.max(np.abs(off.data)) > 1e-12:
        raise ValueError("penalty part must be diagonal in the product basis")

    idx = sector.indices
    e0_vals = diag[idx]
    e0 = float(e0_vals[0]) if len(e0_vals) else 0.0
    if len(e0_vals) and np.max(np.abs(e0_vals - e0)) > 1e-10:
        raise ValueError("sector is not degenerate under the penalty part")

    B = sector.selection()
    W = (v @ B).tocsc()                     # columns: v|sector basis state>
    pvp = W[idx, :]
    pvp_norm = 0.0 if pvp.nnz == 0 else float(np.max(np.abs(pvp.data)))

    gaps = e0 - diag                        # (E0 - H0) per full-space state
    in_sector = np.zeros(len(diag), dtype=bool)
    in_sector[idx] = True
    W = W.tocoo()
    off = ~in_sector[W.row]                 # P v P entries are not in Q
    g = gaps[W.row]
    singular = off & (np.abs(g) < gap_tol)
    if singular.any():
        n = np.argmax(singular)
        raise SolverError(
            f"singular resolvent: off-sector state {W.row[n]} is degenerate "
            f"with the sector (gap {g[n]:.3e})")
    min_gap = np.min(np.abs(g[off]), initial=np.inf)
    data = np.zeros_like(W.data)
    data[off] = W.data[off] / g[off]
    RW = sparse.coo_matrix((data, (W.row, W.col)), shape=W.shape).tocsc()
    second = np.asarray((W.tocsc().conj().T @ RW).todense())
    second = (second + second.conj().T) / 2.0

    first = None
    h_eff = second.copy()
    if rest is not None:
        first = np.asarray(restrict(rest, sector).todense()) \
            if sparse.issparse(rest) else restrict(rest, sector)
        first = np.asarray(first)
        h_eff = h_eff + first

    coeff = None
    remainder = None
    if pattern is not None:
        pat = restrict(pattern, sector)
        pat = np.asarray(pat.todense()) if sparse.issparse(pat) else pat
        denom = np.vdot(pat, pat).real
        if denom > 0:
            coeff = complex(np.vdot(pat, second) / denom)
            remainder = float(np.linalg.norm(second - coeff * pat))
        else:
            coeff = 0.0j
            remainder = float(np.linalg.norm(second))

    return EffectiveHamiltonianReport(
        h_eff=h_eff, e0=e0, first_order=first, second_order=second,
        pvp_norm=pvp_norm,
        leakage_min_gap=float(min_gap if np.isfinite(min_gap) else 0.0),
        pattern_coefficient=coeff, pattern_remainder=remainder)
