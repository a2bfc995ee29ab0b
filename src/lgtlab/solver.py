"""Sparse linear-algebra backend: sector restriction, low eigenpairs,
real-time evolution, and second-order effective Hamiltonians from
energy-penalty constraints.

One size rule serves the eigensolver and the evolution: an operator of at
most DENSE_LIMIT states (or given as a dense array) is densified and
diagonalized with LAPACK; a larger sparse one is left sparse, for Lanczos
(`eigs`) or the action of the matrix exponential (`evolve`).  Both work in
the operator's own dtype, which its assembly chose (tensor.py): a real H
gives real eigenvectors, and nothing here converts it.

Everything is deterministic: the iterative eigensolver starts from a
fixed-seed random vector and small problems fall back to dense
diagonalization, so repeated runs give identical output.  The start is
random rather than the all-ones vector because the all-ones vector is
invariant under the lattice symmetries: Lanczos then never leaves the
symmetric subspace and misses the levels outside it.
"""

import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                  expm_multiply)

# the dense/sparse crossover on sector Hamiltonians (staggered chain of
# 12), 1 BLAS thread.  eigs, k = 4, Lanczos timed with its missed-level
# check: dense eigh 8.5 ms vs Lanczos 13.7 ms at 352 states, 29 vs 17 ms
# at 573 states.  evolve, 81 samples to t = 2, best of 5: dense 24.5 ms vs
# expm_multiply 52.3 ms at 352 states, 32.5 vs 51.7 ms at 400, 90.8 vs
# 69.9 ms at 573
DENSE_LIMIT = 400


class SolverError(RuntimeError):
    """Numerical or resource failure (non-convergence, singular resolvent,
    a full space too large for memory, ...)."""


@dataclass
class RunLog:
    """Problem sizes of one run, for its manifest: the largest full-space
    dimension whose Hamiltonian was assembled, the number of states of
    every Hamiltonian assembly (Model.hamiltonian), the dimension and path
    ("dense" or "lanczos") of every eigensolve and the dimension and path
    ("dense" or "expm") of every evolution, in call order, and the worst
    relative eigenpair residual."""

    dim_full: int = None
    assembly_dims: list = field(default_factory=list)
    solve_dims: list = field(default_factory=list)
    solve_paths: list = field(default_factory=list)
    evolve_dims: list = field(default_factory=list)
    evolve_paths: list = field(default_factory=list)
    worst_relative_residual: float = None


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


def log_append(name, value):
    """Append `value` to a RunLog list of the active RunLog, if any."""
    log = _RUN_LOG.get()
    if log is not None:
        getattr(log, name).append(value)


def log_max(name, value):
    """Raise a RunLog field of the active RunLog, if any, to `value`."""
    log = _RUN_LOG.get()
    if log is not None:
        setattr(log, name, max(value, getattr(log, name) or 0))


def restrict(op, sector):
    """B^dag A B with B the sector isometry: the rows and columns of the
    sector's indices, sparse for sparse input."""
    if sector.dim_full != op.shape[0]:
        raise ValueError("operator and sector dimensions differ")
    if sparse.issparse(op):
        return op.tocsr()[sector.indices, :][:, sector.indices]
    return np.asarray(op)[np.ix_(sector.indices, sector.indices)]


def eigs(op, k=1):
    """k lowest eigenpairs of a Hermitian operator, ascending.

    Dense diagonalization (of the k lowest pairs only) for dense input, up
    to DENSE_LIMIT states (_fits_dense), and whenever k >= dim - 1, which
    ARPACK cannot do; otherwise Lanczos from a fixed-seed random start
    vector, which overlaps every eigenvector (the all-ones vector is
    symmetric under the lattice symmetries and misses the levels outside
    the symmetric subspace).  Either path works in op's dtype, so a real op
    gives real eigenvectors.  Residuals
    ||A v - w v|| are checked to 1e-9 relative to max(1, |w|), and a
    Lanczos result is checked for a missed level (_check_no_missed_level);
    non-convergence raises SolverError with the iteration report.
    """
    op = op.tocsr() if sparse.issparse(op) else np.asarray(op)
    dim = op.shape[0]
    dense = _fits_dense(op) or k >= dim - 1
    if k < 1:
        raise ValueError(f"asked for {k} eigenpairs; need at least 1")
    if k > dim:
        raise ValueError(f"asked for {k} eigenpairs of a dim-{dim} operator")
    log_append("solve_dims", dim)
    log_append("solve_paths", "dense" if dense else "lanczos")

    if dense:
        w, v = eigh(_dense(op), subset_by_index=[0, k - 1])
    else:
        w, v = _lanczos(op, k, 0)

    residuals = np.linalg.norm(op @ v - v * w, axis=0)
    relative = residuals / np.maximum(1.0, np.abs(w))
    log_max("worst_relative_residual", float(relative.max()))
    bad = np.flatnonzero(relative > 1e-9)
    if len(bad):
        raise SolverError(
            f"eigenpair {bad[0]} residual {residuals[bad[0]]:.3e} too large")
    if not dense:
        _check_no_missed_level(op, w, v)
    return w, v


def _fits_dense(op):
    """The size rule: dense input, or at most DENSE_LIMIT states."""
    return not sparse.issparse(op) or op.shape[0] <= DENSE_LIMIT


def _dense(op):
    return op.toarray() if sparse.issparse(op) else op


def _start_vector(dim, seed):
    return np.random.default_rng(seed).standard_normal(dim)


def _lanczos(op, k, seed):
    """k lowest eigenpairs by ARPACK Lanczos from a seeded start, ascending,
    converged to machine precision (eigsh's default tol = 0)."""
    try:
        w, v = eigsh(op, k=k, which="SA", v0=_start_vector(op.shape[0], seed))
    except ArpackNoConvergence as exc:
        raise SolverError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(w)
    return w[order], v[:, order]


def _check_no_missed_level(op, w, v):
    """Raise SolverError if op has a level below w[-1] that the k found
    pairs (w, v) miss.

    A Krylov space built from one start vector holds one direction per
    eigenspace, so Lanczos finds the extra copies of a degenerate level
    only through roundoff, and a missed copy leaves every residual small.
    Here the found eigenvectors are lifted above w[-1] and the lowest level
    of what is left is solved for from another seed: only one value is
    asked for, and one start vector finds the lowest value.
    """
    lift = w[-1] - w[0] + 1.0

    def deflated(x):
        return op @ x + v @ (lift * (v.conj().T @ x))
    rest = LinearOperator(op.shape, matvec=deflated, dtype=op.dtype)
    low = _lanczos(rest, 1, 1)[0][0]
    if low < w[-1] - 1e-9 * max(1.0, abs(w[-1])):
        raise SolverError(
            f"Lanczos missed a level: {low:.12g} lies below the highest of "
            f"the {len(w)} levels found, {w[-1]:.12g}")


def ground_energy(op):
    return eigs(op, 1)[0][0]


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (len(times), dim)

    def norms(self):
        return np.linalg.norm(self.states, axis=1)

    def expectation(self, op):
        """<psi(t)| op |psi(t)> at every time: one product of op with all
        the states, summed row by row against their conjugates."""
        return np.sum(self.states.conj() * (op @ self.states.T).T, axis=1)


def evolve(op, state, t, steps):
    """Unitary evolution exp(-i H s)|psi> sampled at `steps`+1 equally
    spaced times in [0, t].

    For dense input and up to DENSE_LIMIT states (_fits_dense, the rule
    of `eigs`), H = V diag(w) V^dag is diagonalized once, in H's dtype, and
    every sampled state is formed
    in one product, (exp(-i outer(times, w)) * (V^dag psi)) @ V^T.  A
    larger sparse H keeps the sparse action of the matrix exponential
    (expm_multiply: scaled truncated-Taylor applications), which needs
    about twenty matvecs per sample however small H is.

    Norm drift beyond 1e-9 raises SolverError (the step-convergence flag).
    """
    state = np.asarray(state, dtype=complex)
    n0 = np.linalg.norm(state)
    if abs(n0 - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dense = _fits_dense(op)
    log_append("evolve_dims", op.shape[0])
    log_append("evolve_paths", "dense" if dense else "expm")
    times = np.linspace(0.0, float(t), steps + 1)
    if dense:
        w, v = eigh(_dense(op))
        states = (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ state)) \
            @ v.T
    else:
        states = expm_multiply((-1j) * op.tocsc(), state, start=0.0,
                               stop=float(t), num=steps + 1, endpoint=True)
    traj = Trajectory(times, np.asarray(states))
    drift = np.max(np.abs(traj.norms() - 1.0))
    if drift > 1e-9:
        raise SolverError(f"evolution norm drift {drift:.3e} exceeds 1e-9")
    return traj


@dataclass
class EffectiveHamiltonianReport:
    """Second-order effective Hamiltonian on a protected sector."""

    h_eff: np.ndarray
    pvp_norm: float = 0.0
    pattern_coefficient: complex = None
    pattern_remainder: float = None


def effective_second_order(h0, v, sector, rest=None, pattern=None):
    """Degenerate second-order perturbation theory on a penalty sector.

    The sector is a set of product states (gauge.sector_basis), so P v is
    the columns of v at the sector's indices.  h0 must be diagonal in the
    product basis (true for the Abelian penalty lambda sum G^2) and
    constant on the sector; v is the perturbation with P v P = 0 there.
    Returns

        H_eff = P rest P + P v Q (E0 - h0)^{-1} Q v P

    restricted to the sector; `rest` and `pattern` are sparse operators on
    the full space.  `pattern` requests the Frobenius projection of the
    second-order block onto the restriction of that operator: the returned
    coefficient is the weight of the pattern inside H_eff's second-order
    part, and pattern_remainder is the norm of what is left after
    subtracting it.  An off-sector state within 1e-9 of E0 makes the
    resolvent singular and raises SolverError.
    """
    diag = np.asarray(h0.diagonal()).real
    off = h0 - sparse.diags(h0.diagonal())
    if off.nnz and np.max(np.abs(off.data)) > 1e-12:
        raise ValueError("penalty part must be diagonal in the product basis")

    idx = sector.indices
    e0_vals = diag[idx]
    e0 = float(e0_vals[0]) if len(e0_vals) else 0.0
    if len(e0_vals) and np.max(np.abs(e0_vals - e0)) > 1e-10:
        raise ValueError("sector is not degenerate under the penalty part")

    W = v.tocsc()[:, idx]                   # columns: v|sector state>
    pvp = W[idx, :]
    pvp_norm = 0.0 if pvp.nnz == 0 else float(np.max(np.abs(pvp.data)))

    gaps = e0 - diag                        # (E0 - H0) per full-space state
    in_sector = np.zeros(len(diag), dtype=bool)
    in_sector[idx] = True
    W = W.tocoo()
    off = ~in_sector[W.row]                 # P v P entries are not in Q
    g = gaps[W.row]
    singular = off & (np.abs(g) < 1e-9)
    if singular.any():
        n = np.argmax(singular)
        raise SolverError(
            f"singular resolvent: off-sector state {W.row[n]} is degenerate "
            f"with the sector (gap {g[n]:.3e})")
    data = np.zeros_like(W.data)
    data[off] = W.data[off] / g[off]
    RW = sparse.coo_matrix((data, (W.row, W.col)), shape=W.shape).tocsc()
    second = np.asarray((W.tocsc().conj().T @ RW).todense())
    second = (second + second.conj().T) / 2.0

    h_eff = second
    if rest is not None:
        h_eff = second + restrict(rest, sector).toarray()

    coeff = remainder = None
    if pattern is not None:
        pat = restrict(pattern, sector).toarray()
        denom = np.vdot(pat, pat).real
        if denom > 0:
            coeff = complex(np.vdot(pat, second) / denom)
            remainder = float(np.linalg.norm(second - coeff * pat))
        else:
            coeff = 0.0j
            remainder = float(np.linalg.norm(second))

    return EffectiveHamiltonianReport(
        h_eff=h_eff, pvp_norm=pvp_norm, pattern_coefficient=coeff,
        pattern_remainder=remainder)
