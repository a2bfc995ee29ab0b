"""Sparse linear-algebra backend: low eigenpairs and real-time evolution
of a given operator, and the run's stage records.

One size rule serves the eigensolver and the evolution: an operator of at
most DENSE_LIMIT states (or given as a dense array) is densified and
diagonalized with LAPACK; a larger sparse one is left sparse, for Lanczos
(`eigs`) or the action of the matrix exponential (`evolve`).  Both work in
the operator's own dtype, which its assembly chose (tensor.py): a real H
gives real eigenvectors, and nothing here converts it.  An operator with
an inf or nan entry raises SolverError before either path runs, as does
any ARPACK failure.

Everything is deterministic: the iterative eigensolver starts from a
fixed-seed random vector and small problems fall back to dense
diagonalization, so repeated runs give identical output.  The start is
random rather than the all-ones vector because the all-ones vector is
invariant under the lattice symmetries: Lanczos then never leaves the
symmetric subspace and misses the levels outside it.  Each Lanczos solve
is followed by a missed-level guard, a second, cheaper Lanczos run on the
deflated operator (_check_no_missed_level).

A run's log (run_log) is one list of timed stage records (stage): `eigs`
writes a `solve` record (dim, path, nnz, the matvecs of the Lanczos run
and of its guard, the worst relative residual) and `evolve` an `evolve`
record (dim, path, nnz).
"""

import contextlib
import contextvars
import time

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, \
    expm_multiply

# the dense/sparse crossover on sector Hamiltonians (staggered chain of
# 12, eps 0.5, mass 0.2), 1 BLAS thread, two runs.  eigs, k = 4, best of
# 7, Lanczos timed with its missed-level guard (at ARPACK tol 1e-6): dense
# eigh 5.6-6.1 ms vs Lanczos 5.6-5.8 ms at 352 states, 7.1-7.2 vs 6.7-7.8
# ms at 400, 20 vs 7 ms at 573 (with the guard at tol 0 it was 8.5 vs
# 13.7 ms at 352).  evolve, 81 samples to t = 2, best of 5: dense 26-28
# ms vs expm_multiply 49-52 ms at 352 states, 33 vs 50 ms at 400, 93 vs
# 60 ms at 573.  eigs now breaks even at 352-400 states; the limit stays
# at 400 because evolve, which shares it, still gains from dense there
DENSE_LIMIT = 400


class SolverError(RuntimeError):
    """Numerical or resource failure (non-convergence, singular resolvent,
    a full space too large for memory, ...)."""


_RUN_LOG = contextvars.ContextVar("run_log", default=None)


@contextlib.contextmanager
def run_log():
    """Collect the stage records of the run inside: a list, in the order
    the stages end."""
    log = []
    token = _RUN_LOG.set(log)
    try:
        yield log
    finally:
        _RUN_LOG.reset(token)


@contextlib.contextmanager
def stage(name, **facts):
    """Time the block as stage `name`: when it ends, also by a raise,
    {"stage": name, "seconds": ..., **facts} is appended to the active
    run_log(), if any.  Yields that record, for the facts the block learns
    on the way."""
    log = _RUN_LOG.get()
    record = {"stage": name, "seconds": None, **facts}
    start = time.perf_counter()
    try:
        yield record
    finally:
        record["seconds"] = time.perf_counter() - start
        if log is not None:
            log.append(record)


def eigs(op, k=1):
    """k lowest eigenpairs of a Hermitian operator, ascending.

    Dense diagonalization (of the k lowest pairs only) for dense input, up
    to DENSE_LIMIT states (_fits_dense), and whenever k >= dim - 1, which
    ARPACK cannot do; otherwise Lanczos from a fixed-seed random start
    vector, which overlaps every eigenvector (the all-ones vector is
    symmetric under the lattice symmetries and misses the levels outside
    the symmetric subspace).  Either path works in op's dtype, so a real op
    gives real eigenvectors.  An op with an inf or nan entry raises
    SolverError before either path runs.  Residuals ||A v - w v|| are
    checked to 1e-9 relative to max(1, |w|), and a Lanczos result, solved
    to machine precision, is checked for a missed level
    (_check_no_missed_level).  Both ARPACK runs see the CSR through a
    _Counted operator, which counts their matvecs into the `solve` stage
    record (0 on the dense path), also when the solve raises.  Any ARPACK
    failure, non-convergence included, raises SolverError with ARPACK's
    report.
    """
    op = op.tocsr() if sparse.issparse(op) else np.asarray(op)
    dim = op.shape[0]
    dense = _fits_dense(op) or k >= dim - 1
    if k < 1:
        raise ValueError(f"asked for {k} eigenpairs; need at least 1")
    if k > dim:
        raise ValueError(f"asked for {k} eigenpairs of a dim-{dim} operator")
    _check_finite(op)
    with stage("solve", dim=dim, path="dense" if dense else "lanczos",
               nnz=op.nnz if sparse.issparse(op) else 0,
               residual=None) as record:
        solve = _Counted(op, record, "matvecs")
        guard = _Counted(op, record, "guard_matvecs")
        if dense:
            w, v = eigh(_dense(op), subset_by_index=[0, k - 1])
        else:
            w, v = _lanczos(solve, k, 0, tol=0.0)

        residuals = np.linalg.norm(op @ v - v * w, axis=0)
        relative = residuals / np.maximum(1.0, np.abs(w))
        record["residual"] = float(relative.max())
        bad = np.flatnonzero(relative > 1e-9)
        if len(bad):
            raise SolverError(
                f"eigenpair {bad[0]} residual {residuals[bad[0]]:.3e} too "
                f"large")
        if not dense:
            _check_no_missed_level(guard, w, v)
    return w, v


def _fits_dense(op):
    """The size rule: dense input, or at most DENSE_LIMIT states."""
    return not sparse.issparse(op) or op.shape[0] <= DENSE_LIMIT


def _dense(op):
    return op.toarray() if sparse.issparse(op) else op


def _check_finite(op):
    """Raise SolverError if op has an inf or nan entry."""
    bad = np.count_nonzero(~np.isfinite(op.data if sparse.issparse(op)
                                        else op))
    if bad:
        raise SolverError(f"operator has {bad} non-finite (inf or nan) "
                          f"entries")


class _Counted(LinearOperator):
    """A CSR matrix as a LinearOperator whose matvec is the CSR's own
    product, counting the products in record[key] (from 0).  The product
    is the one eigsh would form through its own wrapper
    (`aslinearoperator`), so the eigenpairs are the same, bit for bit, with
    a shorter call path."""

    def __init__(self, op, record, key):
        super().__init__(op.dtype, op.shape)
        self.op, self.record, self.key = op, record, key
        record[key] = 0

    def _matvec(self, x):
        self.record[self.key] += 1
        return self.op @ x


def _start_vector(dim, seed):
    return np.random.default_rng(seed).standard_normal(dim)


def _lanczos(op, k, seed, tol):
    """k lowest eigenpairs by ARPACK Lanczos from a seeded start, ascending,
    stopped at ARPACK's relative tolerance `tol` (0: machine precision);
    any ARPACK failure raises SolverError."""
    try:
        w, v = eigsh(op, k=k, which="SA", v0=_start_vector(op.shape[0], seed),
                     tol=tol)
    except ArpackError as exc:
        raise SolverError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(w)
    return w[order], v[:, order]


# ARPACK's relative tolerance for the missed-level guard's run; the
# argument is in _check_no_missed_level
_GUARD_TOL = 1e-6


def _check_no_missed_level(op, w, v):
    """Raise SolverError if op (a _Counted) has a level below w[-1] that the
    k found pairs (w, v) miss; return the lowest value of the deflated
    operator that decides it.

    A Krylov space built from one start vector holds one direction per
    eigenspace, so Lanczos finds the extra copies of a degenerate level
    only through roundoff, and a missed copy leaves every residual small.
    Here the found eigenvectors are lifted above w[-1] (the projection
    lift v^dag is formed once) and the lowest level of what is left is
    solved for from another seed: only one value is asked for, and one
    start vector finds the lowest value.  The decision is
    theta < w[-1] - 1e-9 max(1, |w[-1]|).

    That run stops at ARPACK tol _GUARD_TOL = 1e-6 (residual ||r|| at most
    1e-6 |theta|), not at machine precision, because the decision needs
    theta to about 1e-10, not 1e-16:
    - theta is a Rayleigh quotient of the deflated operator, so it never
      lies below that operator's lowest level: a looser stop cannot raise
      falsely;
    - a Ritz value's error is quadratic in its residual,
      |theta - lambda| <= ||r||^2 / gap (Parlett, The Symmetric Eigenvalue
      Problem, ch. 11), about 1e-12 |theta|^2 / gap at this tol;
    - measured on the sector Hamiltonians of the tests (tests/test_solver.py
      LANCZOS_CASES), theta moves by at most 2e-14 relative against
      tol = 0, while the run takes 24-44% fewer matvecs (91 -> 51 on the
      1,333-state torus sector); tol = 1e-3 saves up to 20 more but moves
      theta by up to 1e-6 (the same sector at g2 = 0.5), past the margin.
    The main solve stays at tol = 0: at 1e-14, 1e-12 or 1e-10 it dropped a
    copy of the 4-fold first excited level of that sector (error 0.6-0.7)
    at some tolerance for each of four couplings.
    """
    lift = (w[-1] - w[0] + 1.0) * v.conj().T

    def deflated(x):
        return op.matvec(x) + v @ (lift @ x)
    rest = LinearOperator(op.shape, matvec=deflated, dtype=op.dtype)
    low = _lanczos(rest, 1, 1, tol=_GUARD_TOL)[0][0]
    if low < w[-1] - 1e-9 * max(1.0, abs(w[-1])):
        raise SolverError(
            f"Lanczos missed a level: {low:.12g} lies below the highest of "
            f"the {len(w)} levels found, {w[-1]:.12g}")
    return low


def ground_energy(op):
    return eigs(op, 1)[0][0]


def evolve(op, state, t, steps):
    """Unitary evolution exp(-i H s)|psi> sampled at `steps`+1 equally
    spaced times in [0, t]: (times, states), the states a (times, dim)
    array.

    For dense input and up to DENSE_LIMIT states (_fits_dense, the rule
    of `eigs`), H = V diag(w) V^dag is diagonalized once, in H's dtype, and
    every sampled state is formed in one product,
    (exp(-i outer(times, w)) * (V^dag psi)) @ V^T, except the t = 0 state,
    which is psi itself as on the other path.  A larger sparse H keeps the
    sparse action of the matrix exponential (expm_multiply: scaled
    truncated-Taylor applications), which needs about twenty matvecs per
    sample however small H is.

    Timed as an `evolve` stage.  An H with an inf or nan entry raises
    SolverError before either path runs, and norm drift beyond 1e-9
    raises SolverError (the step-convergence flag), as does a norm that is
    not finite (a t so large that the phases overflow).
    """
    state = np.asarray(state, dtype=complex)
    n0 = np.linalg.norm(state)
    if abs(n0 - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_finite(op)
    dense = _fits_dense(op)
    times = np.linspace(0.0, float(t), steps + 1)
    with stage("evolve", dim=op.shape[0], path="dense" if dense else "expm",
               nnz=op.nnz if sparse.issparse(op) else 0):
        if dense:
            w, v = eigh(_dense(op))
            states = (np.exp(-1j * np.outer(times, w))
                      * (v.conj().T @ state)) @ v.T
            states[0] = state
        else:
            states = expm_multiply((-1j) * op.tocsc(), state, start=0.0,
                                   stop=float(t), num=steps + 1,
                                   endpoint=True)
    drift = norm_drift(states)
    if not drift <= 1e-9:                       # also when drift is nan
        raise SolverError(f"evolution norm drift {drift:.3e} exceeds 1e-9")
    return times, states


def norm_drift(states):
    """max | ||psi(t)|| - 1 | over the rows of a (times, dim) stack."""
    return float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
