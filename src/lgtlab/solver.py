"""Sparse linear-algebra backend: low eigenpairs and real-time evolution
of a given operator, and the run's stage records.

Both take the operator as a scipy sparse matrix, its one form here, and
one size rule serves them: an operator of at most DENSE_LIMIT states is
densified and diagonalized with LAPACK; a larger one is left sparse, for
Lanczos (`eigs`) or the action of the matrix exponential (`evolve`).
Both work in the operator's own dtype, which its assembly chose
(tensor.py): a real H gives real eigenvectors, and nothing here converts
it.  An operator with an inf or nan entry raises SolverError before
either path runs, as does any ARPACK failure, and so does an evolution
whose sampled states would not fit in the memory the process may use
(usable_memory), before they are allocated.

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
record (dim, path, nnz, predicted_mb and, on the expm path,
predicted_matvecs).
"""

import contextlib
import contextvars
import os
import resource
import time

import numpy as np
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

# peak bytes per sampled amplitude (one state's entry at one sample time)
# of an evolution and the observables read from it: tracemalloc peaks of
# `dynamics` on the string sectors of the staggered chain (eps 0.5, mass
# 0.2) were 4.02-4.06 times the (steps + 1) x dim complex table at 1,001
# samples on the chains of 8 (25 states, dense) and 13 (417, expm), and
# 4.09-5.7 times at 201 samples or on the 7-state sector of the chain of
# 6, where fixed costs still count; 66 bytes is 4.125 such tables.  The
# whole run, its CSVs written in row blocks (cli.Writer.csv), peaked at
# 0.97-1.10 times the prediction on the chains of 6 and 8 at 20,001
# samples and of 13 at 2,001
EVOLVE_BYTES_PER_AMPLITUDE = 66
MEMINFO = "/proc/meminfo"


class SolverError(RuntimeError):
    """Numerical or resource failure (non-convergence, singular resolvent,
    a full space too large for memory, ...)."""


def usable_memory():
    """Bytes this process may still allocate: the lesser of the host's
    MemAvailable and the address-space limit (either may be unknown)."""
    limits = []
    soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append(soft)
    if os.path.exists(MEMINFO):
        with open(MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    limits.append(int(line.split()[1]) * 1024)
    return min(limits, default=float("inf"))


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
    """k lowest eigenpairs of a Hermitian scipy sparse operator, ascending.

    Dense diagonalization (of the k lowest pairs only) up to DENSE_LIMIT
    states, and whenever k >= dim - 1, which ARPACK cannot do; otherwise
    Lanczos from a fixed-seed random start vector, which overlaps every
    eigenvector (the all-ones vector is
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
    op = op.tocsr()
    dim = op.shape[0]
    dense = dim <= DENSE_LIMIT or k >= dim - 1
    if k < 1:
        raise ValueError(f"asked for {k} eigenpairs; need at least 1")
    if k > dim:
        raise ValueError(f"asked for {k} eigenpairs of a dim-{dim} operator")
    _check_finite(op)
    with stage("solve", dim=dim, path="dense" if dense else "lanczos",
               nnz=op.nnz, residual=None) as record:
        solve = _Counted(op, record, "matvecs")
        guard = _Counted(op, record, "guard_matvecs")
        if dense:
            w, v = eigh(op.toarray(), subset_by_index=[0, k - 1])
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


def _check_finite(op):
    """Raise SolverError if op has an inf or nan stored entry."""
    bad = np.count_nonzero(~np.isfinite(op.data))
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

    H is a scipy sparse matrix.  Up to DENSE_LIMIT states (the rule of
    `eigs`), H = V diag(w) V^dag is diagonalized once, in H's dtype, and
    every sampled state is formed in one product,
    (exp(-i outer(times, w)) * (V^dag psi)) @ V^T, except the t = 0 state,
    which is psi itself as on the other path.  A larger sparse H keeps the
    sparse action of the matrix exponential (expm_multiply: scaled
    truncated-Taylor applications), which needs about twenty matvecs per
    sample however small H is, and about six per unit of t ||H||_1 once
    t is large (_expm_matvecs).  An expm evolution whose predicted
    matvecs times H's stored entries exceed _EXPM_BUDGET raises
    SolverError before it starts; one that runs records the prediction.

    Either path, and the caller's read of observables from the states
    and write of them in row blocks, peaks at about four (steps + 1) x dim
    complex tables: the record's predicted_mb is
    EVOLVE_BYTES_PER_AMPLITUDE bytes per sampled amplitude, and an
    evolution predicted to need more than usable_memory() raises
    SolverError, naming `steps`, before the sample times or states are
    allocated.

    Timed as an `evolve` stage.  A negative t or fewer than one step
    raises ValueError.  An H with an inf or nan entry raises SolverError
    before either path runs, and norm drift beyond 1e-9 raises
    SolverError (the step-convergence flag), as does a norm that is not
    finite (a t so large that the phases overflow).
    """
    state = np.asarray(state, dtype=complex)
    n0 = np.linalg.norm(state)
    if abs(n0 - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t < 0:
        raise ValueError(f"evolution time {t} is negative")
    _check_finite(op)
    dim = op.shape[0]
    dense = dim <= DENSE_LIMIT
    need = EVOLVE_BYTES_PER_AMPLITUDE * (steps + 1) * dim
    with stage("evolve", dim=dim, path="dense" if dense else "expm",
               nnz=op.nnz, predicted_mb=need / 2**20) as record:
        have = usable_memory()
        if need > have:
            raise SolverError(
                f"steps = {steps} needs about {need / 2**20:.0f} MiB for "
                f"the sampled states of a dim-{dim} evolution, more than "
                f"the {have / 2**20:.0f} MiB this process may use")
        times = np.linspace(0.0, float(t), steps + 1)
        if dense:
            w, v = eigh(op.toarray())
            states = (np.exp(-1j * np.outer(times, w))
                      * (v.conj().T @ state)) @ v.T
            states[0] = state
        else:
            op = op.tocsc()
            matvecs = _expm_matvecs(op, float(t), steps)
            if matvecs * op.nnz > _EXPM_BUDGET:
                raise SolverError(
                    f"expm evolution to t = {float(t):g} needs about "
                    f"{matvecs:.3g} matvecs of an H of {op.nnz} stored "
                    f"entries, over the work budget of {_EXPM_BUDGET:.2g} "
                    f"entry products")
            record["predicted_matvecs"] = int(matvecs)
            states = expm_multiply((-1j) * op, state, start=0.0,
                                   stop=float(t), num=steps + 1,
                                   endpoint=True)
    drift = norm_drift(states)
    if not drift <= 1e-9:                       # also when drift is nan
        raise SolverError(f"evolution norm drift {drift:.3e} exceeds 1e-9")
    return times, states


# the most matvecs times stored entries an expm evolution may take: an
# hour at the fastest rate of predicted entry products measured
# (_expm_matvecs; Intel Xeon, 1 BLAS thread, 81 samples, best of 2) on
# the string sectors of the staggered chain (eps 0.5, mass 0.2): 7.2e8
# per second at 12,087 states (chain of 18, 121,443 entries, t ||H||_1
# = 5.4e3: 34k predicted, 40k done in 5.7 s), 6.0e8 at 2,436 (chain of
# 16, 2.3e4: 134k predicted, 154k done in 4.7 s), 2.3e8 at 417 (chain of
# 13, 2.0e4: 118k predicted, 110k done in 1.5 s)
_EXPM_BUDGET = 2.6e12


def _expm_matvecs(op, t, steps):
    """The matvecs predicted for expm_multiply to evolve to t in `steps`
    intervals, from ||H||_1, read exactly as op's largest column sum:
    Al-Mohy and Higham's scaling (SIAM J. Sci. Comput. 33, 488 (2011))
    takes up to m = 55 Taylor terms per step of norm theta_55 = 9.9 and
    per sample, so 55 (ceil(t ||H||_1 / 9.9) + steps), about six per unit
    of t ||H||_1 once t is large (within 20% of the count done on the
    sectors measured at _EXPM_BUDGET).  A float, inf when t ||H||_1
    overflows."""
    norm = float(abs(op).sum(axis=0).max())
    return 55.0 * (np.ceil(t * norm / 9.9) + steps)


def norm_drift(states):
    """max | ||psi(t)|| - 1 | over the rows of a (times, dim) stack."""
    return float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
