import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from gauge_oracle import generators, restrict, second_order_columns
from lgtlab import solver
from lgtlab.gauge import merge_sectors, sector_basis
from lgtlab.hamiltonian import OFF_DIAGONAL_TERMS, HamiltonianSpec, \
    build_model, penalty_second_order
from lgtlab.lattice import build_lattice
from lgtlab.matter import STAGGERED, hop
from lgtlab.solver import SolverError, eigs, evolve, run_log

PLAQ = build_lattice(2, [2, 2])


# ---------------------------------------------------------------------------
# eigs
# ---------------------------------------------------------------------------

def test_eigs_diagonal_and_two_level():
    d = sparse.diags([3.0, -1.0, 2.0]).tocsr()
    w, _ = eigs(d, 3)
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    x = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    w, _ = eigs(x, 2)
    assert np.allclose(w, [-1.0, 1.0])


def test_eigs_sparse_path_matches_dense():
    # force the Lanczos path with a matrix above the dense threshold
    rng = np.random.default_rng(3)
    n = 2500
    diag = rng.uniform(0, 10, n)
    off = sparse.diags(np.ones(n - 1), 1)
    a = (sparse.diags(diag) + off + off.T).tocsr().astype(complex)
    w, v = eigs(a, 3)
    dense_w = np.linalg.eigvalsh(a.toarray())
    assert np.allclose(w, dense_w[:3], atol=1e-8)
    assert w[0] <= w[1] <= w[2]


def test_eigs_plaquette_sector_vs_dense_oracle():
    spec = HamiltonianSpec(model="ks_u1", truncation=2, g2=10.0)
    model = build_model(spec, PLAQ)
    h = model.hamiltonian()
    sec = sector_basis(model.space, [0, 0, 0, 0])
    hr = restrict(h, sec)
    w, _ = eigs(hr, 1)
    dense = np.linalg.eigvalsh(hr.toarray())
    assert abs(w[0] - dense[0]) < 1e-6


@pytest.mark.parametrize("imag", [0.0, 0.3])
def test_eigs_dense_lowest_pairs_real_and_complex(imag):
    # a real (float64) matrix is diagonalized as real, a complex one stays
    # complex: eigs keeps the dtype it is given; both give the k lowest
    # pairs of the full spectrum with residuals below 1e-12
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    if imag:
        a = a + 1j * imag * rng.standard_normal((40, 40))
    a = sparse.csr_matrix(a + a.conj().T)
    w, v = eigs(a, 4)
    assert np.allclose(w, np.linalg.eigvalsh(a.toarray())[:4], atol=1e-12)
    assert v.shape == (40, 4)
    assert np.iscomplexobj(v) == (imag != 0.0)
    for i in range(4):
        assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) < 1e-12


TORUS = build_lattice(2, [2, 2], "periodic")
CHAIN_MATTER = HamiltonianSpec(model="ks_u1", truncation=1, g2=1.1, eps=0.5,
                               mass=0.3, matter=STAGGERED)
def neutral_sector_h(spec, lat):
    model = build_model(spec, lat)
    return model.hamiltonian(
        sector=sector_basis(model.space, [0] * lat.vertex_count))


def effective_check_h(lam):
    # He + penalty + hopping as the effective_check scenario sums them at
    # ell = 2 (625 states): stiff, with a low cluster split by ~eta^2/lam
    model = build_model(HamiltonianSpec(model="spin_gauge", truncation=2,
                                        g2=1.0, lam=lam, eta=0.1), PLAQ)
    return sum(model.hamiltonian((t,))
               for t in ("electric", "penalty", "hopping"))


LANCZOS_CASES = {
    f"torus-cutoff{cutoff}-g2_{g2}": partial(
        neutral_sector_h,
        HamiltonianSpec(model="ks_u1", truncation=cutoff, g2=g2), TORUS)
    for cutoff in (1, 2) for g2 in (0.5, 1.094928, 2.0)
}
LANCZOS_CASES.update({
    f"open{nx}x{ny}": partial(
        neutral_sector_h, HamiltonianSpec(model="ks_u1", truncation=1, g2=1.1),
        build_lattice(2, [nx, ny]))
    for nx, ny in ((3, 3), (4, 3))
})
LANCZOS_CASES["chain8-staggered"] = partial(
    neutral_sector_h, CHAIN_MATTER, build_lattice(1, [8]))
# the Dirac hop i sigma_k makes this sector H genuinely complex
LANCZOS_CASES["naive2d-2x2"] = partial(
    neutral_sector_h,
    HamiltonianSpec(model="spin_gauge", truncation=1, eps=0.4, mass=0.2,
                    matter="naive2d"), PLAQ)
LANCZOS_CASES.update({f"effective-check-ell2-lam{lam:g}":
                      partial(effective_check_h, lam) for lam in (40.0, 160.0)})


@pytest.mark.parametrize("name", LANCZOS_CASES)
def test_lanczos_matches_dense_on_sector_hamiltonians(monkeypatch, name):
    # Lanczos wherever ARPACK can run it; the torus sectors have levels
    # outside the lattice-symmetric subspace, which an all-ones start
    # vector never reaches
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    h = LANCZOS_CASES[name]()
    with run_log() as log:
        w, _ = eigs(h, 4)
    assert [r["path"] for r in log] == ["lanczos"]
    dense = scipy.linalg.eigh(h.toarray(), eigvals_only=True)[:4]
    assert np.max(np.abs(w - dense)) <= 1e-10


def tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    off = sparse.diags(np.ones(n - 1), 1)
    return sparse.diags(rng.uniform(0, 10, n)) + off + off.T


def test_lanczos_finds_every_copy_of_degenerate_levels(monkeypatch):
    # every level three times over, the blocks hidden by a permutation
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    h = sparse.kron(sparse.identity(3), tridiagonal(200, 3)).tocsr()
    perm = np.random.default_rng(4).permutation(h.shape[0])
    h = h[perm][:, perm]
    w, _ = eigs(h, 4)
    dense = scipy.linalg.eigh(h.toarray(), eigvals_only=True)[:4]
    assert dense[0] == pytest.approx(dense[2], abs=1e-12)
    assert np.max(np.abs(w - dense)) <= 1e-10


def test_lanczos_missed_level_raises(monkeypatch):
    # the main solve starts with no weight on the second block, so its
    # Krylov space never reaches that block's lower levels while every
    # residual stays small; the missed-level check must catch it
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    h = sparse.block_diag(
        [tridiagonal(100, 3), tridiagonal(100, 5) - 5.0 * sparse.identity(100)],
        format="csr")
    start = solver._start_vector

    def blind(dim, seed):
        v = start(dim, seed)
        if seed == 0:
            v[100:] = 0.0
        return v
    monkeypatch.setattr(solver, "_start_vector", blind)
    with pytest.raises(SolverError, match="missed a level"):
        eigs(h, 4)


def block_with_missed_level(k, gap, relative=False):
    """Block-diagonal H and its missed level: the second block's lowest
    level, `gap` (times max(1, |w[-1]|) if relative) below w[-1], the k-th
    lowest level of the first block."""
    first = tridiagonal(100, 3)
    top = scipy.linalg.eigh(first.toarray(), eigvals_only=True)[k - 1]
    missed = top - gap * (max(1.0, abs(top)) if relative else 1.0)
    second = tridiagonal(100, 5)
    low = scipy.linalg.eigh(second.toarray(), eigvals_only=True)[0]
    second = second + (missed - low) * sparse.identity(100)
    return sparse.block_diag([first, second], format="csr"), missed


def blind_main_solve(monkeypatch):
    """Give the main solve's start (seed 0) no weight on states 100 on."""
    start = solver._start_vector

    def blind(dim, seed):
        v = start(dim, seed)
        if seed == 0:
            v[100:] = 0.0
        return v
    monkeypatch.setattr(solver, "_start_vector", blind)


@pytest.mark.parametrize("gap, relative", [(5.0, False), (1e-7, True)])
@pytest.mark.parametrize("k", [1, 4])
def test_guard_catches_a_level_below_the_found_ones(monkeypatch, k, gap,
                                                    relative):
    # the main solve starts with no weight on the second block, which holds
    # a level 5, or only 1e-7 max(1, |w[-1]|) (100 times the guard's
    # margin), below the highest level found
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    h, missed = block_with_missed_level(k, gap, relative)
    blind_main_solve(monkeypatch)
    with pytest.raises(SolverError, match="missed a level") as info:
        eigs(h, k)
    assert f"{missed:.12g} lies below" in str(info.value)


@pytest.mark.parametrize("name", LANCZOS_CASES)
def test_guard_value_matches_full_precision(monkeypatch, name):
    # the guard stops at ARPACK tol _GUARD_TOL; the deflated lowest value
    # that decides it matches the tol = 0 value 100 times inside the
    # guard's 1e-9 margin
    h = LANCZOS_CASES[name]().tocsr()
    counts = {}
    w, v = solver._lanczos(solver._Counted(h, counts, "solve"), 4, 0, 0.0)
    low = solver._check_no_missed_level(
        solver._Counted(h, counts, "loose"), w, v)
    monkeypatch.setattr(solver, "_GUARD_TOL", 0.0)
    exact = solver._check_no_missed_level(
        solver._Counted(h, counts, "full"), w, v)
    assert abs(low - exact) <= 1e-11 * max(1.0, abs(exact))
    assert counts["loose"] <= counts["full"]


def test_eigs_logs_nnz_and_matvecs(monkeypatch):
    monkeypatch.setattr(solver, "DENSE_LIMIT", 4)
    diag = sparse.diags(np.arange(8.0)).tocsr()
    h = tridiagonal(500, 1).tocsr()
    with run_log() as log:
        eigs(diag[:4, :4], 1)           # dense path: no matvec
        eigs(h, 2)                      # Lanczos
    assert [r["nnz"] for r in log] == [3, h.nnz]  # diag[:4, :4]: no 0
    assert log[0]["matvecs"] == log[0]["guard_matvecs"] == 0
    assert 0 < log[1]["guard_matvecs"] < log[1]["matvecs"]


def test_eigs_logs_matvecs_of_a_failed_solve(monkeypatch):
    # the solve's record keeps both counts when the guard raises
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    h, _ = block_with_missed_level(1, 5.0)
    blind_main_solve(monkeypatch)
    with run_log() as log, pytest.raises(SolverError):
        eigs(h, 1)
    assert len(log) == 1
    assert log[0]["matvecs"] > 0 and log[0]["guard_matvecs"] > 0


@pytest.mark.parametrize("k", [1, 4])
def test_a_raising_guard_leaves_a_whole_solve_record(monkeypatch, k):
    # a level 1e-7 max(1, |w[-1]|) below the found ones: the main solve
    # passes its residual check, then the guard raises
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    h, _ = block_with_missed_level(k, 1e-7, relative=True)
    blind_main_solve(monkeypatch)
    with run_log() as log, pytest.raises(SolverError, match="missed"):
        eigs(h, k)
    [record] = log
    assert set(record) == {"stage", "seconds", "dim", "path", "nnz",
                           "matvecs", "guard_matvecs", "residual"}
    assert (record["stage"], record["dim"], record["path"], record["nnz"]) \
        == ("solve", 200, "lanczos", h.nnz)
    assert 0 < record["guard_matvecs"] and 0 < record["matvecs"]
    assert record["seconds"] >= 0.0 and record["residual"] <= 1e-9


def test_stage_outside_run_log_records_nothing():
    # a stage opened outside any run_log is timed but kept by none, not
    # even by a run_log entered and left inside it
    with solver.stage("outer") as outer:
        eigs(tridiagonal(500, 1).tocsr(), 1)
        with run_log() as log:
            with solver.stage("inner", dim=1):
                pass
    assert outer["seconds"] >= 0.0
    assert [r["stage"] for r in log] == ["inner"]


def test_arpack_failure_raises_solver_error():
    # finite entries whose products overflow: ARPACK cannot build its
    # factorization (error -9999), which is a numerical failure
    n = 500
    off = sparse.diags(np.full(n - 1, 1e308), 1)
    h = (sparse.diags(np.full(n, 1e308)) + off + off.T).tocsr()
    with pytest.raises(SolverError, match="ARPACK error"):
        eigs(h, 1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("dim", [50, 500])
def test_non_finite_operator_raises_before_solving(bad, dim):
    h = tridiagonal(dim, 2).tocsr()
    h.data[3] = bad
    with run_log() as log:
        with pytest.raises(SolverError, match="non-finite"):
            eigs(h, 2)
        with pytest.raises(SolverError, match="non-finite"):
            evolve(h, random_state(dim, 1), 1.0, 2)
    assert log == []


def test_eigs_logs_path_and_worst_residual(monkeypatch):
    monkeypatch.setattr(solver, "DENSE_LIMIT", 4)
    diag = sparse.diags(np.arange(8.0)).tocsr()
    with run_log() as log:
        eigs(diag[:4, :4], 1)           # at the limit: dense
        eigs(diag, 7)                   # k >= dim - 1: dense all the same
        eigs(diag, 2)                   # Lanczos
    assert [r["dim"] for r in log] == [4, 8, 8]
    assert [r["path"] for r in log] == ["dense", "dense", "lanczos"]
    assert 0.0 <= max(r["residual"] for r in log) <= 1e-9


def test_eigs_k_too_large():
    with pytest.raises(ValueError):
        eigs(sparse.identity(2, format="csr"), 3)


@pytest.mark.parametrize("k", [0, -1])
def test_eigs_k_below_one(k):
    with pytest.raises(ValueError):
        eigs(sparse.identity(2, format="csr"), k)


def test_eigs_invariant_under_basis_permutation():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, g2=0.7), PLAQ)
    h = model.hamiltonian()
    sec = sector_basis(model.space, [0, 0, 0, 0])
    hr = restrict(h, sec).toarray()
    rng = np.random.default_rng(11)
    perm = rng.permutation(hr.shape[0])
    hp = hr[np.ix_(perm, perm)]
    w1, _ = eigs(sparse.csr_matrix(hr), 3)
    w2, _ = eigs(sparse.csr_matrix(hp), 3)
    assert np.allclose(w1, w2, atol=1e-9)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_eigenstate_phase_and_norm():
    h = sparse.diags([0.0, 1.5]).tocsr().astype(complex)
    psi = np.array([0.0, 1.0], dtype=complex)
    times, states = evolve(h, psi, 2.0, 8)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    for t, state in zip(times, states):
        assert np.allclose(state, np.exp(-1j * 1.5 * t) * psi, atol=1e-10)


def test_evolve_semigroup_property():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.5,
                        mass=0.3, matter=STAGGERED), build_lattice(1, [2]))
    h = model.hamiltonian()
    psi = np.zeros(model.space.dim, dtype=complex)
    psi[0] = 1.0
    _, full = evolve(h, psi, 1.0, 2)
    _, half = evolve(h, psi, 0.5, 1)
    _, again = evolve(h, half[-1], 0.5, 1)
    assert np.allclose(full[-1], again[-1], atol=1e-9)


def test_evolve_conserves_gauss_expectations():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.6,
                        mass=0.2, matter=STAGGERED), build_lattice(1, [3]))
    h = model.hamiltonian()
    rng = np.random.default_rng(5)
    psi = rng.normal(size=model.space.dim) + 1j * rng.normal(
        size=model.space.dim)
    psi /= np.linalg.norm(psi)
    _, states = evolve(h, psi, 1.5, 6)
    for g in generators(model):
        vals = np.sum(states.conj() * (g @ states.T).T, axis=1)
        assert np.max(np.abs(vals - vals[0])) < 1e-9


def chain13_string_h():
    """The 417-state string sector H of the staggered chain of 13, charges
    at vertices 0 and 5: evolved by expm."""
    charges = [0] * 13
    charges[0], charges[5] = 1, -1
    model = build_model(CHAIN_MATTER, build_lattice(1, [13]))
    return model.hamiltonian(sector=sector_basis(model.space, charges))


def test_evolve_rejects_an_overflowing_time():
    # dense path: at t = 1e308 the phase 2 t overflows, so every later
    # state is nan: its norm drift is nan, which no "drift > bound" test
    # catches.  expm path: expm_multiply's step count grows with t ||H||,
    # which on the 417-state string sector of the chain of 13 and on a
    # free hopping chain of 450 sites is far over the work budget (there
    # scipy could not even count the steps: nan, or an overflow)
    string = chain13_string_h()
    off = sparse.diags(np.ones(449), 1)
    hopping = (off + off.T).tocsr()
    two_level = sparse.diags([0.0, 2.0]).tocsr().astype(complex)
    for h, psi, t, path, error in [
            (two_level, np.array([0.0, 1.0], dtype=complex), 1e308, "dense",
             "norm drift nan"),
            (string, random_state(417, 3), 1e40, "expm", "work budget"),
            (string, random_state(417, 3), 1e308, "expm", "work budget"),
            (hopping, random_state(450, 3), 1e200, "expm", "work budget"),
            (hopping, random_state(450, 3), 1e308, "expm", "work budget")]:
        with run_log() as log, np.errstate(all="ignore"), \
                pytest.raises(SolverError, match=error):
            evolve(h, psi, t, 2)
        assert [(r["dim"], r["path"]) for r in log] == [(h.shape[0], path)]


def test_evolve_refuses_an_expm_run_over_its_work_budget():
    # at t = 1e12 the 417-state sector would take about 6e13 matvecs
    # (hours); the prediction, from ||H||_1 read off the CSR, refuses it
    # at once
    h = chain13_string_h()
    start = time.perf_counter()
    with run_log() as log, pytest.raises(SolverError,
                                         match=r"t = 1e\+12 .*work budget"):
        evolve(h, random_state(417, 3), 1e12, 20)
    assert time.perf_counter() - start < 1.0
    assert [(r["dim"], r["path"]) for r in log] == [(417, "expm")]
    assert "predicted_matvecs" not in log[0]


def test_expm_evolution_records_its_predicted_matvecs():
    # 55 (ceil(t ||H||_1 / 9.9) + steps), ||H||_1 the largest column sum
    h = chain13_string_h()
    norm = np.abs(h.toarray()).sum(axis=0).max()
    with run_log() as log:
        for t in (0, 2, 50):
            evolve(h, random_state(417, 3), t, 20)
    assert [r["predicted_matvecs"] for r in log] \
        == [55 * (int(np.ceil(t * norm / 9.9)) + 20) for t in (0, 2, 50)]


@pytest.mark.parametrize("dim, path", [(40, "dense"), (450, "expm")])
def test_evolve_refuses_a_negative_time(dim, path):
    h = tridiagonal(dim, 1).tocsr()
    psi = random_state(dim, 3)
    with run_log() as log:
        with pytest.raises(ValueError, match="negative"):
            evolve(h, psi, -2.0, 4)
        times, states = evolve(h, psi, 0.0, 4)
    assert [r["path"] for r in log] == [path]
    assert np.array_equal(times, np.zeros(5))
    assert np.allclose(states, psi, atol=1e-14)


@pytest.mark.parametrize("dim, path", [(40, "dense"), (450, "expm")])
def test_evolve_refuses_sampled_states_over_usable_memory(dim, path,
                                                          monkeypatch):
    # the guard reads solver.usable_memory: one byte short of the
    # prediction it raises, naming steps, before the sample times exist;
    # at the prediction itself the evolution runs
    h = tridiagonal(dim, 1).tocsr()
    psi = random_state(dim, 3)
    need = solver.EVOLVE_BYTES_PER_AMPLITUDE * 11 * dim
    linspace = np.linspace

    def refuse(*args, **kwargs):
        raise AssertionError("sample times allocated")
    with run_log() as log:
        with monkeypatch.context() as patch:
            patch.setattr(solver, "usable_memory", lambda: need - 1)
            patch.setattr(np, "linspace", refuse)
            with pytest.raises(SolverError, match=r"^steps = 10 needs"):
                evolve(h, psi, 1.0, 10)
        assert np.linspace is linspace
        monkeypatch.setattr(solver, "usable_memory", lambda: need)
        times, states = evolve(h, psi, 1.0, 10)
    assert states.shape == (11, dim)
    assert [(r["path"], r["predicted_mb"]) for r in log] \
        == [(path, need / 2**20)] * 2


def test_evolve_requires_normalized_state():
    h = sparse.identity(2, format="csr", dtype=complex)
    with pytest.raises(ValueError):
        evolve(h, np.array([2.0, 0.0]), 1.0, 2)


def test_evolve_semigroup_property_expm_path(monkeypatch):
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.5,
                        mass=0.3, matter=STAGGERED), build_lattice(1, [2]))
    h = model.hamiltonian()
    psi = np.zeros(model.space.dim, dtype=complex)
    psi[0] = 1.0
    with run_log() as log:
        _, full = evolve(h, psi, 1.0, 2)
        _, half = evolve(h, psi, 0.5, 1)
        _, again = evolve(h, half[-1], 0.5, 1)
    assert [r["path"] for r in log] == ["expm"] * 3
    assert np.allclose(full[-1], again[-1], atol=1e-9)


def string_sector_h(n):
    """Sector H of the flux string between vertices 0 and n/2 of a
    staggered chain of n: 7, 25, 66 and 241 states for n = 6 .. 12."""
    charges = [0] * n
    charges[0], charges[n // 2] = 1, -1
    model = build_model(CHAIN_MATTER, build_lattice(1, [n]))
    return model.hamiltonian(sector=sector_basis(model.space, charges))


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def complex_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[rng.random((n, n)) < 0.7] = 0.0
    return sparse.csr_matrix(a + a.conj().T)


def degenerate(n, seed):
    # every level three times over, the blocks hidden by a permutation
    h = sparse.kron(sparse.identity(3), tridiagonal(n, seed)).tocsr()
    perm = np.random.default_rng(seed + 1).permutation(h.shape[0])
    return h[perm][:, perm]


DENSE_EVOLVE_CASES = {f"string-chain{n}": partial(string_sector_h, n)
                      for n in (6, 8, 10, 12)}
DENSE_EVOLVE_CASES["complex-hermitian-40"] = partial(complex_hermitian, 40, 2)
DENSE_EVOLVE_CASES["degenerate-3x30"] = partial(degenerate, 30, 6)


@pytest.mark.parametrize("name", DENSE_EVOLVE_CASES)
def test_dense_evolve_matches_expm_multiply(name):
    h = DENSE_EVOLVE_CASES[name]()
    psi = random_state(h.shape[0], 9)
    with run_log() as log:
        times, states = evolve(h, psi, 2.0, 40)
    assert [r["path"] for r in log] == ["dense"]
    ref = expm_multiply(-1j * h.tocsc(), psi, start=0.0, stop=2.0, num=41,
                        endpoint=True)
    assert np.max(np.abs(states - ref)) <= 1e-12
    assert np.array_equal(times, np.linspace(0.0, 2.0, 41))
    # the t = 0 sample is psi itself, not psi rotated into the eigenbasis
    # and back
    assert np.array_equal(states[0], psi)


def test_evolve_path_switches_above_dense_limit():
    with run_log() as log:
        for dim in (solver.DENSE_LIMIT, solver.DENSE_LIMIT + 1):
            evolve(tridiagonal(dim, 1).tocsr(), random_state(dim, 3), 0.5, 2)
    assert [r["dim"] for r in log] == [solver.DENSE_LIMIT,
                                       solver.DENSE_LIMIT + 1]
    assert [r["path"] for r in log] == ["dense", "expm"]


# ---------------------------------------------------------------------------
# the penalty construction's second order (hamiltonian.penalty_second_order)
# ---------------------------------------------------------------------------

def test_effective_shifts_each_piece_and_its_adjoint_once(monkeypatch):
    # V is applied by Model.hamiltonian's one label-shift pass: one shift
    # for each hop and one for its adjoint, nothing shifted again
    from lgtlab.tensor import ProductSpace
    model = build_model(HamiltonianSpec(model="spin_gauge", truncation=1,
                                        lam=40.0, eta=0.1), PLAQ)
    sec = sector_basis(model.space, [0, 0, 0, 0])
    pieces = list(OFF_DIAGONAL_TERMS["hopping"](model))
    calls = []
    shift = ProductSpace.shift

    def counted(self, *args):
        calls.append(args)
        return shift(self, *args)
    monkeypatch.setattr(ProductSpace, "shift", counted)
    penalty_second_order(model, sec, pieces)
    assert len(pieces) > 0
    assert len(calls) == 2 * len(pieces)


def test_effective_singular_resolvent_reported():
    # lam = 0: every off-sector target is degenerate with the sector
    model = build_model(HamiltonianSpec(model="spin_gauge", truncation=1,
                                        lam=0.0, eta=0.1), PLAQ)
    sec = sector_basis(model.space, [0, 0, 0, 0])
    with pytest.raises(SolverError, match="singular resolvent"):
        penalty_second_order(model, sec, OFF_DIAGONAL_TERMS["hopping"](model))


def test_effective_gauge_invariant_piece_is_refused():
    # a gauge_matter hop keeps the neutral sector: P V P is not 0
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1, lam=10.0,
                                        eps=0.5, matter=STAGGERED),
                        build_lattice(1, [2]))
    sec = sector_basis(model.space, [0, 0])
    with pytest.raises(ValueError, match="P V P is not 0"):
        penalty_second_order(model, sec,
                             OFF_DIAGONAL_TERMS["gauge_matter"](model))


def test_effective_sector_of_two_penalty_values_is_refused():
    # a merge of the neutral sector and a charged one has no single E0
    model = build_model(HamiltonianSpec(model="spin_gauge", truncation=1,
                                        lam=40.0, eta=0.1), PLAQ)
    sec = merge_sectors([sector_basis(model.space, charges)
                         for charges in ([0, 0, 0, 0], [1, -1, 0, 0])])
    with pytest.raises(ValueError, match="not one value"):
        penalty_second_order(model, sec, OFF_DIAGONAL_TERMS["hopping"](model))


def _effective_setup(lam, eta=0.1, ell=1, g2=1.0):
    spec = HamiltonianSpec(model="spin_gauge", truncation=ell, g2=g2,
                           lam=lam, eta=eta)
    model = build_model(spec, PLAQ)
    sec = sector_basis(model.space, [0, 0, 0, 0])
    second = penalty_second_order(model, sec,
                                  OFF_DIAGONAL_TERMS["hopping"](model))
    pattern = (-(2.0 * g2) * model.hamiltonian(("magnetic",),
                                               sector=sec)).toarray()
    coeff = np.vdot(pattern, second) / np.vdot(pattern, pattern)
    h_eff = sparse.csr_matrix(second) \
        + model.hamiltonian(("electric",), sector=sec)
    return model, sec, h_eff, coeff


def test_effective_plaquette_coefficient_scales_inversely_with_lambda():
    _, _, _, coeff1 = _effective_setup(40.0)
    _, _, _, coeff2 = _effective_setup(80.0)
    assert coeff1 / coeff2 == pytest.approx(2.0, rel=1e-3)
    # the coefficient itself is -eta^2/lambda for the two paths per loop
    assert coeff1 == pytest.approx(-0.1 ** 2 / 40.0, rel=1e-12)


def test_effective_spectrum_error_shrinks_quadratically():
    mismatch = []
    for lam in (40.0, 160.0):
        model, sec, h_eff, _ = _effective_setup(lam)
        k = sec.dim
        exact = sum(model.hamiltonian((t,))
                    for t in ("electric", "penalty", "hopping"))
        mismatch.append(np.max(np.abs(eigs(h_eff, k)[0]
                                      - eigs(exact, k)[0][:k])))
    assert mismatch[0] / mismatch[1] >= 8.0


def test_effective_hermitian_and_respects_symmetry():
    # a gauge-variant bare fermion hop under the penalty; total fermion
    # number commutes with both pieces, so H_eff is block diagonal in it
    lat = build_lattice(1, [2])
    spec = HamiltonianSpec(model="ks_u1", truncation=1, lam=10.0,
                           matter=STAGGERED)
    model = build_model(spec, lat)
    layout = model.space.layout
    sec = sector_basis(model.space, [0, 0])
    h_eff = penalty_second_order(
        model, sec, [(1.0, hop(layout.factor(0), layout.factor(1)))])
    assert np.array_equal(h_eff, h_eff.conj().T)
    assert np.max(np.abs(h_eff)) > 0.0
    n_total = np.diag(sec.labels[model.space.n_links:].sum(axis=0))
    comm = h_eff @ n_total - n_total @ h_eff
    assert np.max(np.abs(comm)) < 1e-12


@pytest.mark.parametrize("sizes", [[2, 2], [3, 2], [3, 3]],
                         ids=lambda sizes: "x".join(map(str, sizes)))
def test_effective_block_equals_full_space_columns(sizes):
    # the label-shift block against the column construction from the
    # full-space penalty and hopping, at lambda, 2 lambda and 4 lambda
    lat = build_lattice(2, sizes)
    targets = {(2, 2): 8, (3, 2): 44, (3, 3): 468}[tuple(sizes)]
    spec = HamiltonianSpec(model="spin_gauge", truncation=1, lam=40.0,
                           eta=0.1)
    model = build_model(spec, lat)
    sec = sector_basis(model.space, [0] * lat.vertex_count)
    penalty = model.hamiltonian(("penalty",))
    hopping = model.hamiltonian(("hopping",))
    for scale in (1.0, 2.0, 4.0):
        scaled = build_model(replace(spec, lam=scale * spec.lam), lat)
        with run_log() as log:
            block = penalty_second_order(
                scaled, sec, OFF_DIAGONAL_TERMS["hopping"](scaled))
        assert [(r["stage"], r["dim"], r["targets"]) for r in log] == [
            ("second_order", sec.dim, targets)]
        oracle = second_order_columns(scale * penalty, hopping, sec)
        assert np.max(np.abs(block - oracle)) <= 1e-12


def test_effective_block_on_the_open_4x4_scales_with_the_sector():
    # 2.8e11 product states, never built: the 2,053-state neutral sector
    # and its 61,392 one-hop targets
    lam, eta = 40.0, 0.1
    model = build_model(HamiltonianSpec(model="spin_gauge", truncation=1,
                                        lam=lam, eta=eta),
                        build_lattice(2, [4, 4]))
    sec = sector_basis(model.space, [0] * 16)
    with run_log() as log:
        block = penalty_second_order(model, sec,
                                     OFF_DIAGONAL_TERMS["hopping"](model))
    (record,) = log
    assert (record["dim"], record["targets"]) == (2053, 61392)
    assert record["seconds"] < 1.0
    assert np.array_equal(block, block.conj().T)
    pattern = (-2.0 * model.hamiltonian(("magnetic",), sector=sec)).toarray()
    coeff = np.vdot(pattern, block) / np.vdot(pattern, pattern)
    assert coeff == pytest.approx(-eta ** 2 / lam, rel=1e-12)
