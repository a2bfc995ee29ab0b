from functools import partial

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from gauge_oracle import basis_matrix, generators
from lgtlab import solver
from lgtlab.gauge import GaussSector, sector_basis
from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice
from lgtlab.matter import STAGGERED, hop
from lgtlab.solver import SolverError, effective_second_order, eigs, evolve, \
    ground_energy, restrict, run_log

PLAQ = build_lattice(2, [2, 2])


# ---------------------------------------------------------------------------
# restrict
# ---------------------------------------------------------------------------

def test_restrict_identity_and_generator():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1), PLAQ)
    sec = sector_basis(model.space, [0, 0, 0, 0])
    eye = sparse.identity(model.space.dim, format="csr", dtype=complex)
    assert np.allclose(restrict(eye, sec).toarray(), np.eye(sec.dim))
    for g in generators(model):
        assert np.max(np.abs(restrict(g, sec).toarray())) < 1e-14


def test_restricted_ground_matches_full_sector_minimum():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, g2=0.8), PLAQ)
    h = model.hamiltonian()
    sec = sector_basis(model.space, [0, 0, 0, 0])
    e_restricted = ground_energy(restrict(h, sec))
    # project full eigenvectors onto the sector: the lowest full eigenpair
    # living in this sector has the same energy
    w, v = np.linalg.eigh(h.toarray())
    B = basis_matrix(sec)
    weights = np.linalg.norm(B.conj().T @ v, axis=0)
    in_sector = np.nonzero(weights > 0.99)[0]
    assert w[in_sector[0]] == pytest.approx(e_restricted, abs=1e-10)


def test_restrict_dimension_mismatch():
    sec = GaussSector((0,), 4, indices=np.array([0, 1]))
    with pytest.raises(ValueError):
        restrict(sparse.identity(5, format="csr"), sec)


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
    assert log.solve_paths == ["lanczos"]
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


def test_eigs_logs_path_and_worst_residual(monkeypatch):
    monkeypatch.setattr(solver, "DENSE_LIMIT", 4)
    diag = sparse.diags(np.arange(8.0)).tocsr()
    with run_log() as log:
        eigs(diag[:4, :4], 1)           # at the limit: dense
        eigs(diag, 7)                   # k >= dim - 1: dense all the same
        eigs(diag, 2)                   # Lanczos
    assert log.solve_dims == [4, 8, 8]
    assert log.solve_paths == ["dense", "dense", "lanczos"]
    assert 0.0 <= log.worst_relative_residual <= 1e-9


def test_eigs_k_too_large():
    with pytest.raises(ValueError):
        eigs(sparse.identity(2, format="csr"), 3)


@pytest.mark.parametrize("k", [0, -1])
def test_eigs_k_below_one(k):
    with pytest.raises(ValueError):
        eigs(sparse.identity(2, format="csr"), k)
    with pytest.raises(ValueError):
        eigs(np.eye(2), k)


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
    traj = evolve(h, psi, 2.0, 8)
    assert np.allclose(traj.norms(), 1.0, atol=1e-12)
    for t, state in zip(traj.times, traj.states):
        assert np.allclose(state, np.exp(-1j * 1.5 * t) * psi, atol=1e-10)


def test_evolve_semigroup_property():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.5,
                        mass=0.3, matter=STAGGERED), build_lattice(1, [2]))
    h = model.hamiltonian()
    psi = np.zeros(model.space.dim, dtype=complex)
    psi[0] = 1.0
    full = evolve(h, psi, 1.0, 2)
    half = evolve(h, psi, 0.5, 1)
    again = evolve(h, half.states[-1], 0.5, 1)
    assert np.allclose(full.states[-1], again.states[-1], atol=1e-9)


def test_evolve_conserves_gauss_expectations():
    model = build_model(
        HamiltonianSpec(model="ks_u1", truncation=1, g2=1.0, eps=0.6,
                        mass=0.2, matter=STAGGERED), build_lattice(1, [3]))
    h = model.hamiltonian()
    rng = np.random.default_rng(5)
    psi = rng.normal(size=model.space.dim) + 1j * rng.normal(
        size=model.space.dim)
    psi /= np.linalg.norm(psi)
    traj = evolve(h, psi, 1.5, 6)
    for g in generators(model):
        vals = traj.expectation(g)
        assert np.max(np.abs(vals - vals[0])) < 1e-9


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
        full = evolve(h, psi, 1.0, 2)
        half = evolve(h, psi, 0.5, 1)
        again = evolve(h, half.states[-1], 0.5, 1)
    assert log.evolve_paths == ["expm"] * 3
    assert np.allclose(full.states[-1], again.states[-1], atol=1e-9)


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
        traj = evolve(h, psi, 2.0, 40)
    assert log.evolve_paths == ["dense"]
    ref = expm_multiply(-1j * h.tocsc(), psi, start=0.0, stop=2.0, num=41,
                        endpoint=True)
    assert np.max(np.abs(traj.states - ref)) <= 1e-12
    assert np.array_equal(traj.times, np.linspace(0.0, 2.0, 41))


def test_evolve_path_switches_above_dense_limit():
    with run_log() as log:
        for dim in (solver.DENSE_LIMIT, solver.DENSE_LIMIT + 1):
            evolve(tridiagonal(dim, 1).tocsr(), random_state(dim, 3), 0.5, 2)
    assert log.evolve_dims == [solver.DENSE_LIMIT, solver.DENSE_LIMIT + 1]
    assert log.evolve_paths == ["dense", "expm"]


# ---------------------------------------------------------------------------
# effective second order
# ---------------------------------------------------------------------------

def test_effective_toy_two_level():
    h0 = sparse.diags([0.0, 5.0]).tocsr()
    v = sparse.csr_matrix(np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex))
    sec = GaussSector((0,), 2, indices=np.array([0]))
    rep = effective_second_order(h0, v, sec)
    assert rep.h_eff[0, 0] == pytest.approx(-(0.3 ** 2) / 5.0)
    assert rep.pvp_norm == 0.0


def test_effective_singular_resolvent_reported():
    h0 = sparse.diags([0.0, 0.0]).tocsr()
    v = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    sec = GaussSector((0,), 2, indices=np.array([0]))
    with pytest.raises(SolverError):
        effective_second_order(h0, v, sec)


def _effective_setup(lam, eta=0.1, ell=1, g2=1.0):
    spec = HamiltonianSpec(model="spin_gauge", truncation=ell, g2=g2,
                           lam=lam, eta=eta)
    model = build_model(spec, PLAQ)
    pen = model.hamiltonian(("penalty",))
    vop = model.hamiltonian(("hopping",))
    he = model.hamiltonian(("electric",))
    pattern = -(2.0 * g2) * model.hamiltonian(("magnetic",))
    sec = sector_basis(model.space, [0, 0, 0, 0])
    rep = effective_second_order(pen, vop, sec, rest=he, pattern=pattern)
    return model, pen, vop, he, sec, rep


def test_effective_plaquette_coefficient_scales_inversely_with_lambda():
    _, _, _, _, _, rep1 = _effective_setup(40.0)
    _, _, _, _, _, rep2 = _effective_setup(80.0)
    ratio = (rep1.pattern_coefficient / rep2.pattern_coefficient).real
    assert ratio == pytest.approx(2.0, rel=1e-3)
    # the coefficient itself is -eta^2/lambda for the two paths per loop
    assert rep1.pattern_coefficient.real == pytest.approx(-0.1 ** 2 / 40.0,
                                                          rel=1e-12)


def test_effective_spectrum_error_shrinks_quadratically():
    model1, pen1, v1, he1, sec, rep1 = _effective_setup(40.0)
    model4, pen4, v4, he4, _, rep4 = _effective_setup(160.0)
    k = sec.dim
    w1_eff, _ = eigs(rep1.h_eff, k)
    w1_ex, _ = eigs(he1 + pen1 + v1, k)
    w4_eff, _ = eigs(rep4.h_eff, k)
    w4_ex, _ = eigs(he4 + pen4 + v4, k)
    mis1 = np.max(np.abs(w1_eff - w1_ex[:k]))
    mis4 = np.max(np.abs(w4_eff - w4_ex[:k]))
    assert mis1 / mis4 >= 8.0


def test_effective_hermitian_and_respects_symmetry():
    # a gauge-variant bare fermion hop under the penalty; total fermion
    # number commutes with both pieces, so H_eff is block diagonal in it
    lat = build_lattice(1, [2])
    spec = HamiltonianSpec(model="ks_u1", truncation=1, lam=10.0,
                           matter=STAGGERED)
    model = build_model(spec, lat)
    pen = model.hamiltonian(("penalty",))
    space, layout = model.space, model.space.layout
    hop01 = space.embed([(1.0, hop(layout.factor(0), layout.factor(1)))])
    vop = hop01 + hop01.conj().T
    sec = sector_basis(model.space, [0, 0])
    rep = effective_second_order(pen, vop, sec)
    assert np.max(np.abs(rep.h_eff - rep.h_eff.conj().T)) < 1e-12
    ntot = sum(space.embed([(1.0, hop(layout.factor(v), layout.factor(v)))])
               for v in range(2))
    nr = restrict(ntot, sec).toarray()
    comm = rep.h_eff @ nr - nr @ rep.h_eff
    assert np.max(np.abs(comm)) < 1e-12
    assert rep.pvp_norm < 1e-14
