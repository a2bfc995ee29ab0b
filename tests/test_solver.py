import numpy as np
import pytest
from scipy import sparse

from lgtlab.gauge import GaussSector, sector_basis
from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice
from lgtlab.matter import STAGGERED
from lgtlab.solver import SolverError, effective_second_order, eigs, evolve, \
    ground_energy, restrict

PLAQ = build_lattice(2, [2, 2])


# ---------------------------------------------------------------------------
# restrict
# ---------------------------------------------------------------------------

def test_restrict_identity_and_generator():
    model = build_model(HamiltonianSpec(model="ks_u1", truncation=1), PLAQ)
    sec = sector_basis(model.space, [0, 0, 0, 0])
    eye = sparse.identity(model.space.dim, format="csr", dtype=complex)
    assert np.allclose(restrict(eye, sec).toarray(), np.eye(sec.dim))
    for g in model.generators:
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
    B = sec.basis_matrix()
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
    # an exactly real complex matrix is diagonalized as real; a genuinely
    # complex one stays complex; both give the k lowest pairs of the full
    # spectrum with residuals below 1e-12
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40)) + 1j * imag * rng.standard_normal(
        (40, 40))
    a = sparse.csr_matrix(a + a.conj().T)
    w, v = eigs(a, 4)
    assert np.allclose(w, np.linalg.eigvalsh(a.toarray())[:4], atol=1e-12)
    assert v.shape == (40, 4)
    assert np.iscomplexobj(v) == (imag != 0.0)
    for i in range(4):
        assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) < 1e-12


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
    for g in model.generators:
        vals = traj.expectation(g)
        assert np.max(np.abs(vals - vals[0])) < 1e-9


def test_evolve_requires_normalized_state():
    h = sparse.identity(2, format="csr", dtype=complex)
    with pytest.raises(ValueError):
        evolve(h, np.array([2.0, 0.0]), 1.0, 2)


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
    layout = model.space.layout
    hop = model.space.embed(matter=layout.cdag(0) @ layout.c(1))
    vop = hop + hop.conj().T
    sec = sector_basis(model.space, [0, 0])
    rep = effective_second_order(pen, vop, sec)
    assert np.max(np.abs(rep.h_eff - rep.h_eff.conj().T)) < 1e-12
    ntot = model.space.embed(matter=layout.number(0) + layout.number(1))
    nr = restrict(ntot, sec).toarray()
    comm = rep.h_eff @ nr - nr @ rep.h_eff
    assert np.max(np.abs(comm)) < 1e-12
    assert rep.pvp_norm < 1e-14
