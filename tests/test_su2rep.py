import numpy as np
import pytest

from lgtlab import cli, linkalg, su2rep
from lgtlab.hamiltonian import HamiltonianSpec, build_model
from lgtlab.lattice import build_lattice
from lgtlab.linkalg import spin_gauge_ops, su2_ops
from lgtlab.su2rep import boson_annihilators, cg, link_labels, \
    prepotential_decomposition, rotation_entries, schwinger_u1, \
    spin_matrices, trace_defect
from su2_oracle import build_cg_table, fixed_ell_subspace, link_generators, \
    rotation_matrix_entries, set_generators

EPS = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}


# ---------------------------------------------------------------------------
# independent oracle: couple two spins numerically (highest weight +
# lowering), Condon-Shortley phases fixed by positivity of the
# <j1 j1; j2 J-j1 | J J> component
# ---------------------------------------------------------------------------

def coupling_oracle(j1, j2):
    d1, d2 = round(2 * j1) + 1, round(2 * j2) + 1
    _, _, Tm1, _, _ = spin_matrices(j1)
    _, _, Tm2, _, _ = spin_matrices(j2)
    Jm = np.kron(Tm1, np.eye(d2)) + np.kron(np.eye(d1), Tm2)

    def pidx(m1, m2):
        return round(j1 + m1) * d2 + round(j2 + m2)

    table = {}
    towers = {}       # round(2J) -> {round(2M): vector}
    J = j1 + j2
    while J >= abs(j1 - j2) - 1e-9:
        # highest-weight vector at M = J: orthogonal complement of the
        # already-built towers inside the M = J product subspace
        members = [m1 for m1 in np.arange(-j1, j1 + 1)
                   if abs(J - m1) <= j2 + 1e-9]
        B = np.zeros((d1 * d2, len(members)))
        for col, m1 in enumerate(members):
            B[pidx(m1, J - m1), col] = 1.0
        for tower in towers.values():
            w = tower.get(round(2 * J))
            if w is not None:
                B = B - np.outer(w, w.conj() @ B)
        norms = np.linalg.norm(B, axis=0)
        top = B[:, int(np.argmax(norms))]
        top = top / np.linalg.norm(top)
        if top[pidx(j1, J - j1)].real < 0:
            top = -top
        # lower through the whole tower
        tower = {}
        vec, M = top, J
        while True:
            tower[round(2 * M)] = vec
            for m1 in np.arange(-j1, j1 + 1):
                m2 = M - m1
                if abs(m2) <= j2 + 1e-9:
                    table[(m1, m2, J, M)] = vec[pidx(m1, m2)].real
            if M - 1 < -J - 1e-9:
                break
            nxt = Jm @ vec
            nxt = nxt / np.sqrt(J * (J + 1) - M * (M - 1))
            vec, M = nxt, M - 1
        towers[round(2 * J)] = tower
        J -= 1
    return table


@pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1, 0.5), (1, 1), (1.5, 1),
                                   (2, 1.5)])
def test_cg_against_coupling_oracle(j1, j2):
    oracle = coupling_oracle(j1, j2)
    for (m1, m2, J, M), val in oracle.items():
        assert cg(j1, m1, j2, m2, J, M) == pytest.approx(val, abs=1e-10)


def test_cg_selection_rules_and_specials():
    assert cg(1, 0, 1, 0, 2, 1) == 0.0                       # M != m1+m2
    assert cg(0.5, 0.5, 0.5, 0.5, 2, 1) == 0.0               # triangle
    for j, m in ((0.5, -0.5), (1, 1), (1.5, 0.5), (2, -2)):
        assert cg(j, m, 0, 0, j, m) == pytest.approx(1.0)    # singlet factor
    assert cg(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)
    assert cg(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / np.sqrt(2))
    assert cg(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / np.sqrt(2))


def test_cg_table_orthogonality():
    table = build_cg_table(1.5)
    for j1 in (0.5, 1.0, 1.5):
        for j2 in (0.5, 1.0):
            Js = [J for J in (0, 0.5, 1, 1.5)
                  if abs(j1 - j2) - 1e-9 <= J <= j1 + j2 + 1e-9
                  and abs((j1 + j2 + J) - round(j1 + j2 + J)) < 1e-9]
            for J in Js:
                for Jp in Js:
                    for M in np.arange(-min(J, Jp), min(J, Jp) + 1):
                        s = sum(
                            table(j1, m1, j2, M - m1, J, M)
                            * table(j1, m1, j2, M - m1, Jp, M)
                            for m1 in np.arange(-j1, j1 + 1))
                        assert s == pytest.approx(1.0 if J == Jp else 0.0,
                                                  abs=1e-12)


# ---------------------------------------------------------------------------
# link space: the generators read back from the link set's tables
# ---------------------------------------------------------------------------

def entry(ops, m, mp):
    """The set's U^{1/2}_{m m'} (index 0 is 1/2, 1 is -1/2)."""
    return ops.U[round(0.5 - m)][round(0.5 - mp)]


@pytest.mark.parametrize("j_max,dim", [(0, 1), (0.5, 5), (1, 14), (1.5, 30)])
def test_link_space_dimension(j_max, dim):
    assert len(link_labels(j_max)) == dim


@pytest.mark.parametrize("j_max", [0.5, 1])
def test_link_space_algebras(j_max):
    L, R = set_generators(su2_ops(j_max))
    for (a, b), c in EPS.items():
        comm = L[a] @ L[b] - L[b] @ L[a]
        assert np.allclose(comm, -1j * L[c], atol=1e-13)
        comm = R[a] @ R[b] - R[b] @ R[a]
        assert np.allclose(comm, 1j * R[c], atol=1e-13)
    for a in "xyz":
        for b in "xyz":
            comm = L[a] @ R[b] - R[b] @ L[a]
            assert np.allclose(comm, 0.0, atol=1e-13)


@pytest.mark.parametrize("j_max", [0.5, 1, 1.5])
def test_link_space_ladders_are_real_and_equal_their_x_y_sums(j_max):
    # L_+- = L_x -+ i L_y and R_+- = R_x +- i R_y: the set's ladders are
    # L_- = T_- (x) 1 and R_+ = 1 (x) T_+, float64, equal to the oracle's
    # x and y sums; only the y generators are complex
    ops = su2_ops(j_max)
    for ops_, sign, oracle in zip(set_generators(ops), (-1, 1),
                                  link_generators(j_max)):
        for key, s in (("p", sign), ("m", -sign)):
            assert ops_[key].dtype == np.float64
            assert np.array_equal(ops_[key], ops_["x"] + s * 1j * ops_["y"])
            assert np.array_equal(ops_[key], oracle["x"] + s * 1j
                                  * oracle["y"])
        assert ops_["x"].dtype == ops_["z"].dtype == np.float64
        assert ops_["y"].dtype == np.complex128
    assert ops.flux.dtype == np.float64
    assert ops.gauss.dtype == np.int64
    assert all(e.dtype == np.float64 for row in ops.U for e in row)
    Tz, Tp, Tm, Tx, Ty = spin_matrices(j_max)
    assert [T.dtype for T in (Tz, Tp, Tm, Tx, Ty)] == [np.float64] * 4 \
        + [np.complex128]


def test_casimir_and_trace_equality():
    ops = su2_ops(1)
    L, R = set_generators(ops)
    L2 = sum(L[k] @ L[k] for k in "xyz")
    R2 = sum(R[k] @ R[k] for k in "xyz")
    assert np.allclose(L2, R2, atol=1e-13)            # L^2 = R^2 as operators
    assert np.trace(L2) == pytest.approx(np.trace(R2).real)
    assert np.allclose(L2, np.diag(ops.flux), atol=1e-13)
    v = np.zeros(ops.local_dim)
    v[link_labels(1).index((0.5, 0.5, -0.5))] = 1.0
    assert np.vdot(v, L2 @ v) == pytest.approx(0.75)


def test_lz_rz_eigenvalues():
    L, R = set_generators(su2_ops(1))
    for i, (j, m, mp) in enumerate(link_labels(1)):
        assert L["z"][i, i] == pytest.approx(m)
        assert R["z"][i, i] == pytest.approx(mp)


# ---------------------------------------------------------------------------
# truncated rotation matrices
# ---------------------------------------------------------------------------

def test_rotation_matrix_on_singlet():
    ops = su2_ops(0.5)
    labels = link_labels(0.5)
    vac = np.zeros(5)
    vac[labels.index((0, 0, 0))] = 1.0
    for m in (0.5, -0.5):
        for mp in (0.5, -0.5):
            out = entry(ops, m, mp) @ vac
            expect = np.zeros(5)
            expect[labels.index((0.5, m, mp))] = 1 / np.sqrt(2)
            assert np.allclose(out, expect)


@pytest.mark.parametrize("j_max", [0.5, 1, 1.5, 2])
def test_rotation_matrix_equals_the_entrywise_sum(j_max):
    # the block construction keeps each element's (pref cl) cr product, so
    # every entry is bitwise the loop's, signs of zeros included; the set
    # holds U^{1/2}
    for q in range(round(2 * j_max) + 1):
        got = su2_ops(j_max).U if q == 1 else rotation_entries(j_max, q / 2)
        want = rotation_matrix_entries(j_max, q / 2)
        for got_row, want_row in zip(got, want):
            for g, w in zip(got_row, want_row):
                assert g.tobytes() == w.tobytes()


def test_rotation_matrix_transformation_laws():
    # [L_a, U_mm'] = (T_a)_{mn} U_nm' and [R_a, U_mm'] = U_mn (T_a)_{n m'}
    ops = su2_ops(1)
    L, R = set_generators(ops)
    Tz, Tp, Tm, Tx, Ty = spin_matrices(0.5)
    T = {"x": Tx, "y": Ty, "z": Tz}
    ms = (0.5, -0.5)

    def ti(m):
        return round(0.5 + m)

    def U(m, mp):
        return entry(ops, m, mp)

    for a in "xyz":
        for m in ms:
            for mp in ms:
                lhs = L[a] @ U(m, mp) - U(m, mp) @ L[a]
                rhs = sum(T[a][ti(m), ti(n)] * U(n, mp) for n in ms)
                assert np.allclose(lhs, rhs, atol=1e-11)
                lhs = R[a] @ U(m, mp) - U(m, mp) @ R[a]
                rhs = sum(U(m, n) * T[a][ti(n), ti(mp)] for n in ms)
                assert np.allclose(lhs, rhs, atol=1e-11)


def test_rotation_matrix_phase_covariance():
    from scipy.linalg import expm
    ops = su2_ops(0.5)
    Lz = set_generators(ops)[0]["z"]
    for phi in (0.0, 0.37, 1.9):
        G = expm(1j * phi * Lz)
        Gi = expm(-1j * phi * Lz)
        for m in (0.5, -0.5):
            for mp in (0.5, -0.5):
                conj = G @ entry(ops, m, mp) @ Gi
                assert np.allclose(conj, np.exp(1j * phi * m)
                                   * entry(ops, m, mp), atol=1e-12)


def trace_udag_u(ops):
    """Matrix of tr(U^dag U) = sum_{mm'} U_{mm'}^dag U_{mm'}."""
    return sum(e.conj().T @ e for row in ops.U for e in row)


def test_trace_identity_measured_defect():
    # tr(U^dag U) = (2j+1) - f P_{Jmax} with one measured scalar f
    ops = su2_ops(0.5)
    f, residual = trace_defect(0.5, ops.U)
    assert residual < 1e-12
    assert f > 0
    tr = trace_udag_u(ops)
    i0 = link_labels(0.5).index((0, 0, 0))
    assert tr[i0, i0] == pytest.approx(2.0)    # no defect on j=0


def test_trace_identity_no_defect_below_jmax():
    ops = su2_ops(1)
    f, residual = trace_defect(1, ops.U)
    assert residual < 1e-12
    tr = trace_udag_u(ops)
    for i, (j, m, mp) in enumerate(link_labels(1)):
        expect = 2.0 if j < 1 else 2.0 - f
        assert tr[i, i] == pytest.approx(expect)


# ---------------------------------------------------------------------------
# Schwinger bosons and prepotentials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell", [1, 2])
def test_schwinger_reproduces_spin_gauge(ell):
    n_max = 2 * ell + 1
    sw = schwinger_u1(n_max)
    B = fixed_ell_subspace(n_max, ell)
    so = spin_gauge_ops(ell)
    lp = np.sqrt(ell * (ell + 1)) * so.U[0][0]
    so = {"Lz": np.diag(so.flux), "Lp": lp, "Lm": lp.T}
    for key in ("Lz", "Lp", "Lm"):
        assert np.allclose(B.conj().T @ sw[key] @ B, so[key], atol=1e-13)
    assert np.allclose(B.conj().T @ sw["ellhat"] @ B,
                       ell * np.eye(2 * ell + 1), atol=1e-13)


def test_schwinger_fock_matrix_element():
    # <2,0| a^dag b |1,1> = sqrt(2), the spin-1 ladder element
    sw = schwinger_u1(2)
    d = 3
    v11 = np.zeros(d * d); v11[1 * d + 1] = 1.0
    v20 = np.zeros(d * d); v20[2 * d + 0] = 1.0
    amp = v20 @ (sw["Lp"] @ v11)
    assert amp == pytest.approx(np.sqrt(2))
    assert np.allclose(sw["Lp"] @ v20, 0.0)     # top of the ladder


def test_boson_annihilators_commutators():
    a, b = boson_annihilators(2, 3)
    comm = a @ a.conj().T - a.conj().T @ a
    # canonical up to the truncation edge
    d = 4
    for na in range(d - 1):
        for nb in range(d):
            v = np.zeros(d * d); v[na * d + nb] = 1.0
            assert np.allclose(comm @ v, v)
    assert np.allclose(a @ b - b @ a, 0.0)


def test_prepotential_vacuum_matches_cg_construction():
    pp = prepotential_decomposition(2)
    dim = pp["dim"]
    vac = np.zeros(dim); vac[0] = 1.0
    # (U_L U_R)_{mm'} |vac> = (1/sqrt2)|one a-quantum, one b-quantum>
    d = 3
    def fock(na1, na2, nb1, nb2):
        v = np.zeros(dim)
        v[((na1 * d + na2) * d + nb1) * d + nb2] = 1.0
        return v
    expect = {
        (0, 0): fock(1, 0, 1, 0),     # m=+1/2, m'=+1/2
        (0, 1): fock(1, 0, 0, 1),
        (1, 0): fock(0, 1, 1, 0),
        (1, 1): fock(0, 1, 0, 1),
    }
    for (i, j), target in expect.items():
        out = pp["U"][i][j] @ vac
        assert np.allclose(out, target / np.sqrt(2), atol=1e-13)


def test_prepotential_algebras_and_number_balance():
    # the ladder algebra is exact on states whose doublet totals fit the
    # per-mode cutoff (every redistribution stays below n_max); that covers
    # the physical N_L = N_R subspace the construction is used on
    n_max = 2
    pp = prepotential_decomposition(n_max)
    nl = np.diag(pp["N_L"]).real
    nr = np.diag(pp["N_R"]).real
    keep = np.nonzero((nl <= n_max) & (nr <= n_max))[0]
    P = np.zeros((pp["dim"], len(keep)))
    for col, i in enumerate(keep):
        P[i, col] = 1.0
    for (a, b), c in EPS.items():
        comm = pp["L"][a] @ pp["L"][b] - pp["L"][b] @ pp["L"][a]
        assert np.allclose((comm + 1j * pp["L"][c]) @ P, 0.0, atol=1e-12)
        comm = pp["R"][a] @ pp["R"][b] - pp["R"][b] @ pp["R"][a]
        assert np.allclose((comm - 1j * pp["R"][c]) @ P, 0.0, atol=1e-12)
    D = pp["N_L"] - pp["N_R"]
    for i in range(2):
        for j in range(2):
            U = pp["U"][i][j]
            assert np.allclose(D @ U - U @ D, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# one shared, read-only link set per J_max
# ---------------------------------------------------------------------------

def test_verify_all_builds_one_rotation_matrix(monkeypatch):
    # 8 cg calls (one 2x1 or 1x2 CG matrix per m for each of the pairs
    # (J, K) = (0, 1/2) and (1/2, 0)) build U^{1/2} at J_max = 1/2 once;
    # the SU(2) model, the trace identity and both M-matrix checks share it
    monkeypatch.setattr(linkalg, "_SU2_SETS", {})
    calls = {"cg": 0}
    cg_ = su2rep.cg

    def counted(*args):
        calls["cg"] += 1
        return cg_(*args)
    monkeypatch.setattr(su2rep, "cg", counted)
    _, checks = cli.run_verify(None, None, {}, None, cli.DEFAULT_TOL)
    assert all(c["pass"] for c in checks)
    assert calls["cg"] == 8


def test_cached_arrays_refuse_writes():
    ops = su2_ops(0.5)
    for array in (entry(ops, 0.5, -0.5), *ops.ladders, ops.flux, ops.gauss):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def test_su2_models_share_one_rotation_matrix():
    a = build_model(HamiltonianSpec(model="su2", truncation=1),
                    build_lattice(1, [3]))
    b = build_model(HamiltonianSpec(model="su2", truncation=1.0, g2=2.0),
                    build_lattice(2, [2, 2]))
    assert su2_ops(a.spec.truncation) is su2_ops(b.spec.truncation)
    assert a.space.linkops.U is b.space.linkops.U
    assert a.space.linkops.U is not build_model(
        HamiltonianSpec(model="su2", truncation=0.5),
        build_lattice(1, [3])).space.linkops.U
