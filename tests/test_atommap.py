import numpy as np
import pytest

from atommap_oracle import diagonal_channels, fit_scattering_couplings, \
    m_matrix_processes, selection_rule_satisfied
from lgtlab.atommap import HyperfineLevelScheme, M_F_EVEN, \
    build_m_and_verify, channel_table, f1_projectors, m_matrix, \
    scattering_matrix_element, schwinger_interaction_check, total_f_channels


def test_total_f_channels():
    assert total_f_channels() == [0.5, 1.5, 2.5, 3.5]


def test_level_tables():
    bosons, (even, odd) = HyperfineLevelScheme(1.0, 2.2).levels()
    assert bosons == {-2: 2.2, -1: 1.0, 0: 0.0, 1: -1.0, 2: -2.2}
    assert even == {-1.5: 1.6, 1.5: -1.6}
    assert odd == pytest.approx({0.5: -0.6, -0.5: 0.6})
    with pytest.raises(ValueError, match="2 Omega1 = Omega2"):
        HyperfineLevelScheme(1.3, 2.6).levels()


def test_scattering_conserves_total_mf_structurally():
    couplings = {f: np.random.default_rng(1).uniform(0.5, 2)
                 for f in total_f_channels()}
    for m_b in range(-2, 3):
        for m_f in (-1.5, -0.5, 0.5, 1.5):
            for m_b_p in range(-2, 3):
                for m_f_p in (-1.5, -0.5, 0.5, 1.5):
                    v = scattering_matrix_element(m_b_p, m_f_p, m_b, m_f,
                                                  couplings)
                    if abs((m_b_p + m_f_p) - (m_b + m_f)) > 1e-12:
                        assert v == 0.0


def test_scattering_unit_couplings_are_identity():
    couplings = {f: 1.0 for f in total_f_channels()}
    for m_b in range(-2, 3):
        for m_f in (-1.5, 0.5):
            for m_b_p in range(-2, 3):
                for m_f_p in (-1.5, -0.5, 0.5, 1.5):
                    v = scattering_matrix_element(m_b_p, m_f_p, m_b, m_f,
                                                  couplings)
                    expect = 1.0 if (m_b_p, m_f_p) == (m_b, m_f) else 0.0
                    assert v == pytest.approx(expect, abs=1e-12)


def test_scattering_stretched_channel_single_coupling():
    # maximal m_b, m_f couple through the top total-F channel only
    v = scattering_matrix_element(2, 1.5, 2, 1.5, {3.5: 0.9})
    assert v == pytest.approx(0.9)
    v = scattering_matrix_element(2, 1.5, 2, 1.5, {2.5: 1.0, 1.5: 1.0})
    assert v == pytest.approx(0.0, abs=1e-12)


def allowed_channels(scheme):
    """The allowed rows of channel_table as (m_b, m_f, m_b', m_f'), one
    list per hop direction: onto even vertices, then onto odd ones."""
    rows = channel_table(scheme, {f: 1.0 for f in total_f_channels()})
    onto_even = [tuple(r[:4]) for r in rows
                 if r[5] and r[3] in M_F_EVEN.values()]
    onto_odd = [tuple(r[:4]) for r in rows
                if r[5] and r[3] not in M_F_EVEN.values()]
    return onto_even, onto_odd


def test_channel_enumeration_matches_link_matrix():
    scheme = HyperfineLevelScheme(1.0, 2.2)
    onto_even, onto_odd = allowed_channels(scheme)
    assert len(onto_even) == len(onto_odd) == 8   # the M-matrix processes
    # the even-hop channels correspond to the entries of M
    # psi_1 <- chi_1 with boson 0 -> 2 (entry M11, first term)
    assert (0, 0.5, 2, -1.5) in onto_even
    # psi_1 <- chi_1 with boson -2 -> 0 (entry M11, second term)
    assert (-2, 0.5, 0, -1.5) in onto_even
    # psi_2 <- chi_2 with boson 2 -> 0 and 0 -> -2 (entry M22)
    assert (2, -0.5, 0, 1.5) in onto_even
    assert (0, -0.5, -2, 1.5) in onto_even
    # reverse hop (odd parity): a -3/2 fermion leaves the even vertex while
    # the boson drops from 0 to -2
    assert (0, -1.5, -2, 0.5) in onto_odd


@pytest.mark.parametrize("omegas", [(1.0, 2.2), (0.3, 1.7)])
def test_allowed_channels_are_the_link_matrix_processes(omegas):
    # level energies leave exactly the nonzero entries of M (even hops) and
    # of M^dag (odd hops) resonant
    allowed = allowed_channels(HyperfineLevelScheme(*omegas))
    for parity, channels in zip(("even", "odd"), allowed):
        processes = {p[:4] for p in m_matrix_processes(parity)}
        assert len(processes) == 8
        assert set(channels) == processes


def test_degenerate_omegas_flagged():
    couplings = {f: 1.0 for f in total_f_channels()}
    with pytest.raises(ValueError, match="Omega1 = Omega2"):
        channel_table(HyperfineLevelScheme(1.0, 1.0), couplings)
    with pytest.raises(ValueError, match="2 Omega1 = Omega2"):
        channel_table(HyperfineLevelScheme(1.3, 2.6), couplings)


def test_diagonal_channels_always_allowed():
    scheme = HyperfineLevelScheme(1.0, 2.2)
    diag = diagonal_channels(scheme, "even")
    assert len(diag) == 10                    # 5 boson x 2 fermion levels
    assert all(c["allowed"] for c in diag)


def test_m_matrix_single_atom_closure():
    # M entries are b^dag b bilinears: they keep the single-atom subspace
    for row in m_matrix():
        for entry in row:
            assert entry.shape == (5, 5)


@pytest.mark.parametrize("mapping", ["even", "odd"])
def test_m_equals_truncated_rotation(mapping):
    _, dev = build_m_and_verify(mapping)
    assert dev < 1e-12


@pytest.mark.parametrize("mapping", ["even", "odd"])
def test_m_equals_truncated_rotation_on_a_given_space(mapping,
                                                     monkeypatch):
    # from an empty cache: the link set and its rotation matrix are built
    # for the check
    from lgtlab import linkalg
    monkeypatch.setattr(linkalg, "_SU2_SETS", {})
    _, dev = build_m_and_verify(mapping)
    assert dev < 1e-12


def test_m_and_gauss_generators_commute_on_link():
    # the hyperfine-conservation claim: the hopping built from M commutes
    # with all SU(2) Gauss generators on a two-vertex chain
    from lgtlab.hamiltonian import HamiltonianSpec, build_model, \
        max_gauss_violation
    from lgtlab.lattice import build_lattice
    model = build_model(
        HamiltonianSpec(model="su2", truncation=0.5, eps=0.7,
                        matter="su2fundamental"), build_lattice(1, [2]))
    hgm = model.hamiltonian(("gauge_matter",))
    assert max_gauss_violation(model, hgm) < 1e-10


def test_coupling_fit_reports_residual():
    couplings, residual, n_targets = fit_scattering_couplings("even")
    assert n_targets == 8
    assert set(couplings) == set(total_f_channels())
    assert residual >= 0.0
    # the fit is a report, not a feasibility claim; it must be reproducible
    couplings2, residual2, _ = fit_scattering_couplings("even")
    assert residual2 == pytest.approx(residual)


def test_f1_projectors():
    p = f1_projectors(a0=1.1, a2=0.9, mass=2.0)
    assert np.trace(p["P0"]).real == pytest.approx(1.0)
    assert np.trace(p["P2"]).real == pytest.approx(5.0)
    assert np.max(np.abs(p["P0"] @ p["P2"])) < 1e-13
    assert np.max(np.abs(p["P0"] @ p["P0"] - p["P0"])) < 1e-13
    assert np.max(np.abs(p["P2"] @ p["P2"] - p["P2"])) < 1e-13
    # P0 + P2 projects onto the symmetric two-atom subspace
    assert np.allclose(p["P0"] + p["P2"], p["sym"], atol=1e-13)
    assert p["g0"] == pytest.approx(4 * np.pi * (2 * 0.9 + 1.1) / (3 * 2.0))
    assert p["g2"] == pytest.approx(4 * np.pi * (0.9 - 1.1) / (3 * 2.0))
    # equal scattering lengths: spin-independent interaction
    assert f1_projectors(1.0, 1.0, 1.0)["g2"] == pytest.approx(0.0)


def test_f1_rejects_bad_input():
    with pytest.raises(ValueError):
        f1_projectors(1.0, 1.0, -2.0)


def test_schwinger_interaction_identity():
    r = schwinger_interaction_check(3)
    assert r["deviation"] < 1e-12
    assert r["comm_total_number"] < 1e-12
    assert r["comm_ellhat"] < 1e-12


def test_selection_rule_bookkeeping():
    assert selection_rule_satisfied(0.5, 0.5, -0.5, -0.5)
    assert selection_rule_satisfied(1.0, 2.0, 3.0, 2.0)
    assert not selection_rule_satisfied(0.5, -0.5, 0.5, -0.5)
