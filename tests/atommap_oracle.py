"""Cold-atom bookkeeping that the tests check ``lgtlab.atommap`` with: the
on-site scattering channels, a least-squares fit of the total-F couplings
to the link-matrix amplitudes and the hyperfine selection rule of the
Schwinger-boson interaction."""

import numpy as np

from lgtlab.atommap import F_BOSON, F_FERMION, M_F_EVEN, M_F_ODD, m_matrix, \
    total_f_channels
from lgtlab.su2rep import cg


def diagonal_channels(scheme, parity="even"):
    """On-site channels (fermion keeps its vertex and level, boson level
    unchanged): always energy- and m_F-conserving."""
    scheme.validate()
    levels = M_F_EVEN if parity == "even" else M_F_ODD
    out = []
    for m_b in (-2, -1, 0, 1, 2):
        for f in levels.values():
            out.append({"m_b_in": m_b, "m_f_in": f,
                        "m_b_out": m_b, "m_f_out": f,
                        "energy_gap": 0.0, "allowed": True})
    return out


def m_matrix_processes(parity="even"):
    """The link-matrix processes of a hop onto the given parity vertex, as
    (m_b, m_f, m_b', m_f', amplitude): the nonzero entries of M[i][j] on
    even hops and of M[j][i]^dag on odd ones, species i out and the
    opposite parity's species j in."""
    M = m_matrix()
    species = M_F_EVEN if parity == "even" else M_F_ODD
    src = M_F_ODD if parity == "even" else M_F_EVEN
    out = []
    for i in range(2):
        for j in range(2):
            mat = M[i][j] if parity == "even" else M[j][i].conj().T
            for mo in range(-2, 3):
                for mi in range(-2, 3):
                    amp = mat[mo + 2, mi + 2]
                    if abs(amp) >= 1e-14:
                        out.append((mi, src[j], mo, species[i], amp))
    return out


def fit_scattering_couplings(parity="even"):
    """Least-squares C_F fit of the scattering amplitudes to the M-matrix
    channel targets.

    The inverse question: which total-F couplings make V_S reproduce the
    link-matrix amplitudes on the energy-allowed channels?  Returns the
    best-fit couplings, the residual and the number of channels used; the
    residual is reported, feasibility is not asserted.
    """
    fs = total_f_channels()
    # target amplitudes: entries of M on its eight processes
    processes = m_matrix_processes(parity)
    A = np.array([[cg(F_BOSON, mo, F_FERMION, m_f_out, F, mi + m_f_in)
                   * cg(F_BOSON, mi, F_FERMION, m_f_in, F, mi + m_f_in)
                   for F in fs]
                  for mi, m_f_in, mo, m_f_out, _ in processes],
                 dtype=complex)
    b = np.array([amp for *_, amp in processes], dtype=complex)
    c, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ c - b))
    return dict(zip(fs, c)), residual, len(processes)


def selection_rule_satisfied(m_a, m_b, m_c, m_d):
    """The hyperfine bookkeeping for the interaction c^dag a^dag b d:
    m_F(a) + m_F(c) = m_F(b) + m_F(d)."""
    return abs((m_a + m_c) - (m_b + m_d)) < 1e-12
