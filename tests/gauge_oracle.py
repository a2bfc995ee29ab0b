"""Gauss generators as full-space matrices, the gauge transformations they
generate, the SU(2) zero-charge sector as their joint numerical kernel,
the checkerboard sign map, the restriction of a full-space operator to a
sector and the second order of the penalty construction from full-space
columns: the oracle the label-row Gauss law of ``lgtlab.gauge`` and the
sector machinery are checked against.

lgtlab itself never builds a generator matrix or restricts a full-space
operator: its sectors are enumerated from the charge rows of the label
table, its Gauss check reads [H, G] from the same rows and its sector
operators are built by label shifts.
"""

import numpy as np
from scipy import sparse
from scipy.linalg import expm

import su2_oracle
from lattice_oracle import parity
from lgtlab.gauge import charge_rows
from lgtlab.hamiltonian import SU2, ZN

_DENSE_LIMIT = 6000


def gauss_generators_u1(space):
    """Hermitian generators div L - Q for U(1)-truncated or spin-gauge links,
    diagonal with the full space's charge_rows."""
    return [space.diagonal_op(row)
            for row in charge_rows(space, space.labels)]


def gauss_generators_zn(space):
    """Unitary Z_N generators prod P^dag (outgoing) prod P (incoming).

    With staggered matter the vertex factor exp(i delta Q_n) is included so
    that the hopping psi^dag Q^dag psi stays invariant; eigenvalues are
    exp(-i delta (div m - Q_n)), read from the full space's charge_rows.
    """
    n = space.linkops.param
    phases = np.exp(-1j * (2.0 * np.pi / n) * np.arange(n))
    return [space.diagonal_op(phases[row % n])
            for row in charge_rows(space, space.labels)]


def clock_matrix(linkops):
    """The Z_N clock P = diag(exp(i 2 pi m / N)) on a link set's flux
    labels m."""
    return np.diag(np.exp(1j * (2.0 * np.pi / linkops.modulus)
                          * linkops.flux))


def generators(model):
    """A model's Gauss generators: a flat list (Abelian) or G^x, G^y, G^z
    triples (SU(2))."""
    if model.spec.model == ZN:
        return gauss_generators_zn(model.space)
    if model.spec.model == SU2:
        return su2_oracle.derived_generators_su2(model.space)
    return gauss_generators_u1(model.space)


def basis_matrix(sector, dim):
    """Isometry from a sector onto a full space of `dim` states (dense
    columns)."""
    B = np.zeros((dim, sector.dim), dtype=complex)
    for col, idx in enumerate(sector.indices):
        B[idx, col] = 1.0
    return B


def restrict(op, sector):
    """B^dag A B with B the sector isometry: the rows and columns of the
    sector's indices, sparse for sparse input."""
    if sparse.issparse(op):
        return op.tocsr()[sector.indices, :][:, sector.indices]
    return np.asarray(op)[np.ix_(sector.indices, sector.indices)]


def second_order_columns(h0, v, sector):
    """P v Q (E0 - h0)^{-1} Q v P on a sector from full-space operators:
    the columns of v at the sector's indices, divided by the gaps of a
    diagonal h0 at their rows off the sector, in one sparse product made
    Hermitian by averaging it with its adjoint.  E0 is h0 at the sector's
    first state."""
    diag = np.asarray(h0.diagonal()).real
    idx = sector.indices
    e0 = float(diag[idx[0]])
    W = v.tocsc()[:, idx].tocoo()
    in_sector = np.zeros(len(diag), dtype=bool)
    in_sector[idx] = True
    off = ~in_sector[W.row]
    data = np.zeros_like(W.data)
    data[off] = W.data[off] / (e0 - diag)[W.row[off]]
    RW = sparse.coo_matrix((data, (W.row, W.col)), shape=W.shape).tocsc()
    second = np.asarray((W.tocsc().conj().T @ RW).todense())
    return (second + second.conj().T) / 2.0


def su2_zero_charge_sector(space, generators, tol=1e-10):
    """Orthonormal basis (columns) of the joint kernel of all G^a_n (zero
    charge).

    Built from the positive semidefinite sum of squares; eigenvectors with
    eigenvalue below tol span the sector.
    """
    dim = space.dim
    if dim > _DENSE_LIMIT:
        raise ValueError(
            f"dense kernel computation refused for dimension {dim}")
    acc = np.zeros((dim, dim), dtype=complex)
    for triple in generators:
        for g in triple:
            gd = g.toarray()
            acc += gd.conj().T @ gd
    w, v = np.linalg.eigh(acc)
    return v[:, w < tol]


def gauge_transformation_unitary(space, generators, angles):
    """Theta = prod_n exp(i sum_a angle^a_n G^a_n) for Hermitian generators.

    angles: sequence over vertices; each entry is a float (Abelian) or a
    3-sequence (SU(2)).  Conjugation with Theta leaves gauge-invariant
    operators intact.
    """
    dim = space.dim
    if dim > _DENSE_LIMIT:
        raise ValueError(f"dense exponential refused for dimension {dim}")
    theta = np.eye(dim, dtype=complex)
    for v, a in enumerate(angles):
        gen = generators[v]
        if isinstance(gen, (list, tuple)):
            h = sum(float(ai) * gi.toarray() for ai, gi in zip(a, gen))
        else:
            h = float(a) * gen.toarray()
        theta = expm(1j * h) @ theta
    return theta


def zn_gauge_transformation(space, generators, powers):
    """Theta = prod_n G_n^{k_n} for the unitary Z_N generators."""
    out = sparse.identity(space.dim, format="csr", dtype=complex)
    for v, k in enumerate(powers):
        g = generators[v]
        for _ in range(int(k) % space.linkops.param):
            out = out @ g
    return out.tocsr()


def canonical_sign_transform(lat, link_values):
    """Flip per-link field samples by (-1)^(x+y) of the link's origin vertex.

    Maps sum-Gauss-law data into divergence form; applying it twice is the
    identity.
    """
    if lat.spatial_dim != 2:
        raise ValueError("sign transform is defined on 2d lattices")
    vals = np.asarray(link_values, dtype=float)
    if vals.shape[0] != lat.link_count:
        raise ValueError("one value per link required")
    out = vals.copy()
    for l in range(lat.link_count):
        v, _k = lat.links[l]
        out[l] *= parity(lat.vertices[v])
    return out
