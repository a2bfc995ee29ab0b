"""Tensor-product assembly of per-link operators and fermionic matter.

The full Hilbert space is (link_0 x link_1 x ... x link_{L-1}) x matter,
with link 0 the most significant tensor factor and the matter occupation
space (if present) last.  Product-basis indices therefore decompose as

    index = ((s_0 * d_1 + s_1) * d_2 + ...) * 2^modes + occupation_bits

which is what the Gauss-sector enumeration relies on.

Label table.  Every product state is also described by its integer labels,
``ProductSpace.labels``: an array of shape (n_links + n_modes, dim) whose
row l < n_links holds the flux index (local basis position, 0 ..
link_dim - 1) of link l and whose row n_links + j holds the occupation bit
of fermion mode j, for every product index in order.  It is decoded once
from the mixed-radix index above, in the narrowest unsigned dtype that
holds the largest label (uint8 for every local dimension up to 256), and
cached on the space.  Every diagonal quantity is a vectorized read of it:
the flux readout of ``observables.flux_profile``, the matter charges,
Abelian Gauss eigenvalues and sector enumeration in ``gauge``, and the
diagonal part D (electric, mass, penalty) of ``Model.hamiltonian``.

Off-diagonal operators (the hopping and plaquette pieces of the
Hamiltonian's T, SU(2) generators and string operators) have one kron
path, ``ProductSpace.embed``: a product of local link matrices times an
optional matter operator, built in a single pass in which each run of
untouched factors is one cached identity.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


@dataclass
class ProductSpace:
    lattice: object
    linkops: object                  # LinkOperatorSet shared by all links
    layout: object = None            # FermionLayout or None

    _eye_cache: dict = field(default_factory=dict, repr=False)
    _tables: dict = field(default_factory=dict, repr=False)

    @property
    def n_links(self):
        return self.lattice.link_count

    @property
    def link_dim(self):
        return self.linkops.local_dim

    @property
    def matter_dim(self):
        return 1 if self.layout is None else self.layout.dim

    @property
    def n_modes(self):
        return 0 if self.layout is None else self.layout.n_modes

    @property
    def dim(self):
        return self.link_dim ** self.n_links * self.matter_dim

    @property
    def labels(self):
        """Per-state label table (links, then occupation bits); cached."""
        return self.cached("labels", self._decode_labels)

    @property
    def link_labels(self):
        return self.labels[:self.n_links]

    def vertex_occupations(self, vertex):
        """Occupation-bit rows (species, dim) of the modes at a vertex."""
        if self.layout is None:
            raise ValueError("space carries no matter")
        return self.labels[[
            self.n_links + self.layout.mode_index(vertex, s)
            for s in range(self.layout.species_per_vertex)]]

    def _decode_labels(self):
        radices = [self.link_dim] * self.n_links + [2] * self.n_modes
        dtype = np.min_scalar_type(max(radices, default=1) - 1)
        table = np.empty((len(radices), self.dim), dtype=dtype)
        left = 1
        for row, radix in zip(table, radices):
            row.reshape(left, radix, -1)[...] = \
                np.arange(radix, dtype=dtype)[:, None]
            left *= radix
        return table

    def cached(self, key, build):
        """Per-space table `key`, built by `build()` on first use."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def diagonal_op(self, values):
        """Sparse operator with the given per-state diagonal."""
        return sparse.diags(values, format="csr", dtype=complex)

    def _eye(self, d):
        if d not in self._eye_cache:
            self._eye_cache[d] = sparse.identity(d, format="csr", dtype=complex)
        return self._eye_cache[d]

    def embed(self, factors=(), matter=None):
        """Embed a product of local operators in the full space.

        factors: iterable of (link_idx, local matrix); matrices on the same
        link multiply in the order given.  matter: operator on the
        occupation space, the identity when None.  One kron pass: each run
        of untouched factors is a single cached identity.
        """
        if matter is not None and self.layout is None:
            raise ValueError("space carries no matter")
        local = {}
        for idx, m in factors:
            local[idx] = m if idx not in local else local[idx] @ m
        parts, run = [], 1
        for idx in range(self.n_links):
            if idx not in local:
                run *= self.link_dim
                continue
            if run > 1:
                parts.append(self._eye(run))
            parts.append(sparse.csr_matrix(local[idx], dtype=complex))
            run = 1
        if matter is None:
            run *= self.matter_dim
        if run > 1 or not parts:
            parts.append(self._eye(run))
        if matter is not None:
            parts.append(sparse.csr_matrix(matter, dtype=complex))
        out = parts[0]
        for f in parts[1:]:
            out = sparse.kron(out, f, format="csr")
        return out

    def product_state_index(self, link_values, matter_index=0):
        """Full-space index of |link_values> x |matter_index>."""
        idx = 0
        for s in link_values:
            idx = idx * self.link_dim + int(s)
        return idx * self.matter_dim + int(matter_index)

    def decompose_index(self, index):
        """Inverse of product_state_index: (link tuple, matter index)."""
        matter = index % self.matter_dim
        rest = index // self.matter_dim
        vals = []
        for _ in range(self.n_links):
            vals.append(rest % self.link_dim)
            rest //= self.link_dim
        return tuple(reversed(vals)), matter

    def basis_vector(self, index):
        v = np.zeros(self.dim, dtype=complex)
        v[index] = 1.0
        return v
