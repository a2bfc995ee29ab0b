"""Tensor-product assembly of per-link operators and fermionic matter.

The full Hilbert space is one list of tensor factors: link_0 x link_1 x
... x link_{L-1}, then one 2-state factor per fermion mode (factor
L + j is mode j), with link 0 the most significant.  Product-basis indices
therefore decompose as

    index = ((s_0 * d_1 + s_1) * d_2 + ...) * 2^modes + occupation_bits

which is what the Gauss-sector enumeration relies on.

Label table.  Every product state is also described by its integer labels:
a column of one flux index (local basis position, 0 .. link_dim - 1) per
link followed by one occupation bit per fermion mode.
``ProductSpace.decode(indices)`` is the one decoder from mixed-radix
indices to such columns, in the narrowest unsigned dtype that holds the
largest label (uint8 for every local dimension up to 256), and
``ProductSpace.encode(labels)``, its inverse, is the one encoder (the
string states are built through it).  The full-space table
``ProductSpace.labels`` is the decode of every index, cached on the space,
and a Gauss sector carries the decode of its own states
(``gauge.GaussSector.labels``).  Every diagonal quantity is a vectorized
read of the label table it is given, never of a default one: the flux
readout of ``observables.flux_profile``, every charge from the one Gauss
law reader ``gauge.charge_rows`` (each family's diagonal generator rows
and eigenvalues, and the charge readout ``observables.charge_profile``,
the rows of the mode factors alone), and the diagonal part D (electric,
mass, penalty) of ``Model.hamiltonian``; the occupation-bit rows are read
through the matter layout's per-mode tables (``matter.FermionLayout``).

Off-diagonal operators (the hopping and plaquette pieces of the
Hamiltonian's T, SU(2) Gauss raising operators and string operators) are
products of local matrices on tensor factors, links and fermion modes
alike (a fermion hop carries its Jordan-Wigner string as Pauli Z factors,
see ``matter.hop``), with two realizations:

* full space: ``ProductSpace.embed(pieces)``, the one embedding, sums
  coeff x product over (coeff, factors) pieces as one CSR from one COO
  pass.  Each product's triples come from one Kronecker pass over the
  factors, in which each run of untouched factors is one identity block.
* Gauss sector: ``ProductSpace.shift(indices, labels, factors)``, which
  applies the same product to a list of product states as label shifts.
  Each nonzero of a local matrix's column maps a source label, read from
  the states' label table, to a target label, so the target index is the
  source index plus (target - source) times the factor's stride; a
  product touches each factor once and no label carries, so no index is
  divided.  ``Model.hamiltonian(sector=...)`` locates the targets among
  the sector's sorted indices, so its cost scales with the sector
  dimension.

Kronecker embeddings and label shifts stay separate paths: each is the
faster one on its own inputs (the whole space, or a sector's states).
A full-space T took 4.0 ms by ``embed`` against 46.3 ms by ``shift`` of
every index on ``verify --all``'s ``su2_chain_matter`` (32,000 states),
and 4.3 against 33.6 ms on ``spin_gauge_naive`` (20,736 states); medians
of 15 in-process repeats, 2-core Intel Xeon, 1 BLAS thread.

Dtype.  An operator's dtype is decided once, where its entries are
written: every local matrix is stored float64 when it is real, and
``embed``, ``_kron``, ``shift`` and ``diagonal_op`` force no dtype, so a
product or sum is complex only when one of its local matrices or
coefficients is.  Every Hamiltonian here is therefore float64 (truncated
U(1), spin-gauge, Z_N and SU(2), whose local factors and couplings are all
real in the flux-and-occupation basis) except one with the naive-fermion
hop, whose Dirac structure i sigma_k makes it complex128.  Nothing
downstream (the eigensolvers, the evolution, the Gauss-law check) reads
an imaginary part to pick a dtype or converts one.  Only state vectors
(``basis_vector``) are complex from the start.

Memory guard.  Before the first full-space table or embedding of a space,
``ProductSpace.require_memory`` compares FULL_SPACE_BYTES_PER_STATE times
the dimension with the memory the process may use (the lesser of the
host's MemAvailable and the address-space limit) and raises
``SolverError`` when it does not fit, so an oversized run exits 3 instead
of being killed mid-allocation.
"""

from dataclasses import dataclass, field

import math
import os
import resource

import numpy as np
from scipy import sparse

from .solver import SolverError

# peak bytes per state of a full-space run: full-space `spectrum` runs
# peaked at 540-560 bytes per state (chains of 6-8 with staggered matter,
# the 2x2 torus and the open 3x3 lattice), most of it Lanczos vectors
FULL_SPACE_BYTES_PER_STATE = 600
MEMINFO = "/proc/meminfo"


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


@dataclass
class ProductSpace:
    lattice: object
    linkops: object                  # LinkOperatorSet shared by all links
    layout: object = None            # FermionLayout or None

    _tables: dict = field(default_factory=dict, repr=False)

    @property
    def n_links(self):
        return self.lattice.link_count

    @property
    def link_dim(self):
        return self.linkops.local_dim

    @property
    def n_modes(self):
        return 0 if self.layout is None else self.layout.n_modes

    @property
    def dim(self):
        return math.prod(self.radices)

    @property
    def radices(self):
        """Local dimension of every tensor factor, links then modes."""
        return [self.link_dim] * self.n_links + [2] * self.n_modes

    @property
    def labels(self):
        """Label table of the full space (the decode of every index);
        cached, after the memory guard."""
        def build():
            self.require_memory()
            return self.decode(np.arange(
                self.dim, dtype=np.min_scalar_type(self.dim - 1)))
        return self.cached("labels", build)

    def decode(self, indices):
        """Label table (one row per link, then per fermion mode; one column
        per index) of the given product-state indices."""
        radices = self.radices
        dtype = np.min_scalar_type(max(radices, default=1) - 1)
        # the narrowest unsigned index type: 32-bit division is several
        # times faster than 64-bit on the full table
        rest = np.asarray(indices, dtype=np.min_scalar_type(self.dim - 1))
        table = np.empty((len(radices), len(rest)), dtype=dtype)
        for row, radix in zip(table[::-1], radices[::-1]):
            quotient = rest // radix
            row[...] = rest - quotient * radix
            rest = quotient
        return table

    def encode(self, labels):
        """Product-state index of one label column (one label per link,
        then per fermion mode), the inverse of decode; a Python int, which
        never wraps."""
        radices = self.radices
        if len(labels) != len(radices):
            raise ValueError(f"{len(labels)} labels for the space's "
                             f"{len(radices)} tensor factors")
        index = 0
        for label, radix in zip(labels, radices):
            index = index * radix + int(label)
        return index

    def require_memory(self):
        """Raise SolverError when the full space does not fit in the memory
        this process may use; checked once per space."""
        def check():
            need = self.dim * FULL_SPACE_BYTES_PER_STATE
            have = usable_memory()
            if need > have:
                raise SolverError(
                    f"full space of {self.dim} states needs about "
                    f"{need / 2**20:.0f} MiB, more than the "
                    f"{have / 2**20:.0f} MiB this process may use")
            return need
        self.cached("memory_checked", check)

    def cached(self, key, build):
        """Per-space table `key`, built by `build()` on first use."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def diagonal_op(self, values):
        """Sparse operator with the given per-state diagonal, float64 for
        real values."""
        return sparse.diags(values, format="csr",
                            dtype=np.result_type(values, float))

    def embed(self, pieces):
        """sum of coeff * product over (coeff, factors) pieces, embedded in
        the full space as one CSR: each product's Kronecker triples
        (_kron), scaled by its coefficient, are collected and converted to
        CSR once.

        factors: iterable of (factor index, local matrix); matrices on the
        same factor multiply in the order given.
        """
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        data = [np.zeros(0)]
        for coeff, factors in pieces:
            r, c, d = self._kron(factors)
            rows.append(r)
            cols.append(c)
            data.append(d * coeff)
        return sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows),
                                    np.concatenate(cols))),
            shape=(self.dim, self.dim)).tocsr()

    def _kron(self, factors):
        """COO triples (rows, cols, data) of one product of local operators
        embedded in the full space, each (row, col) once: the Kronecker
        product formed in one pass over the factors, each run of untouched
        factors one identity block."""
        local = self._local(factors)
        self.require_memory()
        blocks, run = [], 1
        for idx, radix in enumerate(self.radices):
            if idx in local:
                blocks += [(run, None), (radix, local[idx])]
                run = 1
            else:
                run *= radix
        rows = cols = np.zeros(1, dtype=np.int64)
        data = np.ones(1)
        for size, op in blocks + [(run, None)]:
            if op is None:
                r = c = np.arange(size)
                data = np.repeat(data, size)
            else:
                r, c = np.nonzero(op)
                data = (data[:, None] * op[r, c]).ravel()
            rows = (rows[:, None] * size + r).ravel()
            cols = (cols[:, None] * size + c).ravel()
        return rows, cols, data

    def shift(self, indices, labels, factors):
        """Apply the product of local matrices `factors` (one piece's
        factors in embed) to the product states `indices`, whose label
        table is `labels`, as label shifts.

        Returns (source position in `indices`, target index, value), one
        entry per nonzero of the product's columns; no full-space object is
        built.  A product touches each factor once and no label carries
        into the next factor, so a state's label on a factor is its source
        label there, read from `labels`.
        """
        radices = self.radices
        target = np.array(indices, dtype=np.int64)
        source = np.arange(len(target))
        value = np.ones(len(target))
        for idx, op in self._local(factors).items():
            stride, label = math.prod(radices[idx + 1:]), labels[idx][source]
            # each state's column of the small dense matrix, one row per
            # state: its nonzeros come out per state, target label ascending
            column = np.asarray(op)[:, label].T
            pick, row = np.nonzero(column)
            source, value = source[pick], value[pick] * column[pick, row]
            target = target[pick] + (row - label[pick]) * stride
        return source, target, value

    def _local(self, factors):
        """{factor: product of its local matrices, in the order given}."""
        local, count = {}, self.n_links + self.n_modes
        for idx, m in factors:
            if not 0 <= idx < count:
                raise ValueError(f"factor {idx} outside the space's {count} "
                                 f"tensor factors")
            local[idx] = m if idx not in local else local[idx] @ m
        return local

    def basis_vector(self, index):
        v = np.zeros(self.dim, dtype=complex)
        v[index] = 1.0
        return v
