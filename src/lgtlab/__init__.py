"""lgtlab: exact-diagonalization laboratory for Hamiltonian lattice gauge
theories (truncated U(1), spin-gauge, Z_N, truncated SU(2)) and the
cold-atom operator constructions behind them.

The package itself imports nothing, so the `lgtlab` command
(`lgtlab.__main__`) can set the BLAS thread count before numpy loads."""

__version__ = "0.1.0"
