"""Walsh-Fourier summability toolkit.

Exact dyadic-group arithmetic, fast Paley-ordered Walsh-Hadamard transforms,
rectangular and quadratic partial sums, sequence-BMO norms of the diagonal
sums, their exponential (Phi-) means, dyadic maximal and Schipp V-operators,
and a reproducible experiment harness.  Names are imported from their
modules (`wss.transform`, `wss.sums`, `wss.means`, ...); the package itself
holds only the version.
"""

__version__ = "0.1.0"
