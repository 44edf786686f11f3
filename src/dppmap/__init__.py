"""Greedy MAP inference for determinantal point processes.

Exact and lazy greedy maximization of log det of a kernel submatrix, a
partition-averaged first-order solver, a stochastic batch solver priced by a
Chebyshev/Hutchinson log-determinant estimator with shared probe vectors,
synthetic kernel generation, and a benchmark harness.

Import from the submodules (``dppmap.greedy``, ``dppmap.kernel``, ...); the
package root loads nothing, so ``dppmap.cli`` can set the BLAS thread count
before numpy is imported.
"""

__version__ = "0.1.0"
