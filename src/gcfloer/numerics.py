"""Eigenvalues with fixed ordering contracts, and periodic quadrature.

The eigenvalue functions check their input (square; Hermitian within
HERMITIAN_TOL) and hand the work to LAPACK through numpy.linalg; what they
add is a deterministic output order that callers and printed output rely
on.  integrate_periodic is adaptive composite Gauss-Legendre for integrals
of smooth periodic functions over [0, 2*pi]; its integrand receives an
array of nodes and returns the values at all of them.
"""

import functools

import numpy as np

HERMITIAN_TOL = 1e-12
SORT_RESOLUTION = 1e-9  # relative grid on which eigenvalue sort keys are compared


class NonConvergenceError(RuntimeError):
    """Raised when an iterative routine fails to converge.

    Carries the last estimate in ``last_estimate`` when available.
    """

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate


def _as_square_complex(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(m, tol=HERMITIAN_TOL):
    a = _as_square_complex(m)
    scale = max(1.0, np.abs(a).max())
    defect = np.abs(a - a.conj().T).max()
    if defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3g})")
    return a


def hermitian_eigenvalues(m):
    """Eigenvalues of a Hermitian matrix, sorted in decreasing order."""
    return np.linalg.eigvalsh(check_hermitian(m))[::-1]


def complex_eigenvalues(m):
    """All eigenvalues of a square complex matrix, sorted by (real, imag).

    The sort key rounds both parts to 1e-9 of the spectral scale, so parts
    that agree in exact arithmetic (a real part 0 against -1e-16) compare
    equal and the order does not depend on rounding noise.
    """
    eigs = np.linalg.eigvals(_as_square_complex(m))
    scale = SORT_RESOLUTION * max(1.0, np.abs(eigs).max(initial=0.0))
    order = np.lexsort((np.rint(eigs.imag / scale), np.rint(eigs.real / scale)))
    return eigs[order]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate_periodic(f, tol=1e-12, order=16, max_doublings=20):
    """Mean value (1/2pi) * integral of f over [0, 2*pi].

    Composite Gauss-Legendre; the panel count doubles until two successive
    estimates differ by less than tol/2.  f is called once per estimate
    with the (panels, order) array of nodes and must return an array of
    that shape, or one that broadcasts to it (a constant); any other shape
    raises ValueError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    nodes, weights = _gauss_legendre(order)

    def estimate(panels):
        edges = np.linspace(0.0, 2.0 * np.pi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        theta = mid[:, None] + half[:, None] * nodes
        vals = np.broadcast_to(np.asarray(f(theta), dtype=complex), theta.shape)
        # a dot product per panel: one gemv over all panels rounds differently
        dots = np.matmul(vals[:, None, :], weights)[:, 0]
        return np.sum(half * dots) / (2.0 * np.pi)

    prev = estimate(1)
    panels = 2
    for _ in range(max_doublings):
        cur = estimate(panels)
        if abs(cur - prev) < tol / 2.0:
            return cur
        prev = cur
        panels *= 2
    raise NonConvergenceError(
        f"integrate_periodic did not converge to tol={tol}", last_estimate=prev
    )
