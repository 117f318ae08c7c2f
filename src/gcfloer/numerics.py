"""Eigenvalues with fixed ordering contracts, and periodic quadrature.

The eigenvalue functions check their input (square; Hermitian within
HERMITIAN_TOL) and hand the work to LAPACK through numpy.linalg; what they
add is a deterministic output order that callers and printed output rely
on.  integrate_periodic is adaptive composite Gauss-Legendre for integrals
of smooth periodic functions over [0, 2*pi]; its integrand receives an
array of nodes and returns the values at all of them.
"""

import numpy as np

HERMITIAN_TOL = 1e-12  # largest relative defect |m - m*| a Hermitian input may have
SORT_RESOLUTION = 1e-9  # relative grid on which eigenvalue sort keys are compared

# the 16-point Gauss-Legendre rule on [-1, 1] that integrate_periodic applies
# on each panel: the (node, weight) pairs of the positive half, bit for bit
# those of np.polynomial.legendre.leggauss(16), which is symmetric.  Written
# out so that importing this module does not import numpy.polynomial (2 MB
# and a slower cold start); read-only, so no caller can disturb the rule.
_HALF_RULE = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
])
_NODES = np.concatenate((-_HALF_RULE[::-1, 0], _HALF_RULE[:, 0]))
_WEIGHTS = np.concatenate((_HALF_RULE[::-1, 1], _HALF_RULE[:, 1]))
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


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


def check_hermitian(m):
    a = _as_square_complex(m)
    scale = max(1.0, np.abs(a).max())
    defect = np.abs(a - a.conj().T).max()
    if defect > HERMITIAN_TOL * scale:
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


_GRIDS = {}  # panels -> the read-only half-widths and nodes of the composite rule


def _grid(panels):
    if panels in _GRIDS:
        return _GRIDS[panels]
    edges = np.linspace(0.0, 2.0 * np.pi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    theta = mid[:, None] + half[:, None] * _NODES
    half.flags.writeable = theta.flags.writeable = False
    if panels <= 64:  # not the grids of a non-converging run: 2^20 panels take 134 MB
        _GRIDS[panels] = half, theta
    return half, theta


def integrate_periodic(f, tol=1e-12, max_doublings=20):
    """Mean value (1/2pi) * integral of f over [0, 2*pi].

    Composite 16-point Gauss-Legendre; the panel count doubles until two
    successive estimates differ by less than tol/2, and NonConvergenceError
    is raised after max_doublings doublings.  f is called once per estimate
    with the (panels, 16) array of nodes, which is read-only (writing into
    it raises ValueError), and must return an array of that shape, or one
    that broadcasts to it (a constant); any other shape raises ValueError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def estimate(panels):
        half, theta = _grid(panels)
        vals = np.asarray(f(theta), dtype=complex)
        if vals.shape != theta.shape:
            vals = np.broadcast_to(vals, theta.shape)
        # a dot product per panel: one gemv over all panels rounds differently
        dots = np.matmul(vals[:, None, :], _WEIGHTS)[:, 0]
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
