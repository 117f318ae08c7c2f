"""Eigenvalues with fixed ordering contracts, and periodic quadrature.

The eigenvalue functions check their input (square; finite and Hermitian
within HERMITIAN_TOL) and hand the work to LAPACK through numpy.linalg;
what they add is a deterministic output order that callers and printed
output rely on.  integrate_periodic is adaptive composite Gauss-Legendre
for integrals of smooth periodic functions over [0, 2*pi]; its integrand
receives an array of nodes and returns the values at all of them.  The
package itself no longer calls it (floer's disk-count integrals are exact);
the tests use it as an independent oracle for them.
"""

import cmath

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


def _leading_maxima(m):
    # running maxima down the columns, then along the rows: entry (k-1, k-1)
    # is the largest entry of the leading k x k block
    return np.maximum.accumulate(np.maximum.accumulate(m, axis=0), axis=1).diagonal()


def leading_block_defects(m):
    """m as a finite square complex array a, with the Hermitian defect and
    scale of each of its leading blocks.

    Returns (a, defect, scale), where defect[k-1] = max |a - a*| and
    scale[k-1] = max(1, max |a|) over the block a[:k, :k], k = 1..n, as
    lists of floats.  Both come from one |a - a*| and one |a|, so a caller
    that needs every block (gc_map) checks the matrix once.  Raises
    ValueError for a non-square or empty matrix and for NaN or infinite
    entries.
    """
    a = _as_square_complex(m)
    if not a.size:  # as np.max on an empty array
        raise ValueError("zero-size array to reduction operation maximum which has no identity")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    defect = _leading_maxima(np.abs(a - a.conj().T)).tolist()
    scale = np.maximum(_leading_maxima(np.abs(a)), 1.0).tolist()
    return a, defect, scale


def require_hermitian(defect, scale):
    """Raise ValueError when a block's defect exceeds HERMITIAN_TOL * scale."""
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3g})")


def check_hermitian(m):
    """m as a square complex array; ValueError unless it is finite and
    max |m - m*| <= HERMITIAN_TOL * max(1, max |m|).

    A NaN defect would compare False against the tolerance, so finiteness
    is checked first.
    """
    a, defect, scale = leading_block_defects(m)
    require_hermitian(defect[-1], scale[-1])
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
    is raised after max_doublings doublings.  A NaN or infinite estimate
    raises NonConvergenceError at once, with that estimate as last_estimate:
    a non-finite node value always gives one (the weights and half-widths
    are positive), and more panels cannot make it finite.

    f receives the read-only (panels, 16) array of nodes of one estimate
    (writing into it raises ValueError) and must return an array of the
    same shape, or one that broadcasts to it (a constant); any other shape
    raises ValueError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def estimate(panels):
        half, theta = _grid(panels)
        vals = np.asarray(f(theta), dtype=complex)
        if vals.shape != theta.shape:
            vals = np.broadcast_to(vals, theta.shape)
        est = np.sum(half * (vals @ _WEIGHTS)) / (2.0 * np.pi)
        if not cmath.isfinite(est):
            raise NonConvergenceError(
                f"integrate_periodic: non-finite estimate (panels={panels})",
                last_estimate=est,
            )
        return est

    prev = estimate(1)
    for doubling in range(1, max_doublings + 1):
        cur = estimate(2**doubling)
        if abs(cur - prev) < tol / 2.0:
            return cur
        prev = cur
    raise NonConvergenceError(
        f"integrate_periodic did not converge to tol={tol}", last_estimate=prev
    )
