"""Eigenvalues with fixed ordering contracts, and periodic quadrature.

The eigenvalue functions check their input (square; finite and Hermitian
within HERMITIAN_TOL) and hand the work to LAPACK through numpy.linalg;
what they add is a deterministic output order that callers and printed
output rely on.  integrate_periodic is adaptive composite Gauss-Legendre
for integrals of smooth periodic functions over [0, 2*pi]; its integrand
receives an array of nodes and returns the values at all of them.
uniform_streams draws, for many seeds [seed, i] at once, the doubles
numpy's default_rng would give.
"""

import cmath
import functools
import operator

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


_TWO_PI = 2.0 * np.pi
# the half-widths h of 1 and 2 panels as complex numbers h + 0i: np.sum(half *
# dots) multiplies in complex arithmetic, and so must _first_estimates
_HALF_1, _HALF_2 = ([complex(h) for h in _grid(p)[0].tolist()] for p in (1, 2))


@functools.cache
def _first_nodes():
    """The nodes of the 1-panel grid above those of the 2-panel grid, as one
    read-only (3, 16) array."""
    theta = np.concatenate((_grid(1)[1], _grid(2)[1]))
    theta.flags.writeable = False
    return theta


def _panel_dots(vals):
    # a dot product per panel: one gemv over all panels rounds differently
    return np.matmul(vals[:, None, :], _WEIGHTS)[:, 0]


def _estimate(half, vals):
    return np.sum(half * _panel_dots(vals)) / _TWO_PI


def _first_estimates(vals):
    """The 1-panel and 2-panel estimates from the (3, 16) values of the first
    call, bit for bit those of _estimate on rows 0 and 1-2.

    np.sum on one or two terms starts from +0 and adds them in order, and
    Python's complex product and sum round as numpy's do; the division
    stays numpy's.  This saves two np.sum calls per integral.
    """
    d0, d1, d2 = _panel_dots(vals).tolist()
    (h0,), (h1, h2) = _HALF_1, _HALF_2
    one = 0j + h0 * d0
    two = 0j + (h1 * d1 + h2 * d2)
    return np.complex128(one) / _TWO_PI, np.complex128(two) / _TWO_PI


def integrate_periodic(f, tol=1e-12, max_doublings=20):
    """Mean value (1/2pi) * integral of f over [0, 2*pi].

    Composite 16-point Gauss-Legendre; the panel count doubles until two
    successive estimates differ by less than tol/2, and NonConvergenceError
    is raised after max_doublings doublings.  A NaN or infinite estimate
    raises NonConvergenceError at once, with that estimate as last_estimate:
    a non-finite node value always gives one (the weights and half-widths
    are positive), and more panels cannot make it finite.

    f receives read-only arrays of nodes (writing into one raises
    ValueError) and must return an array of the same shape, or one that
    broadcasts to it (a constant); any other shape raises ValueError.  Its
    first call gets a (3, 16) array: row 0 holds the nodes of 1 panel and
    rows 1-2 those of 2 panels, so an integral that converges at 2 panels
    costs one call.  Each later call gets the (panels, 16) nodes of one
    estimate, from 4 panels on.  f must therefore compute each value from
    its own node alone.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def values(theta):
        vals = np.asarray(f(theta), dtype=complex)
        if vals.shape != theta.shape:
            vals = np.broadcast_to(vals, theta.shape)
        return vals

    def finite(estimate, panels):
        if not cmath.isfinite(estimate):
            raise NonConvergenceError(
                f"integrate_periodic: non-finite estimate (panels={panels})",
                last_estimate=estimate,
            )
        return estimate

    prev, cur = _first_estimates(values(_first_nodes()))
    finite(prev, 1)
    panels = 2
    for doubling in range(max_doublings):
        if doubling:
            half, theta = _grid(panels)
            cur = _estimate(half, values(theta))
        if abs(finite(cur, panels) - prev) < tol / 2.0:
            return cur
        prev = cur
        panels *= 2
    raise NonConvergenceError(
        f"integrate_periodic did not converge to tol={tol}", last_estimate=prev
    )


# ---------------------------------------------------------------------------
# seeded uniform draws

_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants; the PCG64 multiplier's 64-bit halves,
# and the low half's 32-bit limbs
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI = 2549297995355413924
_PCG_LO = 4865540595714422341
_PCG_LO0, _PCG_LO1 = _PCG_LO & _M32, _PCG_LO >> 32


def _hashmix(value, h, mult):
    """SeedSequence's hash of a uint32 array with the running constant h;
    returns the hash and the next constant."""
    h_next = (h * mult) & _M32
    value = (value ^ np.uint32(h)) * np.uint32(h_next)
    return value ^ (value >> np.uint32(16)), h_next


def _mix(x, y):
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _seed_state(seed, count):
    """SeedSequence([seed, i]).generate_state(4, np.uint64) for each i < count,
    as four uint64 arrays."""
    entropy = []
    while seed:  # the 32-bit words of seed, low first; [0] for 0
        entropy.append(np.full(count, seed & _M32, np.uint32))
        seed >>= 32
    entropy = (entropy or [np.zeros(count, np.uint32)]) + [np.arange(count, dtype=np.uint32)]
    # a pool of four words: entropy shorter than the pool hashes as zeros
    entropy += [np.zeros(count, np.uint32)] * (4 - len(entropy))
    pool, h = [], _INIT_A
    for word in entropy[:4]:
        value, h = _hashmix(word, h, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, h = _hashmix(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    # eight 32-bit words from the cycled pool, paired little-endian
    words, h = [], _INIT_B
    for i in range(8):
        value, h = _hashmix(pool[i % 4], h, _MULT_B)
        words.append(value.astype(np.uint64))
    return [words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(4)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """The PCG64 step state * multiplier + inc mod 2^128, on states held as
    (hi, lo) uint64 arrays; the high word of lo * _PCG_LO from 32-bit limbs."""
    lo0, lo1 = lo & np.uint64(_M32), lo >> np.uint64(32)
    p00, p01, p10 = lo0 * np.uint64(_PCG_LO0), lo0 * np.uint64(_PCG_LO1), lo1 * np.uint64(_PCG_LO0)
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    hi = (lo1 * np.uint64(_PCG_LO1) + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
          + (mid >> np.uint64(32)) + lo * np.uint64(_PCG_HI) + hi * np.uint64(_PCG_LO))
    lo = lo * np.uint64(_PCG_LO)
    new_lo = lo + inc_lo
    return hi + inc_hi + (new_lo < lo), new_lo


def uniform_streams(seed, count, k):
    """The (count, k) array whose row i is the bytes of
    np.random.default_rng([seed, i]).random(k), for all rows at once.

    Row i runs numpy's SeedSequence([seed, i]), seeds PCG64 with the
    state it generates, and turns each 64-bit output x into the double
    (x >> 11) 2^-53, as Generator.random does; tests check it against
    default_rng.  One generator per row costs about 12 us, this about
    1 us a row.  seed must be a non-negative integer, as for default_rng,
    and count at most 2^32, so that each row's own entropy is one word.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    s_hi, s_lo, q_hi, q_lo = _seed_state(seed, count)
    # PCG64's seeding: inc = 2q + 1, then state = (inc + s) * multiplier + inc
    inc_hi = (q_hi << np.uint64(1)) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + s_lo
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    out = np.empty((count, k))
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: hi ^ lo rotated right by the top six bits
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, j] = (x >> np.uint64(11)) * 2.0**-53
    return out
