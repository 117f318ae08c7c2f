"""The Landau-Ginzburg potential of Gelfand-Cetlin torus fibers.

The potential is a Laurent polynomial in the fiber variables
y_i^{(k)} = e^{x_i^{(k)}} T^{u_i^{(k)}}, one term per facet of the
Gelfand-Cetlin polytope (upper >= lower becomes y_upper / y_lower, with
constant entries lambda_{n_j} entering as Q_j = T^{lambda_{n_j}}).
Critical points are found by multistart Newton iteration in logarithmic
coordinates, where the Jacobian of the gradient system is the logarithmic
Hessian of the potential.
"""

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .flags import EigenProfile, grassmannian_shape, index_set
from .gc_core import build_polytope, contains
from .novikov import as_fraction
from .numerics import NonConvergenceError

NEWTON_TOL = 1e-10  # a Newton start has converged once max |grad| < NEWTON_TOL
MAX_ITERS = 100  # Newton iterations a start gets before it is dropped
DEDUPE_TOL = 1e-6  # relative distance below which two limit points are one
DEGENERATE_DET = 1e-10  # a Hessian is degenerate if its row-normalized |det| <= this
POLISH_STEPS = 6  # plain Newton steps of each polish of a deduped limit point
GRID = 2.0**-26  # spacing of the grid in w that polished limit points are rounded to
VERIFY_T0 = (0.45, 0.55)  # base values at which verify_candidate checks and fits


@dataclass(frozen=True)
class LaurentTerm:
    coeff: complex
    t_exp: Fraction
    y_exp: tuple  # integer exponent vector over the index set

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "t_exp", as_fraction(self.t_exp))
        object.__setattr__(self, "y_exp", tuple(int(e) for e in self.y_exp))


@dataclass(frozen=True)
class LaurentPoly:
    terms: tuple
    index: tuple  # the index set: (i, k) pairs labelling the variables

    @property
    def nvars(self):
        return len(self.index)

    def term_multiset(self):
        return sorted((t.t_exp, t.y_exp) for t in self.terms)

    def exponent_matrix(self):
        return np.array([t.y_exp for t in self.terms], dtype=float)

    def coeff_vector(self, T0):
        return np.array([t.coeff * T0 ** float(t.t_exp) for t in self.terms])


def _merge_terms(raw_terms):
    merged = {}
    for coeff, t_exp, y_exp in raw_terms:
        key = (t_exp, y_exp)
        merged[key] = merged.get(key, 0.0) + coeff
    return tuple(
        LaurentTerm(c, t_exp, y_exp)
        for (t_exp, y_exp), c in sorted(merged.items())
        if c != 0
    )


def build_potential(shape, profile):
    """One Laurent term per facet of the Gelfand-Cetlin polytope."""
    polytope = build_polytope(shape, profile)
    idx = polytope.index
    raw = []
    for ineq in polytope.inequalities:
        if not ineq.facet:
            continue
        t_exp = Fraction(0)
        y_exp = [0] * len(idx)
        for side, sgn in ((ineq.upper, 1), (ineq.lower, -1)):
            if isinstance(side, Fraction):
                t_exp += sgn * side
            else:
                y_exp[idx.index(side)] += sgn
        raw.append((1.0 + 0.0j, t_exp, tuple(y_exp)))
    return LaurentPoly(_merge_terms(raw), idx)


def evaluate(po, y, T0):
    y = np.asarray(y, dtype=complex)
    if np.any(y == 0):
        raise ValueError("potential is undefined where a coordinate vanishes")
    total = 0.0 + 0.0j
    for t in po.terms:
        total += t.coeff * T0 ** float(t.t_exp) * np.prod(y ** np.array(t.y_exp))
    return total


def _exponents(w, E):
    """w @ E.T for a real E, as two real products: right after the complex
    gemm of a batched w @ E.T, np.exp runs about 13x slower."""
    z = np.empty(w.shape[:-1] + E.shape[:1], dtype=complex)
    z.real, z.imag = w.real @ E.T, w.imag @ E.T
    return z


def _grad_hess_at_w(E, c, w):
    """Gradient and logarithmic Hessian at w (y = exp(w)) of sum_t c_t e^(E_t . w);
    w may be a batch of shape (..., nvars).

    The Hessian sum_t vals_t E_tj E_tl is two real matrix products, of the
    real and imaginary parts of vals with E (x) E flattened to
    (terms, nvars^2), written into views of one complex array.  Each term
    is exact, since E's entries are 0 and +-1.  A non-finite value makes
    every entry of its Hessian non-finite.
    """
    vals = c * np.exp(_exponents(w, E))  # (..., terms)
    terms, n = E.shape
    EE = (E[:, :, None] * E[:, None, :]).reshape(terms, n * n)
    hess = np.empty(vals.shape[:-1] + (n, n), dtype=complex)
    flat = vals.shape[:-1] + (n * n,)
    np.matmul(vals.real, EE, out=hess.real.reshape(flat))
    np.matmul(vals.imag, EE, out=hess.imag.reshape(flat))
    return vals @ E, hess


def _grad_hess_at_y(po, y, T0):
    w = np.log(np.asarray(y, dtype=complex))
    return _grad_hess_at_w(po.exponent_matrix(), po.coeff_vector(T0), w)


def gradient_at(po, y, T0):
    return _grad_hess_at_y(po, y, T0)[0]


@dataclass(frozen=True)
class SolverConfig:
    T0: float = 0.5
    starts: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.T0 < 1:
            raise ValueError("T0 must lie in (0, 1)")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed {self.seed}: expected non-negative integer")


@dataclass(frozen=True)
class CriticalCandidate:
    """Either a numeric point y, or the exponent form y_j = c_j T^{e_j}."""

    y: tuple = None
    coeffs: tuple = None
    exps: tuple = None
    residual: float = None
    hessian_det: float = None

    def numeric_at(self, T0):
        if self.y is not None:
            return np.array(self.y, dtype=complex)
        return np.array(
            [c * T0 ** float(e) for c, e in zip(self.coeffs, self.exps)],
            dtype=complex,
        )


def _canonical_w(w):
    """Reduce imaginary parts modulo 2*pi into (-pi, pi]."""
    re = w.real
    im = np.mod(w.imag + np.pi, 2.0 * np.pi) - np.pi
    im = np.where(np.isclose(im, -np.pi, atol=1e-12), np.pi, im)
    return re + 1j * im


def _wrap_angle(d):
    return np.mod(d + np.pi, 2.0 * np.pi) - np.pi


def _solve_steps(hess, grad):
    """Newton steps -H^{-1} g for a stack of systems, and a mask of the
    systems whose own solve raises LinAlgError (their steps are zero).

    A stacked solve raises if any one matrix is singular.  The matrices
    whose slogdet sign is 0 are then marked: slogdet factors with the same
    LAPACK getrf as solve and gives sign 0 exactly when a pivot is zero,
    which is when solve raises.  The others are solved in one call.
    """
    try:
        steps = np.linalg.solve(hess, -grad[..., None])[..., 0]
        return steps, np.zeros(len(hess), bool)
    except np.linalg.LinAlgError:
        with np.errstate(all="ignore"):
            singular = np.linalg.slogdet(hess)[0] == 0
    steps = np.zeros_like(grad)
    steps[~singular] = np.linalg.solve(hess[~singular], -grad[~singular][..., None])[..., 0]
    return steps, singular


def _normalized_det(hess):
    """|det| of each Hessian with its rows scaled to unit max-norm, and the
    mask of degenerate Hessians: those with a zero row (whose determinant
    is not taken) or a |det| at most DEGENERATE_DET."""
    row_norms = np.max(np.abs(hess), axis=-1)
    zero_row = np.any(row_norms == 0, axis=-1)
    scaled = hess / np.where(row_norms == 0, 1.0, row_norms)[..., None]
    det = np.abs(np.linalg.det(scaled))
    return det, zero_row | (det <= DEGENERATE_DET)


def _representatives(w):
    """Indices of the points of w that the dedupe keeps: the first unclaimed
    point is kept and claims itself and every later point within
    DEDUPE_TOL (1 + max |kept point|) of it, angles compared mod 2 pi."""
    unclaimed, kept = np.ones(len(w), bool), []
    while unclaimed.any():
        i = int(np.argmax(unclaimed))
        diff = np.abs((w[i:].real - w[i].real) + 1j * _wrap_angle(w[i:].imag - w[i].imag))
        unclaimed[i:] &= ~(np.max(diff, axis=1) < DEDUPE_TOL * (1.0 + np.max(np.abs(w[i]))))
        kept.append(i)
    return kept


def _newton(E, c, w):
    """Run Newton from every row of w at once; return the rows that reach
    max |grad| < NEWTON_TOL within MAX_ITERS iterations, in start order.

    A start stops for good when its solve raises LinAlgError or its step
    norm is not finite; steps longer than 20 are clamped to norm 20.
    """
    # x holds the rows of the starts still iterating, active their indices;
    # a converged row is written back into w
    active, x = np.arange(len(w)), w
    converged = np.zeros(len(w), bool)
    for _ in range(MAX_ITERS):
        if not len(active):
            break
        grad, hess = _grad_hess_at_w(E, c, x)
        done = np.max(np.abs(grad), axis=1) < NEWTON_TOL
        if done.any():
            converged[active[done]] = True
            w[active[done]] = x[done]
            active, x, grad, hess = active[~done], x[~done], grad[~done], hess[~done]
        step, singular = _solve_steps(hess, grad)
        del grad, hess  # not held while the next iteration builds its own
        norm = np.linalg.norm(step, axis=1)
        moving = ~singular & np.isfinite(norm)
        long = moving & (norm > 20.0)
        if long.any():
            step[long] *= (20.0 / norm[long])[:, None]
        if not moving.all():
            active, x, step = active[moving], x[moving], step[moving]
        x = x + step
    return w[converged]


def _polish(E, c, w):
    """w after POLISH_STEPS plain Newton steps from each row; two steps take
    a limit point of _newton to rounding level."""
    for _ in range(POLISH_STEPS):
        grad, hess = _grad_hess_at_w(E, c, w)
        w = w + np.linalg.solve(hess, -grad[..., None])[..., 0]
    return w


def _start_points(n, config):
    """The (starts, n) Newton starts w: log-moduli uniform in [3 log T0,
    -3 log T0], arguments uniform in [-pi, pi].  The starts take 2n doubles
    u each, in turn, from one random.Random(seed) stream; the first half
    scales to the log-moduli and the second half to the arguments, as
    low + (high - low) u.

    The draws decide which critical points are found, not their digits
    (see find_critical_points), except for a point within about 1e-15 of
    the edge of a grid cell: it can round either way."""
    rng = random.Random(config.seed)
    u = np.array([rng.random() for _ in range(config.starts * 2 * n)]).reshape(-1, 2 * n)
    lo = 3.0 * math.log(config.T0)
    w = np.empty((config.starts, n), dtype=complex)
    w.real = lo + (-lo - lo) * u[:, :n]
    w.imag = -np.pi + (np.pi - -np.pi) * u[:, n:]
    return w


def find_critical_points(po, config=SolverConfig()):
    """Deduplicated Newton limit points of the log-gradient system.

    Starts are drawn by _start_points, in log-coordinates, and iterated
    together as one (starts, nvars) array.  Each limit point that the dedupe
    keeps is polished, its canonical w rounded to the grid GRID, and
    polished again from there; the points are sorted by their grid points.
    A grid cell is far inside the Newton basin of a simple critical point,
    so the result is a function of the set of grid points: every seed that
    finds every critical point returns the same list.  The exception is a
    point within about 1e-15 of the edge of a grid cell, which can round
    either way.  Raises NonConvergenceError when no start converges to a
    nondegenerate critical point.
    """
    E, c = po.exponent_matrix(), po.coeff_vector(config.T0)
    w = _newton(E, c, _start_points(po.nvars, config))
    if not len(w):
        raise NonConvergenceError(
            f"no Newton start converged (starts={config.starts}, "
            f"max_iters={MAX_ITERS})"
        )

    _, degenerate = _normalized_det(_grad_hess_at_w(E, c, w)[1])
    if degenerate.all():
        raise NonConvergenceError(
            f"every converged Newton start has a degenerate Hessian "
            f"(starts={config.starts}, converged={len(w)})"
        )
    w = _canonical_w(w[~degenerate])
    w = _canonical_w(_polish(E, c, w[_representatives(w)]))
    w = np.round(w / GRID) * GRID + 0.0  # + 0.0: one grid point for 0.0 and -0.0
    # lexsort's primary key is its last row
    keys = np.stack([w.real, w.imag], axis=-1).reshape(len(w), -1)
    w = _polish(E, c, w[np.lexsort(keys.T[::-1])])

    grad, hess = _grad_hess_at_w(E, c, w)
    det, _ = _normalized_det(hess)
    residual = np.max(np.abs(grad), axis=1)
    return [
        CriticalCandidate(y=tuple(y), residual=float(r), hessian_det=float(d))
        for y, r, d in zip(np.exp(w), residual, det)
    ]


def verify_candidate(po, cand, polytope=None):
    """Check an exponent-form candidate: gradient residuals at each T0 of
    VERIFY_T0, valuations, and a two-point fit of the critical value to
    c T^e."""
    if cand.exps is None:
        raise ValueError("verify_candidate needs an exponent-form candidate")
    residuals = []
    values = []
    for T0 in VERIFY_T0:
        y = cand.numeric_at(T0)
        residuals.append(float(np.max(np.abs(gradient_at(po, y, T0)))))
        values.append(evaluate(po, y, T0))
    report = {
        "max_residual": max(residuals),
        "residuals": residuals,
        "valuations": tuple(cand.exps),
        "values": values,
    }
    if values[0] != 0 and values[1] != 0:
        e_fit = (math.log(abs(values[0])) - math.log(abs(values[1]))) / (
            math.log(VERIFY_T0[0]) - math.log(VERIFY_T0[1])
        )
        report["value_exponent"] = e_fit
        report["value_exponent_rational"] = Fraction(e_fit).limit_denominator(100)
        report["value_coefficient"] = values[0] / VERIFY_T0[0] ** e_fit
    if polytope is not None:
        u = [float(e) for e in cand.exps]
        inside, active = contains(polytope, u)
        report["in_interior"] = bool(inside and not active)
    return report


def hessian_nondegenerate(po, cand, T0):
    """(is_nondegenerate, row-normalized |det H|) for the logarithmic
    Hessian at cand, by the rule the solver uses to reject limit points."""
    grad, hess = _grad_hess_at_y(po, cand.numeric_at(T0), T0)
    if np.max(np.abs(grad)) > 1e-8:
        raise ValueError("candidate is not critical (residual > 1e-8)")
    det, degenerate = _normalized_det(hess)
    return not degenerate, float(det)


# ---------------------------------------------------------------------------
# closed-form critical points of Fl(3) and of every Gr(k, n)


def fl3_critical_points(l1, l2, T0):
    """The six critical points of the Fl(3) potential, numerically at T0.

    y3 runs over the cube roots of Q1 Q2 Q3, y2 = +-sqrt(Q3 (y3 + Q2)),
    y1 = y3^2 / y2, with Q1 = T^{l1}, Q2 = 1, Q3 = T^{-l2}.
    """
    l1f, l2f = float(l1), float(l2)
    Q1, Q2, Q3 = T0**l1f, 1.0, T0**-l2f
    zeta3 = np.exp(2j * np.pi / 3.0)
    root = (Q1 * Q2 * Q3) ** (1.0 / 3.0)
    points = []
    for k in range(3):
        y3 = zeta3**k * root
        base = np.sqrt(Q3 * (y3 + Q2) + 0j)
        for sign in (1.0, -1.0):
            y2 = sign * base
            y1 = y3**2 / y2
            points.append(np.array([y1, y2, y3]))
    return points


def fl3_critical_candidates(lam):
    """Exponent-form critical points for Fl(3) with l1 = l2 = lam (the only
    case in which all six are Novikov monomials)."""
    lam = as_fraction(lam)
    zeta3 = np.exp(2j * np.pi / 3.0)
    cands = []
    for k in range(3):
        c3 = zeta3**k
        base = np.sqrt(c3 + 1.0 + 0j)
        for sign in (1.0, -1.0):
            c2 = sign * base
            c1 = c3**2 / c2
            cands.append(
                CriticalCandidate(
                    coeffs=(c1, c2, c3),
                    exps=(lam / 2, -lam / 2, Fraction(0)),
                )
            )
    return cands


def _poly_divmod(v, m):
    """Quotient and remainder of integer polynomials v / m (m monic), constant term first."""
    q, r, d = [], list(v), len(m) - 1
    for top in range(len(r) - 1, d - 1, -1):
        q.insert(0, r[top])
        r[top - d:top + 1] = [x - q[0] * y for x, y in zip(r[top - d:top + 1], m)]
    return q, r[:d]


def _cyclotomic(N):
    """Phi_N: x^N - 1 divided by Phi_d for each proper divisor d of N."""
    poly = [-1] + [0] * (N - 1) + [1]
    for d in (d for d in range(1, N) if N % d == 0):
        poly = _poly_divmod(poly, _cyclotomic(d))[0]
    return poly


def _alternant_vanishes(parts, J, N, phi):
    """Whether det(zeta_N^(J_j (parts_i + k - i))) = 0 exactly: its Leibniz
    expansion over the powers of zeta_N is divisible by phi = Phi_N."""
    k, v = len(J), [0] * N
    for perm in itertools.permutations(range(k)):
        sign = (-1) ** sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        v[sum(J[p] * (parts[i] + k - 1 - i) for i, p in enumerate(perm)) % N] += sign
    return not any(_poly_divmod(v, phi)[1])


@functools.cache
def _chart_roots(k, n):
    """The k-subsets u_J of the roots u_j = zeta_2n^(2j + (k+1) mod 2) of
    u^n = (-1)^(k+1) at which no s_R(r, c), 1 <= r <= k, 1 <= c <= n - k,
    vanishes: the rectangles-cluster chart of Marsh-Rietsch, as read-only arrays."""
    phi = _cyclotomic(2 * n)
    rects = [(c,) * r + (0,) * (k - r) for r in range(1, k + 1) for c in range(1, n - k + 1)]
    roots = np.exp(1j * np.pi * np.array(
        [J for J in itertools.combinations(range((k + 1) % 2, 2 * n, 2), k)
         if not any(_alternant_vanishes(parts, J, 2 * n, phi) for parts in rects)]) / n)
    roots.flags.writeable = False
    return tuple(roots)


def _schur(rects, u):
    """s_R(r, c)(u) for each r x c rectangle (r, c) of rects, as bialternant ratios."""
    powers = np.arange(len(u) - 1, -1, -1)
    parts = np.array([(c,) * r + (0,) * (len(u) - r) for r, c in rects])
    return np.linalg.det(u ** (parts + powers)[..., None]) / np.linalg.det(u ** powers[:, None])


def grassmannian_critical_candidates(k, n, a, b):
    """Rietsch's critical points of the Gr(k, n) potential with block values
    a > b: at each chart subset u_J, the entry (i, m) of the index set is
    s_R(k-i+1, m-i+1)(u_J) / s_R(k-i, m-i)(u_J) T^(b + (a-b)(m+k-2i+1)/n)."""
    a, b = as_fraction(a), as_fraction(b)
    index = index_set(grassmannian_shape(k, n), EigenProfile((a,) * k + (b,) * (n - k)))
    exps = tuple(b + (a - b) * Fraction(m + k - 2 * i + 1, n) for i, m in index)
    upper = [(k - i + 1, m - i + 1) for i, m in index]
    lower = [(k - i, m - i) for i, m in index]
    return [CriticalCandidate(coeffs=tuple(_schur(upper, u) / _schur(lower, u)), exps=exps)
            for u in _chart_roots(k, n)]


def grassmannian_critical_values(k, n, a, b, T0):
    """n (x_j1 + ... + x_jk), x_J = T^((a-b)/n) u_J, in the candidates' order."""
    if not as_fraction(a) > as_fraction(b):
        raise ValueError(f"profile must drop strictly at step {k}")
    scale = n * T0 ** float(Fraction(as_fraction(a) - as_fraction(b), n))
    return [scale * np.sum(u) for u in _chart_roots(k, n)]
