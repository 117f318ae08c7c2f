"""Critical points of the Landau-Ginzburg potential of Gelfand-Cetlin torus fibers.

The potential itself, one exact Laurent term per facet, is built by
laurent.build_potential (re-exported here with LaurentTerm and
LaurentPoly).  This module is its numeric side: exponent_matrix and
coeff_vector turn the terms into arrays, and critical points are found by
a coefficient-parameter homotopy (Morgan-Sommese, Appl. Math. Comput.
1989) in logarithmic coordinates w = log y, where the Jacobian of the
gradient system is the logarithmic Hessian of the potential.

The homotopy has three steps.  A potential with the same terms and generic
coefficients a has exactly as many critical points as the normalized
volume of its Newton polytope (Kouchnirenko, Invent. Math. 1976);
multistart Newton finds that many, which certifies the start set.  Each
is tracked to the target coefficients c(T0) along
log c(s) = (1 - s) log a + s log c(T0).  The paths that finish give every
isolated critical point of the target; the others escape to infinity,
toward the critical points the torus chart misses.  The closed-form
critical points of Fl(3) and of every Gr(k, n) are here too.
"""

import cmath
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .flags import EigenProfile, grassmannian_shape, index_set
from .gc_core import contains
# callers import the exact potential from here too
from .laurent import LaurentPoly, LaurentTerm, build_potential  # noqa: F401
from .novikov import as_fraction
from .numerics import NonConvergenceError

NEWTON_TOL = 1e-10  # a Newton start has converged once max |grad| < NEWTON_TOL
MAX_ITERS = 100  # Newton iterations a start gets before it is dropped
DEDUPE_TOL = 1e-6  # relative distance below which two limit points are one
DEGENERATE_DET = 1e-10  # a Hessian is degenerate if its row-normalized |det| <= this
POLISH_STEPS = 6  # plain Newton steps of each polish of a deduped limit point
GRID = 2.0**-26  # spacing of the grid in w that polished limit points are rounded to
VERIFY_T0 = (0.45, 0.55)  # base values at which verify_candidate checks and fits

DRAW_SPREAD = 0.5  # generic coefficients have log-moduli uniform in [-DRAW_SPREAD, DRAW_SPREAD]
START_BOX = 1.0  # start-solve Newton starts have log-moduli uniform in [-START_BOX, START_BOX]
STARTS_PER_ROOT = 5  # a chunk of the start solve holds this many starts per root of the volume
FIRST_STEP = 0.1  # the first step of each path, in t = -log(1 - s)
MAX_STEP = 2.0  # an easy step doubles the next one, up to MAX_STEP
MIN_STEP = 1e-4  # a path whose step halves below MIN_STEP stalls
CORRECTOR_TOL = 0.1  # a step is kept when its first corrector moves w by less than this (max norm)
CONTRACTION = 0.5  # and its second by at most this fraction of the first, plus NEWTON_TOL
EASY_STEP = 0.01  # a kept step is easy when its first corrector moved w by less than this
S_CUTOFF = 0.9999  # paths are tracked to s = S_CUTOFF and finished at s = 1 from there
FINISH_STEPS = 6  # plain Newton steps at s = 1 that finish a path


def exponent_matrix(po):
    """The (terms, nvars) matrix of y-exponents, as floats."""
    return np.array([t.y_exp for t in po.terms], dtype=float)


def coeff_vector(po, T0):
    """The coefficient of each term at T = T0: coeff * T0^t_exp."""
    return np.array([t.coeff * T0 ** float(t.t_exp) for t in po.terms])


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


def _hessian(E, vals):
    """sum_t vals_t E_tj E_tl for term values vals of shape (..., terms).

    It is two real matrix products, of the real and imaginary parts of vals
    with E (x) E flattened to (terms, nvars^2), written into views of one
    complex array.  Each term is exact, since E's entries are 0 and +-1.  A
    non-finite value makes every entry of its Hessian non-finite.
    """
    terms, n = E.shape
    EE = (E[:, :, None] * E[:, None, :]).reshape(terms, n * n)
    hess = np.empty(vals.shape[:-1] + (n, n), dtype=complex)
    flat = vals.shape[:-1] + (n * n,)
    np.matmul(vals.real, EE, out=hess.real.reshape(flat))
    np.matmul(vals.imag, EE, out=hess.imag.reshape(flat))
    return hess


def _grad_hess_at_w(E, c, w):
    """Gradient and logarithmic Hessian at w (y = exp(w)) of sum_t c_t e^(E_t . w);
    w may be a batch of shape (..., nvars), and c one row per point."""
    vals = c * np.exp(_exponents(w, E))  # (..., terms)
    return vals @ E, _hessian(E, vals)


def _grad_hess_at_y(po, y, T0):
    w = np.log(np.asarray(y, dtype=complex))
    return _grad_hess_at_w(exponent_matrix(po), coeff_vector(po, T0), w)


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


def _start_points(rng, count, n):
    """(count, n) Newton starts w: log-moduli uniform in [-START_BOX,
    START_BOX], arguments uniform in [-pi, pi].  The starts take 2n doubles
    u each, in turn, from rng; the first half scales to the log-moduli and
    the second half to the arguments, as low + (high - low) u."""
    u = np.array([rng.random() for _ in range(count * 2 * n)]).reshape(-1, 2 * n)
    w = np.empty((count, n), dtype=complex)
    w.real = -START_BOX + (START_BOX - -START_BOX) * u[:, :n]
    w.imag = -np.pi + (np.pi - -np.pi) * u[:, n:]
    return w


def _int_normal(rows):
    """A normal of the hyperplane that n - 1 integer vectors span in Z^n:
    their signed maximal minors, up to one common sign, so that
    det(rows + [x]) = +-normal . x; zeros when they are dependent.
    Fraction-free elimination leaves the minor of the pivot columns as the
    last pivot, and back substitution from it divides exactly, since every
    entry of the normal is such a minor."""
    m, n, pivots, prev = [list(r) for r in rows], len(rows) + 1, [], 1
    for col in range(n):
        r = len(pivots)
        swap = next((i for i in range(r, len(m)) if m[i][col]), None)
        if swap is None:
            continue
        m[r], m[swap] = m[swap], m[r]
        for i in range(r + 1, len(m)):
            m[i] = [(x * m[r][col] - m[i][col] * y) // prev for x, y in zip(m[i], m[r])]
        prev = m[r][col]
        pivots.append(col)
    if len(pivots) < len(m):
        return [0] * n
    normal = [0] * n
    normal[next(c for c in range(n) if c not in pivots)] = prev
    for row, p in reversed(list(zip(m, pivots))):
        normal[p] = -sum(row[j] * normal[j] for j in range(p + 1, n)) // row[p]
    return normal


@functools.cache
def newton_volume(exps):
    """n! vol of the convex hull of the integer points exps (a tuple of
    n-tuples), exactly; 0 unless they span R^n.

    A pulling triangulation.  The facets are the point sets on the
    hyperplanes through n points with every point on one side.  The facets
    of a face G are the largest of the sets G & F over the facets F that do
    not contain G, and G is the union of the cones from its least point
    over the facets of G that miss that point.
    """
    n = len(exps[0])
    facets = set()
    for sub in itertools.combinations(range(len(exps)), n):
        base = exps[sub[0]]
        rows = [[x - b for x, b in zip(exps[j], base)] for j in sub[1:]]
        normal = _int_normal(rows)
        side = [sum(a * (x - b) for a, x, b in zip(normal, p, base)) for p in exps]
        if any(normal) and (min(side) >= 0 or max(side) <= 0):
            facets.add(frozenset(i for i, v in enumerate(side) if v == 0))

    def simplices(face, dim):
        if len(face) == dim + 1:
            return [sorted(face)]
        apex = min(face)
        cuts = {face & f for f in facets if not face <= f}
        return [[apex] + simplex for k in cuts
                if apex not in k and not any(k < other for other in cuts)
                for simplex in simplices(k, dim - 1)]

    total = 0
    for simplex in simplices(frozenset(range(len(exps))), n) if facets else ():
        *rows, last = [[x - b for x, b in zip(exps[i], exps[simplex[0]])] for i in simplex[1:]]
        total += abs(sum(a * x for a, x in zip(_int_normal(rows), last)))
    return total


def _generic_coefficients(rng, terms):
    """One coefficient per term: the modulus e^u, u uniform in
    [-DRAW_SPREAD, DRAW_SPREAD], then the argument, uniform in [-pi, pi]."""
    return np.array([
        cmath.rect(math.exp(rng.uniform(-DRAW_SPREAD, DRAW_SPREAD)), rng.uniform(-math.pi, math.pi))
        for _ in range(terms)
    ])


def _start_solve(E, volume, config):
    """The start system: generic coefficients a and its `volume` critical points w.

    a comes first from random.Random(config.seed), then chunks of
    STARTS_PER_ROOT * volume Newton starts from the same stream.  Each
    chunk's nondegenerate limits join the deduplicated set, until it holds
    `volume` points.  Raises NonConvergenceError when config.starts starts
    are spent first.
    """
    rng = random.Random(config.seed)
    a = _generic_coefficients(rng, len(E))
    found = np.empty((0, E.shape[1]), dtype=complex)
    drawn = degenerate = 0
    with np.errstate(all="ignore"):  # a start that overflows stops (see _newton)
        while len(found) < volume and drawn < config.starts:
            count = min(STARTS_PER_ROOT * volume, config.starts - drawn)
            drawn += count
            w = _newton(E, a, _start_points(rng, count, E.shape[1]))
            if len(w):
                _, singular = _normalized_det(_grad_hess_at_w(E, a, w)[1])
                degenerate += int(singular.sum())
                found = np.concatenate((found, _canonical_w(w[~singular])))
                found = found[_representatives(found)]
    if len(found) != volume:
        raise NonConvergenceError(
            f"the start solve found {len(found)} of the {volume} critical points of its "
            f"generic potential (starts={config.starts}, seed={config.seed}; "
            f"{degenerate} Newton limits had a degenerate Hessian)"
        )
    return a, found


def _velocity(E, log_a, d, w, t):
    """dw/dt on the path grad W_c (w) = 0, log c = log_a + s d, s = 1 - e^-t:
    minus (ds/dt) H^-1 times the s-derivative of the gradient,
    sum_k d_k v_k E_k with v_k = c_k e^(E_k . w).  One exp gives H and it."""
    decay = np.exp(-t)[:, None]  # ds/dt = 1 - s
    vals = np.exp(_exponents(w, E) + log_a + (1.0 - decay) * d)
    return _solve_steps(_hessian(E, vals), (vals * d) @ E)[0] * decay


def _newton_step(E, log_c, w):
    vals = np.exp(_exponents(w, E) + log_c)
    return _solve_steps(_hessian(E, vals), vals @ E)[0]


def _track(E, log_a, d, w):
    """Track each row of w from s = 0 to S_CUTOFF, on its own path
    log c(s) = log_a + s d (one row of log_a and d per row of w).

    The steps are taken in t = -log(1 - s), in which a path that escapes to
    infinity grows about linearly.  A step is an RK4 predictor and two
    Newton correctors at the new t.  It is kept when the correctors
    contract (CORRECTOR_TOL, CONTRACTION); an easy kept step doubles the
    next, up to MAX_STEP, and a step not kept is retried at half the size.
    Returns w, and the mask of the rows that reached S_CUTOFF: the others
    stalled below MIN_STEP.
    """
    t_end = -math.log1p(-S_CUTOFF)
    t, step = np.zeros(len(w)), np.full(len(w), FIRST_STEP)
    live = np.ones(len(w), bool)
    w = w.copy()
    with np.errstate(all="ignore"):  # a non-finite step fails its test
        while live.any():
            i = np.flatnonzero(live)
            x, t0, la, di = w[i], t[i], log_a[i], d[i]
            t1 = np.minimum(t0 + step[i], t_end)
            h = (t1 - t0)[:, None]
            k1 = _velocity(E, la, di, x, t0)
            k2 = _velocity(E, la, di, x + h / 2 * k1, t0 + h[:, 0] / 2)
            k3 = _velocity(E, la, di, x + h / 2 * k2, t0 + h[:, 0] / 2)
            k4 = _velocity(E, la, di, x + h * k3, t1)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            log_c = la - np.expm1(-t1)[:, None] * di
            d1 = _newton_step(E, log_c, x)
            d2 = _newton_step(E, log_c, x + d1)
            n1, n2 = np.max(np.abs(d1), axis=1), np.max(np.abs(d2), axis=1)
            kept = (n1 < CORRECTOR_TOL) & (n2 <= CONTRACTION * n1 + NEWTON_TOL)
            w[i[kept]], t[i[kept]] = (x + d1 + d2)[kept], t1[kept]
            step[i] = np.where(kept, np.where(n1 < EASY_STEP, 2.0, 1.0), 0.5) * step[i]
            np.minimum(step, MAX_STEP, out=step)
            live &= (t < t_end) & (step >= MIN_STEP)
    return w, t >= t_end


def _finish(E, c, w):
    """w after FINISH_STEPS plain Newton steps at s = 1 (one row of c per
    row of w), and the mask of the finite rows with max |grad| < NEWTON_TOL."""
    with np.errstate(all="ignore"):  # escaping rows overflow
        for _ in range(FINISH_STEPS):
            grad, hess = _grad_hess_at_w(E, c, w)
            w = w + _solve_steps(hess, grad)[0]
        residual = np.max(np.abs(_grad_hess_at_w(E, c, w)[0]), axis=1)
    return w, (residual < NEWTON_TOL) & np.isfinite(w).all(axis=1)


def _critical_candidates(E, c, w, config):
    """The finished endpoints w as a sorted CriticalCandidate list.

    Endpoints with a degenerate Hessian are dropped.  Each one the dedupe
    keeps is polished, its canonical w rounded to the grid GRID, and
    polished again from there; the points are sorted by their grid points.
    A grid cell is far inside the Newton basin of a simple critical point,
    so the result is a function of the set of grid points.  The exception
    is a point within about 1e-15 of the edge of a grid cell, which can
    round either way.
    """
    _, degenerate = _normalized_det(_grad_hess_at_w(E, c, w)[1])
    if degenerate.all():
        raise NonConvergenceError(
            f"every finished path has a degenerate Hessian "
            f"(starts={config.starts}, finished={len(w)})"
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
    points = np.exp(w)
    finite = np.isfinite(points).all(axis=1) & np.isfinite(residual) & np.isfinite(det)
    if not finite.any():
        raise NonConvergenceError(
            f"every polished critical point is non-finite (starts={config.starts})"
        )
    return tuple(
        CriticalCandidate(y=tuple(y), residual=float(r), hessian_det=float(d))
        for y, r, d in zip(points[finite], residual[finite], det[finite])
    )


@dataclass(frozen=True)
class HomotopyResult:
    """One target of track_critical_points.  points are its critical points,
    as find_critical_points returns them; escaped holds w at s = S_CUTOFF
    of each path that reached the cutoff and did not finish.  The result is
    certified when len(points) + len(escaped) equals volume, the number of
    paths: no path stalled, and no two finished at one point."""

    points: tuple
    escaped: np.ndarray
    volume: int


def track_critical_points(po, configs):
    """The critical points of po at each config's T0, by the homotopy.

    Configs with one seed and one starts budget share a start solve (see
    _start_solve), and every path to every target is tracked in one array.
    Each path that reaches S_CUTOFF is finished by FINISH_STEPS Newton steps
    at s = 1; the finished endpoints go through _critical_candidates.
    Returns one HomotopyResult per config, in order.  Raises ValueError
    when a coefficient at some T0 is 0 or not finite (T0^t_exp has left the
    doubles, so the path would end at another potential), and
    NonConvergenceError when the start solve falls short of the volume or a
    target keeps no finite, nondegenerate critical point.
    """
    E = exponent_matrix(po)
    targets = [coeff_vector(po, config.T0) for config in configs]
    for config, c in zip(configs, targets):
        if not (np.isfinite(c).all() and c.all()):
            raise ValueError(
                f"a coefficient T0^t_exp of the potential is 0 or not finite at T0 = {config.T0}"
            )
    volume = newton_volume(tuple(t.y_exp for t in po.terms))
    solves = {}
    for config in configs:
        if (config.seed, config.starts) not in solves:
            solves[config.seed, config.starts] = _start_solve(E, volume, config)
    starts = [solves[config.seed, config.starts] for config in configs]
    log_a = np.repeat([np.log(a) for a, _ in starts], volume, axis=0)
    c = np.repeat(targets, volume, axis=0)
    cut, reached = _track(E, log_a, np.log(c) - log_a, np.concatenate([w0 for _, w0 in starts]))
    w, finished = _finish(E, c, cut)
    finished &= reached

    results = []
    for k, (config, target) in enumerate(zip(configs, targets)):
        rows = slice(k * volume, (k + 1) * volume)
        if not finished[rows].any():
            raise NonConvergenceError(
                f"no path of the homotopy finished (starts={config.starts}, paths={volume}, "
                f"stalled={int((~reached[rows]).sum())})"
            )
        results.append(HomotopyResult(
            _critical_candidates(E, target, w[rows][finished[rows]], config),
            cut[rows][reached[rows] & ~finished[rows]], volume))
    return results


def find_critical_points(po, config=SolverConfig()):
    """The critical points of po at config.T0, by track_critical_points.

    config.seed draws the generic coefficients and the start solve's Newton
    starts, and config.starts is the start solve's budget.  They decide
    which critical points are found, not their digits: every seed that
    finds every critical point returns the same list (see
    _critical_candidates).
    """
    return list(track_critical_points(po, [config])[0].points)


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
    y1 = y3^2 / y2, with Q1 = T^{l1}, Q2 = 1, Q3 = T^{-l2}.  Raises
    ValueError when a point overflows the doubles.
    """
    overflow = f"Fl3 critical points overflow the doubles at T0 = {T0}"
    try:
        Q1, Q2, Q3 = T0 ** float(l1), 1.0, T0 ** -float(l2)
    except OverflowError:  # T0^-l2, or l1 or l2 itself, beyond the doubles
        raise ValueError(overflow) from None
    zeta3 = np.exp(2j * np.pi / 3.0)
    root = (Q1 * Q2 * Q3) ** (1.0 / 3.0)
    points = []
    with np.errstate(all="ignore"):  # an overflow is caught below
        for k in range(3):
            y3 = zeta3**k * root
            base = np.sqrt(Q3 * (y3 + Q2) + 0j)
            for sign in (1.0, -1.0):
                y2 = sign * base
                y1 = y3**2 / y2
                points.append(np.array([y1, y2, y3]))
    if not np.isfinite(points).all():
        raise ValueError(overflow)
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
