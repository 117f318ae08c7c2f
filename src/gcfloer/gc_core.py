"""Gelfand-Cetlin patterns, polytopes, the moment map, and fiber geometry.

Conventions.  A flag manifold F(n_1, ..., n_r; n) is identified with the
adjoint orbit of diag(lambda_1, ..., lambda_n) where the eigenvalue profile
is blockwise constant with strict drops exactly at the steps n_1, ..., n_r.
The Gelfand-Cetlin map records, for 1 <= i <= k <= n-1, the i-th largest
eigenvalue of the upper-left k x k submatrix; entries that interlacing
forces to be constant are dropped, and the remaining N entries (N the
complex dimension) are ordered by level k descending, then i ascending.

Fiber structure (the iterated-bundle picture of Cho-Kim-Oh, "Lagrangian
fibers of Gelfand-Cetlin systems").  One cluster rule decides the type of
the fiber over u.  At each level k = 1..n-1, with the constants filled in,
the entries fall into runs: an entry joins the current run when it lies
within GC_TOL of the run's first entry.  A run of m entries squeezes m - 1
entries of level k+1 onto its value; if that value is more than GC_TOL from
every other entry of level k+1, the run contributes a sphere S^(2m-1),
otherwise a point.  The fiber's real dimension is the sum of the sphere
dimensions, and it is Lagrangian when that sum is the complex dimension.
Two adjacent entries of one run are a diamond unless all four of its
corners are constants; a point without diamonds lies on a torus fiber.

Fiber points (Guillemin-Sternberg's bordering).  fiber_point builds x with
gc_map(x) = u one leading block at a time.  With mu the eigenvalues of X_k
(level k) and nu those of X_(k+1), a value delta of mu of multiplicity m
squeezes m - 1 entries of nu onto it; with nu' the entries left, X_(k+1)
borders X_k by a column of squared norm W_delta = -prod(delta - nu') /
prod_(delta' != delta)(delta - delta') on delta's eigenspace, in a random
direction there (a point of the S^(2m-1) of the cluster rule, or 0 where
it finds a point), and by the corner sum(nu) - sum(mu).  The pattern is
taken exactly, so no tolerance enters: W_delta < 0 only off the polytope.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .flags import EigenProfile, FlagShape, index_set, is_constant_entry
from .novikov import as_fraction
from .numerics import leading_block_defects, require_hermitian

GC_TOL = 1e-8  # gap at which two pattern values, or a point and a facet, count as equal


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class GCPoint:
    values: tuple  # floats, parallel to the index set ordering
    index: tuple  # the index set: (i, k) pairs

    def __post_init__(self):
        if len(self.values) != len(self.index):
            raise ValueError("value count does not match the index set")
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not all(map(math.isfinite, values)):
            raise ValueError("point values must be finite")

    def as_array(self):
        return np.array(self.values)


# ---------------------------------------------------------------------------
# inequalities and the polytope

# A side of an inequality is either a pattern entry (i, k) or an exact
# rational constant.


def _side_is_const(side):
    return isinstance(side, Fraction)


def _side_key(side):
    return ("const", side) if _side_is_const(side) else ("var", side)


@dataclass(frozen=True)
class GCInequality:
    upper: object  # (i, k) or Fraction
    lower: object  # (i, k) or Fraction
    facet: bool = False

    def affine(self, idx):
        """Return (coeffs, const) with upper - lower = coeffs . u + const."""
        coeffs = np.zeros(len(idx))
        const = 0.0
        for side, sgn in ((self.upper, 1.0), (self.lower, -1.0)):
            if _side_is_const(side):
                const += sgn * float(side)
            else:
                coeffs[idx.index(side)] += sgn
        return coeffs, const

    def label(self):
        def fmt(side):
            if _side_is_const(side):
                return str(side)
            i, k = side
            return f"u[{i},{k}]"

        return f"{fmt(self.upper)} >= {fmt(self.lower)}"


@dataclass(frozen=True)
class GCPolytope:
    shape: FlagShape
    profile: EigenProfile
    index: tuple  # the index set: (i, k) pairs
    inequalities: tuple
    # upper - lower = coeffs @ u + consts, one row per inequality, in floats
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    consts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = [ineq.affine(self.index) for ineq in self.inequalities]
        coeffs = np.array([r for r, _ in rows]).reshape(len(rows), len(self.index))
        consts = np.array([c for _, c in rows])
        coeffs.flags.writeable = consts.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "consts", consts)


def _entry_or_const(shape, profile, i, k):
    if is_constant_entry(shape, profile, i, k):
        return profile.value(i)
    return (i, k)


def _raw_inequalities(shape, profile):
    """All diagonal-adjacency bounds touching at least one non-constant entry."""
    n = shape.ambient
    seen = set()
    ineqs = []
    for k in range(n, 1, -1):
        for i in range(1, k):
            upper_left = _entry_or_const(shape, profile, i, k)
            mid = _entry_or_const(shape, profile, i, k - 1)
            lower_right = _entry_or_const(shape, profile, i + 1, k)
            for upper, lower in ((upper_left, mid), (mid, lower_right)):
                if _side_is_const(upper) and _side_is_const(lower):
                    continue
                key = (_side_key(upper), _side_key(lower))
                if key in seen:
                    continue
                seen.add(key)
                ineqs.append((upper, lower))
    return ineqs


def _facet_flags(ineqs):
    """Exact facet test by longest paths in the bound graph.

    Every bound upper >= lower reads x_a - x_b >= w, an edge a -> b of
    weight w, where a constant side is the node None with x_None = 0 and
    w = (constant lower side) - (constant upper side).  Bounds add along
    paths, so an inequality is redundant iff some path a -> ... -> b that
    avoids its own edge has weight >= w; Bellman-Ford finds the heaviest
    such path in Fraction arithmetic.  This is exact: by Farkas' lemma on
    a network matrix the implied bounds on x_a - x_b are exactly the path
    weights.  The polytope is full-dimensional, so every cycle has negative
    weight, simple paths suffice, and the irredundant inequalities are its
    facets.
    """
    edges = []
    for upper, lower in ineqs:
        a, b, w = upper, lower, Fraction(0)
        if _side_is_const(upper):
            a, w = None, w - upper
        if _side_is_const(lower):
            b, w = None, w + lower
        edges.append((a, b, w))
    n_nodes = len({a for a, _, _ in edges} | {b for _, b, _ in edges})
    flags = []
    for j, (a, b, w) in enumerate(edges):
        heaviest = {a: Fraction(0)}
        for _ in range(n_nodes - 1):
            for m, (u, v, wm) in enumerate(edges):
                if m == j or u not in heaviest:
                    continue
                if v not in heaviest or heaviest[u] + wm > heaviest[v]:
                    heaviest[v] = heaviest[u] + wm
        flags.append(not (b in heaviest and heaviest[b] >= w))
    return flags


def build_polytope(shape, profile):
    idx = index_set(shape, profile)
    raw = _raw_inequalities(shape, profile)
    flags = _facet_flags(raw)
    ineqs = tuple(
        GCInequality(upper, lower, facet=flag)
        for (upper, lower), flag in zip(raw, flags)
    )
    return GCPolytope(shape, profile, idx, ineqs)


def contains(polytope, u):
    """Membership test; returns (bool, list of active inequality indices)."""
    if not isinstance(u, GCPoint):
        u = GCPoint(tuple(u), polytope.index)
    # each row has at most two nonzero entries, both +-1, so every slack is
    # exact up to one rounding and does not depend on the summation order
    slack = polytope.coeffs @ u.as_array() + polytope.consts
    inside = not np.any(slack < -GC_TOL)
    return inside, np.flatnonzero(np.abs(slack) <= GC_TOL).tolist()


# ---------------------------------------------------------------------------
# fiber structure


def _runs(shape, profile, u):
    """The cluster rule of the module docstring: (k, i, m, sphere) for each
    run lambda_i^(k), ..., lambda_(i+m-1)^(k) of level k = 1..n-1, where
    sphere says whether the run contributes S^(2m-1) or a point."""
    if not isinstance(u, GCPoint):
        u = GCPoint(tuple(u), index_set(shape, profile))
    given = dict(zip(u.index, u.values))
    levels = [[given.get((i, k), float(profile.value(i))) for i in range(1, k + 1)]
              for k in range(1, shape.ambient + 1)]
    runs = []
    for k, (level, above) in enumerate(zip(levels, levels[1:]), start=1):
        i = 0
        while i < k:
            m = 1
            while i + m < k and abs(level[i + m] - level[i]) <= GC_TOL:
                m += 1
            # interlacing squeezes the m - 1 entries of level k+1 inside the run onto it
            rest = above[:i + 1] + above[i + m:]
            runs.append((k, i + 1, m, all(abs(level[i] - w) > GC_TOL for w in rest)))
            i += m
    return runs


def fiber_structure(shape, profile, u):
    """Dimensions of the sphere factors of the fiber over u, largest first:
    (1, ..., 1) on a torus fiber, (3,) on the S^3 fiber of Fl(3)."""
    return tuple(sorted((2 * m - 1 for _, _, m, sphere in _runs(shape, profile, u)
                         if sphere), reverse=True))


def detect_diamonds(shape, profile, u):
    """Diamond degeneracies (k, i): lambda_i^(k) and lambda_(i+1)^(k) in one
    run, which squeezes the entries above (i+1, k+1) and below (i, k-1) onto
    it too."""
    found = []
    for k, start, m, _ in _runs(shape, profile, u):
        for i in range(start, start + m - 1):
            corners = ((i, k), (i + 1, k), (i + 1, k + 1), (i, k - 1))
            # a diamond all of whose corners are forced constants is a
            # feature of the profile, not a degeneracy of the point
            if not all(is_constant_entry(shape, profile, ci, ck) for ci, ck in corners):
                found.append((k, i))
    return found


# ---------------------------------------------------------------------------
# the moment map


@functools.lru_cache(maxsize=64)
def _gc_pattern(shape, profile):
    """What gc_map needs of (shape, profile): the profile as floats and, when
    index_set accepts the profile, the index set with the (i, k, lambda_i)
    of each constant entry below level n in gc_map's checking order; None
    in its place otherwise."""
    target = [float(v) for v in profile.values]
    try:
        idx = index_set(shape, profile)
    except ValueError:
        return target, None
    constants = [
        (i, k, float(profile.value(i)))
        for k in range(1, shape.ambient)
        for i in range(1, k + 1)
        if is_constant_entry(shape, profile, i, k)
    ]
    return target, (idx, constants)


def gc_map(x, shape, profile):
    """Gelfand-Cetlin map: eigenvalues of upper-left submatrices of x.

    Checks, in this order: x is square, finite and Hermitian (check_hermitian's
    rule); its size is the ambient dimension; its spectrum is the profile
    within GC_TOL; the profile suits the shape (index_set); each upper-left
    block passes the Hermitian rule on its own scale; and the entries that
    interlacing forces to be constant are.  |x - x*| and |x| are built once
    for all of these Hermitian decisions, and what depends only on (shape,
    profile) is computed once per pair in a small memo.
    """
    a, defect, scale = leading_block_defects(x)
    require_hermitian(defect[-1], scale[-1])
    spec = np.linalg.eigvalsh(a)[::-1].tolist()
    n = shape.ambient
    if a.shape[0] != n:
        raise ValueError("matrix size does not match the ambient dimension")
    target, pattern = _gc_pattern(shape, profile)
    for got, want in zip(spec, target):
        if abs(got - want) > GC_TOL:
            raise ValueError(
                f"matrix is not on the orbit: eigenvalue {got:.12g} != {want:.12g}"
            )
    if pattern is None:
        index_set(shape, profile)  # raises the profile's error
    idx, constants = pattern
    level_eigs = {}
    for k in range(1, n):
        require_hermitian(defect[k - 1], scale[k - 1])
        level_eigs[k] = np.linalg.eigvalsh(a[:k, :k])[::-1].tolist()
    values = [level_eigs[k][i - 1] for i, k in idx]
    for i, k, want in constants:
        got = level_eigs[k][i - 1]
        if abs(got - want) > GC_TOL:
            raise ValueError(
                f"constant entry ({i},{k}) is {got:.12g}, expected {want:.12g}"
            )
    return GCPoint(tuple(values), idx)


# ---------------------------------------------------------------------------
# fiber points


def fiber_point(shape, profile, u, rng):
    """A point x of the orbit with gc_map(x) = u, sampled by bordering as in
    the module docstring; rng is a numpy Generator.  Raises ValueError when
    u has the wrong length or is not in the polytope."""
    idx = index_set(shape, profile)
    values = tuple(u)
    if len(values) != len(idx):
        raise ValueError(f"u has {len(values)} entries, the index set {len(idx)}")
    given = dict(zip(idx, map(as_fraction, values)))
    levels = [[given.get((i, k), profile.value(i)) for i in range(1, k + 1)]
              for k in range(1, shape.ambient + 1)]
    # every entry as an exact integer multiple of 1 / scale
    scale = math.lcm(*(v.denominator for level in levels for v in level))
    levels = [[v.numerator * (scale // v.denominator) for v in level] for level in levels]
    x = np.zeros((shape.ambient,) * 2, dtype=complex)
    x[0, 0] = levels[0][0] / scale
    vecs = np.ones((1, 1))  # eigenvectors of x[:k, :k], by descending eigenvalue
    for k, (mu, nu) in enumerate(zip(levels, levels[1:]), start=1):
        clusters = {delta: [pos for pos, v in enumerate(mu) if v == delta] for delta in mu}
        # interlacing squeezes nu at a cluster's later positions onto its
        # value; rest, one value more than clusters, makes W_delta / scale^2
        squeezed = {pos for where in clusters.values() for pos in where[1:]}
        rest = [v for pos, v in enumerate(nu) if pos not in squeezed]
        weights = {delta: Fraction(-math.prod(delta - v for v in rest),
                                   math.prod(delta - d for d in clusters if d != delta))
                   for delta in clusters}
        if (mu != sorted(mu, reverse=True) or any(nu[pos] != mu[pos] for pos in squeezed)
                or min(weights.values()) < 0):
            raise ValueError(f"u is not in the polytope: level {k} does not "
                             f"interlace level {k + 1}")
        # on each cluster, a complex Gaussian scaled to norm sqrt(W_delta)
        beta = rng.normal(size=2 * k).view(complex)
        for delta, where in clusters.items():
            g = beta[where]
            beta[where] = g * (math.sqrt(weights[delta] / np.vdot(g, g).real) / scale)
        b = vecs @ beta
        x[:k, k], x[k, :k], x[k, k] = b, b.conj(), (sum(nu) - sum(mu)) / scale
        if k + 1 < shape.ambient:
            vecs = np.linalg.eigh(x[:k + 1, :k + 1])[1][:, ::-1]
    return x


# ---------------------------------------------------------------------------
# fiber classification


@dataclass(frozen=True)
class FiberDescriptor:
    kind: str  # torus | S3 | U2 | U2xT2 | unknown-nonsmooth
    real_dimension: int
    lagrangian: bool
    annotations: tuple = ()


def classify_fiber(polytope, u, strata=()):
    """Classify the Gelfand-Cetlin fiber over u in a built polytope.

    Its real dimension is the sum of fiber_structure, and it is Lagrangian
    when that sum is the complex dimension.  A point without diamonds lies
    on a torus fiber.  Otherwise the first of strata (a space's
    spaces.Stratum rows) whose diamonds and spheres are u's, and whose
    where, if any, u passes, names the fiber; a point on no row comes back
    as unknown-nonsmooth.
    """
    shape, profile = polytope.shape, polytope.profile
    if not isinstance(u, GCPoint):
        u = GCPoint(tuple(u), polytope.index)
    inside, _active = contains(polytope, u)
    if not inside:
        raise ValueError("point is not in the polytope")
    spheres = fiber_structure(shape, profile, u)
    dim = sum(spheres)
    lagrangian = dim == shape.complex_dim
    diamonds = tuple(detect_diamonds(shape, profile, u))
    if not diamonds:
        return FiberDescriptor("torus", dim, lagrangian)
    blocks = tuple(float(v) for v in dict.fromkeys(profile.values))
    for row in strata:
        if (row.diamonds, row.spheres) == (diamonds, spheres) and (
                row.where is None or row.where(u.values, blocks, GC_TOL)):
            return FiberDescriptor(row.kind, dim, lagrangian, row.annotations)
    return FiberDescriptor("unknown-nonsmooth", -1, False)


# ---------------------------------------------------------------------------
# serialization


def _side_to_json(side):
    if _side_is_const(side):
        return {"const": [side.numerator, side.denominator]}
    return {"var": list(side)}


def polytope_to_json(polytope, point=None, fiber=None):
    doc = {
        "shape": {"steps": list(polytope.shape.steps), "ambient": polytope.shape.ambient},
        "profile": [[v.numerator, v.denominator] for v in polytope.profile.values],
        "index_set": [list(p) for p in polytope.index],
        "inequalities": [
            {
                "upper": _side_to_json(iq.upper),
                "lower": _side_to_json(iq.lower),
                "facet": iq.facet,
            }
            for iq in polytope.inequalities
        ],
    }
    if point is not None:
        doc["point"] = list(point.values)
    if fiber is not None:
        doc["fiber"] = {
            "kind": fiber.kind,
            "real_dimension": fiber.real_dimension,
            "lagrangian": fiber.lagrangian,
            "annotations": list(fiber.annotations),
        }
    return doc
