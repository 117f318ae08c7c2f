import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcfloer import potential
from gcfloer.flags import EigenProfile, FlagShape, grassmannian_shape
from gcfloer.gc_core import build_polytope
from gcfloer.numerics import NonConvergenceError
from gcfloer.potential import (
    SolverConfig,
    build_potential,
    coeff_vector,
    evaluate,
    exponent_matrix,
    find_critical_points,
    fl3_critical_candidates,
    fl3_critical_points,
    gradient_at,
    hessian_nondegenerate,
    newton_volume,
    track_critical_points,
    verify_candidate,
)
from gcfloer.spaces import SPACES, UNIT

FL3 = FlagShape((1, 2), 3)


def fl3_potential():
    return build_potential(FL3, EigenProfile((1, 0, -1)))


def gr24_potential():
    return build_potential(grassmannian_shape(2, 4), EigenProfile((2, 2, 0, 0)))


def gr25_potential():
    return build_potential(grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0)))


def test_term_counts_and_facet_rule():
    assert len(fl3_potential().terms) == 6
    assert len(gr24_potential().terms) == 6
    assert len(gr25_potential().terms) == 9


def test_fl3_terms_explicitly():
    # T^{l1}/y1 + y1 + 1/y2 + T^{l2} y2 + y1/y3 + y3/y2 at l1 = l2 = 1
    assert fl3_potential().term_multiset() == sorted(
        [
            (Fraction(1), (-1, 0, 0)),
            (Fraction(0), (1, 0, 0)),
            (Fraction(0), (0, -1, 0)),
            (Fraction(1), (0, 1, 0)),
            (Fraction(0), (1, 0, -1)),
            (Fraction(0), (0, -1, 1)),
        ]
    )


def test_evaluate_and_gradient_by_finite_differences():
    po = gr24_potential()
    rng = np.random.default_rng(5)
    y = np.exp(rng.normal(size=4) + 1j * rng.normal(size=4))
    T0 = 0.5
    grad = gradient_at(po, y, T0)
    hess = potential._grad_hess_at_y(po, y, T0)[1]
    h = 1e-6
    for j in range(4):
        yp, ym = y.copy(), y.copy()
        yp[j] *= np.exp(h)
        ym[j] *= np.exp(-h)
        fd = (evaluate(po, yp, T0) - evaluate(po, ym, T0)) / (2 * h)
        assert abs(fd - grad[j]) < 1e-6 * max(1.0, abs(grad[j]))
        fd_row = (gradient_at(po, yp, T0) - gradient_at(po, ym, T0)) / (2 * h)
        assert np.abs(fd_row - hess[j]).max() < 1e-5 * max(1.0, np.abs(hess).max())


def test_evaluate_rejects_zero_coordinate():
    with pytest.raises(ValueError):
        evaluate(fl3_potential(), [1.0, 0.0, 1.0], 0.5)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(T0=1.5)
    for starts in (0, -3):
        with pytest.raises(ValueError, match="starts"):
            SolverConfig(starts=starts)


def test_all_degenerate_limits_raise_non_convergence(monkeypatch):
    # once "cannot reshape array of size 0": every start converged, and the
    # dedupe got an empty array once DEGENERATE_DET rejected every limit
    monkeypatch.setattr(potential, "DEGENERATE_DET", 10.0)
    with pytest.raises(NonConvergenceError, match="degenerate Hessian"):
        find_critical_points(fl3_potential(), SolverConfig(starts=50))


def test_coefficient_beyond_the_doubles_is_invalid_input():
    # T0^709 underflows to 0.0 at T0 = 1e-12: Newton would solve a potential
    # without that term
    po = build_potential(FL3, EigenProfile((1, 0, -709)))
    assert 0 in coeff_vector(po, 1e-12)
    with pytest.raises(ValueError, match="0 or not finite"):
        find_critical_points(po, SolverConfig(T0=1e-12, starts=20))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_polished_points_are_dropped(monkeypatch):
    # a row polished out of the doubles is no critical point: the others
    # come back as they do alone, and with none left the solver raises
    po, cfg = fl3_potential(), SolverConfig(starts=120)
    want = find_critical_points(po, cfg)
    polish = potential._polish

    def with_far_row(E, c, w):
        return np.concatenate((polish(E, c, w), [[800.0 + 0j] * w.shape[1]]))

    monkeypatch.setattr(potential, "_polish", with_far_row)
    assert find_critical_points(po, cfg) == want
    monkeypatch.setattr(potential, "_polish", lambda E, c, w: np.full(w.shape, 800.0 + 0j))
    with pytest.raises(NonConvergenceError, match="non-finite"):
        find_critical_points(po, cfg)


def test_fl3_critical_points_overflow_is_invalid_input():
    # T0^-l2 overflowed with an OverflowError; 2^1000 (y3 + 1) overflows in numpy
    for l2, T0 in ((Fraction(10**300), 0.5), (1, 5e-324), (1000, 0.5)):
        with pytest.raises(ValueError, match="overflow the doubles"):
            fl3_critical_points(1, l2, T0)


def test_solver_config_rejects_negative_seed():
    # random.Random takes any seed; the solver takes non-negative integers
    with pytest.raises(ValueError, match="expected non-negative integer"):
        SolverConfig(seed=-1)
    with pytest.raises(TypeError):
        SolverConfig(seed=1.5)


# ---------------------------------------------------------------------------
# the per-start Newton loop the batched solver replaced, kept as the
# reference for which points the start solve finds


def _reference_grad_hess(E, c, w):
    vals = c * np.exp(w @ E.T)
    return vals @ E, np.einsum("...t,tj,tl->...jl", vals, E, E)


def _reference_limits(E, c, starts):
    """The deduplicated nondegenerate Newton limits w of the starts, one
    start at a time."""
    converged = []
    for w in starts:
        ok = False
        for _ in range(potential.MAX_ITERS):
            grad, hess = _reference_grad_hess(E, c, w)
            if np.max(np.abs(grad)) < potential.NEWTON_TOL:
                ok = True
                break
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                break
            norm = np.linalg.norm(step)
            if not np.isfinite(norm):
                break
            if norm > 20.0:
                step *= 20.0 / norm
            w = w + step
        if not ok:
            continue
        _, hess = _reference_grad_hess(E, c, w)
        row_norms = np.max(np.abs(hess), axis=1)
        if np.any(row_norms == 0):
            continue
        det = np.linalg.det(hess / row_norms[:, None])
        if abs(det) <= potential.DEGENERATE_DET:
            continue
        converged.append(potential._canonical_w(w))

    def key(w):
        return tuple((round(v.real, 8), round(v.imag, 8)) for v in w)

    converged.sort(key=key)
    reps = []
    for w in converged:
        dup = False
        for rep in reps:
            diff = np.abs(
                (w.real - rep.real) + 1j * potential._wrap_angle(w.imag - rep.imag)
            )
            if np.max(diff) < potential.DEDUPE_TOL * (1.0 + np.max(np.abs(rep))):
                dup = True
                break
        if not dup:
            reps.append(w)
    return np.array(reps).reshape(len(reps), E.shape[1])


def _matches_reference(po, config):
    """Whether the start solve's points are the reference's limit points of
    every config.starts start, each polished at the generic coefficients,
    to 1e-12; the start solve stops once it holds the volume."""
    E = exponent_matrix(po)
    volume = potential.newton_volume(tuple(t.y_exp for t in po.terms))
    a, found = potential._start_solve(E, volume, config)
    rng = random.Random(config.seed)
    assert potential._generic_coefficients(rng, len(E)).tobytes() == a.tobytes()
    with np.errstate(all="ignore"):
        want = _reference_limits(E, a, potential._start_points(rng, config.starts, po.nvars))
    polish = potential._polish
    return len(found) == volume and _same_points(
        np.exp(polish(E, a, found)), np.exp(polish(E, a, want)), 1e-12)


def _reference_representatives(w):
    """The reference dedupe, one candidate at a time: a point is kept unless
    a point kept before it lies within DEDUPE_TOL (1 + max |kept point|)."""
    reps = np.empty_like(w)
    kept = []
    for j, cand in enumerate(w):
        rep = reps[:len(kept)]
        diff = np.abs((cand.real - rep.real) + 1j * potential._wrap_angle(cand.imag - rep.imag))
        scale = potential.DEDUPE_TOL * (1.0 + np.max(np.abs(rep), axis=1))
        if not np.any(np.max(diff, axis=1) < scale):
            reps[len(kept)] = cand
            kept.append(j)
    return kept


@st.composite
def _planted_clusters(draw):
    """Canonical points in clusters. A point sits 0, 1, 2 or 3 steps from its
    cluster's center along one coordinate, a step being 0.45, 0.55 or 1.0
    times the center's dedupe scale: so chains a ~ b ~ c with a !~ c occur,
    and points at the tolerance itself. Angles at or near +-pi wrap."""
    n = draw(st.integers(1, 3))
    coord = st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0)
    angle = st.sampled_from([np.pi, np.pi - 3e-7, -np.pi + 3e-7]) | st.floats(-np.pi, np.pi)
    points = []
    for _ in range(draw(st.integers(1, 3))):
        center = np.array([complex(draw(coord), draw(angle)) for _ in range(n)])
        scale = potential.DEDUPE_TOL * (1.0 + np.max(np.abs(center)))
        for _ in range(draw(st.integers(1, 6))):
            step = np.zeros(n, complex)
            step[draw(st.integers(0, n - 1))] = (
                draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
                * draw(st.integers(0, 3)) * draw(st.sampled_from([0.45, 0.55, 1.0])) * scale
            )
            points.append(center + step)
    return potential._canonical_w(np.array(points))


@settings(max_examples=300, deadline=None)
@given(w=_planted_clusters())
@example(w=np.array([[0j], [potential.DEDUPE_TOL + 0j]]))  # at the tolerance: both kept
def test_dedupe_per_representative_matches_per_candidate_loop(w):
    for order in (w, w[::-1]):
        assert potential._representatives(order) == _reference_representatives(order)


def test_dedupe_chains_wraps_and_the_tolerance_itself():
    s = potential.DEDUPE_TOL
    assert potential._representatives(np.array([[0j], [0.6 * s], [1.2 * s]])) == [0, 2]
    assert potential._representatives(np.array([[0j], [s + 0j]])) == [0, 1]
    near_pi = np.array([[1j * (np.pi - 2e-7)], [1j * (-np.pi + 2e-7)]])
    assert potential._representatives(near_pi) == [0]


def _exponent_batches(E, rng):
    """Batches for E: zero-heavy ones with signed zeros and equal
    coordinates, and generic ones."""
    n = E.shape[1]
    pool = np.array([0.0, -0.0, 1.5, -1.5, 0.1, np.pi])
    for _ in range(60):
        m = rng.integers(1, 9)
        yield pool[rng.integers(0, 6, (m, n))] + 1j * pool[rng.integers(0, 6, (m, n))]
    yield rng.normal(size=(50, n)) + 1j * rng.normal(size=(50, n))


def _pair_rows(rng, terms, n):
    """Rows with at most one +1 and one -1, as build_potential makes them."""
    E = np.zeros((terms, n))
    for row in E:
        plus, minus = rng.choice(n + 1, 2, replace=False)
        row[plus:plus + 1] = 1.0
        row[minus:minus + 1] = -1.0
    return E


def test_batched_exponents_equal_per_row_products():
    # every exponent is one subtraction, so the two real products give each
    # row the bytes of its own complex product w_i @ E.T, signed zeros too
    rng = np.random.default_rng(13)
    matrices = [exponent_matrix(build_potential(s.shape, s.profile(UNIT))) for s in SPACES.values()]
    matrices += [_pair_rows(rng, rng.integers(1, 12), n) for n in (1, 3, 6) for _ in range(5)]
    for E in matrices:
        for w in _exponent_batches(E, rng):
            want = np.array([w_i @ E.T for w_i in w])
            assert potential._exponents(w, E).tobytes() == want.tobytes()
            assert potential._exponents(w[0], E).tobytes() == want[0].tobytes()


def _hessian_exponent_matrices():
    """E of every registered space, of Fl(4) and of F(1,3;4)."""
    pots = [build_potential(s.shape, s.profile(UNIT)) for s in SPACES.values()]
    for shape, blocks in (
        (FlagShape((1, 2, 3), 4), (3, 2, 1, 0)),
        (FlagShape((1, 3), 4), (2, 1, 0)),
    ):
        pots.append(build_potential(shape, EigenProfile.from_blocks(shape, blocks)))
    return [exponent_matrix(po) for po in pots]


def test_hessian_products_equal_einsum():
    # the real products sum the einsum's exact terms, perhaps in another
    # order: equal to rounding where finite, and non-finite where it is
    rng = np.random.default_rng(29)
    for E in _hessian_exponent_matrices():
        terms, n = E.shape
        c = rng.normal(size=terms) + 1j * rng.normal(size=terms)
        batches = [rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)) for m in (1, 2, 900)]
        batches += list(_exponent_batches(E, rng))
        # far from the origin most terms underflow to (signed) zeros and
        # some overflow
        far = np.array([0.0, -0.0, 400.0, -400.0, 1.5])
        batches += [far[rng.integers(0, 5, (m, n))] + 1j * far[rng.integers(0, 5, (m, n))]
                    for m in (1, 2, 3, 900)]
        for w in batches:
            with np.errstate(all="ignore"):
                vals = c * np.exp(potential._exponents(w, E))
                want = np.einsum("...t,tj,tl->...jl", vals, E, E)
                bound = np.broadcast_to(1e-14 * np.abs(vals).sum(axis=-1)[:, None, None], want.shape)
                for got, i in ((potential._grad_hess_at_w(E, c, w)[1], slice(None)),
                               (potential._grad_hess_at_w(E, c, w[0])[1], 0)):
                    finite = np.isfinite(want[i])
                    assert np.array_equal(np.isfinite(got), finite)
                    assert np.all(np.abs(got - want[i])[finite] <= bound[i][finite])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_start_stops_without_raising():
    # at w = (400, -400, 400) the term y3 / y2 is e^800, which overflows:
    # the start's step is not finite and it stops, while the start iterated
    # with it converges as it does alone
    po = fl3_potential()
    E, c = exponent_matrix(po), coeff_vector(po, 0.5)
    good = potential._start_points(random.Random(0), 1, 3)
    far = np.array([[400.0, -400.0, 400.0]], dtype=complex)
    got = potential._newton(E, c, np.concatenate((far, good)))
    want = potential._newton(E, c, good.copy())
    assert len(got) == len(want) == 1
    assert np.abs(got - want).max() < 1e-8


def _per_matrix_steps(hess, grad):
    """Each system solved on its own, and the mask of those that raise."""
    steps, singular = np.zeros_like(grad), np.zeros(len(hess), bool)
    for i, (h, g) in enumerate(zip(hess, grad)):
        try:
            steps[i] = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            singular[i] = True
    return steps, singular


def _singular_matrix(rng, n):
    """An exactly singular complex matrix: a zero row or column, a
    small-integer rank-one product, or zero."""
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    kind = rng.integers(0, 4)
    if kind == 0:
        h[rng.integers(0, n)] = 0.0
    elif kind == 1:
        h[:, rng.integers(0, n)] = 0.0
    elif kind == 2:
        h = np.outer(rng.integers(-3, 4, n), rng.integers(1, 4, n)).astype(complex)
    else:
        h = np.zeros((n, n), complex)
    return h


def test_singular_mask_matches_per_matrix_solve():
    rng = np.random.default_rng(31)
    for n in (3, 4, 6):
        for plant in ("all", "none", "mixed", "one singular", "one regular"):
            m = 1 if plant.startswith("one") else 12
            hess = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
            marked = {"all": np.ones(m, bool), "none": np.zeros(m, bool),
                      "mixed": rng.random(m) < 0.4, "one singular": np.ones(1, bool),
                      "one regular": np.zeros(1, bool)}[plant]
            for i in np.flatnonzero(marked):
                hess[i] = _singular_matrix(rng, n)
            if plant == "mixed":
                # two equal rows: singular in exact arithmetic, and left to
                # the rounding of the factorization in floats
                for i in np.flatnonzero(~marked)[::2]:
                    hess[i, 0] = hess[i, 1]
            grad = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            steps, singular = potential._solve_steps(hess, grad)
            want_steps, want_singular = _per_matrix_steps(hess, grad)
            assert singular.tolist() == want_singular.tolist()
            assert want_singular[marked].all()
            assert steps.tobytes() == want_steps.tobytes()


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_start_points_are_one_random_stream(n):
    # the generic coefficients take 2 draws per term, then each start takes
    # the next 2n draws of the same random.Random(seed)
    box = potential.START_BOX
    for terms, seed in ((6, 0), (9, 1), (12, 12345)):
        rng = random.Random(seed)
        want_a = []
        for _ in range(terms):
            modulus = math.exp(rng.uniform(-potential.DRAW_SPREAD, potential.DRAW_SPREAD))
            want_a.append(modulus * complex(math.cos(arg := rng.uniform(-math.pi, math.pi)),
                                            math.sin(arg)))
        want = []
        for _ in range(200):
            re = [rng.uniform(-box, box) for _ in range(n)]
            im = [rng.uniform(-math.pi, math.pi) for _ in range(n)]
            want.append([complex(a, b) for a, b in zip(re, im)])
        rng = random.Random(seed)
        a = potential._generic_coefficients(rng, terms)
        assert np.abs(a - np.array(want_a)).max() < 1e-15
        assert potential._start_points(rng, 200, n).tobytes() == np.array(want).tobytes()


def test_find_critical_points_deterministic():
    # two seeds give one list, polished to rounding level, at the closed forms
    po = fl3_potential()
    a = find_critical_points(po, SolverConfig(T0=0.5, starts=120, seed=0))
    assert len(a) == 6
    assert a == find_critical_points(po, SolverConfig(T0=0.5, starts=120, seed=1))
    assert _same_points([c.y for c in a], fl3_critical_points(1, 1, 0.5), 1e-12)
    assert all(c.residual < 1e-13 for c in a)


@pytest.mark.parametrize("name", ["Fl3", "Gr24", "Gr25"])
def test_batched_solver_matches_per_start_reference(name):
    # the start solve runs _newton on chunks of starts at the generic
    # coefficients, and keeps what the per-start loop keeps
    space = SPACES[name]
    po = build_potential(space.shape, space.profile(UNIT))
    for seed in (0, 1):
        assert _matches_reference(po, SolverConfig(starts=300, seed=seed))


# ---------------------------------------------------------------------------
# the homotopy: Newton polytope volumes, the certificate, shared start solves


def _support(shape, blocks):
    po = build_potential(shape, EigenProfile.from_blocks(shape, blocks))
    return tuple(t.y_exp for t in po.terms)


def test_newton_volume_small_cases():
    assert newton_volume(((1,), (2,))) == 1  # y + y^2: one critical point
    assert newton_volume(((-1,), (1,))) == 2  # y + 1/y: two
    assert newton_volume(((1, 0), (0, 1))) == 0  # not full-dimensional
    assert newton_volume(((0, 0), (1, 0), (0, 1), (1, 1))) == 2
    # the least point, pulled first, lies inside the triangle
    assert newton_volume(((0, 0), (-1, -1), (1, -1), (0, 1))) == 4


@pytest.mark.parametrize("shape, blocks, volume", [
    (FlagShape((1, 2, 3), 4), (3, 2, 1, 0), 64),
    (grassmannian_shape(2, 6), (1, 0), 48),
    (grassmannian_shape(3, 6), (1, 0), 96),
])
def test_newton_volume_beyond_the_registry(shape, blocks, volume):
    # Fl(4), Gr(2,6) and Gr(3,6)
    assert newton_volume(_support(shape, blocks)) == volume


def test_newton_volume_matches_convex_hull():
    spatial = pytest.importorskip("scipy.spatial")
    supports = [_support(s.shape, s.blocks(UNIT)) for s in SPACES.values()]
    supports.append(_support(FlagShape((1, 3), 4), (2, 1, 0)))
    rng = random.Random(3)
    for n in (2, 3, 4):
        for _ in range(10):
            simplex = [tuple(int(i == j) for j in range(n)) for i in range(-1, n)]
            extra = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            supports.append(tuple(dict.fromkeys(extra + simplex)))
    for exps in supports:
        hull = spatial.ConvexHull(np.array(exps, dtype=float))
        assert newton_volume(exps) == round(hull.volume * math.factorial(len(exps[0])))


_ESCAPING = {"Fl3": 2, "Gr24": 4, "Gr25": 10}


@pytest.mark.parametrize("name", sorted(_ESCAPING))
def test_homotopy_is_certified(name):
    # every path finishes at its own point or escapes; the escaping ones are
    # the critical points the torus chart misses
    space = SPACES[name]
    po = build_potential(space.shape, space.profile(UNIT))
    configs = [SolverConfig(T0=T0, starts=900) for T0 in (0.5, 0.6)]
    for res in track_critical_points(po, configs):
        assert len(res.points) == len(space.candidates(UNIT))
        assert len(res.escaped) == _ESCAPING[name]
        assert len(res.points) + len(res.escaped) == res.volume


def test_targets_share_one_start_solve(monkeypatch):
    calls, solve = [], potential._start_solve
    monkeypatch.setattr(potential, "_start_solve",
                        lambda E, volume, config: calls.append(config.seed) or solve(E, volume, config))
    po = fl3_potential()
    configs = [SolverConfig(T0=T0, starts=200, seed=seed) for seed in (0, 1) for T0 in (0.5, 0.6)]
    results = track_critical_points(po, configs)
    assert calls == [0, 1]
    for config, res in zip(configs, results):
        assert list(res.points) == find_critical_points(po, config)


def test_start_budget_below_the_volume_raises():
    with pytest.raises(NonConvergenceError, match="found .* of the 20 critical points"):
        find_critical_points(gr25_potential(), SolverConfig(starts=10))


@pytest.mark.parametrize("T0", [0.01, 1e-4])
def test_paths_reach_small_base_values(T0):
    # the coefficients move log-linearly, so T0^t_exp far below 1 is no
    # harder to reach than T0 = 1/2
    got = find_critical_points(fl3_potential(), SolverConfig(T0=T0, starts=400))
    assert _same_points([c.y for c in got], fl3_critical_points(1, 1, T0), 1e-10)


def test_solver_recovers_closed_forms():
    for po, cands in (
        (fl3_potential(), fl3_critical_candidates(1)),
        (gr24_potential(), SPACES["Gr24"].candidates(UNIT)),
    ):
        T0 = 0.5
        found = find_critical_points(po, SolverConfig(T0=T0, starts=200, seed=1))
        assert len(found) == len(cands)
        want = sorted(
            tuple(np.round(c.numeric_at(T0), 6)) for c in cands
        )
        got = sorted(tuple(np.round(np.array(c.y), 6)) for c in found)
        for w, g in zip(want, got):
            assert np.abs(np.array(w) - np.array(g)).max() < 1e-5


def test_fl3_critical_points_are_critical_for_generic_profile():
    po = build_potential(FL3, EigenProfile((2, 0, -1)))
    T0 = 0.55
    for y in fl3_critical_points(2, 1, T0):
        assert np.abs(gradient_at(po, y, T0)).max() < 1e-12


def test_verify_candidate_report():
    po = gr24_potential()
    cand = SPACES["Gr24"].candidates(UNIT)[0]
    rep = verify_candidate(po, cand, polytope=build_polytope(
        grassmannian_shape(2, 4), EigenProfile((2, 2, 0, 0))
    ))
    assert rep["max_residual"] < 1e-12
    assert rep["valuations"] == (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(1))
    assert rep["value_exponent_rational"] == Fraction(1, 2)
    assert rep["in_interior"]
    with pytest.raises(ValueError):
        verify_candidate(po, potential.CriticalCandidate(y=(1.0, 1.0, 1.0, 1.0)))


def test_hessian_nondegenerate_requires_critical_point():
    po = fl3_potential()
    with pytest.raises(ValueError):
        hessian_nondegenerate(po, potential.CriticalCandidate(y=(1.0, 1.0, 1.0)), 0.5)
    ok, det = hessian_nondegenerate(po, fl3_critical_candidates(1)[0], 0.5)
    assert ok and det > 0


@pytest.mark.parametrize("name", ["Fl3", "Gr24", "Gr25"])
def test_hessian_nondegenerate_scores_as_the_solver(name):
    # check 03 and the solver share one degeneracy rule: the score of a
    # solver point is the hessian_det the solver reported for it
    space = SPACES[name]
    po = build_potential(space.shape, space.profile(UNIT))
    for c in find_critical_points(po, SolverConfig(T0=0.5, starts=150, seed=0)):
        ok, det = hessian_nondegenerate(po, potential.CriticalCandidate(y=c.y), 0.5)
        assert ok and det > potential.DEGENERATE_DET
        assert det == pytest.approx(c.hessian_det, rel=1e-12)


def test_gr25_values_match_candidates():
    po = gr25_potential()
    T0 = 0.6
    got = sorted(
        np.round(evaluate(po, c.numeric_at(T0), T0), 9)
        for c in SPACES["Gr25"].candidates(UNIT)
    )
    want = sorted(np.round(v, 9) for v in SPACES["Gr25"].critical_values(UNIT, T0))
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-8


def test_gr24_values_scale_as_q_quarter():
    for lam in (1, Fraction(3, 2)):
        for T0 in (0.4, 0.7):
            Q = T0 ** float(2 * lam)
            vals = SPACES["Gr24"].critical_values(SimpleNamespace(lam=lam), T0)
            assert np.allclose(
                sorted(np.abs(vals)), [4 * np.sqrt(2) * Q**0.25] * 4
            )


@settings(max_examples=25, deadline=None)
@given(t0=st.floats(0.3, 0.8), k=st.integers(0, 5))
def test_closed_form_residuals_random_t0(t0, k):
    po = gr25_potential()
    cand = SPACES["Gr25"].candidates(UNIT)[k]
    y = cand.numeric_at(t0)
    assert np.abs(gradient_at(po, y, t0)).max() < 1e-10


# ---------------------------------------------------------------------------
# the Grassmannian closed form against the hand-derived Gr(2,4) and Gr(2,5)
# points it replaced, kept here as independent oracles


def _gr24_literal_candidates(lam):
    """(y1, ..., y4) = ((-1)^i Q^{1/2}, i^{-i} (Q^3/4)^{1/4}, i^i (4Q)^{1/4},
    (-1)^i Q^{1/2}) with Q = T^{2 lam}."""
    lam = Fraction(lam)
    cands = []
    for i in range(4):
        m1 = (-1.0 + 0j) ** i
        sq = 1j**i
        cands.append(
            potential.CriticalCandidate(
                coeffs=(m1, 4.0**-0.25 / sq, sq * 4.0**0.25, m1),
                exps=(lam, 3 * lam / 2, lam / 2, lam),
            )
        )
    return cands


def _gr24_literal_values(lam, T0):
    """4 sqrt(2) i^i Q^{1/4} with Q = T^{2 lam}."""
    Q = T0 ** (2.0 * float(lam))
    return [4.0 * np.sqrt(2.0) * 1j**i * Q**0.25 for i in range(4)]


def _gr25_literal_candidates(lam):
    """All ten are monomial (Q = T^{lam}): y6 = zeta5^m Q^{2/5} (so
    y6^5 = Q^2), and y4 = r Q / y6 with r a root of r^2 + r - 1 = 0, then
    y3 = Q/y4, y5 = y6^2/y4, y2 = Q/y5, y1 = Q/y6."""
    lam = Fraction(lam)
    zeta5 = np.exp(2j * np.pi / 5.0)
    roots = ((-1.0 + np.sqrt(5.0)) / 2.0, (-1.0 - np.sqrt(5.0)) / 2.0)
    cands = []
    for m in range(5):
        z = zeta5**m
        for r in roots:
            c6 = z
            c4 = r / z
            c3 = 1.0 / c4
            c5 = z**2 / c4
            c2 = 1.0 / c5
            c1 = 1.0 / z
            cands.append(
                potential.CriticalCandidate(
                    coeffs=(c1, c2, c3, c4, c5, c6),
                    exps=(
                        3 * lam / 5,
                        4 * lam / 5,
                        2 * lam / 5,
                        3 * lam / 5,
                        lam / 5,
                        2 * lam / 5,
                    ),
                )
            )
    return cands


def _gr25_literal_values(lam, T0):
    """-5 (zeta5^i + zeta5^j) Q^{1/5} for 0 <= i < j <= 4, Q = T^{lam}."""
    Q = T0 ** float(lam)
    zeta5 = np.exp(2j * np.pi / 5.0)
    return [
        -5.0 * (zeta5**i + zeta5**j) * Q**0.2
        for i in range(5)
        for j in range(i + 1, 5)
    ]


def _same_points(got, want, tol):
    """Whether two lists of points are one set: each point of got lies within
    tol of exactly one point of want, and the lists have one length."""
    got, want = np.array(got).reshape(len(got), -1), np.array(want).reshape(len(want), -1)
    near = np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=2) < tol
    return len(got) == len(want) and all(near.sum(axis=0) == 1) and all(near.sum(axis=1) == 1)


_LITERALS = {
    "Gr24": (_gr24_literal_candidates, _gr24_literal_values),
    "Gr25": (_gr25_literal_candidates, _gr25_literal_values),
}


@pytest.mark.parametrize("name", sorted(_LITERALS))
def test_formula_reproduces_hand_derived_closed_forms(name):
    space = SPACES[name]
    literal_candidates, literal_values = _LITERALS[name]
    for lam in (1, Fraction(3, 2)):
        params = SimpleNamespace(lam=lam)
        got, want = space.candidates(params), literal_candidates(lam)
        assert {c.exps for c in got} == {c.exps for c in want}
        assert len({c.exps for c in got}) == 1
        for T0 in (0.45, 0.55):
            assert _same_points(
                [c.numeric_at(T0) for c in got], [c.numeric_at(T0) for c in want], 1e-14
            )
            assert _same_points(space.critical_values(params, T0), literal_values(lam, T0), 1e-14)


_CHART_COUNTS = {(1, 3): 3, (2, 4): 4, (2, 5): 10, (2, 6): 6, (3, 6): 18}


@pytest.mark.parametrize("k,n", sorted(_CHART_COUNTS))
def test_grassmannian_closed_form(k, n):
    shape = grassmannian_shape(k, n)
    for a, b in ((1, 0), (Fraction(3, 2), Fraction(-1, 2)), (2, Fraction(1, 3)),
                 (Fraction(1, 2), -2)):
        po = build_potential(shape, EigenProfile.from_blocks(shape, (a, b)))
        cands = potential.grassmannian_critical_candidates(k, n, a, b)
        assert len(cands) == _CHART_COUNTS[(k, n)]
        for T0 in (0.5, 0.3):
            values = potential.grassmannian_critical_values(k, n, a, b, T0)
            points = [c.numeric_at(T0) for c in cands]
            for cand, y, value in zip(cands, points, values):
                assert np.abs(gradient_at(po, y, T0)).max() <= 1e-12
                assert abs(evaluate(po, y, T0) - value) <= 1e-12
                assert hessian_nondegenerate(po, cand, T0)[0]
            for y, z in itertools.combinations(points, 2):
                assert np.abs(y - z).max() > 1e-6


@pytest.mark.parametrize("k,n,count", [(2, 7, 21), (3, 7, 35)])
def test_grassmannian_chart_counts_beyond_the_registry(k, n, count):
    # the solver counts of Gr(2,7) and Gr(3,7)
    assert len(potential.grassmannian_critical_candidates(k, n, 1, 0)) == count


def _reference_chart_roots(k, n):
    """The reference chart roots, computed afresh as a list of 1-D arrays."""
    phi = potential._cyclotomic(2 * n)
    rects = [(c,) * r + (0,) * (k - r) for r in range(1, k + 1) for c in range(1, n - k + 1)]
    return [np.exp(1j * np.pi * np.array(J) / n)
            for J in itertools.combinations(range((k + 1) % 2, 2 * n, 2), k)
            if not any(potential._alternant_vanishes(p, J, 2 * n, phi) for p in rects)]


@pytest.mark.parametrize("name,k,n", [("Gr24", 2, 4), ("Gr25", 2, 5)])
def test_chart_roots_computed_once_read_only_and_unchanged(monkeypatch, name, k, n):
    roots = potential._chart_roots(k, n)
    assert potential._chart_roots(k, n) is roots
    assert all(not u.flags.writeable for u in roots)
    with pytest.raises(ValueError):
        roots[0][0] = 1.0

    def bits(space):
        cands = space.candidates(UNIT)
        return ([np.array(c.coeffs).tobytes() for c in cands], [c.exps for c in cands],
                [np.complex128(v).tobytes() for v in space.critical_values(UNIT, 0.55)])

    got = bits(SPACES[name])
    monkeypatch.setattr(potential, "_chart_roots", _reference_chart_roots)
    assert got == bits(SPACES[name])


def test_grassmannian_closed_forms_reject_a_profile_that_does_not_drop():
    for a, b in ((0, 0), (-2, 0)):
        with pytest.raises(ValueError, match="drop strictly"):
            potential.grassmannian_critical_candidates(2, 4, a, b)
        with pytest.raises(ValueError, match="drop strictly"):
            potential.grassmannian_critical_values(2, 4, a, b, 0.5)


def test_gr24_chart_excludes_exactly_the_opposite_pairs():
    # of the six pairs of roots of x^4 = -q, exactly the two with x_a = -x_b
    # (critical value 0) make a rectangular Schur function vanish
    roots = np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4)
    kept = {tuple(np.round(u, 12)) for u in potential._chart_roots(2, 4)}
    for pair in itertools.combinations(roots, 2):
        assert (tuple(np.round(pair, 12)) in kept) == (abs(sum(pair)) > 0.5)
    assert len(kept) == 4


def test_alternant_zero_test_is_exact():
    # s_(1)(u_a, u_b) = u_a + u_b is zero exactly for opposite roots of
    # unity, and never zero for the neighbours, at every N = 2n tried
    for n in range(3, 9):
        N = 2 * n
        phi = potential._cyclotomic(N)
        assert potential._alternant_vanishes((1, 0), (1, 1 + n), N, phi)
        assert not potential._alternant_vanishes((1, 0), (1, 3), N, phi)
    assert potential._cyclotomic(12) == [1, 0, -1, 0, 1]
