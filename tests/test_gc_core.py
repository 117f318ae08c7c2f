import itertools
import math
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcfloer import gc_core, numerics, verify
from gcfloer.gc_core import (
    GCPoint,
    build_polytope,
    classify_fiber,
    contains,
    detect_diamonds,
    fiber_point,
    fiber_structure,
    gc_map,
)
from gcfloer.flags import EigenProfile, FlagShape, grassmannian_shape, index_set
from gcfloer.spaces import SPACES, UNIT

FL3 = FlagShape((1, 2), 3)
GR36, GR36_PROFILE = grassmannian_shape(3, 6), EigenProfile((1, 1, 1, -1, -1, -1))
RNG = np.random.default_rng(17)


def spaces():
    return [(name, space.shape, space.profile(UNIT)) for name, space in SPACES.items()]


def test_index_sets():
    assert index_set(FL3, EigenProfile((1, 0, -1))) == ((1, 2), (2, 2), (1, 1))
    assert index_set(grassmannian_shape(2, 4), EigenProfile((2, 2, 0, 0))) == (
        (2, 3),
        (1, 2),
        (2, 2),
        (1, 1),
    )
    assert index_set(grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0))) == (
        (2, 4),
        (1, 3),
        (2, 3),
        (1, 2),
        (2, 2),
        (1, 1),
    )


def test_profile_validation():
    with pytest.raises(ValueError):
        EigenProfile((Fraction(0), Fraction(1))).validate(
            grassmannian_shape(1, 2)
        )


# ---------------------------------------------------------------------------
# exact facet oracle: vertex enumeration over the rationals


def _exact_rows(polytope):
    """(coeffs, const) with coeffs . u + const >= 0, everything a Fraction."""
    rows = []
    for iq in polytope.inequalities:
        coeffs = [Fraction(0)] * len(polytope.index)
        const = Fraction(0)
        for side, sgn in ((iq.upper, 1), (iq.lower, -1)):
            if isinstance(side, Fraction):
                const += sgn * side
            else:
                coeffs[polytope.index.index(side)] += sgn
        rows.append((coeffs, const))
    return rows


def _integer_rows(polytope):
    """_exact_rows scaled by the common denominator d of the constants:
    integer (coeffs, const) with coeffs . v + const >= 0 for v = d u."""
    rows = _exact_rows(polytope)
    d = math.lcm(*(const.denominator for _, const in rows))
    return [([int(c) for c in coeffs], int(const * d)) for coeffs, const in rows]


def _bareiss(m, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the integer rows
    m, in place, over their first ncols columns.  Every entry stays an
    integer minor, so each division is exact.  Returns the rank."""
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(len(m)):
            if r != rank:
                f = m[r][col]
                m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], m[rank])]
        prev, rank = p, rank + 1
    return rank


def _vertex(rows_subset):
    """The solution v = x / den of coeffs . v = -const, as (x, den) in
    lowest terms with den > 0; None when the rows are dependent."""
    n = len(rows_subset)
    m = [list(c) + [-k] for c, k in rows_subset]
    if _bareiss(m, n) < n:
        return None
    den = m[0][0]  # the determinant, up to sign, on the whole diagonal
    x = [row[n] for row in m]
    g = math.gcd(den, *x) * (1 if den > 0 else -1)
    return tuple(v // g for v in x), den // g


def _facet_oracle(polytope):
    """Facet flags by vertex enumeration: an inequality is a facet iff its
    tight vertex set has affine rank N - 1.  Exact integer arithmetic:
    vertices by Bareiss elimination, ranks counted exactly."""
    rows = _integer_rows(polytope)
    n = len(polytope.index)
    vertices = set()
    for subset in itertools.combinations(rows, n):
        vertex = _vertex(subset)
        if vertex is None:
            continue
        x, den = vertex
        if all(sum(c * v for c, v in zip(coeffs, x)) + const * den >= 0 for coeffs, const in rows):
            vertices.add(vertex)
    flags = []
    for coeffs, const in rows:
        tight = [
            (x, den) for x, den in vertices
            if sum(c * v for c, v in zip(coeffs, x)) + const * den == 0
        ]
        if not tight:
            flags.append(False)
            continue
        # differences from the first tight vertex, each scaled by the
        # positive product of the two denominators
        (x0, d0), rest = tight[0], tight[1:]
        diffs = [[v * d0 - v0 * d for v, v0 in zip(x, x0)] for x, d in rest]
        flags.append(_bareiss(diffs, n) == n - 1)
    return flags


@pytest.mark.parametrize("space,shape,profile", spaces())
def test_facets_match_exact_oracle(space, shape, profile):
    polytope = build_polytope(shape, profile)
    got = [iq.facet for iq in polytope.inequalities]
    assert got == _facet_oracle(polytope)


# every step set of ambient 3 and 4, and Gr(2,5); the oracle's cost grows
# fast with the dimension (F(2,3;5) takes about 8 s a case)
_ORACLE_SHAPES = [
    FlagShape(steps, n)
    for n in (3, 4)
    for r in range(1, n)
    for steps in itertools.combinations(range(1, n), r)
] + [grassmannian_shape(2, 5)]


@st.composite
def _shapes_and_profiles(draw):
    shape = draw(st.sampled_from(_ORACLE_SHAPES))
    values = draw(
        st.sets(
            st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3)),
            min_size=len(shape.steps) + 1,
            max_size=len(shape.steps) + 1,
        )
    )
    blocks = sorted(values, reverse=True)
    return shape, EigenProfile.from_blocks(shape, blocks)


@settings(max_examples=40, deadline=None)
@given(case=_shapes_and_profiles())
def test_facet_flags_match_exact_oracle_on_random_profiles(case):
    polytope = build_polytope(*case)
    got = [iq.facet for iq in polytope.inequalities]
    assert got == _facet_oracle(polytope)


def test_inequality_and_facet_counts():
    counts = {}
    for space, shape, profile in spaces():
        polytope = build_polytope(shape, profile)
        counts[space] = (
            len(polytope.inequalities),
            sum(1 for iq in polytope.inequalities if iq.facet),
        )
    assert counts == {"Fl3": (6, 6), "Gr24": (8, 6), "Gr25": (12, 9)}


# ---------------------------------------------------------------------------
# membership, faces, diamonds


def _reference_face_dimension(polytope, u):
    """Dimension of the face whose relative interior contains u, from the rank
    of its active rows: the oracle for the dimension of a torus fiber."""
    inside, active = contains(polytope, u)
    assert inside
    if not active:
        return len(polytope.index)
    rows = _exact_rows(polytope)
    dense = np.array([[float(c) for c in rows[j][0]] for j in active])
    return len(polytope.index) - np.linalg.matrix_rank(dense, tol=1e-10)


def test_contains_and_face_dimension():
    shape, profile = FL3, EigenProfile((1, 0, -1))
    polytope = build_polytope(shape, profile)
    interior = GCPoint((0.5, -0.5, 0.1), polytope.index)
    inside, active = contains(polytope, interior)
    assert inside and not active
    assert fiber_structure(shape, profile, interior) == (1, 1, 1)
    assert _reference_face_dimension(polytope, interior) == 3
    vertex = GCPoint((1.0, 0.0, 1.0), polytope.index)
    inside, active = contains(polytope, vertex)
    assert inside and len(active) >= 3
    assert fiber_structure(shape, profile, vertex) == ()
    assert _reference_face_dimension(polytope, vertex) == 0
    outside = GCPoint((2.0, 0.0, 0.0), polytope.index)
    assert not contains(polytope, outside)[0]
    # a NaN slack would be neither violated nor active: no point is non-finite
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            contains(polytope, (0.0, bad, 0.0))


def _reference_contains(polytope, u):
    """The per-inequality loop contains replaced: each affine form rebuilt
    from its Fractions as a dense float row, one slack at a time."""
    vec = np.array(u, dtype=float)
    inside, active = True, []
    for j, (coeffs, const) in enumerate(_exact_rows(polytope)):
        slack = float(np.array(coeffs, dtype=float) @ vec + float(const))
        if slack < -gc_core.GC_TOL:
            inside = False
        elif abs(slack) <= gc_core.GC_TOL:
            active.append(j)
    return inside, active


def _points_near_faces():
    """(polytope, u) for 300 points of each of six polytopes: an interior
    point, then some coordinates moved onto a profile value or another
    coordinate, exactly or off by fractions of the tolerance."""
    rng = np.random.default_rng(37)
    cases = [(shape, profile) for _, shape, profile in spaces()]
    for steps, blocks in (((1, 2, 3), (3, 2, 1, 0)), ((1, 3), (2, 1, 0))):
        shape = FlagShape(steps, 4)
        cases.append((shape, EigenProfile.from_blocks(shape, blocks)))
    tol = gc_core.GC_TOL
    for shape, profile in cases:
        polytope = build_polytope(shape, profile)
        n = shape.ambient
        diag = np.diag([float(v) for v in profile.values])
        for _ in range(300):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            u = list(gc_map(q @ diag @ q.conj().T, shape, profile).values)
            targets = [float(v) for v in profile.values] + u
            for i in rng.choice(len(u), rng.integers(0, 3), replace=False):
                u[i] = rng.choice(targets) + rng.choice([0.0, 0.5 * tol, -0.5 * tol, 2 * tol, -2 * tol])
            yield polytope, u


def test_contains_matches_per_inequality_loop():
    seen = {"outside": 0, "on a face": 0, "interior": 0}
    for polytope, u in _points_near_faces():
        got = contains(polytope, u)
        assert got == _reference_contains(polytope, u)
        assert all(type(j) is int for j in got[1])
        seen["outside" if not got[0] else "on a face" if got[1] else "interior"] += 1
    assert min(seen.values()) > 50, seen


def test_torus_dimension_is_the_face_dimension():
    # on a point without diamonds the cluster rule counts one circle per
    # dimension of the face through it, as the rank of its active rows does
    checked = 0
    for polytope, u in _points_near_faces():
        shape, profile = polytope.shape, polytope.profile
        if not contains(polytope, u)[0] or detect_diamonds(shape, profile, u):
            continue
        spheres = fiber_structure(shape, profile, u)
        assert set(spheres) <= {1}
        assert len(spheres) == _reference_face_dimension(polytope, u)
        checked += 1
    assert checked > 700, checked


def test_detect_diamonds():
    shape, profile = FL3, EigenProfile((1, 0, -1))
    u = GCPoint((0.0, 0.0, 0.0), index_set(shape, profile))
    assert detect_diamonds(shape, profile, u) == [(2, 1)]
    u = GCPoint((0.5, -0.5, 0.0), index_set(shape, profile))
    assert detect_diamonds(shape, profile, u) == []

    shape, profile = grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0))
    idx = index_set(shape, profile)
    assert detect_diamonds(shape, profile, GCPoint((0.5, 0.7, 0.3, 0.3, 0.3, 0.3), idx)) == [(2, 1)]
    assert detect_diamonds(shape, profile, GCPoint((0.5, 0.5, 0.5, 0.5, 0.3, 0.2), idx)) == [(3, 1)]
    assert sorted(
        detect_diamonds(shape, profile, GCPoint((0.4,) * 6, idx))
    ) == [(2, 1), (3, 1)]


# ---------------------------------------------------------------------------
# the moment map and fiber points


def test_gc_map_on_fiber_constructors():
    # points sampled on the S^3 fiber of Fl(3), the U(2) fiber of Gr(2,4)
    # and the U(2) x T^2 fiber L1 of Gr(2,5) map back onto their patterns
    shape, profile = FL3, EigenProfile((2, 0, -1))
    u = gc_map(fiber_point(shape, profile, (0, 0, 0), RNG), shape, profile)
    assert np.abs(np.array(u.values)).max() < 1e-9

    shape, profile = grassmannian_shape(2, 4), EigenProfile((1, 1, -1, -1))
    u = gc_map(fiber_point(shape, profile, (-0.4,) * 4, RNG), shape, profile)
    assert np.abs(np.array(u.values) + 0.4).max() < 1e-9

    shape, profile = grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0))
    want = (0.6, 0.8, 0.2, 0.2, 0.2, 0.2)
    u = gc_map(fiber_point(shape, profile, want, RNG), shape, profile)
    assert np.abs(np.array(u.values) - want).max() < 1e-9


def _random_pattern(shape, profile, rng):
    """An integer Gelfand-Cetlin pattern of an integer profile, each entry
    uniform between its interlacing bounds, level n-1 down to level 1."""
    levels = {shape.ambient: [int(v) for v in profile.values]}
    for k in range(shape.ambient - 1, 0, -1):
        above = levels[k + 1]
        levels[k] = [int(rng.integers(above[i + 1], above[i] + 1)) for i in range(k)]
    return tuple(levels[k][i - 1] for i, k in index_set(shape, profile))


FL4, FL4_WALL = FlagShape((1, 2, 3), 4), EigenProfile((4, 2, 1, -1))


@pytest.mark.parametrize("seed, shape, profile", [
    (0, FL4, FL4_WALL),
    (1, FL4, EigenProfile((3, 1, 0, -2))),
    (2, grassmannian_shape(2, 6), EigenProfile((2, 2, 0, 0, 0, 0))),
    (3, GR36, EigenProfile((2, 2, 2, 0, 0, 0))),
    (4, FlagShape((1, 3), 4), EigenProfile((3, 1, 1, -1))),
])
def test_fiber_point_lands_on_random_patterns(seed, shape, profile):
    # integer patterns sit on faces of every dimension, with spheres of
    # every size the profile allows
    rng = np.random.default_rng(seed)
    for _ in range(60):
        u = _random_pattern(shape, profile, rng)
        got = gc_map(fiber_point(shape, profile, u, rng), shape, profile)
        assert np.abs(np.array(got.values) - u).max() < 1e-12, u


def test_fiber_point_on_the_fl4_wall_face():
    # the middle diamond of Fl(4) collapsed: an S^3 from level 2 to level 3;
    # u as a numpy array too (np.float64's repr is not a decimal under numpy 2)
    u = tuple(FL4_WALL_PATTERN[p] for p in index_set(FL4, FL4_WALL))
    for point in (u, np.array(u)):
        got = gc_map(fiber_point(FL4, FL4_WALL, point, RNG), FL4, FL4_WALL)
        assert np.abs(np.array(got.values) - u).max() < 1e-12


def test_fiber_point_takes_an_integer_array():
    # the S^3 fiber of Fl(3) over an int64 pattern: as_fraction raised TypeError
    space = SPACES["Fl3"]
    profile = space.profile(UNIT)
    x = fiber_point(space.shape, profile, np.array([0, 0, 0]), RNG)
    got = gc_map(x, space.shape, profile)
    assert np.abs(np.array(got.values)).max() < 1e-12
    assert classify_fiber(build_polytope(space.shape, profile), got, space.strata).kind == "S3"


FL4_WALL_PATTERN = {(1, 1): 1.5, (1, 2): 1.5, (2, 2): 1.5, (1, 3): 3.0, (2, 3): 1.5,
                    (3, 3): 0.0}


def _per_block_values(x, index):
    """gc_map's values from one eigvalsh call per leading block."""
    return [float(np.linalg.eigvalsh(x[:k, :k])[::-1][i - 1]) for i, k in index]


def _assert_per_block(x, shape, profile):
    u = gc_map(x, shape, profile)
    want = _per_block_values(x, u.index)
    assert np.abs(np.array(u.values) - want).max() <= 1e-12 * max(1.0, np.abs(x).max())


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_gc_map_matches_per_block_eigenvalues(scale):
    # gc_map takes every block's eigenvalues from one stacked eigvalsh with
    # a padded diagonal: random Hermitian matrices of sizes 2 to 6, on the
    # full flag of their own spectrum
    rng = np.random.default_rng(41)
    for n in range(2, 7):
        shape = FlagShape(tuple(range(1, n)), n)
        for _ in range(20):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x = scale * (g + g.conj().T)
            profile = EigenProfile(tuple(map(float, np.linalg.eigvalsh(x)[::-1])))
            _assert_per_block(x, shape, profile)


def test_gc_map_matches_per_block_eigenvalues_with_repeats():
    # fiber points, whose blocks repeat eigenvalues (clusters squeeze
    # entries onto each other and onto the profile's repeated values)
    rng = np.random.default_rng(43)
    for name, points in verify._FIBER_POINTS.items():
        space = SPACES[name]
        profile = space.profile(UNIT)
        for u in points:
            for _ in range(5):
                _assert_per_block(fiber_point(space.shape, profile, u, rng), space.shape, profile)
    # a pad 2 n scale + 1 beyond the doubles is capped; the blocks still map
    x = np.diag([1e308, 0.0, -1e308]).astype(complex)
    x[0, 1] = x[1, 0] = 0.5
    _assert_per_block(x, FL3, EigenProfile(tuple(map(float, np.linalg.eigvalsh(x)[::-1]))))


def test_gc_map_is_per_block_bit_for_bit_on_check_08_points():
    # check 08's orbit points (seed 2024, 334 per space): the stacked call
    # gives the bytes of one eigvalsh per block
    rng = np.random.default_rng(2024)
    for name, space in SPACES.items():
        profile = space.profile(UNIT)
        for x in verify._random_orbit_points(rng, profile, 334):
            u = gc_map(x, space.shape, profile)
            assert np.array(u.values).tobytes() == np.array(_per_block_values(x, u.index)).tobytes()


def test_gc_map_rejects_off_orbit():
    shape, profile = FL3, EigenProfile((1, 0, -1))
    with pytest.raises(ValueError, match="orbit"):
        gc_map(np.diag([2.0, 0.0, -1.0]), shape, profile)
    with pytest.raises(ValueError, match="Hermitian"):
        gc_map(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]), shape, profile)


def test_gc_map_checks_the_matrix_once(monkeypatch):
    # |x - x*| and |x| are built once per gc_map, for the whole matrix and
    # every upper-left block; check_hermitian is not called at all
    shapes = []
    defects = numerics.leading_block_defects
    monkeypatch.setattr(
        numerics, "leading_block_defects", lambda m: shapes.append(np.shape(m)) or defects(m)
    )
    monkeypatch.setattr(numerics, "check_hermitian", lambda m: pytest.fail("called"))
    shape, profile = grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0))
    x = fiber_point(shape, profile, (0.6, 0.8, 0.2, 0.2, 0.2, 0.2), RNG)
    u = gc_map(x, shape, profile)
    assert shapes == [(5, 5)]
    assert u.values == tuple(
        float(np.linalg.eigvalsh(x[:k, :k])[::-1][i - 1]) for i, k in u.index
    )
    # and each block's decision is the rule's on that block alone
    _, defect, scale = defects(x)
    for k in range(1, 6):
        assert _reference_hermitian_error(x[:k, :k]) is None
        assert defect[k - 1] <= numerics.HERMITIAN_TOL * scale[k - 1]
    with pytest.raises(ValueError, match="ambient dimension"):
        gc_map(np.diag([1.0, 0.0]), FL3, EigenProfile((1, 0, -1)))
    with pytest.raises(ValueError, match="square"):
        gc_map(np.ones((3, 2)), FL3, EigenProfile((1, 0, -1)))


def _reference_hermitian_error(block):
    """The message of the relative Hermitian rule on one block, computed on
    that block alone as check_hermitian did before block decisions were
    shared; None when the block passes."""
    scale = max(1.0, np.abs(block).max())
    defect = np.abs(block - block.conj().T).max()
    if defect > numerics.HERMITIAN_TOL * scale:
        return f"matrix is not Hermitian (defect {defect:.3g})"
    return None


def _block_errors(x):
    _, defect, scale = numerics.leading_block_defects(x)
    errors = []
    for d, s in zip(defect, scale):
        try:
            numerics.require_hermitian(d, s)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    return errors


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    scales=st.lists(st.integers(-14, 14), min_size=6, max_size=6),
    defect_exponent=st.integers(-16, 2),
)
def test_block_hermitian_decisions_match_the_rule_on_each_block(seed, n, scales, defect_exponent):
    # a Hermitian matrix with rows and columns scaled by powers of ten, and
    # one-sided defects of random size in random entries: block k's
    # decision from the shared maxima is the rule's on x[:k, :k] alone
    rng = np.random.default_rng(seed)
    d = 10.0 ** np.array(scales[:n], dtype=float)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    x = d[:, None] * (g + g.conj().T) * d[None, :]
    hits = rng.random((n, n)) < 0.3
    x[hits] += 10.0**defect_exponent * rng.normal(size=hits.sum())
    want = [_reference_hermitian_error(x[:k, :k]) for k in range(1, n + 1)]
    assert _block_errors(x) == want
    if want[-1] is None:
        numerics.check_hermitian(x)
    else:
        with pytest.raises(ValueError) as info:
            numerics.check_hermitian(x)
        assert str(info.value) == want[-1]


def test_gc_map_rejects_a_non_hermitian_block_of_a_hermitian_matrix():
    # the whole matrix and its 3 x 3 block pass the relative rule on their
    # scale 1e6, but the 2 x 2 block, of scale 1, does not; the spectrum is
    # on the orbit (eigvalsh reads the lower triangle), so only the block
    # check can reject it
    x = np.diag([0.0, 0.0, 1e6, 1e6]).astype(complex)
    x[0, 1] = 1e-9
    want = [_reference_hermitian_error(x[:k, :k]) for k in range(1, 5)]
    assert want == [None, "matrix is not Hermitian (defect 1e-09)", None, None]
    assert _block_errors(x) == want
    with pytest.raises(ValueError, match=r"not Hermitian \(defect 1e-09\)"):
        gc_map(x, grassmannian_shape(2, 4), EigenProfile((10**6, 10**6, 0, 0)))


def test_gc_map_checks_the_orbit_before_the_profile():
    shape = FL3
    bad = EigenProfile((1, 1, -1))  # does not drop at step 1
    for _ in range(2):  # the second call goes through the memo
        with pytest.raises(ValueError, match="not on the orbit"):
            gc_map(np.diag([2.0, 0.0, -1.0]), shape, bad)
        with pytest.raises(ValueError, match="must drop strictly at step 1"):
            gc_map(np.diag([1.0, 1.0, -1.0]), shape, bad)


@pytest.mark.parametrize(
    "x",
    [
        [[1, 2j, 0], [-2j, 0, 0], [0, 0, np.inf]],
        np.full((3, 3), np.nan),
        [[1, 0, 0], [0, complex(0, np.nan), 0], [0, 0, -1]],
    ],
)
def test_gc_map_rejects_non_finite_matrices(x):
    # a NaN defect compared False against the tolerance: the first matrix
    # mapped to a point and the second raised LinAlgError
    with pytest.raises(ValueError, match="non-finite"):
        gc_map(x, FL3, EigenProfile((1, 0, -1)))
    with pytest.raises(ValueError, match="non-finite"):
        numerics.check_hermitian(x)


def test_constructor_input_validation():
    # a point off the polytope or of the wrong length has no fiber point;
    # the interlacing is decided exactly, so 1e-15 outside is outside
    gr24, gr24_profile = grassmannian_shape(2, 4), EigenProfile((1, 1, -1, -1))
    gr25, gr25_profile = grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0))
    for shape, profile, u in (
        (FL3, EigenProfile((1, 0, -1)), (5.0, 0.0, 0.0)),
        (FL3, EigenProfile((1, 0, -1)), (-0.5, 0.5, 0.0)),  # level 2 ascending
        (FL3, EigenProfile((1, 0, -1)), (0.5, -0.5, 0.5 + 1e-15)),
        (gr24, gr24_profile, (1.5,) * 4),
        (gr25, gr25_profile, (0.7, 0.5, 0.2, 0.2, 0.2, 0.2)),  # s1 < s2
        (gr25, gr25_profile, (0.5, 0.5, 0.3, 0.4, 0.4, 0.4)),  # level 3 lacks 0.4
    ):
        with pytest.raises(ValueError, match="not in the polytope"):
            fiber_point(shape, profile, u, RNG)
    with pytest.raises(ValueError, match="entries"):
        fiber_point(FL3, EigenProfile((1, 0, -1)), (0.0, 0.0), RNG)
    with pytest.raises(ValueError, match="entries"):
        fiber_point(FL3, EigenProfile((1, 0, -1)), (0.0,) * 4, RNG)


# ---------------------------------------------------------------------------
# fiber classification


def test_classify_fiber_table():
    strata = SPACES["Fl3"].strata
    polytope = build_polytope(FL3, EigenProfile((1, 0, -1)))
    f = classify_fiber(polytope, GCPoint((0.5, -0.5, 0.1), polytope.index), strata)
    assert (f.kind, f.real_dimension, f.lagrangian) == ("torus", 3, True)
    f = classify_fiber(polytope, GCPoint((0.0, 0.0, 0.0), polytope.index), strata)
    assert (f.kind, f.real_dimension, f.lagrangian) == ("S3", 3, True)
    f = classify_fiber(polytope, GCPoint((1.0, 0.0, 1.0), polytope.index), strata)
    assert f.kind == "torus" and f.real_dimension == 0
    with pytest.raises(ValueError, match="polytope"):
        classify_fiber(polytope, GCPoint((5.0, 0.0, 0.0), polytope.index), strata)

    strata = SPACES["Gr24"].strata
    polytope = build_polytope(grassmannian_shape(2, 4), EigenProfile((2, 2, 0, 0)))
    f = classify_fiber(polytope, GCPoint((1.0,) * 4, polytope.index), strata)
    assert (f.kind, f.real_dimension, f.lagrangian) == ("U2", 4, True)
    assert "displaceable" not in f.annotations  # the monotone level
    f = classify_fiber(polytope, GCPoint((0.3,) * 4, polytope.index), strata)
    assert f.kind == "U2" and "displaceable" in f.annotations
    # without strata a non-torus fiber is unknown, and no space's rows name
    # the diamonds of the U(3) fiber of Gr(3,6)
    f = classify_fiber(polytope, GCPoint((1.0,) * 4, polytope.index))
    assert f.kind == "unknown-nonsmooth"
    shape, profile = GR36, GR36_PROFILE
    u = gc_map(fiber_point(shape, profile, (0.3,) * 9, RNG), shape, profile)
    assert detect_diamonds(shape, profile, u) == [(2, 1), (3, 1), (3, 2), (4, 2)]
    every_row = tuple(row for space in SPACES.values() for row in space.strata)
    f = classify_fiber(build_polytope(shape, profile), u, every_row)
    assert f.kind == "unknown-nonsmooth"

    strata = SPACES["Gr25"].strata
    polytope = build_polytope(grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0)))
    idx = polytope.index
    f = classify_fiber(polytope, GCPoint((0.5, 0.7, 0.3, 0.3, 0.3, 0.3), idx), strata)
    assert (f.kind, f.real_dimension, f.lagrangian) == ("U2xT2", 6, True)
    assert "displaceable" in f.annotations
    f = classify_fiber(polytope, GCPoint((0.5, 0.5, 0.5, 0.5, 0.2, 0.3), idx), strata)
    assert (f.kind, f.real_dimension, f.lagrangian) == ("U2xT2", 6, True)
    f = classify_fiber(polytope, GCPoint((0.4,) * 6, idx), strata)
    assert (f.kind, f.real_dimension, f.lagrangian) == ("U2", 4, False)


def test_fiber_structure_beyond_the_registry():
    # the U(3) fiber of Gr(3,6) over (t, ..., t): 9 = dim_C
    shape, profile = GR36, GR36_PROFILE
    u = gc_map(fiber_point(shape, profile, (0.3,) * 9, RNG), shape, profile)
    assert fiber_structure(shape, profile, u) == (5, 3, 1)
    # Gr(2,6) over (t, ..., t): 4 of 8
    shape = grassmannian_shape(2, 6)
    profile = EigenProfile.from_blocks(shape, (1, -1))
    assert fiber_structure(shape, profile, (0.3,) * 8) == (3, 1)
    # Fl(4) at the wall profile, the middle diamond collapsed: an S^3 from
    # level 2 to level 3, then three circles, 6 = dim_C
    u = tuple(FL4_WALL_PATTERN[p] for p in index_set(FL4, FL4_WALL))
    assert fiber_structure(FL4, FL4_WALL, u) == (3, 1, 1, 1)


def test_classify_fiber_unknown_stratum():
    # a boundary degeneracy outside the Gr25 rows
    polytope = build_polytope(grassmannian_shape(2, 5), EigenProfile((1, 1, 0, 0, 0)))
    u = GCPoint((0.0, 0.3, 0.0, 0.0, 0.0, 0.0), polytope.index)
    f = classify_fiber(polytope, u, SPACES["Gr25"].strata)
    assert f.kind == "unknown-nonsmooth"
    assert f.real_dimension == -1


# ---------------------------------------------------------------------------
# random membership


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_orbit_points_map_into_polytope(seed):
    rng = np.random.default_rng(seed)
    shape, profile = grassmannian_shape(2, 4), EigenProfile((2, 2, 0, 0))
    polytope = build_polytope(shape, profile)
    vals = np.array([float(v) for v in profile.values])
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    x = q @ np.diag(vals) @ q.conj().T
    u = gc_map(x, shape, profile)
    assert contains(polytope, u)[0]


def _reference_orbit_point(rng, profile):
    """One orbit point as check 08 drew them before it drew each space's
    points at once."""
    vals = np.array([float(v) for v in profile.values])
    n = len(vals)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u_mat, _ = np.linalg.qr(g)
    return u_mat @ np.diag(vals) @ u_mat.conj().T


@pytest.mark.parametrize("count", [34, 334])
def test_orbit_points_drawn_at_once_equal_the_per_point_loop(count):
    from gcfloer import verify

    ref_rng, rng = np.random.default_rng(2024), np.random.default_rng(2024)
    for space in SPACES.values():
        profile = space.profile(UNIT)
        want = np.array([_reference_orbit_point(ref_rng, profile) for _ in range(count)])
        got = verify._random_orbit_points(rng, profile, count)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    halves=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
)
def test_gc_map_interlaces(seed, halves):
    # Cauchy interlacing: the i-th largest eigenvalue of the k x k corner lies
    # between the i-th and (i+1)-th of the (k+1) x (k+1) corner; level n is
    # the profile and entries gc_map drops are the profile's constants
    l1, l2, lam = (Fraction(h, 2) for h in halves)
    params = SimpleNamespace(l1=l1, l2=l2, lam=lam)
    rng = np.random.default_rng(seed)
    for space in SPACES.values():
        shape, profile = space.shape, space.profile(params)
        n = shape.ambient
        vals = np.array([float(v) for v in profile.values])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = gc_map(q @ np.diag(vals) @ q.conj().T, shape, profile)
        entries = dict(zip(u.index, u.values))

        def level(k):
            return [entries.get((i, k), float(profile.value(i))) for i in range(1, k + 1)]

        for k in range(1, n):
            inner, outer = level(k), level(k + 1)
            for i in range(k):
                assert outer[i] + 1e-9 >= inner[i] >= outer[i + 1] - 1e-9


def test_verify_import_loads_no_pool_or_polynomial():
    # loading every gcfloer module is all the set-up verify-all pays.  The
    # submodules load lazily, so import alone would execute none of them:
    # reading each one's namespace (as perfbench's tracer does) runs it first
    code = (
        "import sys, gcfloer.verify; "
        "names = [n for n in sys.modules if n.startswith('gcfloer.')]; "
        "assert len(names) >= 8, names; "
        "[vars(sys.modules[n]) for n in names]; "
        "assert 'numpy' in sys.modules; "
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures', 'numpy.polynomial') "
        "if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_package_import_defers_scipy_optimize():
    # facets are decided by exact path arithmetic and multiset_match is a
    # threshold matching, so no command loads scipy; the quadrature rule is
    # written out, so nothing here loads numpy.polynomial
    code = (
        "import sys, gcfloer.cli; "
        "from gcfloer import gc_core, potential, verify; "
        "from gcfloer.spaces import SPACES, UNIT; "
        "assert 'numpy.polynomial' not in sys.modules; "
        "[(gc_core.build_polytope(s.shape, s.profile(UNIT)), "
        "potential.build_potential(s.shape, s.profile(UNIT)), "
        "s.match_c1(UNIT, 0.5, 1e-7)) for s in SPACES.values()]; "
        "assert verify.check_critical_values().passed; "
        "assert verify.check_qh_match().passed; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
