import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcfloer import verify
from gcfloer.floer import m1_fl3, m1b_gr24
from gcfloer.novikov import (
    PIVOT_ZERO_TOL,
    NovikovMatrix,
    NovikovSeries,
    _smith_valuations,
    as_fraction,
    module_presentation,
)


def test_as_fraction_is_exact():
    assert as_fraction(0.3) == Fraction(3, 10)
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("2/7") == Fraction(2, 7)
    assert as_fraction(5) == Fraction(5)
    with pytest.raises(TypeError):
        as_fraction(object())


def test_as_fraction_takes_every_integral():
    # np.int64 is no int subclass, so it once raised TypeError
    for x in (np.int64(3), np.int8(3), np.uint64(3)):
        got = as_fraction(x)
        assert (type(got), got) == (Fraction, Fraction(3))
    assert as_fraction(np.int64(-2**62)) == Fraction(-2**62)


def test_series_normalization_and_valuation():
    s = NovikovSeries(((Fraction(1, 2), 1.0), (Fraction(1, 2), -1.0), (1, 2.0)))
    assert s.terms == ((Fraction(1), 2.0 + 0j),)
    assert s.valuation() == Fraction(1)
    assert NovikovSeries.zero().valuation() == math.inf


@pytest.mark.parametrize("coeff", [
    1.5e308 + 1.5e308j,  # finite parts, modulus overflows: abs raised OverflowError
    complex(math.inf, 0.0),  # was kept as a coefficient
    complex(math.nan, 0.0),  # was pruned as zero
])
def test_series_rejects_a_coefficient_without_finite_modulus(coeff):
    with pytest.raises(ValueError, match="no finite modulus"):
        NovikovSeries(((0, coeff),))


def test_series_rejects_a_merged_coefficient_that_overflows():
    with pytest.raises(ValueError, match="no finite modulus"):
        NovikovSeries(((1, 1e308), (1, 1e308)))


def test_truncation_drops_high_terms():
    s = NovikovSeries(((11, 1.0), (3, 1.0)), truncation=10)
    assert s.terms == ((Fraction(3), 1.0 + 0j),)
    a = NovikovSeries.monomial(6)
    assert (a * a).is_zero()  # exponent 12 >= truncation 10


def test_arithmetic_identity():
    a = NovikovSeries(((0, 1.0), (Fraction(1, 3), 2.0)))
    b = NovikovSeries(((Fraction(1, 2), -1.5), (2, 1j)))
    lhs = (a + b) * (a - b)
    rhs = a * a - b * b
    assert (lhs - rhs).is_zero(tol=1e-12)


def test_invert_roundtrip():
    a = NovikovSeries(((0, 2.0), (Fraction(1, 2), 1.0), (1, -3.0)))
    assert ((a * a.invert()) - NovikovSeries.one()).is_zero(tol=1e-10)
    shifted = a.shift(Fraction(3, 2))
    prod = shifted * shifted.invert()
    assert ((prod) - NovikovSeries.one()).is_zero(tol=1e-10)
    with pytest.raises(ZeroDivisionError):
        NovikovSeries.zero().invert()


def test_scalar_and_numeric_coercion():
    a = NovikovSeries.monomial(1, 2.0)
    assert (1 + a).terms[0] == (Fraction(0), 1.0 + 0j)
    assert (2 * a).terms == ((Fraction(1), 4.0 + 0j),)
    with pytest.raises(TypeError):
        a + "nope"


def test_matrix_matmul():
    one = NovikovSeries.one()
    t = NovikovSeries.monomial(Fraction(1, 2))
    z = NovikovSeries.zero()
    m = NovikovMatrix([[one, t], [z, one]])
    sq = m @ m
    assert sq.entries[0][1].terms == ((Fraction(1, 2), 2.0 + 0j),)
    with pytest.raises(ValueError):
        NovikovMatrix([])


def _mat(entries, trunc=10):
    return NovikovMatrix(
        [
            [
                NovikovSeries(((as_fraction(e), c),), trunc)
                if c
                else NovikovSeries.zero(trunc)
                for c, e in row
            ]
            for row in entries
        ]
    )


def test_module_presentation_square_zero():
    # d(e1) = T^{1/3} e0 on a 2-dimensional complex
    d = _mat([[(0, 0), (1.0, Fraction(1, 3))], [(0, 0), (0, 0)]])
    dec = module_presentation(d)
    assert dec.free_rank == 0
    assert dec.torsion_exponents == (Fraction(1, 3),)
    assert module_presentation(d, ring="Lambda").lambda_rank() == 0


def test_module_presentation_zero_differential():
    d = _mat([[(0, 0)] * 3] * 3)
    dec = module_presentation(d)
    assert dec.free_rank == 3
    assert dec.torsion_exponents == ()


def test_module_presentation_rejects_non_differential():
    d = _mat([[(1.0, 0), (0, 0)], [(0, 0), (0, 0)]])  # d^2 = identity block
    with pytest.raises(ValueError, match="not a differential"):
        module_presentation(d)
    with pytest.raises(ValueError, match="square"):
        module_presentation(_mat([[(1.0, 0), (0, 0)]]))


def test_module_presentation_two_step():
    # presentation matrix diag(T^0, T^2) of Lambda0^2 -> Lambda0^2
    d = _mat([[(1.0, 0), (0, 0)], [(0, 0), (1.0, 2)]])
    dec = module_presentation(d, two_step=True)
    assert dec.free_rank == 0
    assert dec.torsion_exponents == (Fraction(2),)
    # a 1x2 surjective map leaves one free generator in the kernel
    d = _mat([[(1.0, 0), (1.0, 1)]])
    dec = module_presentation(d, two_step=True)
    assert dec.free_rank == 1
    assert dec.torsion_exponents == ()


def test_module_presentation_unit_pivot_cancellation():
    # rows are dependent at leading order; elimination must find the
    # second-order pivot T^1
    d = _mat(
        [
            [(1.0, 0), (1.0, 0)],
            [(1.0, 0), (1.0, 0), ],
        ]
    )
    dec = module_presentation(d, two_step=True)
    assert dec.free_rank == 1 + 1  # rank 1 map on a 2+2 complex
    d = _mat(
        [
            [(1.0, 0), (1.0, 0)],
            [(1.0, 0), (2.0, 0)],
        ]
    )
    dec = module_presentation(d, two_step=True)
    assert dec.free_rank == 0
    assert dec.torsion_exponents == ()
    # a pivot 1 + T that is not monomial: det = T, so the unit part of the
    # pivot decides the second invariant factor
    one = NovikovSeries.one()
    d = NovikovMatrix([[one + NovikovSeries.monomial(1), one], [one, one]])
    dec = module_presentation(d, two_step=True)
    assert dec.free_rank == 0
    assert dec.torsion_exponents == (Fraction(1),)


def test_near_zero_pivot_warns():
    d = _mat([[(1e-12, 0), (0, 0)], [(0, 0), (0, 0)]])
    dec = module_presentation(d, two_step=True)
    assert dec.warnings
    assert dec.free_rank == 2 + 2  # treated as the zero map


def test_torsion_just_below_truncation():
    d = _mat([[(0, 0), (1.0, Fraction(19, 2))], [(0, 0), (0, 0)]])
    dec = module_presentation(d)
    assert dec.torsion_exponents == (Fraction(19, 2),)


small_fracs = st.fractions(min_value=0, max_value=3).map(
    lambda f: f.limit_denominator(4)
)


@settings(max_examples=60, deadline=None)
@given(
    e1=small_fracs,
    e2=small_fracs,
    e3=small_fracs,
    c1=st.integers(-3, 3),
    c2=st.integers(-3, 3),
    c3=st.integers(-3, 3),
)
def test_multiplication_commutes_and_associates(e1, e2, e3, c1, c2, c3):
    a = NovikovSeries(((e1, c1),))
    b = NovikovSeries(((e2, c2),))
    c = NovikovSeries(((e3, c3),))
    assert ((a * b) - (b * a)).is_zero(tol=1e-12)
    assert (((a * b) * c) - (a * (b * c))).is_zero(tol=1e-12)


def _reference_smith_valuations(d, warnings):
    """Elimination by pivot inversion, as the package did before it went
    fraction-free; it takes about truncation / (exponent gap) steps per
    pivot, so it is only usable on coarse exponents."""
    work = [[s for s in row] for row in d.entries]
    nrows, ncols = len(work), len(work[0])
    active_rows = list(range(nrows))
    active_cols = list(range(ncols))
    pivots = []
    while active_rows and active_cols:
        best = None
        for i in active_rows:
            for j in active_cols:
                v = work[i][j].valuation()
                if v is not math.inf and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        v, pi, pj = best
        pivot = work[pi][pj]
        if abs(pivot.leading_coefficient()) < PIVOT_ZERO_TOL:
            warnings.append(
                f"near-zero pivot coefficient {abs(pivot.leading_coefficient()):.3g} "
                f"at ({pi},{pj}); treated as zero"
            )
            work[pi][pj] = NovikovSeries.zero(pivot.truncation)
            continue
        inv = pivot.invert()
        for i in active_rows:
            if i == pi:
                continue
            factor = work[i][pj] * inv
            if factor.is_zero():
                continue
            for j in active_cols:
                work[i][j] = work[i][j] - factor * work[pi][j]
        for j in active_cols:
            if j == pj:
                continue
            factor = work[pi][j] * inv
            if factor.is_zero():
                continue
            for i in active_rows:
                work[i][j] = work[i][j] - factor * work[i][pj]
        pivots.append(v)
        active_rows.remove(pi)
        active_cols.remove(pj)
    return sorted(pivots)


half_integers = st.integers(0, 8).map(lambda k: Fraction(k, 2))
gaussian_ints = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
# A quarter of these are scaled to 1e-12: far enough below PIVOT_ZERO_TOL
# that no sum of them becomes an accepted pivot, far enough above rounding
# residues to count as genuinely near zero.
some_near_zero = st.builds(
    operator.mul, gaussian_ints, st.sampled_from([1.0, 1.0, 1.0, 1e-12])
)


@st.composite
def novikov_matrices(draw, coefficients=gaussian_ints, rows=None):
    """1-4 x 1-4 matrices of independent 0-2 term series with exponents k/2."""
    series = st.lists(st.tuples(half_integers, coefficients), max_size=2).map(
        lambda terms: NovikovSeries(tuple(terms))
    )
    rows = rows or draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    return NovikovMatrix([[draw(series) for _ in range(cols)] for _ in range(rows)])


def _near_zero_pivots(warnings):
    """Count warnings for genuinely near-zero pivots.  An exact zero can
    leave a rounding residue (under 1e-13 on these inputs) that either
    elimination may prune or keep and reject, so those are not compared."""
    return sum(float(w.split()[3]) >= 1e-13 for w in warnings)


@settings(max_examples=200, deadline=None)
@given(d=novikov_matrices(some_near_zero))
def test_fraction_free_elimination_matches_inverting_reference(d):
    warnings, ref_warnings = [], []
    vals, _, _ = _smith_valuations(d, warnings)
    assert vals == _reference_smith_valuations(d, ref_warnings)
    assert _near_zero_pivots(warnings) == _near_zero_pivots(ref_warnings)


@st.composite
def conjugated_diagonals(draw):
    """(L @ D @ R, sorted exponents of D).  L and R are unitriangular over
    Lambda_0, hence invertible, and D is diagonal with unit coefficients and
    exponents k/2 (or zero entries), so D's exponents are exactly the
    invariant-factor valuations while the product cancels at every order."""
    n = draw(st.integers(1, 4))
    one, zero = NovikovSeries.one(), NovikovSeries.zero()
    entry = st.lists(
        st.tuples(st.integers(0, 4).map(lambda k: Fraction(k, 2)), gaussian_ints),
        max_size=2,
    ).map(lambda terms: NovikovSeries(tuple(terms)))
    diagonal = [
        draw(st.none() | st.integers(0, 6).map(lambda k: Fraction(k, 2)))
        for _ in range(n)
    ]

    def entry_at(i, j, below):
        if i == j:
            return one
        return draw(entry) if (i > j) == below else zero

    def d_entry(i, j):
        if i != j or diagonal[i] is None:
            return zero
        unit = draw(st.sampled_from([1, -1, 1j, -1j]))
        return NovikovSeries.monomial(diagonal[i], unit)

    L = NovikovMatrix([[entry_at(i, j, True) for j in range(n)] for i in range(n)])
    D = NovikovMatrix([[d_entry(i, j) for j in range(n)] for i in range(n)])
    R = NovikovMatrix([[entry_at(i, j, False) for j in range(n)] for i in range(n)])
    return L @ D @ R, sorted(e for e in diagonal if e is not None)


@settings(max_examples=200, deadline=None)
@given(case=conjugated_diagonals())
def test_elimination_recovers_conjugated_diagonal(case):
    d, exponents = case
    warnings = []
    vals, _, _ = _smith_valuations(d, warnings)
    assert vals == exponents
    assert warnings == []


def test_small_gap_gr24_fiber_finishes(deadline):
    t = Fraction(1, 10**12)
    for theta in (0.0, 0.3, 1.2, math.pi):
        with deadline(1.0):
            dec = module_presentation(m1b_gr24(1, t, 1j * theta))
        assert dec.free_rank == 0
        assert dec.torsion_exponents == (1 - t, 1 - t)
        assert dec.warnings == []


def test_small_gap_fl3_fiber_finishes(deadline):
    l1 = Fraction(1, 10)
    with deadline(1.0):
        dec = module_presentation(m1_fl3(l1, l1 + Fraction(1, 10**9)))
    assert dec.free_rank == 0
    assert dec.torsion_exponents == (l1,)


@pytest.mark.parametrize(
    "eps, free_rank, torsion",
    [(1e-13, 4, ()), (1e-10, 0, (Fraction(1), Fraction(1)))],
)
def test_pivot_decision_margins(eps, free_rank, torsion):
    dec = module_presentation(m1b_gr24(1, 0, 1j * math.pi / 2 + eps))
    assert dec.free_rank == free_rank
    assert dec.torsion_exponents == torsion
    if free_rank:
        # both pivots were rejected; |e^x + e^-x| = 2 |sinh(eps)|
        assert len(dec.warnings) == 2
        assert dec.min_pivot_coefficient == math.inf
        assert dec.max_rejected_pivot_coefficient == pytest.approx(
            2 * eps, rel=1e-2, abs=0
        )
    else:
        assert dec.warnings == []
        assert dec.min_pivot_coefficient == pytest.approx(
            2 * eps, rel=1e-2, abs=0
        )
        assert dec.max_rejected_pivot_coefficient == 0.0
    assert "min_pivot_coefficient" not in dec.to_dict()


def test_pivot_decision_margins_without_pivots():
    dec = module_presentation(_mat([[(0, 0), (0, 0)], [(0, 0), (0, 0)]]))
    assert dec.min_pivot_coefficient == math.inf
    assert dec.max_rejected_pivot_coefficient == 0.0


def _naive_matmul(a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = NovikovSeries.zero(min(a.truncation, b.truncation))
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return NovikovMatrix(out)


def _with_zero_lines(data, d):
    zero_rows = data.draw(st.sets(st.integers(0, d.rows - 1)))
    zero_cols = data.draw(st.sets(st.integers(0, d.cols - 1)))
    z = NovikovSeries.zero(d.truncation)
    return NovikovMatrix(
        [
            [z if i in zero_rows or j in zero_cols else s for j, s in enumerate(row)]
            for i, row in enumerate(d.entries)
        ]
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_matmul_matches_naive_loop(data):
    a = _with_zero_lines(data, data.draw(novikov_matrices()))
    b = _with_zero_lines(data, data.draw(novikov_matrices(rows=a.cols)))
    assert (a @ b).to_lists() == _naive_matmul(a, b).to_lists()


def _reference_monomial_oracle(rows, cols, entries, truncation=Fraction(10)):
    """verify._monomial_oracle before it cached signs and summed integers:
    inversions recounted for every permutation of every minor, exponents
    summed as Fractions."""

    def minor_valuation(rsel, csel):
        acc = {}
        size = len(rsel)
        for perm in itertools.permutations(range(size)):
            inv = sum(1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b])
            coeff = (-1.0) ** inv
            exp = Fraction(0)
            ok = True
            for a in range(size):
                c, e = entries[(rsel[a], csel[perm[a]])]
                if c == 0:
                    ok = False
                    break
                coeff *= c
                exp += e
            if not ok:
                continue
            acc[exp] = acc.get(exp, 0.0) + coeff
        vals = [e for e, c in acc.items() if abs(c) > 1e-9 and e < truncation]
        return min(vals) if vals else None

    divisors = []
    for r in range(1, min(rows, cols) + 1):
        best = None
        for rsel in itertools.combinations(range(rows), r):
            for csel in itertools.combinations(range(cols), r):
                v = minor_valuation(rsel, csel)
                if v is not None and (best is None or v < best):
                    best = v
        if best is None:
            break
        divisors.append(best)
    factors = []
    prev = Fraction(0)
    for d in divisors:
        factors.append(d - prev)
        prev = d
    rank = len(factors)
    return (rows - rank) + (cols - rank), tuple(sorted(e for e in factors if e > 0))


def _mixed_denominator_cases(n_cases):
    # thirds and sixths, and exponents at and beyond the truncation T^10
    rng = random.Random(5)
    exponents = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), Fraction(19, 2),
                 Fraction(10), Fraction(12)]
    coeffs = [0.0, 1.0, -1.0, 2.0, 1.0 + 1.0j]
    cases = []
    for _ in range(n_cases):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        cases.append((rows, cols, {(i, j): (rng.choice(coeffs), rng.choice(exponents))
                                   for i in range(rows) for j in range(cols)}))
    return cases


def test_monomial_oracle_matches_its_reference():
    cases = verify._oracle_cases(200) + _mixed_denominator_cases(60)
    for rows, cols, entries in cases:
        assert verify._monomial_oracle(rows, cols, entries) == \
            _reference_monomial_oracle(rows, cols, entries)
