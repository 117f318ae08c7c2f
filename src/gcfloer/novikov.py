"""Arithmetic in the Novikov ring and module decompositions.

Elements are truncated formal sums sum_i a_i T^{e_i} with exact rational
exponents e_i and complex double coefficients a_i.  Exponents are kept exact
(fractions.Fraction) because torsion exponents of Floer cohomology modules
are the payload of the whole computation; coefficients only ever need to be
distinguished from zero.

Module decompositions come from fraction-free elimination over Lambda_0:
each step scales the other rows by the unit part of the pivot and subtracts
a Lambda_0 multiple of the pivot row, so no series is ever inverted and the
cost does not depend on how small the exponent gaps are.

The Floer differentials of the reference fibers (m1_fl3, m1b_gr24,
delta_pair_gr24) are built here from their closed forms.  This module
needs no numpy, so the floer command runs without it.
"""

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_TRUNCATION = Fraction(10)
COEFF_PRUNE = 1e-14
PIVOT_ZERO_TOL = 1e-10
SQUARE_ZERO_TOL = 1e-12  # largest |coefficient| of d @ d that still counts as d^2 = 0


def as_fraction(x):
    """Convert x to an exact Fraction.

    Floats go through their shortest decimal repr, so as_fraction(0.3) is
    exactly 3/10.  Integers are any numbers.Integral (numpy's int64 too).
    Strings accept "p/q" and decimal forms.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):  # numpy's float64 too, whose repr names its type
        return Fraction(float.__repr__(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, numbers.Integral):  # numpy's integers, which are not int
        return Fraction(int(x))
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def _modulus(z):
    """|z|, or ValueError when it is not a finite double."""
    try:
        size = abs(z)
    except OverflowError:  # both parts are finite, the modulus is not
        size = math.inf
    if not size < math.inf:  # inf or nan
        raise ValueError(f"coefficient {z} has no finite modulus")
    return size


@dataclass(frozen=True)
class NovikovSeries:
    """A truncated Novikov series: sorted (exponent, coefficient) pairs.  A
    coefficient (after merging) without a finite modulus raises ValueError."""

    terms: tuple = ()
    truncation: Fraction = DEFAULT_TRUNCATION

    def __post_init__(self):
        trunc = as_fraction(self.truncation)
        merged = {}
        for exp, coeff in self.terms:
            exp = as_fraction(exp)
            merged[exp] = merged.get(exp, 0.0 + 0.0j) + complex(coeff)
        cleaned = tuple(
            (exp, merged[exp])
            for exp in sorted(merged)
            if _modulus(merged[exp]) >= COEFF_PRUNE and exp < trunc
        )
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "truncation", trunc)

    @classmethod
    def zero(cls, truncation=DEFAULT_TRUNCATION):
        return cls((), truncation)

    @classmethod
    def one(cls, truncation=DEFAULT_TRUNCATION):
        return cls(((Fraction(0), 1.0 + 0.0j),), truncation)

    @classmethod
    def monomial(cls, exp, coeff=1.0, truncation=DEFAULT_TRUNCATION):
        return cls(((as_fraction(exp), complex(coeff)),), truncation)

    def is_zero(self, tol=0.0):
        return all(abs(c) <= tol for _, c in self.terms)

    def valuation(self):
        """Least exponent; +inf for the zero series."""
        if not self.terms:
            return math.inf
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise ZeroDivisionError("zero series has no leading coefficient")
        return self.terms[0][1]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        return NovikovSeries(self.terms + other.terms, trunc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return NovikovSeries(tuple((e, -c) for e, c in self.terms), self.truncation)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        prods = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if e < trunc:
                    prods.append((e, c1 * c2))
        return NovikovSeries(tuple(prods), trunc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scalar_mul(self, scalar):
        return NovikovSeries(
            tuple((e, c * complex(scalar)) for e, c in self.terms), self.truncation
        )

    def shift(self, exp):
        """Multiply by T^exp (exp may be negative)."""
        exp = as_fraction(exp)
        return NovikovSeries(tuple((e + exp, c) for e, c in self.terms), self.truncation)

    def invert(self):
        """Multiplicative inverse; may leave Lambda_0 (negative exponents).

        The unit part is inverted by a geometric series of about
        truncation / val(r) steps, where r is the unit part minus 1, so a
        small exponent gap makes this slow (val(r) = 1e-12 is out of reach).
        Module decompositions no longer call it.
        """
        if not self.terms:
            raise ZeroDivisionError("cannot invert the zero series")
        v = self.terms[0][0]
        c0 = self.terms[0][1]
        # a = c0 T^v (1 + r) with val(r) > 0; invert the unit part by a
        # geometric series, which terminates below the truncation.
        r = NovikovSeries(
            tuple((e - v, c / c0) for e, c in self.terms[1:]), self.truncation
        )
        result = NovikovSeries.one(self.truncation)
        power = NovikovSeries.one(self.truncation)
        rv = r.valuation()
        if rv is not math.inf:
            n_terms = int(self.truncation / rv) + 1
            for _ in range(n_terms):
                power = power * (-r)
                if power.is_zero():
                    break
                result = result + power
        return result.scalar_mul(1.0 / c0).shift(-v)

    def to_lists(self):
        return [
            [e.numerator, e.denominator, c.real, c.imag] for e, c in self.terms
        ]

    def _coerce(self, other):
        if isinstance(other, NovikovSeries):
            return other
        if isinstance(other, (int, float, complex)):
            return NovikovSeries.monomial(0, other, self.truncation)
        return NotImplemented


@dataclass
class NovikovMatrix:
    """Dense matrix of Novikov series with a shared truncation."""

    entries: list  # list of rows of NovikovSeries

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must be non-empty")
        trunc = min(s.truncation for row in self.entries for s in row)
        self.entries = [
            [NovikovSeries(s.terms, trunc) for s in row] for row in self.entries
        ]

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    @property
    def truncation(self):
        return self.entries[0][0].truncation

    def __matmul__(self, other):
        """Matrix product.

        Products with an empty factor are skipped, and each entry is built
        once from the remaining products' terms in k order.  That merges
        equal exponents in the same order as adding the products one at a
        time, so the result is the same unless a partial sum falls below
        COEFF_PRUNE.
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        trunc = min(self.truncation, other.truncation)
        out = []
        for row in self.entries:
            out_row = []
            for j in range(other.cols):
                terms = ()
                for x, other_row in zip(row, other.entries):
                    y = other_row[j]
                    if x.terms and y.terms:
                        terms += (x * y).terms
                out_row.append(NovikovSeries(terms, trunc))
            out.append(out_row)
        return NovikovMatrix(out)

    def is_zero(self, tol=0.0):
        return all(s.is_zero(tol) for row in self.entries for s in row)

    def to_lists(self):
        return [[s.to_lists() for s in row] for row in self.entries]


@dataclass
class NovikovModuleDecomp:
    """H = Lambda_0^free_rank + sum_i Lambda_0 / T^{e_i} Lambda_0.

    min_pivot_coefficient is the smallest |leading coefficient| of an
    accepted pivot (inf when none was accepted) and
    max_rejected_pivot_coefficient the largest one treated as zero (0.0 when
    none was); both measure how close the answer came to flipping at
    PIVOT_ZERO_TOL.  They are not part of to_dict().
    """

    free_rank: int
    torsion_exponents: tuple
    warnings: list = field(default_factory=list)
    min_pivot_coefficient: float = math.inf
    max_rejected_pivot_coefficient: float = 0.0

    def lambda_rank(self):
        """Rank after inverting T (over the Novikov field)."""
        return self.free_rank

    def to_dict(self):
        return {
            "free_rank": self.free_rank,
            "torsion": [[e.numerator, e.denominator] for e in self.torsion_exponents],
        }


def _smith_valuations(d, warnings):
    """Pivot valuations of d by fraction-free elimination over Lambda_0.

    Lambda_0 is a valuation ring, so any minimum-valuation entry
    p = c0 T^v u (u a unit with leading coefficient 1) is a valid pivot.
    Every other active row i becomes u row_i - (a_{i,pj} / (c0 T^v)) row_pi.
    Both factors lie in Lambda_0 and u is a unit, so each new row is u times
    the row ordinary elimination gives: valuations and leading coefficients
    are unchanged, but no series is inverted.  The pivot row and column then
    retire, so the pivot column is never updated or read again.

    Returns (sorted pivot valuations, smallest accepted |leading
    coefficient|, largest |leading coefficient| treated as zero), the last
    two inf and 0.0 when there is no such pivot.
    """
    work = [list(row) for row in d.entries]
    active_rows = list(range(d.rows))
    active_cols = list(range(d.cols))
    pivots = []
    min_accepted, max_rejected = math.inf, 0.0
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
        c0 = pivot.leading_coefficient()
        if abs(c0) < PIVOT_ZERO_TOL:
            warnings.append(
                f"near-zero pivot coefficient {abs(c0):.3g} "
                f"at ({pi},{pj}); treated as zero"
            )
            max_rejected = max(max_rejected, abs(c0))
            work[pi][pj] = NovikovSeries.zero(pivot.truncation)
            continue
        min_accepted = min(min_accepted, abs(c0))
        unit = pivot.shift(-v).scalar_mul(1.0 / c0)
        active_rows.remove(pi)
        active_cols.remove(pj)
        for i in active_rows:
            factor = work[i][pj].shift(-v).scalar_mul(1.0 / c0)
            if factor.is_zero():
                continue
            for j in active_cols:
                work[i][j] = unit * work[i][j] - factor * work[pi][j]
        pivots.append(v)
    return sorted(pivots), min_accepted, max_rejected


def module_presentation(d, two_step=False, ring="Lambda0"):
    """Decompose the homology of d over the Novikov ring.

    With two_step=False, d must be a square matrix with d @ d = 0 (every
    coefficient of d @ d at most SQUARE_ZERO_TOL) and the result is
    ker(d)/im(d).  With two_step=True, d is an arbitrary
    presentation matrix of a two-step complex and the result is
    ker(d) + coker(d).  Either way the answer is a free part plus torsion
    pieces Lambda_0 / T^{e} Lambda_0 read off from the pivot valuations.

    ring="Lambda" reports the result after inverting T (all torsion dies).
    """
    if ring not in ("Lambda0", "Lambda"):
        raise ValueError("ring must be 'Lambda0' or 'Lambda'")
    warnings = []
    if not two_step:
        if d.rows != d.cols:
            raise ValueError("a differential must be square (or pass two_step=True)")
        sq = d @ d
        if not sq.is_zero(SQUARE_ZERO_TOL):
            raise ValueError("not a differential: d @ d != 0 within truncation")
    vals, min_accepted, max_rejected = _smith_valuations(d, warnings)
    r = len(vals)
    torsion = tuple(sorted(v for v in vals if v > 0))
    if two_step:
        free = (d.rows - r) + (d.cols - r)
    else:
        # ker/im of a square-zero d: rank n - 2r free plus one torsion piece
        # per nonzero pivot valuation.
        free = d.rows - 2 * r
        if free < 0:
            raise ValueError("rank exceeds what a square-zero differential allows")
    if ring == "Lambda":
        torsion = ()
    return NovikovModuleDecomp(
        free,
        torsion,
        warnings,
        min_pivot_coefficient=min_accepted,
        max_rejected_pivot_coefficient=max_rejected,
    )


# ---------------------------------------------------------------------------
# Floer differentials of the reference fibers

_E709 = math.exp(709)


def _cexp(z):
    """e^z for finite z, bit for bit as np.exp gives it through glibc's cexp:
    cos and sin of Im z are scaled by e^709 (at most twice) while Re z
    exceeds 709, so that e^z stays finite wherever its parts fit in a
    double; beyond 3 * 709 the result is DBL_MAX times the scaled cos and
    sin, whose real part is infinite."""
    re, c, s = z.real, math.cos(z.imag), math.sin(z.imag)
    for _ in range(2):
        if re > 709:
            re -= 709
            c, s = c * _E709, s * _E709
    ev = math.exp(re) if re <= 709 else sys.float_info.max
    return complex(ev * c, ev * s)


def _below_truncation(valuation):
    """Reject an entry whose leading term NovikovSeries would cut away,
    which would turn the differential into 0."""
    if valuation >= DEFAULT_TRUNCATION:
        raise ValueError(
            f"differential entry starts at T^{valuation}, at or above the "
            f"series truncation T^{DEFAULT_TRUNCATION}"
        )


def m1_fl3(l1, l2):
    """Floer differential of the S^3 fiber on the basis (e0, e3):
    e3 -> (T^{l1} + T^{l2}) e0; raises ValueError when min(l1, l2) reaches
    DEFAULT_TRUNCATION.

    The + sign comes from the orientations of the disk classes beta1 and
    beta2, and at l1 = l2 it decides the answer: 2 T^{l1} gives torsion
    [l1], while T^{l1} - T^{l1} = 0 would give a free module of rank 2.
    For l1 != l2 the entry has valuation min(l1, l2) with either sign."""
    l1 = as_fraction(l1)
    l2 = as_fraction(l2)
    if l1 <= 0 or l2 <= 0:
        raise ValueError("l1, l2 must be positive")
    _below_truncation(min(l1, l2))
    f = NovikovSeries(((l1, 1.0), (l2, 1.0)))
    z = NovikovSeries.zero()
    return NovikovMatrix([[z, f], [z, z]])


def m1b_gr24(lam, t, x):
    """Deformed Floer differential of the U(2) fiber L_t on the basis
    (e0, e1, e3, e1 e3): e3 -> f e0 and e1 e3 -> f e1 with
    f = e^x T^{lam + t} + e^{-x} T^{lam - t}; raises ValueError when e^x or
    e^{-x} overflows (a part or the modulus exceeds the largest double) or
    lam - |t| reaches DEFAULT_TRUNCATION."""
    lam = as_fraction(lam)
    t = as_fraction(t)
    if not -lam < t < lam:
        raise ValueError("need -lam < t < lam")
    _below_truncation(lam - abs(t))
    x = complex(x)
    # a non-finite x leaves e^x or e^-x non-finite, as np.exp does
    hol = (_cexp(x), _cexp(-x)) if cmath.isfinite(x) else (x, x)
    try:
        f = NovikovSeries(((lam + t, hol[0]), (lam - t, hol[1])))
    except ValueError:
        raise ValueError(f"holonomy e^(+-x) overflows at x = {x}") from None
    z = NovikovSeries.zero()
    return NovikovMatrix(
        [
            [z, z, f, z],
            [z, z, z, f],
            [z, z, z, z],
            [z, z, z, z],
        ]
    )


def delta_pair_gr24(lam):
    """Floer differential of the pair (L_0, +b), (L_0, -b) at b = i pi/2 e1:
    e3 -> (16/3pi) T^lam e0 and e1 e3 -> (32/3pi) T^lam e1.

    The coefficients are the closed forms; 2 pair_series(K), the disk-count
    quadrature summed over both disk classes, reproduces 16/(3 pi), which
    verify check 06 holds to 1e-9.  Raises ValueError when lam reaches
    DEFAULT_TRUNCATION."""
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    _below_truncation(lam)
    coeff = 16.0 / (3.0 * math.pi)
    f1 = NovikovSeries(((lam, coeff),))
    f2 = NovikovSeries(((lam, 2.0 * coeff),))
    z = NovikovSeries.zero()
    return NovikovMatrix(
        [
            [z, z, f1, z],
            [z, z, z, f2],
            [z, z, z, z],
            [z, z, z, z],
        ]
    )
