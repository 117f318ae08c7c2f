"""The Landau-Ginzburg potential of Gelfand-Cetlin torus fibers, as exact terms.

The potential is a Laurent polynomial in the fiber variables
y_i^{(k)} = e^{x_i^{(k)}} T^{u_i^{(k)}}, one term per facet of the
Gelfand-Cetlin polytope (upper >= lower becomes y_upper / y_lower, with
constant entries lambda_{n_j} entering as Q_j = T^{lambda_{n_j}}).  The
terms are exact: integer y-exponents and Fraction T-exponents.  This
module needs no numpy, so the potential command runs without it; the
numeric solver that works on these terms is in potential.
"""

from dataclasses import dataclass
from fractions import Fraction

from .gc_core import build_polytope
from .flags import as_fraction


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
