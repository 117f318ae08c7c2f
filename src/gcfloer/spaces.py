"""The reference spaces Fl(3), Gr(2,4) and Gr(2,5), each defined once.

A Space holds its flag shape, its block values as a function of the
parameters, the closed forms of its critical points and values, c1 at the
quantum parameters, its non-torus strata and its Floer differential.
Parameters come from any object with l1, l2 and lam attributes (an argparse
namespace, or UNIT); a differential may read more (Gr24: t, x_re, x_im, pair).
Importing this module runs only flags and novikov: floer loads no numpy.
"""

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from . import flags, novikov, potential, qh
from .flags import as_fraction

UNIT = SimpleNamespace(l1=1, l2=1, lam=1)


@dataclass(frozen=True)
class Stratum:
    """The fibers over the points u with these diamonds (gc_core.detect_diamonds)
    and sphere dimensions (gc_core.fiber_structure).  Where those two cannot
    tell rows apart, where(u, blocks, tol) must hold too, blocks being the
    profile's block values as floats, top first."""

    diamonds: tuple
    spheres: tuple
    kind: str  # S3 | U2 | U2xT2
    annotations: tuple = ()
    where: Callable = None


@dataclass(frozen=True)
class Space:
    name: str
    shape: flags.FlagShape
    blocks: Callable  # params -> one value per block of the shape, top first
    strata: tuple = ()  # Stratum rows, tried in order
    floer: Callable = None  # params -> (label, Floer differential)
    out_of_scope: str = ""  # why a space without floer has none
    pad_zeros: bool = False  # c1 has zero eigenvalues with no critical point
    # a one-step shape derives those left None
    candidates: Callable = None  # params -> closed-form CriticalCandidates
    critical_values: Callable = None  # (params, T0) -> critical values at T0
    c1_eigenvalues: Callable = None  # q, one value per step -> sorted c1 eigenvalues

    def __post_init__(self):
        if len(self.shape.steps) != 1:
            return
        (k,), n = self.shape.steps, self.shape.ambient  # Gr(k, n): Rietsch's formulas
        derived = {
            "candidates": lambda p: potential.grassmannian_critical_candidates(
                k, n, *self.blocks(p)),
            "critical_values": lambda p, T0: potential.grassmannian_critical_values(
                k, n, *self.blocks(p), T0),
            "c1_eigenvalues": lambda q: qh.c1_eigenvalues_grassmannian(k, n, *q),
        }
        for field, fn in derived.items():
            if getattr(self, field) is None:
                object.__setattr__(self, field, fn)

    def profile(self, params):
        return flags.EigenProfile.from_blocks(self.shape, self.blocks(params))

    @property
    def q_flags(self):
        """Names of the quantum parameters, one per step of the flag."""
        r = len(self.shape.steps)
        return ("q",) if r == 1 else tuple(f"q{j}" for j in range(1, r + 1))

    def quantum_parameters(self, profile, T0):
        """q_j = T0^(lambda_{n_j} - lambda_{n_j + 1}) for each step n_j;
        raises ValueError for a gap beyond the largest float, and for a q_j
        that underflows to 0 or a subnormal: every critical value and c1
        eigenvalue would then be 0 or nearly so, and a match vacuous."""
        try:
            gaps = [float(profile.value(n) - profile.value(n + 1)) for n in self.shape.steps]
        except OverflowError:
            raise ValueError("a profile gap exceeds the largest float") from None
        q = tuple(T0**gap for gap in gaps)
        if not all(abs(v) >= sys.float_info.min for v in q):
            raise ValueError(
                f"a quantum parameter T0^gap is 0 or subnormal at T0 = {T0} (gaps {gaps})")
        return q

    def check_c1_finite(self, q):
        """Raise ValueError, naming the flags of the q_j beyond 1, when an
        entry of c1 at the exact parameters q exceeds the largest float."""
        entries = {}
        for degrees, mat in qh.c1_matrix(self.shape).coeffs.items():
            scale = math.prod(v**d for v, d in zip(q, degrees))
            for r, row in enumerate(mat.tolist()):
                for c, m in enumerate(row):
                    entries[r, c] = entries.get((r, c), 0) + m * scale
        if max(map(abs, entries.values())) > sys.float_info.max:
            big = ", ".join(f"--{f}" for f, v in zip(self.q_flags, q) if abs(v) > 1)
            raise ValueError(f"{big} too large: an entry of c1 exceeds the largest float")

    def match_c1(self, params, T0, tol):
        """Critical values at T0 against the c1 eigenvalues at the matching q.

        The multisets are compared at tol min(1, M), M the largest modulus
        across both: once every value lies below tol, an absolute tol would
        pair anything with anything.  Where M = 0 (every value an exact
        zero) the comparison is at tol.  The quantum parameters are checked
        before the critical values are built, so a q_j that leaves the
        normal doubles is named as such.  Returns (values, eigenvalues,
        matched, pairing), the last two as from qh.multiset_match.
        """
        profile = self.profile(params)
        profile.validate(self.shape)
        q = self.quantum_parameters(profile, T0)
        values = self.critical_values(params, T0)
        eigs = self.c1_eigenvalues(q)
        scale = min(1.0, max(map(abs, [*values, *eigs]), default=0.0)) or 1.0
        matched, pairing = qh.multiset_match(
            values, eigs, tol * scale, allow_zero_padding=self.pad_zeros
        )
        return values, eigs, matched, pairing


# ---------------------------------------------------------------------------
# Fl(3): the orbit of diag(l1, 0, -l2)


def _fl3_candidates(p):
    if p.l1 != p.l2:
        raise ValueError(
            "closed-form candidates for Fl3 require l1 == l2 "
            "(otherwise the critical points are not Novikov monomials)"
        )
    return potential.fl3_critical_candidates(p.l1)


def _fl3_critical_values(p, T0):
    space = SPACES["Fl3"]
    po = potential.build_potential(space.shape, space.profile(p))
    points = potential.fl3_critical_points(p.l1, p.l2, T0)
    return [potential.evaluate(po, y, T0) for y in points]


# ---------------------------------------------------------------------------
# Gr(2,4): the orbit of diag(2 lam, 2 lam, 0, 0); Gr(2,5): of diag(lam, lam, 0, 0, 0)


def _gr24_floer(p):
    if p.pair:
        return f"delta_pair_gr24({p.lam})", novikov.delta_pair_gr24(p.lam)
    x = complex(float(p.x_re), float(p.x_im))
    return f"m1b_gr24({p.lam}, {p.t}, x={x})", novikov.m1b_gr24(p.lam, p.t, x)


_DISPLACEABLE = ("displaceable", "HF vanishes over Lambda")

SPACES = {space.name: space for space in (
    Space("Fl3", flags.FlagShape((1, 2), 3),
          lambda p: (as_fraction(p.l1), 0, -as_fraction(p.l2)),
          # the S^3 fiber over u = (0, 0, 0), the middle block value
          strata=(Stratum(((2, 1),), (3,), "S3"),),
          floer=lambda p: (f"m1_fl3({p.l1}, {p.l2})", novikov.m1_fl3(p.l1, p.l2)),
          candidates=_fl3_candidates, critical_values=_fl3_critical_values,
          c1_eigenvalues=lambda q: qh.fl3_c1_eigenvalues(*q)),
    Space("Gr24", flags.grassmannian_shape(2, 4), lambda p: (2 * as_fraction(p.lam), 0),
          # the U(2) fiber L_t over u = (lam + t, ...): floer's t is u - lam, the
          # profile's middle; displaceable off the middle level
          strata=(Stratum(((2, 1),), (3, 1), "U2",
                          where=lambda u, b, tol: abs(u[0] - (b[0] + b[-1]) / 2.0) <= tol),
                  Stratum(((2, 1),), (3, 1), "U2", ("displaceable",))),
          floer=_gr24_floer, pad_zeros=True),
    Space("Gr25", flags.grassmannian_shape(2, 5), lambda p: (as_fraction(p.lam), 0),
          # L1(s1, s2, t) over u = (s2, s1, t, t, t, t), lam > s1 > s2 > t > 0,
          # and L2(s1, s2, t) over u = (t, t, t, t, s1, s2), 0 < s1 < s2 < t < lam
          strata=(Stratum(((2, 1),), (3, 1, 1, 1), "U2xT2", _DISPLACEABLE),
                  Stratum(((3, 1),), (3, 1, 1, 1), "U2xT2", _DISPLACEABLE),
                  # over u = (t, ..., t): isotropic, not Lagrangian
                  Stratum(((2, 1), (3, 1)), (3, 1), "U2")),
          out_of_scope="vanishing follows from displaceability"),
)}
