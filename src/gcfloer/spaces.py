"""The reference spaces Fl(3), Gr(2,4) and Gr(2,5), each defined once.

Parameters come from any object with l1, l2 and lam attributes (an argparse
namespace, or UNIT); Fl3 reads l1 and l2. A Grassmannian (name, k, n, profile)
reads lam; its closed forms come from one formula for every Gr(k, n) in potential.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from . import flags, potential, qh

UNIT = SimpleNamespace(l1=1, l2=1, lam=1)


@dataclass(frozen=True)
class Space:
    name: str
    shape: flags.FlagShape
    profile: Callable  # params -> EigenProfile
    candidates: Callable  # params -> closed-form CriticalCandidates
    critical_values: Callable  # (params, T0) -> critical values at T0
    c1_eigenvalues: Callable  # q, one value per step -> sorted c1 eigenvalues
    pad_zeros: bool = False  # c1 has zero eigenvalues with no critical point

    @property
    def q_flags(self):
        """Names of the quantum parameters, one per step of the flag."""
        r = len(self.shape.steps)
        return ("q",) if r == 1 else tuple(f"q{j}" for j in range(1, r + 1))

    def quantum_parameters(self, profile, T0):
        """q_j = T0^(lambda_{n_j} - lambda_{n_j + 1}) for each step n_j."""
        return tuple(T0 ** float(profile.value(n) - profile.value(n + 1))
                     for n in self.shape.steps)

    def match_c1(self, params, T0, tol):
        """Critical values at T0 against the c1 eigenvalues at the matching q.

        Returns (values, eigenvalues, matched, pairing), the last two as
        from qh.multiset_match.
        """
        profile = self.profile(params)
        profile.validate(self.shape)
        values = self.critical_values(params, T0)
        eigs = self.c1_eigenvalues(self.quantum_parameters(profile, T0))
        matched, pairing = qh.multiset_match(
            values, eigs, tol, allow_zero_padding=self.pad_zeros
        )
        return values, eigs, matched, pairing


def _fl3_candidates(p):
    if p.l1 != p.l2:
        raise ValueError(
            "closed-form candidates for Fl3 require l1 == l2 "
            "(otherwise the critical points are not Novikov monomials)"
        )
    return potential.fl3_critical_candidates(p.l1)


def _fl3_critical_values(p, T0):
    po = potential.build_potential(flags.fl3_shape(), flags.fl3_profile(p.l1, p.l2))
    points = potential.fl3_critical_points(p.l1, p.l2, T0)
    return [potential.evaluate(po, y, T0) for y in points]


def _grassmannian(name, k, n, profile, pad_zeros=False):
    def blocks(p):
        return profile(p.lam).value(1), profile(p.lam).value(n)

    return Space(name, flags.grassmannian_shape(k, n), lambda p: profile(p.lam),
                 lambda p: potential.grassmannian_critical_candidates(k, n, *blocks(p)),
                 lambda p, T0: potential.grassmannian_critical_values(k, n, *blocks(p), T0),
                 lambda q: qh.c1_eigenvalues_grassmannian(k, n, *q), pad_zeros)


SPACES = {space.name: space for space in (
    Space("Fl3", flags.fl3_shape(), lambda p: flags.fl3_profile(p.l1, p.l2),
          _fl3_candidates, _fl3_critical_values, lambda q: qh.fl3_c1_eigenvalues(*q)),
    _grassmannian("Gr24", 2, 4, flags.gr24_profile, pad_zeros=True),
    _grassmannian("Gr25", 2, 5, flags.gr25_profile),
)}
