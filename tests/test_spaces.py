"""The reference-space records: each space's map from parameters to its
eigenvalue profile, pinned to hard-coded profiles, and verify's per-space
tables, keyed by the registry."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from gcfloer import verify
from gcfloer.gc_core import build_polytope, classify_fiber
from gcfloer.spaces import SPACES, UNIT

PARAMS = SimpleNamespace(l1=Fraction(3, 10), l2=Fraction(7, 10), lam=Fraction(3, 2))


@pytest.mark.parametrize("params,name,want", [
    (UNIT, "Fl3", (1, 0, -1)),
    (UNIT, "Gr24", (2, 2, 0, 0)),
    (UNIT, "Gr25", (1, 1, 0, 0, 0)),
    (PARAMS, "Fl3", (Fraction(3, 10), 0, Fraction(-7, 10))),
    (PARAMS, "Gr24", (3, 3, 0, 0)),
    (PARAMS, "Gr25", (Fraction(3, 2), Fraction(3, 2), 0, 0, 0)),
])
def test_profile_of_each_space(params, name, want):
    # Fl3 is the orbit of diag(l1, 0, -l2), Gr24 of diag(2 lam, 2 lam, 0, 0)
    # and Gr25 of diag(lam, lam, 0, 0, 0)
    values = SPACES[name].profile(params).values
    assert values == want
    assert all(type(v) is Fraction for v in values)


def test_block_maps_convert_parameters_before_arithmetic():
    # as_fraction reads "p/q" strings too; 2 * "3/2" would repeat the string
    # and -"7/10" would raise, so each block map converts first
    params = SimpleNamespace(l1="3/10", l2="7/10", lam="3/2")
    for name, space in SPACES.items():
        assert space.profile(params) == space.profile(PARAMS), name


def test_verify_tables_cover_every_space():
    # a space missing from one of these tables would go unchecked there
    for table in (verify._STARTS, verify._EXPECTED_TERMS, verify._QH_T0,
                  verify._FIBER_POINTS):
        assert set(table) == set(SPACES)


def test_fiber_points_name_every_stratum_row():
    # classify_fiber names a point by the first row it matches: with rows[:j]
    # only, the point is unknown for j up to that row's index and named after
    # it; every row of every space is the first match at one of its points
    for name, space in SPACES.items():
        polytope = build_polytope(space.shape, space.profile(UNIT))
        named = set()
        for u in verify._FIBER_POINTS[name]:
            kinds = [classify_fiber(polytope, u, space.strata[:j]).kind
                     for j in range(len(space.strata) + 1)]
            named.add(next(j for j, kind in enumerate(kinds)
                           if kind != "unknown-nonsmooth") - 1)
        assert named == set(range(len(space.strata))), name
