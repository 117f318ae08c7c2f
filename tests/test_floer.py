import importlib.util
import json
import math
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcfloer import floer
from gcfloer.floer import (
    disk_area,
    displacement_energy_bound,
    fl3_disk,
    gr_disk,
    involution_fl3,
    involution_gr24,
    open_gw_integral,
    pair_integral,
    plucker_of_frame,
    projective_equal,
)
from gcfloer.gc_core import fiber_point, gc_map
from gcfloer.numerics import integrate_periodic
from gcfloer.novikov import (
    COEFF_PRUNE,
    NovikovMatrix,
    NovikovSeries,
    delta_pair_gr24,
    m1_fl3,
    m1b_gr24,
    module_presentation,
)
from gcfloer.spaces import SPACES, UNIT


# ---------------------------------------------------------------------------
# disks


def test_fl3_disk_stays_on_flag_variety():
    d = fl3_disk([-0.28 + 0.96j, 0.0], +1, 1.3, 0.8)
    for z in (0.2 + 0.7j, -3.0 + 0.01j, 5.0 + 2.0j):
        assert d.plucker_residual(z) < 1e-10
    assert abs(abs(d.c) - 1.0) < 1e-12
    assert d.c.imag > 0
    assert fl3_disk([-1.0, 0.0], -1).c.imag < 0


def test_fl3_disk_boundary_on_fixed_locus():
    d = fl3_disk([0.6j, 0.8], +1, 1.0, 2.0)
    for x in (-4.0, 0.0, 0.3, 11.0):
        p, q = d.evaluate(x)
        ip, iq = involution_fl3((p, q), 1.0, 2.0)
        assert projective_equal(p, ip) and projective_equal(q, iq)


def test_fl3_disk_input_validation():
    with pytest.raises(ValueError):
        fl3_disk([1.0, 0.0], +1)  # a1 = 1 is degenerate
    with pytest.raises(ValueError):
        fl3_disk([0.5, 0.5], +1)  # not unit
    with pytest.raises(ValueError):
        fl3_disk([-1.0, 0.0], 2)


def test_fl3_disk_areas_are_the_weights():
    d1 = fl3_disk([-1.0, 0.0], +1, 1.3, 0.8)
    d2 = fl3_disk([-1.0, 0.0], -1, 1.3, 0.8)
    assert d1.disk_class.label == "beta1"
    assert d2.disk_class.label == "beta2"
    assert abs(disk_area(d1) - 1.3) < 1e-5
    assert abs(disk_area(d2) - 0.8) < 1e-5
    assert d1.disk_class.maslov == 4


def test_gr_disk_boundary_unitary_and_winding():
    lam, t = 1.0, 0.25
    d = gr_disk(2, [0.6, 0.8j], np.exp(-0.4j), lam, t)
    for x in (-7.0, 0.0, 2.5):
        assert d.unitarity_defect(x) < 1e-10
    assert d.disk_class.label == "beta1"
    assert abs(d.winding_number()) == 1
    d2 = gr_disk(2, [0.6, 0.8j], np.exp(0.4j), lam, t)
    assert d2.disk_class.label == "beta2"
    assert d2.winding_number() == -d.winding_number()


def test_gr_disk_schubert_special_case():
    lam, t = 1.0, 0.25
    d = gr_disk(2, [1.0, 0.0], -1j, lam, t)
    s = math.sqrt((lam + t) / (lam - t))
    for z in (0.3 + 0.5j, -1.0 + 2.0j):
        got = np.array([np.polyval(np.array(c)[::-1], z) for c in d.plucker_polys()])
        want = np.array([s * (z - 1j), 0.0, z - 1j, -(z + 1j), 0.0, (z + 1j) / s])
        assert projective_equal(got, want)


def test_gr_disk_plucker_consistent_with_frames():
    lam, t = 1.0, -0.3
    d = gr_disk(2, [0.48 + 0.6j, 0.64], np.exp(1.1j), lam, t)
    P, Q = d.pq_polys()
    for z in (0.7 + 0.2j, -2.0 + 1.0j):
        frame = np.vstack(
            [
                np.array([[np.polyval(P[i, j][::-1], z) for j in range(2)] for i in range(2)]),
                np.array([[np.polyval(Q[i, j][::-1], z) for j in range(2)] for i in range(2)]),
            ]
        )
        got = np.array([np.polyval(np.array(c)[::-1], z) for c in d.plucker_polys()])
        assert projective_equal(got, floer.plucker_of_frame(frame))


def test_gr_disk_areas():
    lam, t = 1.0, 0.25
    d1 = gr_disk(2, [1.0, 0.0], np.exp(-0.7j), lam, t)
    d2 = gr_disk(2, [0.6, 0.8], np.exp(0.7j), lam, t)
    assert abs(disk_area(d1) - (lam + t)) < 1e-5
    assert abs(disk_area(d2) - (lam - t)) < 1e-5


def test_gr_disk_validation():
    with pytest.raises(ValueError):
        gr_disk(2, [1.0, 0.0], 1.0, 1.0, 0.0)  # real c
    with pytest.raises(ValueError):
        gr_disk(2, [1.0, 0.0], 2j, 1.0, 0.0)  # |c| != 1
    with pytest.raises(ValueError):
        gr_disk(2, [1.0, 0.0], 1j, 1.0, 1.5)  # t out of range


# ---------------------------------------------------------------------------
# involutions


def _plane_of(z, lam):
    """The orbit point 2 lam P of Gr24 (spaces' profile (2 lam, 2 lam, 0, 0))
    whose plane, P its orthogonal projection, has Plucker coordinates z:
    with z12 = 1 the plane is spanned by (1, 0, -z23, -z24), (0, 1, z13, z14)."""
    z12, z13, z14, z23, z24, _ = np.asarray(z) / z[0]
    q, _ = np.linalg.qr(np.array([[1, 0], [0, 1], [-z23, z13], [-z24, z14]]))
    return 2 * lam * q @ q.conj().T


def test_involution_gr24_fixes_lt_and_swaps_levels():
    # points of L_t sampled over u = lam + t, floer's t being u - lam
    lam, t = 1.0, 0.3
    shape, profile = SPACES["Gr24"].shape, SPACES["Gr24"].profile(UNIT)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = fiber_point(shape, profile, (lam + t,) * 4, rng)
        z = plucker_of_frame(np.linalg.eigh(x)[1][:, 2:])
        u = np.array(gc_map(_plane_of(z, lam), shape, profile).values)
        assert np.abs(u - (lam + t)).max() < 1e-12
        assert projective_equal(z, involution_gr24(t, z, lam))
        # tau_0 carries L_t to L_{-t}, which lies over u = lam - t
        flipped = involution_gr24(0.0, z, lam)
        assert projective_equal(flipped, involution_gr24(-t, flipped, lam))
        assert not projective_equal(flipped, involution_gr24(t, flipped, lam))
        u = np.array(gc_map(_plane_of(flipped, lam), shape, profile).values)
        assert np.abs(u - (lam - t)).max() < 1e-12


def test_involution_fl3_is_an_involution():
    rng = np.random.default_rng(4)
    p = rng.normal(size=3) + 1j * rng.normal(size=3)
    q = rng.normal(size=3) + 1j * rng.normal(size=3)
    pp, qq = involution_fl3(involution_fl3((p, q), 1.3, 0.7), 1.3, 0.7)
    assert np.abs(pp - p).max() < 1e-12 and np.abs(qq - q).max() < 1e-12


def test_fl3_s3_fiber_hits_fixed_locus():
    # a flag as (its line, the covector whose kernel is its plane)
    space = SPACES["Fl3"]
    profile = space.profile(SimpleNamespace(l1=2, l2=1))
    x = fiber_point(space.shape, profile, (0, 0, 0), np.random.default_rng(8))
    vecs = np.linalg.eigh(x)[1]
    p, q = vecs[:, 2], vecs[:, 0].conj()
    ip, iq = involution_fl3((p, q), 2.0, 1.0)
    assert projective_equal(p, ip) and projective_equal(q, iq)


# ---------------------------------------------------------------------------
# disk-count integrals


def test_open_gw_integral_base_cases():
    assert abs(open_gw_integral(0, 0, 1.7) - 1.0) < 1e-12
    assert abs(open_gw_integral(1, 0, 0.8) - 0.4) < 1e-12
    assert abs(open_gw_integral(0, 1, 0.8) - 0.4) < 1e-12
    with pytest.raises(ValueError):
        open_gw_integral(-1, 0, 1.0)
    with pytest.raises(OverflowError):
        open_gw_integral(2, 0, 1e200)


def test_open_gw_integral_is_finite_where_only_the_power_overflows():
    # x^40 = 1e320 is beyond the float range; x^40 c(40, 0) is about 6.4e268
    got = open_gw_integral(40, 0, 1e8)
    want = float(Fraction(10) ** 320 * Fraction(open_gw_integral(40, 0, 1.0).real))
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=15, deadline=None)
@given(x=st.floats(-2.0, 2.0))
def test_open_gw_series_sums_to_exp(x):
    total, tail = floer.open_gw_series(x, K=25)
    assert abs(total - np.exp(x)) < 1e-10 + tail


@pytest.mark.parametrize("x", [0.3, 1.0 + 0.5j, -2.3 + 1.0j, 3.0j])
def test_open_gw_integrals_sum_to_exp_degree_by_degree(x):
    # sum_{k+l=m} (s x)^k/k! ((1-s) x)^l/l! = x^m/m! for every s, and the
    # mean of 1 - cos(theta) is 1, so each degree m sums to x^m/m!
    for m in range(26):
        got = sum(open_gw_integral(k, m - k, x) for k in range(m + 1))
        scale = abs(x) ** m / math.factorial(m)
        assert abs(got - x**m / math.factorial(m)) <= 1e-13 * scale


def test_pair_integral_closed_form():
    # sum over k, l equals 8/(3 pi) for one disk class
    total = floer.pair_series(K=30)
    assert abs(total - 8.0 / (3.0 * np.pi)) < 1e-10
    assert abs(pair_integral(0, 0) - 1.0) < 1e-12


# pi to 100 decimals, written out: an oracle independent of floer's Machin sum
PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923078164"
    "062862089986280348253421170679"
)


def _j_polynomials(K):
    """J(k, l) = (1/(k! l!)) int_0^1 s^k (1 - s)^l e^{2 pi i s} ds as
    polynomials in a = 1/(2 pi i), coefficient lists in ascending powers of a
    with Fraction entries: rows m = 0..K, each a list over k = 0..m.  By
    parts, J(k, l) = a (d(l)/k! - d(k)/l!) - a (J(k-1, l) - J(k, l-1))."""
    zero = [Fraction(0)] * (K + 2)
    rows = []
    for m in range(K + 1):
        row = []
        for k in range(m + 1):
            l = m - k
            left = rows[-1][k - 1] if k else zero
            right = rows[-1][k] if l else zero
            # the constant term of e, then e shifted up one power of a
            e0 = Fraction(l == 0, math.factorial(k)) - Fraction(k == 0, math.factorial(l))
            e = [e0 - left[0] + right[0]] + [r - q for q, r in zip(left[1:], right[1:])]
            row.append([Fraction(0)] + e[:-1])
        rows.append(row)
    return rows


def test_disk_recurrence_sums_to_zero_in_each_degree():
    # sum_k J(k, m - k) = (1/m!) int_0^1 (s + 1 - s)^m e^{2 pi i s} ds = 0:
    # the binomial identity behind sum_{k+l=m} of the integrals = x^m/m!
    for m, row in enumerate(_j_polynomials(40)):
        assert not any(map(sum, zip(*row))), m


def _exact_disk_coefficient(poly, m, pi):
    """1/(m+1)! - Re J at a = 1/(2 pi i) = -i b, exactly, for a rational pi."""
    b = 1 / (2 * pi)
    re = sum(q * (-1) ** (j // 2) * b**j for j, q in enumerate(poly) if j % 2 == 0)
    return Fraction(1, math.factorial(m + 1)) - re


def test_disk_table_is_the_exact_value_rounded():
    assert abs(floer._machin_pi(100) - PI_100 * 10**100) <= 1
    for m, row in enumerate(_j_polynomials(20)):
        for k, poly in enumerate(row):
            want = float(_exact_disk_coefficient(poly, m, PI_100))
            assert floer._disk_coefficient(k, m - k)[0] == want, (k, m - k)


def _exact_disk_coefficient_k0(k, pi, terms=40):
    """c(k, 0) = (1/k!) sum_{j >= 1} (-1)^(j+1) (2 pi)^(2j) / ((2j)! (k + 2j + 1)),
    from the Taylor series of 1 - cos 2 pi s; the terms after j = 40 add
    less than 1e-54 of the sum for the k used here."""
    total, power = Fraction(0), Fraction(1)
    for j in range(1, terms + 1):
        power *= (2 * pi) ** 2 / ((2 * j - 1) * (2 * j))
        total += (-1) ** (j + 1) * power / (k + 2 * j + 1)
    return total / math.factorial(k)


def test_open_gw_integral_where_the_table_entry_is_not_a_normal_float(monkeypatch):
    # c(170, 0) ~ 1e-312 is subnormal, c(176, 0) ~ 3.5e-326 underflows to 0:
    # the integral reads log c, not the float c, and x = 1e3 does not overflow
    monkeypatch.setattr(floer, "_DISK_TABLE", [])
    for k, x in ((176, 1e3), (176, 10.0), (175, 10.0), (170, 10.0)):
        want = float(Fraction(x) ** k * _exact_disk_coefficient_k0(k, PI_100))
        got = open_gw_integral(k, 0, x)
        assert abs(got - want) <= 1e-12 * want, (k, x, got, want)
    # the pair integral reads the same entries: (i pi/2)^176 c(176, 0) ~ 7e-292
    want = float((PI_100 / 2) ** 176 * _exact_disk_coefficient_k0(176, PI_100))
    assert abs(pair_integral(176, 0) - want) <= 1e-12 * want


def _disk_integrand(k, l):
    kf, lf = math.factorial(k), math.factorial(l)

    def f(theta):
        s = theta / (2.0 * np.pi)
        return s**k / kf * (1.0 - s) ** l / lf * (1.0 - np.cos(theta))

    return f


def test_disk_table_agrees_with_quadrature():
    for m in range(41):
        for k in range(m + 1):
            want = integrate_periodic(_disk_integrand(k, m - k))
            got = open_gw_integral(k, m - k, 1.0)
            assert abs(got - want) <= 1e-11 * abs(want), (k, m - k)


@pytest.mark.parametrize("k, l", [(0, 0), (1, 0), (0, 1), (2, 3), (7, 4), (12, 12), (0, 30)])
def test_pair_integral_agrees_with_quadrature(k, l):
    kf, lf = math.factorial(k), math.factorial(l)

    def f(theta):
        return (
            (0.25j * theta) ** k / kf
            * (1j * (theta / 4.0 - np.pi / 2.0)) ** l / lf
            * (1.0 - np.cos(theta))
        )

    want = integrate_periodic(f)
    assert abs(pair_integral(k, l) - want) <= 1e-11 * abs(want)


def test_importing_floer_builds_no_table():
    # a fresh copy of the module, executed as an import would execute it
    spec = importlib.util.spec_from_file_location("gcfloer._floer_copy", floer.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._DISK_TABLE == []


def test_differentials_and_disk_counts_load_no_numpy():
    # a fresh interpreter: importing floer for the differentials and the disk
    # counts loads no numpy; a disk area does, with the same float as ever
    code = (
        "import json, sys\n"
        "from gcfloer.floer import (disk_area, displacement_energy_bound, fl3_disk,\n"
        "                           m1_fl3, m1b_gr24, open_gw_series, pair_series)\n"
        "m1_fl3(1, 1); m1b_gr24(1, 0, 0.3); open_gw_series(0.3 + 0.2j); pair_series()\n"
        "displacement_energy_bound(1, 0.25)\n"
        "before = [n for n in sys.modules if n.split('.')[0] == 'numpy']\n"
        "area = disk_area(fl3_disk([-1.0, 0.0], +1, 1.3, 0.8))\n"
        "print(json.dumps([before, 'numpy' in sys.modules, repr(area)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert json.loads(proc.stdout) == [[], True, "1.3000000000000012"]


def test_gauss_legendre_rule_is_numpys_and_read_only():
    xg, wg = floer._gauss_legendre(64)
    want_x, want_w = np.polynomial.legendre.leggauss(64)
    assert xg.tobytes() == want_x.tobytes() and wg.tobytes() == want_w.tobytes()
    assert floer._gauss_legendre(64)[0] is xg
    for arr in (xg, wg):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_disk_table_grows_and_keeps_its_entries(monkeypatch):
    monkeypatch.setattr(floer, "_DISK_TABLE", [])
    first = floer._disk_coefficient(3, 4)
    assert len(floer._DISK_TABLE) == 41
    built = list(floer._DISK_TABLE)
    floer._disk_coefficient(50, 30)
    assert len(floer._DISK_TABLE) > 81
    assert floer._DISK_TABLE[:41] == built
    assert floer._disk_coefficient(3, 4) == first
    with pytest.raises(ValueError):
        floer._disk_coefficient(0, -1)


# ---------------------------------------------------------------------------
# Floer differentials


def test_m1_fl3_exact_torsion():
    d = m1_fl3(0.3, 0.7)
    assert (d @ d).is_zero()
    dec = module_presentation(d)
    assert dec.torsion_exponents == (Fraction(3, 10),)
    assert module_presentation(d, ring="Lambda").lambda_rank() == 0
    with pytest.raises(ValueError):
        m1_fl3(-1, 1)


def test_m1_fl3_sign_decides_equal_weights():
    # at l1 = l2 the + sign gives 2 T e3 -> e0 and torsion [1]; the other
    # sign would cancel the entry and leave a free module of rank 2
    dec = module_presentation(m1_fl3(1, 1))
    assert dec.free_rank == 0 and dec.torsion_exponents == (Fraction(1),)
    z = NovikovSeries.zero()
    minus = NovikovSeries(((Fraction(1), 1.0), (Fraction(1), -1.0)))
    dec = module_presentation(NovikovMatrix([[z, minus], [z, z]]))
    assert dec.free_rank == 2 and not dec.torsion_exponents


def test_m1b_gr24_squares_to_zero_and_decomposes():
    d = m1b_gr24(1, Fraction(1, 2), 0.0)
    assert (d @ d).is_zero()
    dec = module_presentation(d)
    assert dec.free_rank == 0
    assert dec.torsion_exponents == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        m1b_gr24(1, 2, 0.0)


@pytest.mark.parametrize("x", [1000.0, -1000.0, 800.0 + 1.0j])
def test_m1b_gr24_rejects_overflowing_holonomy(x):
    with pytest.raises(ValueError, match="overflows"):
        m1b_gr24(1, Fraction(1, 2), x)
    # e^700 is still finite
    m1b_gr24(1, Fraction(1, 2), 700.0)


def _holonomies(d, lam, t):
    """(e^x, e^-x) as the coefficients of T^(lam+t) and T^(lam-t) in f; a
    coefficient pruned as below COEFF_PRUNE reads None."""
    f = d.entries[0][2]
    assert d.entries[1][3] == f
    terms = dict(f.terms)
    return terms.get(lam + t), terms.get(lam - t)


def _same_bits(a, b):
    return all(math.copysign(1.0, u) == math.copysign(1.0, v) and u == v
               for u, v in ((a.real, b.real), (a.imag, b.imag)))


def test_m1b_gr24_holonomy_matches_np_exp_bit_for_bit():
    # the holonomies are formed without numpy; they must equal np.exp's, bit
    # for bit, up to and through the band where glibc's cexp rescales by
    # e^709, and the overflow error must fall exactly where np.exp's result
    # or its modulus is not finite
    reals = np.concatenate([np.linspace(700.0, 710.0, 41), np.linspace(709.7, 709.8, 41),
                            [0.0, 1.0, 30.0, 709.5, 709.7827128933840, 709.7827128933841,
                             1418.5, 2200.0]])
    imags = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-12, -1e-9, 0.5, 2.0, -3.0, np.pi / 2]
    t = Fraction(1, 2)
    checked = raised = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for re in reals:
            for sign in (1.0, -1.0):
                for im in imags:
                    x = complex(sign * re, im)
                    want = (complex(np.exp(x)), complex(np.exp(-x)))
                    if not all(np.isfinite(np.abs(want))):
                        with pytest.raises(ValueError, match="overflows"):
                            m1b_gr24(1, t, x)
                        raised += 1
                        continue
                    got = _holonomies(m1b_gr24(1, t, x), 1, t)
                    for g, w in zip(got, want):
                        if abs(w) < COEFF_PRUNE:
                            assert g is None, x
                        else:
                            # NovikovSeries adds each coefficient to 0j, which
                            # clears the sign of a zero part
                            assert _same_bits(g, 0j + w), x
                    checked += 1
    assert checked > 1500 and raised > 200
    for x in (complex(math.inf, 0), complex(-math.inf, 0), complex(0, math.nan)):
        with pytest.raises(ValueError, match="overflows"):
            m1b_gr24(1, t, x)


def test_m1b_gr24_unobstructed_at_critical_b():
    for x in (0.5j * np.pi, -0.5j * np.pi):
        d = m1b_gr24(1, 0, x)
        assert d.is_zero(tol=1e-14)
        dec = module_presentation(d)
        assert dec.free_rank == 4 and not dec.torsion_exponents


def test_delta_pair_gr24():
    d = delta_pair_gr24(1)
    dec = module_presentation(d)
    assert dec.free_rank == 0
    assert dec.torsion_exponents == (Fraction(1), Fraction(1))
    assert module_presentation(d, ring="Lambda").lambda_rank() == 0
    coeff = abs(d.entries[0][2].leading_coefficient())
    assert abs(coeff - 16.0 / (3.0 * np.pi)) < 1e-14
    assert abs(abs(d.entries[1][3].leading_coefficient()) - 32.0 / (3.0 * np.pi)) < 1e-14


# ---------------------------------------------------------------------------
# displacement energy


def test_displacement_energy_bound_profile():
    lam = 1.0
    assert displacement_energy_bound(lam, 0) == lam
    assert displacement_energy_bound(lam, lam) == 0.0
    assert displacement_energy_bound(lam, -lam) == 0.0
    ts = np.linspace(-0.95, 0.85, 19)
    hs = np.array([displacement_energy_bound(lam, t) for t in ts])
    assert np.all(hs > np.minimum(lam - ts, lam + ts))
    assert np.all(hs <= lam + 1e-12)
    with pytest.raises(ValueError):
        displacement_energy_bound(1.0, 2.0)

