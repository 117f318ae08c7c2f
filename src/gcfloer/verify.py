"""End-to-end verification suite.

Each check reproduces one headline claim of the computation: potential
structure, critical point counts, closed forms, critical values, the
quantum-cohomology eigenvalue coincidence, disk-count integrals, Floer
module decompositions, the geometry property suite, and oracle
equivalences against independent brute-force implementations.

Checks are pure functions returning CheckResult; run_all executes them in
check-id order.  fast=True trades sampling density for speed (for the CLI);
the default settings are the ones the test suite pins.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import flags, floer, gc_core, potential, qh
from .novikov import (
    NovikovMatrix,
    NovikovSeries,
    delta_pair_gr24,
    m1_fl3,
    m1b_gr24,
    module_presentation,
)
from .spaces import SPACES, UNIT


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str


def _result(check_id, passed, detail):
    return CheckResult(check_id, bool(passed), detail)


# ---------------------------------------------------------------------------
# 1. potential structure


_EXPECTED_TERMS = {
    # multisets of (t_exp, y_exp) at the unit profile parameters
    "Fl3": sorted(
        [
            (Fraction(1), (-1, 0, 0)),
            (Fraction(0), (1, 0, 0)),
            (Fraction(0), (0, -1, 0)),
            (Fraction(1), (0, 1, 0)),
            (Fraction(0), (1, 0, -1)),
            (Fraction(0), (0, -1, 1)),
        ]
    ),
    "Gr24": sorted(
        [
            (Fraction(2), (0, -1, 0, 0)),
            (Fraction(0), (-1, 1, 0, 0)),
            (Fraction(0), (1, 0, -1, 0)),
            (Fraction(0), (0, 0, 1, 0)),
            (Fraction(0), (0, 1, 0, -1)),
            (Fraction(0), (0, 0, -1, 1)),
        ]
    ),
    "Gr25": sorted(
        [
            (Fraction(1), (0, -1, 0, 0, 0, 0)),
            (Fraction(0), (-1, 1, 0, 0, 0, 0)),
            (Fraction(0), (1, 0, -1, 0, 0, 0)),
            (Fraction(0), (0, 1, 0, -1, 0, 0)),
            (Fraction(0), (0, 0, -1, 1, 0, 0)),
            (Fraction(0), (0, 0, 1, 0, -1, 0)),
            (Fraction(0), (0, 0, 0, 0, 1, 0)),
            (Fraction(0), (0, 0, 0, 1, 0, -1)),
            (Fraction(0), (0, 0, 0, 0, -1, 1)),
        ]
    ),
}


def _unit_potential(space):
    return potential.build_potential(space.shape, space.profile(UNIT))


def check_potential_structure(fast=False):
    bad = []
    for space, expected in _EXPECTED_TERMS.items():
        po = _unit_potential(SPACES[space])
        got = po.term_multiset()
        if got != expected:
            bad.append(f"{space}: got {got}")
    if bad:
        return _result("01-potential-terms", False, "; ".join(bad))
    return _result(
        "01-potential-terms",
        True,
        "term multisets match for Fl3 (6), Gr24 (6), Gr25 (9)",
    )


# ---------------------------------------------------------------------------
# 2. critical point counts


_STARTS = {"Fl3": 300, "Gr24": 300, "Gr25": 900}


def check_critical_counts(fast=False):
    T0s = (0.5,) if fast else (0.5, 0.6)
    seeds = (0,) if fast else (0, 1, 2)
    details = []
    ok = True
    for space, budget in _STARTS.items():
        po = _unit_potential(SPACES[space])
        closed = SPACES[space].candidates(UNIT)
        starts = budget // (3 if fast else 1)
        counts = set()
        unmatched = []
        for T0 in T0s:
            z = np.array([c.numeric_at(T0) for c in closed])
            for seed in seeds:
                cfg = potential.SolverConfig(T0=T0, starts=starts, seed=seed)
                y = np.array([c.y for c in potential.find_critical_points(po, cfg)])
                counts.add(len(y))
                # near[i, j]: solver point i within DEDUPE_TOL (1 + max |y_i|) of closed form j
                scale = potential.DEDUPE_TOL * (1.0 + np.max(np.abs(y), axis=1))
                near = np.max(np.abs(y[:, None, :] - z), axis=2) < scale[:, None]
                if np.any(near.sum(axis=0) != 1) or np.any(near.sum(axis=1) != 1):
                    unmatched.append((T0, seed))
        ok = ok and counts == {len(closed)} and not unmatched
        details.append(f"{space}: counts {sorted(counts)} (want {len(closed)})"
                       + (f", no bijection at (T0, seed) {unmatched}" if unmatched else ""))
    return _result("02-critical-counts", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. closed-form critical points


_EXPECTED_VALUATIONS = {"Gr24": (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(1))}


def check_closed_forms(fast=False):
    problems = []
    for name, space in SPACES.items():
        po = _unit_potential(space)
        want = _EXPECTED_VALUATIONS.get(name)
        for cand in space.candidates(UNIT):
            rep = potential.verify_candidate(po, cand)
            if rep["max_residual"] >= 1e-9:
                problems.append(f"{name}: residual {rep['max_residual']:.3g}")
            nondeg, _ = potential.hessian_nondegenerate(po, cand, 0.5)
            if not nondeg:
                problems.append(f"{name}: degenerate Hessian")
            if want is not None and tuple(cand.exps) != want:
                problems.append(f"{name}: valuations {cand.exps}")
    if problems:
        return _result("03-closed-forms", False, "; ".join(problems[:4]))
    return _result(
        "03-closed-forms",
        True,
        "all closed-form points critical (residual < 1e-9 at T0 in {0.45, 0.55}), "
        "Gr24 valuations (1, 3/2, 1/2, 1), Hessians nondegenerate",
    )


# ---------------------------------------------------------------------------
# 4. critical values


# T-exponents of the critical values at the unit profile: Gr24 values are
# 4 sqrt(2) i^j Q^{1/4} with Q = T^2, Gr25 values -5(z5^i + z5^j) Q^{1/5}
# with Q = T.
_EXPECTED_VALUE_EXPONENTS = {"Gr24": Fraction(1, 2), "Gr25": Fraction(1, 5)}


def check_critical_values(fast=False):
    problems = []
    for name, want in _EXPECTED_VALUE_EXPONENTS.items():
        space = SPACES[name]
        po = _unit_potential(space)
        cands = space.candidates(UNIT)
        for T0 in (0.5, 0.6):
            got = [potential.evaluate(po, c.numeric_at(T0), T0) for c in cands]
            ok, _ = qh.multiset_match(got, space.critical_values(UNIT, T0), 1e-8)
            if not ok:
                problems.append(f"{name} value mismatch at T0={T0}")
        rep = potential.verify_candidate(po, cands[0])
        if rep["value_exponent_rational"] != want or abs(
            rep["value_exponent"] - float(want)
        ) > 1e-10:
            problems.append(f"{name} exponent fit {rep['value_exponent_rational']}")
    if problems:
        return _result("04-critical-values", False, "; ".join(problems))
    return _result(
        "04-critical-values",
        True,
        "Gr24 values 4*sqrt(2)*i^j*Q^(1/4), Gr25 values -5(z5^i+z5^j)Q^(1/5) "
        "within 1e-8; exponent fits 1/4 and 1/5 exact",
    )


# ---------------------------------------------------------------------------
# 5. quantum cohomology eigenvalues


# base value T0 at which each space's critical values are compared
_QH_T0 = {"Fl3": 0.5, "Gr24": 0.5, "Gr25": 0.6}


def check_qh_match(fast=False):
    problems = [
        f"{name} mismatch"
        for name, T0 in _QH_T0.items()
        if not SPACES[name].match_c1(UNIT, T0, 1e-7)[2]
    ]
    if problems:
        return _result("05-qh-eigenvalues", False, "; ".join(problems))
    return _result(
        "05-qh-eigenvalues",
        True,
        "critical values coincide with c1 eigenvalue multisets (tol 1e-7) "
        "for Fl3, Gr24 (with double zero), Gr25",
    )


# ---------------------------------------------------------------------------
# 6. disk-count integrals


def check_disk_integrals(fast=False):
    K = 25 if fast else 40
    grid = np.linspace(-np.pi, np.pi, 3 if fast else 11)
    worst = 0.0
    for x in grid:
        total, _tail = floer.open_gw_series(x, K=K)
        worst = max(worst, abs(total - np.exp(x)))
    base = 2.0 * floer.pair_series(K=K)
    err1 = abs(base - 16.0 / (3.0 * np.pi))
    err2 = abs(2.0 * base - 32.0 / (3.0 * np.pi))
    ok = worst < 1e-9 and err1 < 1e-9 and err2 < 1e-9
    return _result(
        "06-disk-integrals",
        ok,
        f"max |sum - e^x| = {worst:.3g}; pair coefficients off 16/(3pi), "
        f"32/(3pi) by {err1:.3g}, {err2:.3g}",
    )


# ---------------------------------------------------------------------------
# 7. Floer modules


def check_floer_modules(fast=False):
    problems = []
    dec = module_presentation(m1_fl3(0.3, 0.7))
    if dec.free_rank != 0 or dec.torsion_exponents != (Fraction(3, 10),):
        problems.append(f"m1_fl3(0.3,0.7): {dec.to_dict()}")
    if module_presentation(m1_fl3(0.3, 0.7), ring="Lambda").lambda_rank() != 0:
        problems.append("m1_fl3 Lambda-rank nonzero")
    dec = module_presentation(m1b_gr24(1, 0.5, 0.0))
    if dec.torsion_exponents != (Fraction(1, 2), Fraction(1, 2)):
        problems.append(f"m1b_gr24(1,0.5,0): {dec.to_dict()}")
    for x in (0.5j * np.pi, -0.5j * np.pi):
        for ring in ("Lambda0", "Lambda"):
            dec = module_presentation(m1b_gr24(1, 0, x), ring=ring)
            if dec.free_rank != 4 or dec.torsion_exponents:
                problems.append(f"m1b_gr24(1,0,{x}) over {ring}: {dec.to_dict()}")
    d = delta_pair_gr24(1)
    dec = module_presentation(d)
    if dec.free_rank != 0 or dec.torsion_exponents != (Fraction(1), Fraction(1)):
        problems.append(f"delta_pair_gr24(1): {dec.to_dict()}")
    if module_presentation(d, ring="Lambda").lambda_rank() != 0:
        problems.append("delta_pair_gr24 Lambda-rank nonzero")
    if problems:
        return _result("07-floer-modules", False, "; ".join(problems))
    return _result(
        "07-floer-modules",
        True,
        "torsion {3/10}; {1/2,1/2}; free rank 4 at b = +-i pi/2 e1; "
        "pair torsion {1,1} with Lambda-rank 0",
    )


# ---------------------------------------------------------------------------
# 8. geometry property suite


def _random_orbit_points(rng, profile, count):
    """count points u diag(profile) u* of the orbit, u the Q factor of a
    complex Gaussian matrix; the stream is that of count draws of a real
    then an imaginary (n, n) normal matrix, one point after the other."""
    vals = np.array([float(v) for v in profile.values])
    n = len(vals)
    draws = rng.normal(size=(count, 2, n, n))
    u_mat, _ = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])
    return u_mat @ np.diag(vals) @ np.swapaxes(u_mat.conj(), -1, -2)


# stratum points of each space at UNIT, one per Stratum row: Fl3's S^3;
# Gr24's L_t at t = 1/4 and at the monotone level; Gr25's L1, L2 and U(2)
_FIBER_POINTS = {
    "Fl3": [(0, 0, 0)],
    "Gr24": [(1.25,) * 4, (1,) * 4],
    "Gr25": [(0.5, 0.7, 0.3, 0.3, 0.3, 0.3), (0.5, 0.5, 0.5, 0.5, 0.2, 0.3), (0.4,) * 6],
}


def check_geometry(fast=False):
    """Check 08: random orbit points map into the polytope under gc_map,
    fiber points sampled over _FIBER_POINTS (fast: each space's first) map
    back and lie on a Stratum row, and the disk, involution and h(t)
    identities hold.

    Each space's orbit points come from one draw and one stacked QR;
    gc_map and contains still run once per point.  A space whose image
    leaves the polytope is reported once, and all its points are drawn
    anyway, so the next space's points do not depend on the outcome.
    """
    problems = []
    n_points = 34 if fast else 334
    rng = np.random.default_rng(2024)
    polytopes = {}
    for name, space in SPACES.items():
        profile = space.profile(UNIT)
        polytopes[name] = polytope = gc_core.build_polytope(space.shape, profile)
        for x in _random_orbit_points(rng, profile, n_points):
            u = gc_core.gc_map(x, space.shape, profile)
            inside, _ = gc_core.contains(polytope, u)
            if not inside:
                problems.append(f"{name}: moment image left the polytope")
                break

    # sampled fiber points land on their pattern points and on a stratum
    rng = np.random.default_rng(5)
    for name, points in _FIBER_POINTS.items():
        space, polytope = SPACES[name], polytopes[name]
        for want in points[:1] if fast else points:
            x = gc_core.fiber_point(space.shape, polytope.profile, want, rng)
            u = gc_core.gc_map(x, space.shape, polytope.profile)
            if np.max(np.abs(np.array(u.values) - want)) > 1e-8:
                problems.append(f"{name}: sampled point misses u = {want}")
            elif gc_core.classify_fiber(polytope, u, space.strata).kind in (
                    "torus", "unknown-nonsmooth"):
                problems.append(f"{name}: no stratum row names u = {want}")

    # disks: incidence/unitarity residuals and areas
    d1 = floer.fl3_disk([-1.0, 0.0], +1, 1.0, 1.0)
    d2 = floer.fl3_disk([-1.0, 0.0], -1, 1.0, 1.0)
    zs = [0.3 + 0.4j, -1.2 + 0.1j, 2.0 + 3.0j]
    if max(d1.plucker_residual(z) for z in zs) > 1e-10:
        problems.append("fl3 disk leaves the flag variety")
    if abs(floer.disk_area(d1) - 1.0) > 1e-5 or abs(floer.disk_area(d2) - 1.0) > 1e-5:
        problems.append("fl3 disk areas != lambda_1, lambda_2")
    lam, t = 1.0, 0.25
    g1 = floer.gr_disk(2, [1.0, 0.0], np.exp(-0.7j), lam, t)
    g2 = floer.gr_disk(2, [0.6, 0.8], np.exp(+0.7j), lam, t)
    if max(g1.unitarity_defect(x) for x in (-2.0, 0.3, 5.0)) > 1e-10:
        problems.append("gr disk boundary not unitary")
    if abs(floer.disk_area(g1) - (lam + t)) > 1e-5:
        problems.append(f"beta1 area {floer.disk_area(g1)} != lam + t")
    if abs(floer.disk_area(g2) - (lam - t)) > 1e-5:
        problems.append(f"beta2 area {floer.disk_area(g2)} != lam - t")

    # involutions on sampled fiber points: tau fixes the S^3 fiber of Fl3,
    # tau_t fixes L_t and tau_0 carries it to L_{-t}; floer's t is u - lam
    rng = np.random.default_rng(7)
    fl3 = SPACES["Fl3"]
    profile = fl3.profile(SimpleNamespace(l1=1.3, l2=0.8))
    for _ in range(5):
        vecs = np.linalg.eigh(gc_core.fiber_point(fl3.shape, profile, (0, 0, 0), rng))[1]
        pt = (vecs[:, 2], vecs[:, 0].conj())  # the line, and the plane's normal
        im = floer.involution_fl3(pt, 1.3, 0.8)
        if not all(map(floer.projective_equal, pt, im)):
            problems.append("fl3 involution does not fix the S^3 fiber")
            break
    gr24 = SPACES["Gr24"]
    profile, u = gr24.profile(UNIT), (Fraction(lam + t),) * 4
    for _ in range(5):
        x = gc_core.fiber_point(gr24.shape, profile, u, rng)
        z = floer.plucker_of_frame(np.linalg.eigh(x)[1][:, 2:])
        if not floer.projective_equal(z, floer.involution_gr24(t, z, lam)):
            problems.append("gr24 involution does not fix L_t")
            break
        flipped = floer.involution_gr24(0.0, z, lam)
        if not floer.projective_equal(flipped, floer.involution_gr24(-t, flipped, lam)):
            problems.append("tau_0(L_t) != L_{-t}")
            break

    # displacement-energy bound h
    if abs(floer.displacement_energy_bound(1, 0) - 1.0) > 1e-12:
        problems.append("h(0) != lam")
    if floer.displacement_energy_bound(1, 1) or floer.displacement_energy_bound(1, -1):
        problems.append("h(+-lam) != 0")
    ts = np.array([-0.95 + 0.1 * k for k in range(19)])
    hs = np.array([floer.displacement_energy_bound(1, t) for t in ts])
    if not np.all(hs > np.minimum(1 - ts, 1 + ts)):
        problems.append("h(t) <= min(lam - t, lam + t) somewhere")
    mids = np.array(
        [floer.displacement_energy_bound(1, (ts[i] + ts[i + 1]) / 2) for i in range(18)]
    )
    if not np.all(mids >= (hs[:-1] + hs[1:]) / 2 - 1e-12):
        problems.append("h fails midpoint concavity")

    if problems:
        return _result("08-geometry", False, "; ".join(problems[:5]))
    return _result(
        "08-geometry",
        True,
        f"{3 * n_points} orbit points inside; fiber constructors, disk areas, "
        "involutions, and h(t) checks pass",
    )


# ---------------------------------------------------------------------------
# 9. oracle equivalence


def partitions_in_box(k, m):
    """All partitions with at most k parts, each at most m, sorted."""
    result = []
    for lam in itertools.product(range(m + 1), repeat=k):
        if all(lam[i] >= lam[i + 1] for i in range(k - 1)):
            result.append(tuple(p for p in lam if p > 0))
    return sorted(set(result), key=lambda p: (sum(p), p))


def coset_partition(w, k):
    """Partition of a Gr(k, n) coset representative: lam_i = w_{k+1-i} - (k+1-i)."""
    return tuple(p for p in (w[j] - j - 1 for j in reversed(range(k))) if p)


def _rimhook_sigma1(k, n):
    """Quantum Pieri for sigma_1 computed by n-rim-hook reduction on
    beta-numbers (independent of the quantum Chevalley rule in qh)."""
    m = n - k
    basis = partitions_in_box(k, m)
    pos = {lam: i for i, lam in enumerate(basis)}
    dim = len(basis)
    classical = np.zeros((dim, dim), dtype=int)
    quantum = np.zeros((dim, dim), dtype=int)
    for j, lam in enumerate(basis):
        padded = list(lam) + [0] * (k - len(lam))
        for i in range(k):
            mu = padded.copy()
            mu[i] += 1
            if i > 0 and mu[i] > mu[i - 1]:
                continue
            if mu[0] <= m:
                nu = tuple(p for p in mu if p > 0)
                classical[pos[nu], j] += 1
                continue
            # reduce by removing an n-rim hook: beta numbers b_r = mu_r + k-1-r
            b = [mu[r] + k - 1 - r for r in range(k)]
            for r in range(k):
                nb = b[r] - n
                if nb < 0 or nb in b:
                    continue
                crossings = sum(1 for other in b if nb < other < b[r])
                sign = (-1) ** (k - 1 - crossings)
                newb = sorted([x for x in b if x != b[r]] + [nb], reverse=True)
                nu = tuple(
                    newb[s] - (k - 1 - s)
                    for s in range(k)
                    if newb[s] - (k - 1 - s) > 0
                )
                quantum[pos[nu], j] += sign
    return basis, classical, quantum


def _monomial_oracle(rows, cols, entries, truncation=Fraction(10)):
    """Invariant-factor valuations via determinantal divisors: d_r is the
    minimum valuation over all r x r minors (Leibniz expansion over exact
    exponent dictionaries); e_r = d_r - d_{r-1}."""

    def minor_valuation(rsel, csel):
        acc = {}
        size = len(rsel)
        for perm in itertools.permutations(range(size)):
            # permutation sign by counting inversions
            inv = sum(
                1
                for a in range(size)
                for b in range(a + 1, size)
                if perm[a] > perm[b]
            )
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
    free = (rows - rank) + (cols - rank)
    torsion = tuple(sorted(e for e in factors if e > 0))
    return free, torsion


def rimhook_mismatches(k, n):
    """Where qh.c1_matrix of Gr(k, n) differs from n times the rim-hook oracle."""
    mat = qh.c1_matrix(flags.grassmannian_shape(k, n))
    basis, classical, quantum = _rimhook_sigma1(k, n)
    if tuple(coset_partition(w, k) for w in mat.basis) != tuple(basis):
        return [f"Gr({k},{n}): basis ordering differs"]
    problems = []
    if not np.array_equal(mat.coeffs[(0,)], n * classical):
        problems.append(f"Gr({k},{n}): classical parts differ")
    if not np.array_equal(mat.coeffs[(1,)], n * quantum):
        problems.append(f"Gr({k},{n}): quantum parts differ")
    return problems


def check_oracles(fast=False):
    problems = []
    # module_presentation vs the determinantal-divisor oracle
    rng = np.random.default_rng(11)
    exponent_pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    coeff_pool = [0.0, 1.0, -1.0, 2.0, 1.0 + 1.0j, -0.5 + 1.5j, 3.0 - 1.0j]
    n_cases = 40 if fast else 200
    for case in range(n_cases):
        rows = int(rng.integers(2, 4))
        cols = int(rng.integers(2, 4))
        entries = {}
        grid = []
        for i in range(rows):
            row = []
            for j in range(cols):
                c = coeff_pool[int(rng.integers(len(coeff_pool)))]
                e = exponent_pool[int(rng.integers(len(exponent_pool)))]
                entries[(i, j)] = (c, e)
                row.append(NovikovSeries(((e, c),)) if c else NovikovSeries.zero())
            grid.append(row)
        dec = module_presentation(NovikovMatrix(grid), two_step=True)
        free, torsion = _monomial_oracle(rows, cols, entries)
        if dec.free_rank != free or tuple(dec.torsion_exponents) != torsion:
            problems.append(
                f"case {case}: got ({dec.free_rank}, {dec.torsion_exponents}), "
                f"oracle ({free}, {torsion})"
            )
            break
    # quantum Chevalley vs rim-hook oracle
    for k, n in ((2, 4), (2, 5)):
        problems += rimhook_mismatches(k, n)
    if problems:
        return _result("09-oracles", False, "; ".join(problems))
    return _result(
        "09-oracles",
        True,
        f"module_presentation matches the determinantal oracle on {n_cases} "
        "random instances; the quantum Chevalley matrix qh.c1_matrix matches n times the "
        "rim-hook Pieri oracle for Gr(2,4) and Gr(2,5)",
    )


ALL_CHECKS = (
    check_potential_structure,
    check_critical_counts,
    check_closed_forms,
    check_critical_values,
    check_qh_match,
    check_disk_integrals,
    check_floer_modules,
    check_geometry,
    check_oracles,
)


def run_all(fast=False):
    results = [check(fast=fast) for check in ALL_CHECKS]
    return sorted(results, key=lambda r: r.check_id)
