"""Holomorphic disks and disk-count integrals of the non-torus
Gelfand-Cetlin fibers.

The Maslov-4 disks of the S^3 fiber in Fl(3) and the U(n) fibers in
Gr(n,2n) admit explicit rational parametrizations; their areas are checked
by pulling back the (weighted) Fubini-Study forms to the unit disk through
the Cayley transform.  The Floer differentials are built from their closed
forms in novikov, which needs no numpy; the disk-count integrals here
cross-validate their coefficients.  Each disk-count integral is x^(k+l)
times an exact number c(k, l), which an integration-by-parts recurrence
gives in decimal arithmetic of 100 digits or more; the table of c is built
on first use and cached, and no quadrature is involved.
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .novikov import m1_fl3, m1b_gr24  # noqa: F401  (callers import them from floer)

WINDING_SAMPLES = 4000  # points of R + {inf} on which a disk's winding is counted
PROJECTIVE_TOL = 1e-9  # relative distance below which two projective points agree

# ---------------------------------------------------------------------------
# disk classes and parametrizations


@dataclass(frozen=True)
class DiskClass:
    label: str  # "beta1" or "beta2"
    area: float
    maslov: int = 4


@dataclass(frozen=True)
class DiskMapFl3:
    """Bidegree (1,1) curve through the S^3 fiber of Fl(3).

    w(z) = ([c z + a1 : a2 : sqrt(l1/l2)(c z + 1)],
            [cbar z + a1bar : a2bar : -sqrt(l2/l1)(cbar z + 1)])
    with |c| = 1 and c^2 = -(a1 - 1)/(a1bar - 1); the restriction to the
    upper half plane represents beta1 (sign +1) or beta2 (sign -1).
    """

    a: tuple
    c: complex
    sign: int
    l1: float
    l2: float

    @property
    def disk_class(self):
        if self.sign > 0:
            return DiskClass("beta1", self.l1)
        return DiskClass("beta2", self.l2)

    def evaluate(self, z):
        a1, a2 = self.a
        r = np.sqrt(self.l1 / self.l2)
        p = np.array([self.c * z + a1, a2, r * (self.c * z + 1.0)])
        q = np.array(
            [
                np.conj(self.c) * z + np.conj(a1),
                np.conj(a2),
                -(1.0 / r) * (np.conj(self.c) * z + 1.0),
            ]
        )
        return p, q

    def plucker_residual(self, z):
        """Incidence relation Z1 Z23 + Z2 Z31 + Z3 Z12 along the curve."""
        p, q = self.evaluate(z)
        return abs(np.dot(p, q))

    def projective_polys(self):
        """Weighted homogeneous coordinate polynomials in z (coeff lists,
        ascending degree) for the two projective factors."""
        a1, a2 = self.a
        r = np.sqrt(self.l1 / self.l2)
        p = [[a1, self.c], [a2, 0.0], [r, r * self.c]]
        q = [
            [np.conj(a1), np.conj(self.c)],
            [np.conj(a2), 0.0],
            [-1.0 / r, -np.conj(self.c) / r],
        ]
        return [(self.l1, p), (self.l2, q)]


def fl3_disk(a, sign, l1=1.0, l2=1.0):
    """Disk through the S^3 fiber with boundary data a in S^3, a1 != 1."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2,) or abs(np.linalg.norm(a) - 1.0) > 1e-10:
        raise ValueError("a must be a unit vector in C^2")
    if abs(a[0] - 1.0) < 1e-12:
        raise ValueError("a1 = 1 is excluded (the curve degenerates)")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c2 = -(a[0] - 1.0) / (np.conj(a[0]) - 1.0)
    root = np.sqrt(c2)
    if root.imag == 0:
        raise ValueError("degenerate boundary datum (real c)")
    c = root if (root.imag > 0) == (sign > 0) else -root
    return DiskMapFl3((complex(a[0]), complex(a[1])), complex(c), sign, float(l1), float(l2))


@dataclass(frozen=True)
class DiskMapGr:
    """Degree-one curve through the U(n) fiber L_t of Gr(n,2n):
    F(z) = sqrt((lam-t)/(lam+t)) (I - (c - cbar)/(z - cbar) a a*)."""

    n: int
    a: tuple
    c: complex
    lam: float
    t: float

    @property
    def scale(self):
        return math.sqrt((self.lam - self.t) / (self.lam + self.t))

    @property
    def disk_class(self):
        if self.c.imag < 0:
            return DiskClass("beta1", self.lam + self.t)
        return DiskClass("beta2", self.lam - self.t)

    def evaluate(self, z):
        a = np.array(self.a)[:, None]
        aa = a @ a.conj().T
        return self.scale * (
            np.eye(self.n) - (self.c - np.conj(self.c)) / (z - np.conj(self.c)) * aa
        )

    def A_matrix(self):
        a = np.array(self.a)[:, None]
        aa = a @ a.conj().T
        return np.eye(self.n) + (self.c**2 / abs(self.c) ** 2 - 1.0) * aa

    def unitarity_defect(self, x):
        u = self.evaluate(x) / self.scale
        return np.abs(u.conj().T @ u - np.eye(self.n)).max()

    def pq_polys(self):
        """The coprime factorization (P(z), Q(z)) with F = Q P^{-1}:
        P = (z - cbar) I, Q = scale (z I - cbar A); returned as coefficient
        arrays of shape (n, n, 2) ascending in z."""
        cb = np.conj(self.c)
        A = self.A_matrix()
        P = np.zeros((self.n, self.n, 2), dtype=complex)
        Q = np.zeros((self.n, self.n, 2), dtype=complex)
        for i in range(self.n):
            P[i, i] = [-cb, 1.0]
        Q[:, :, 0] = -self.scale * cb * A
        Q[:, :, 1] = self.scale * np.eye(self.n)
        return P, Q

    def plucker_polys(self):
        """For n = 2: the six Plucker coordinates of the stacked 4x2 curve
        [P; Q], each a quadratic polynomial in z (coeff lists)."""
        if self.n != 2:
            raise ValueError("Plucker coordinates implemented for n = 2 only")
        P, Q = self.pq_polys()
        rows = np.concatenate([P, Q], axis=0)  # (4, 2, 2)

        def minor(i, j):
            # degree-2 coefficients of rows[i,0]*rows[j,1] - rows[i,1]*rows[j,0]
            out = np.zeros(3, dtype=complex)
            for d1 in range(2):
                for d2 in range(2):
                    out[d1 + d2] += (
                        rows[i, 0, d1] * rows[j, 1, d2]
                        - rows[i, 1, d1] * rows[j, 0, d2]
                    )
            return list(out)

        order = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        return [minor(i, j) for i, j in order]

    def projective_polys(self):
        return [(2.0 * self.lam, self.plucker_polys())]

    def winding_number(self):
        """Winding of det(F(x)/scale) = (x - c)/(x - cbar) along R + {inf}."""
        phis = np.linspace(-np.pi, np.pi, WINDING_SAMPLES, endpoint=False)
        xs = np.tan(phis / 2.0)
        vals = (xs - self.c) / (xs - np.conj(self.c))
        args = np.unwrap(np.angle(vals))
        total = args[-1] - args[0]
        return int(round(total / (2.0 * np.pi)))


def gr_disk(n, a, c, lam, t):
    a = np.asarray(a, dtype=complex)
    if a.shape != (n,) or abs(np.linalg.norm(a) - 1.0) > 1e-10:
        raise ValueError("a must be a unit vector in C^n")
    c = complex(c)
    if abs(abs(c) - 1.0) > 1e-10:
        raise ValueError("|c| must be 1")
    if abs(c.imag) < 1e-12:
        raise ValueError("c must be non-real")
    lam, t = float(lam), float(t)
    if not -lam < t < lam:
        raise ValueError("need -lam < t < lam")
    return DiskMapGr(n, tuple(complex(v) for v in a), c, lam, t)


# ---------------------------------------------------------------------------
# disk areas via the Cayley transform


def _cayley_poly(coeffs):
    """Given p(z) = sum c_k z^k, return the coefficients of
    (1 - zeta)^D p(i (1 + zeta)/(1 - zeta)), a polynomial in zeta."""
    D = len(coeffs) - 1
    out = np.zeros(D + 1, dtype=complex)
    up = np.array([1.0, 1.0]) * 1j  # i (1 + zeta)
    down = np.array([1.0, -1.0])  # 1 - zeta
    for k, ck in enumerate(coeffs):
        term = np.array([complex(ck)])
        for _ in range(k):
            term = np.convolve(term, up)
        for _ in range(D - k):
            term = np.convolve(term, down)
        out[: len(term)] += term
    return out


def _fs_area_disk(zeta_polys, order=64):
    """(1/pi) integral over the unit disk of the Fubini-Study density of the
    projective curve zeta -> [p_0(zeta) : ... : p_m(zeta)]."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    r = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    th = np.pi * (xg + 1.0)
    wt = np.pi * wg
    R, TH = np.meshgrid(r, th)
    Z = R * np.exp(1j * TH)
    W = np.outer(wt, wr * r)
    F = np.stack([np.polyval(np.array(c)[::-1], Z) for c in zeta_polys])
    dF = np.stack(
        [np.polyval(np.polyder(np.array(c)[::-1]), Z) for c in zeta_polys]
    )
    n2 = np.sum(np.abs(F) ** 2, axis=0)
    d2 = np.sum(np.abs(dF) ** 2, axis=0)
    ip = np.sum(np.conj(F) * dF, axis=0)
    K = (n2 * d2 - np.abs(ip) ** 2) / n2**2
    return float(np.sum(W * K)) / np.pi


def disk_area(disk, order=64):
    """Symplectic area of the disk (restriction to the upper half plane),
    as the weighted sum of Fubini-Study areas of its projective factors."""
    total = 0.0
    for weight, polys in disk.projective_polys():
        zeta_polys = [_cayley_poly(c) for c in polys]
        total += weight * _fs_area_disk(zeta_polys, order)
    return total


# ---------------------------------------------------------------------------
# anti-holomorphic involutions, Plucker coordinates, projective equality


def involution_fl3(point, l1, l2):
    """Anti-holomorphic involution on P^2 x P^2 fixing the S^3 fiber."""
    p, q = point
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    ratio = float(l1) / float(l2)
    new_p = np.array([np.conj(q[0]), np.conj(q[1]), -ratio * np.conj(q[2])])
    new_q = np.array([np.conj(p[0]), np.conj(p[1]), -np.conj(p[2]) / ratio])
    return new_p, new_q


def involution_gr24(t, point, lam):
    """Anti-holomorphic involution on P^5 fixing the U(2) fiber L_t."""
    z = np.asarray(point, dtype=complex)
    lam, t = float(lam), float(t)
    r = (lam + t) / (lam - t)
    z12, z13, z14, z23, z24, z34 = np.conj(z)
    return np.array([r * z34, z24, -z23, -z14, z13, z12 / r])


def plucker_of_frame(Z):
    """Plucker coordinates (12, 13, 14, 23, 24, 34) of a 4x2 frame."""
    Z = np.asarray(Z, dtype=complex)
    order = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return np.array(
        [Z[i, 0] * Z[j, 1] - Z[i, 1] * Z[j, 0] for i, j in order]
    )


def projective_equal(p, q):
    p = np.asarray(p, dtype=complex).ravel()
    q = np.asarray(q, dtype=complex).ravel()
    i = int(np.argmax(np.abs(p)))
    if abs(p[i]) == 0 or abs(q[i]) == 0:
        return False
    p = p / p[i]
    q = q / q[i]
    return bool(np.max(np.abs(p - q)) < PROJECTIVE_TOL * max(1.0, np.max(np.abs(p))))


# ---------------------------------------------------------------------------
# disk-count integrals


def _machin_pi(digits):
    """pi * 10^digits as an integer, within 1 of the truth, from Machin's
    formula pi = 16 arctan(1/5) - 4 arctan(1/239) in integer arithmetic."""
    unit = 10 ** (digits + 10)  # ten guard digits absorb the truncations

    def arctan_inverse(n):  # unit * arctan(1/n), by its Taylor series
        total, power, odd, sign = 0, unit // n, 1, 1
        while power:
            total += sign * (power // odd)
            power, odd, sign = power // (n * n), odd + 2, -sign
        return total

    return (16 * arctan_inverse(5) - 4 * arctan_inverse(239)) // 10**10


def _disk_table(K):
    """Rows m = 0..K of (c, log c) for c = c(k, m - k), k = 0..m, where
    c(k, l) = (1/(k! l!)) int_0^1 s^k (1 - s)^l (1 - cos 2 pi s) ds.

    With J(k, l) = (1/(k! l!)) int_0^1 s^k (1 - s)^l e^{2 pi i s} ds,
    c(k, l) = 1/(k + l + 1)! - Re J(k, l), and integration by parts gives
    J(k, l) = a (d(l) / k! - d(k) / l!) - a (J(k-1, l) - J(k, l-1)) with
    a = 1/(2 pi i), d(n) = 1 if n = 0 else 0, J(0, 0) = 0 and J = 0 at a
    negative index.  The recurrence cancels fewer than log10((K+1)!)
    digits (about 29 at K = 40, 140 at K = 120), so it runs in decimal
    arithmetic with 40 digits more than that, and at least 100; each c is
    rounded to float once, at the end, and below the normal floats (from
    k + l = 170 on), where that float keeps few digits, log c too.
    """
    import decimal

    def float_and_log(c):
        f, e = float(c), c.adjusted()  # c = m 10^e with 1 <= m < 10
        return f, (math.log(f) if f >= sys.float_info.min
                   else math.log(float(c.scaleb(-e))) + e * math.log(10))

    digits = max(100, 40 + len(str(math.factorial(K + 1))))
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        one = decimal.Decimal(1)
        b = one / (2 * decimal.Decimal(_machin_pi(digits)).scaleb(-digits))  # a = -i b
        inv_fact = [one / math.factorial(n) for n in range(K + 2)]
        rows, prev = [], []
        for m in range(K + 1):
            cur = []  # (Re, Im) of J(k, m - k), k = 0..m
            for k in range(m + 1):
                l = m - k
                # e = d(l)/k! - d(k)/l! - J(k-1, l) + J(k, l-1); J(k, l) = -i b e
                re = (inv_fact[k] if l == 0 else 0) - (inv_fact[l] if k == 0 else 0)
                im = 0
                if k:
                    re, im = re - prev[k - 1][0], im - prev[k - 1][1]
                if l:
                    re, im = re + prev[k][0], im + prev[k][1]
                cur.append((b * im, -b * re))
            rows.append(tuple(float_and_log(inv_fact[m + 1] - re) for re, _ in cur))
            prev = cur
    return rows


_DISK_TABLE = []  # the rows of _disk_table, built on first use


def _disk_coefficient(k, l):
    """(c(k, l), log c(k, l)) from the cached table, which is built (at
    least to K = 40) or grown (at least twofold) when k + l lies beyond it."""
    if k < 0 or l < 0:
        raise ValueError("k, l must be non-negative")
    m = k + l
    if m >= len(_DISK_TABLE):
        _DISK_TABLE[:] = _disk_table(max(m, 40, 2 * len(_DISK_TABLE)))
    return _DISK_TABLE[m][k]


def open_gw_integral(k, l, x):
    """The (k, l) disk-count integral
    int_0^{2pi} (1/k!) ((theta/2pi) x)^k (1/l!) ((1 - theta/2pi) x)^l
    (1 - cos theta) dtheta / 2pi = x^(k+l) c(k, l), with c(k, l) read from
    the exact table of _disk_table.  A non-finite x raises ValueError, a
    result beyond the float range OverflowError."""
    x = complex(x)
    if not cmath.isfinite(x):
        raise ValueError(f"holonomy x must be finite, got {x}")
    n, (c, log_c) = k + l, _disk_coefficient(k, l)
    if c >= sys.float_info.min or not x:
        try:
            return x ** n * c
        except OverflowError:
            pass
    # x^n overflows, or c lies below the normal floats: the product by logs
    r = abs(x)
    return math.exp(n * math.log(r) + log_c) * (x / r) ** n


def open_gw_series(x, K=40):
    """sum_{k + l <= K} open_gw_integral(k, l, x); equals e^x up to the
    reported tail bound |x|^{K+1}/(K+1)!."""
    total = 0.0 + 0.0j
    for k in range(K + 1):
        for l in range(K + 1 - k):
            total += open_gw_integral(k, l, x)
    tail = abs(x) ** (K + 1) / math.factorial(K + 1)
    return total, tail


def pair_integral(k, l):
    """The (k, l) integral of the (b, -b) pair differential at b = i pi/2:
    int (1/k!) (i theta/4)^k (1/l!) (i (theta/4 - pi/2))^l
    (1 - cos theta) dtheta / 2pi = (i pi/2)^(k+l) (-1)^l c(k, l)."""
    c, log_c = _disk_coefficient(k, l)
    n = k + l
    unit = (1, 1j, -1, -1j)[n % 4] * (-1) ** l
    if c >= sys.float_info.min:
        return unit * (math.pi / 2.0) ** n * c
    return unit * math.exp(n * math.log(math.pi / 2.0) + log_c)


def pair_series(K=40):
    """sum_{k + l <= K} pair_integral(k, l); equals 8/(3 pi) per disk class."""
    total = 0.0 + 0.0j
    for k in range(K + 1):
        for l in range(K + 1 - k):
            total += pair_integral(k, l)
    return total


# ---------------------------------------------------------------------------
# displacement energy


def displacement_energy_bound(lam, t):
    """h(t) = (2 lam / pi) arctan sqrt((lam^2 - t^2)/t^2); h(0) = lam by the
    one-sided limit, h(+-lam) = 0."""
    lam, t = float(lam), float(t)
    if abs(t) > lam:
        raise ValueError("need |t| <= lam")
    if t == 0.0:
        return lam
    if abs(t) == lam:
        return 0.0
    return (2.0 * lam / math.pi) * math.atan(math.sqrt((lam**2 - t**2) / t**2))
