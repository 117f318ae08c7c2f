"""Quantum multiplication by c_1 on small quantum cohomology.

Grassmannians use the quantum Pieri rule for the hyperplane class sigma_1 on
the partition basis; the full flag 3-space uses the quantum Chevalley rule
on the Weyl-group basis with two quantum parameters.  Eigenvalues are
computed numerically at specialized quantum parameters and compared with
potential critical values by a threshold matching: a pairing with every
distance below the tolerance.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import complex_eigenvalues


def partitions_in_box(k, m):
    """All partitions with at most k parts, each at most m, sorted."""
    result = []
    for lam in itertools.product(range(m + 1), repeat=k):
        if all(lam[i] >= lam[i + 1] for i in range(k - 1)):
            result.append(tuple(p for p in lam if p > 0))
    return sorted(set(result), key=lambda p: (sum(p), p))


@dataclass(frozen=True)
class QHMatrix:
    """Square matrix with entries polynomial in quantum parameters.

    coeffs maps a tuple of q-degrees to an integer matrix; at(*q) sums
    q^degree * matrix over all stored degrees.
    """

    basis: tuple
    coeffs: dict  # degree tuple -> np.ndarray (int)

    @property
    def dim(self):
        return len(self.basis)

    def at(self, *q):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for degrees, mat in self.coeffs.items():
            factor = 1.0 + 0.0j
            for d, qv in zip(degrees, q):
                factor *= complex(qv) ** d
            out += factor * mat
        return out


def sigma1_matrix(k, n):
    """Quantum Pieri matrix of sigma_1 on QH*(Gr(k, n)).

    Classical part adds one box; the quantum part contributes
    q * sigma_{(lam_2 - 1, ..., lam_k - 1)} exactly when lam_1 = n - k and
    all k parts are >= 1.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    m = n - k
    basis = tuple(partitions_in_box(k, m))
    pos = {lam: i for i, lam in enumerate(basis)}
    dim = len(basis)
    classical = np.zeros((dim, dim), dtype=int)
    quantum = np.zeros((dim, dim), dtype=int)
    for j, lam in enumerate(basis):
        padded = list(lam) + [0] * (k - len(lam))
        for i in range(k):
            new = padded.copy()
            new[i] += 1
            if new[i] > m:
                continue
            if i > 0 and new[i] > new[i - 1]:
                continue
            mu = tuple(p for p in new if p > 0)
            classical[pos[mu], j] += 1
        if len(lam) == k and lam[0] == m and min(lam) >= 1:
            mu = tuple(p - 1 for p in lam[1:] if p - 1 > 0)
            quantum[pos[mu], j] += 1
    return QHMatrix(basis, {(0,): classical, (1,): quantum})


def c1_eigenvalues_grassmannian(k, n, q_value):
    """Eigenvalues of quantum multiplication by c_1 = n sigma_1."""
    mat = n * sigma1_matrix(k, n).at(q_value)
    return complex_eigenvalues(mat)


def _s3_elements():
    return sorted(itertools.permutations((1, 2, 3)))


def _length(w):
    return sum(1 for i in range(3) for j in range(i + 1, 3) if w[i] > w[j])


def _apply_transposition(w, a, b):
    """Right multiplication w t_ab (swap the entries at positions a, b)."""
    w = list(w)
    w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
    return tuple(w)


def fl3_c1_matrix():
    """Quantum Chevalley matrix of c_1 = 2 (sigma_{s1} + sigma_{s2}) on
    QH*(Fl(3)) over the Weyl-group basis, with parameters (q1, q2).

    For the simple reflection s_i, sigma_{s_i} * sigma_w sums sigma_{w t_ab}
    over a <= i < b with l(w t_ab) = l(w) + 1 (classical part) plus
    q_a ... q_{b-1} sigma_{w t_ab} when l(w t_ab) = l(w) - (2(b-a) - 1).
    """
    basis = tuple(_s3_elements())
    pos = {w: i for i, w in enumerate(basis)}
    dim = len(basis)
    # degree tuples are (d1, d2) for q1^d1 q2^d2
    coeffs = {}

    def add(degree, row, col, value):
        if degree not in coeffs:
            coeffs[degree] = np.zeros((dim, dim), dtype=int)
        coeffs[degree][row, col] += value

    transpositions = {
        (1, 2): (1, 0),
        (2, 3): (0, 1),
        (1, 3): (1, 1),
    }
    for i in (1, 2):  # the two simple reflections
        for w in basis:
            lw = _length(w)
            for (a, b), qdeg in transpositions.items():
                if not a <= i < b:
                    continue
                wt = _apply_transposition(w, a, b)
                lwt = _length(wt)
                if lwt == lw + 1:
                    add((0, 0), pos[wt], pos[w], 2)
                elif lwt == lw - (2 * (b - a) - 1):
                    add(qdeg, pos[wt], pos[w], 2)
    return QHMatrix(basis, coeffs)


def fl3_c1_eigenvalues(q1_value, q2_value):
    mat = fl3_c1_matrix().at(q1_value, q2_value)
    return complex_eigenvalues(mat)


def multiset_match(a, b, tol, allow_zero_padding=False):
    """Pair two complex multisets so that every pair lies within tol.

    Returns (matched, pairing): pairing lists one index pair (i, j) per
    entry of a, in order of i, matching a[i] to b[j], and matched says
    whether every pair has |a[i] - b[j]| < tol.  That is a perfect matching
    of the threshold graph {(i, j) : |a[i] - b[j]| < tol}, found by
    augmenting paths.  Tie rule: the a's go in index order, and each takes
    its lowest-index free neighbour before it re-routes along an augmenting
    path, so equal values pair in index order.  When matched is False the
    unmatched a's pair with the unmatched b's in index order.  With
    allow_zero_padding the shorter list is padded with zeros; a padded
    entry of a has index i >= len(a) (likewise for b).
    """
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    if len(a) != len(b):
        if not allow_zero_padding:
            raise ValueError("multisets have different sizes")
        a += [0j] * (len(b) - len(a))
        b += [0j] * (len(a) - len(b))
    near = [[j for j, y in enumerate(b) if abs(x - y) < tol] for x in a]
    owner = [None] * len(b)  # owner[j]: the index of a paired with b[j]

    def augment(i, seen):
        for j in near[i]:
            if owner[j] is None:
                owner[j] = i
                return True
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    for i in range(len(a)):
        augment(i, set())
    partner = {i: j for j, i in enumerate(owner) if i is not None}
    spare = iter(j for j, i in enumerate(owner) if i is None)
    pairing = [(i, partner[i] if i in partner else next(spare)) for i in range(len(a))]
    return len(partner) == len(a), pairing
