"""Quantum multiplication by c_1 on the small quantum cohomology of a flag manifold.

One rule covers every partial flag F(n_1, ..., n_r; n): the quantum Chevalley
formula of Fomin-Gelfand-Postnikov ("Quantum Schubert polynomials", JAMS
1997), in the form Fulton-Woodward give for G/P ("On the quantum product of
Schubert classes", J. Algebraic Geom. 2004, Thm 10.1).  It acts on the
Schubert basis indexed by minimal coset representatives, with one quantum
parameter q_j per step n_j.  Eigenvalues are computed numerically at
specialized quantum parameters and compared with potential critical values
by a threshold matching: a pairing with every distance below the tolerance.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import flags
from .numerics import complex_eigenvalues


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


def c1_matrix(shape):
    """Quantum Chevalley matrix of c_1 on QH*(F(n_1, ..., n_r; n)).

    The basis W^P is the permutations w of 1..n that increase on each block
    (n_{j-1}, n_j] of positions, sorted by (length, each block's entries in
    descending order): the partition order for Gr(k, n), the lexicographic
    order for Fl(3).  For positions a < b in different blocks, t_ab swaps
    them, m_ab = sum of n_{j+1} - n_{j-1} over the steps a <= n_j < b, and
    the q-degree d_ab has a 1 at each of those steps.  Column w gets m_ab at
    w t_ab when l(w t_ab) = l(w) + 1, and otherwise m_ab q^d_ab at the
    block-sorted floor(w t_ab) when its length is l(w) + 1 - m_ab.
    """
    steps, levels = shape.steps, shape.levels
    blocks = list(zip(levels, levels[1:]))
    reps = [()]
    for lo, hi in blocks:
        reps = [w + c for w in reps for c in itertools.combinations(
            sorted(set(range(1, shape.ambient + 1)).difference(w)), hi - lo)]

    def length(w):
        return sum(x > y for x, y in itertools.combinations(w, 2))

    basis = tuple(sorted(
        reps, key=lambda w: (length(w), [w[lo:hi][::-1] for lo, hi in blocks])))
    pos = {w: i for i, w in enumerate(basis)}
    pairs = []
    for a, b in itertools.combinations(range(shape.ambient), 2):
        degree = tuple(int(a < s <= b) for s in steps)
        if any(degree):
            m = sum(levels[j + 1] - levels[j - 1] for j, d in enumerate(degree, 1) if d)
            pairs.append((a, b, degree, m))
    coeffs = {}
    for col, w in enumerate(basis):
        lw = length(w)
        for a, b, degree, m in pairs:
            wt = list(w)
            wt[a], wt[b] = wt[b], wt[a]
            if length(wt) == lw + 1:
                row, deg = pos[tuple(wt)], (0,) * len(steps)
            else:
                floor = sum((tuple(sorted(wt[lo:hi])) for lo, hi in blocks), ())
                if length(floor) != lw + 1 - m:
                    continue
                row, deg = pos[floor], degree
            if deg not in coeffs:
                coeffs[deg] = np.zeros((len(basis), len(basis)), dtype=int)
            coeffs[deg][row, col] += m
    return QHMatrix(basis, coeffs)


def c1_eigenvalues_grassmannian(k, n, q_value):
    return complex_eigenvalues(c1_matrix(flags.grassmannian_shape(k, n)).at(q_value))


def fl3_c1_eigenvalues(q1_value, q2_value):
    return complex_eigenvalues(c1_matrix(flags.FlagShape((1, 2), 3)).at(q1_value, q2_value))


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
