import itertools
from fractions import Fraction

import numpy as np
import pytest

from gcfloer import potential
from gcfloer.flags import EigenProfile, FlagShape, grassmannian_shape
from gcfloer.numerics import complex_eigenvalues
from gcfloer.qh import c1_eigenvalues_grassmannian, c1_matrix, multiset_match
from gcfloer.spaces import SPACES, UNIT
from gcfloer.verify import coset_partition, partitions_in_box, rimhook_mismatches

FL3 = FlagShape((1, 2), 3)


def sigma1_columns(k, n):
    """c1 / n on Gr(k, n), with rows and columns looked up by partition."""
    mat = c1_matrix(grassmannian_shape(k, n))
    pos = {coset_partition(w, k): i for i, w in enumerate(mat.basis)}
    classical, quantum = mat.coeffs[(0,)], mat.coeffs[(1,)]
    assert not (classical % n).any() and not (quantum % n).any()
    return pos, classical // n, quantum // n


def test_partitions_in_box():
    assert partitions_in_box(2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert len(partitions_in_box(2, 3)) == 10
    assert len(partitions_in_box(1, 4)) == 5


@pytest.mark.parametrize("n", range(2, 9))
def test_c1_matrix_matches_rimhook_oracle(n):
    # n sigma_1 by n-rim-hook reduction, basis in partition order
    for k in range(1, n):
        assert rimhook_mismatches(k, n) == []


def test_sigma1_matrix_gr24_columns():
    pos, classical, quantum = sigma1_columns(2, 4)
    # sigma_1 . sigma_() = sigma_(1)
    assert classical[pos[(1,)], pos[()]] == 1 and classical[:, pos[()]].sum() == 1
    # sigma_1 . sigma_(2,1) = sigma_(2,2) + q sigma_()
    assert classical[pos[(2, 2)], pos[(2, 1)]] == 1
    assert classical[:, pos[(2, 1)]].sum() == 1
    assert quantum[pos[()], pos[(2, 1)]] == 1
    # sigma_1 . sigma_(2,2) = q sigma_(1)
    assert classical[:, pos[(2, 2)]].sum() == 0
    assert quantum[pos[(1,)], pos[(2, 2)]] == 1


def test_sigma1_matrix_gr25_quantum_column():
    pos, _, quantum = sigma1_columns(2, 5)
    # sigma_1 . sigma_(3,3) = q sigma_(2) + (classical part)
    assert quantum[pos[(2,)], pos[(3, 3)]] == 1
    assert quantum[pos[(1,)], pos[(3, 2)]] == 1
    assert quantum[pos[()], pos[(3, 1)]] == 1
    assert quantum.sum() == 3  # exactly the full-width columns hit the wall


def test_sigma1_matrix_bounds():
    with pytest.raises(ValueError):
        c1_matrix(FlagShape((0,), 4))
    with pytest.raises(ValueError):
        c1_matrix(FlagShape((4,), 4))
    # no cap on n: Gr(3,7) has the C(7,3) = 35 Schubert classes
    assert c1_matrix(grassmannian_shape(3, 7)).dim == 35


def test_classical_limit_is_nilpotent():
    for k, n in ((2, 4), (2, 5), (1, 3)):
        m = c1_matrix(grassmannian_shape(k, n)).at(0.0)
        assert np.abs(np.linalg.matrix_power(m, m.shape[0])).max() < 1e-12


def test_c1_eigenvalues_gr24_structure():
    q = 0.0625
    eigs = c1_eigenvalues_grassmannian(2, 4, q)
    assert len(eigs) == 6
    # a double zero plus 4 sqrt(2) i^j q^{1/4}
    mags = sorted(np.abs(eigs))
    assert mags[0] < 1e-9 and mags[1] < 1e-9
    assert np.allclose(mags[2:], 4 * np.sqrt(2) * q**0.25)


def test_fl3_c1_matrix_structure():
    mat = c1_matrix(FL3)
    # c1 . sigma_id = 2 sigma_{s1} + 2 sigma_{s2}
    pos = {w: i for i, w in enumerate(mat.basis)}
    col = pos[(1, 2, 3)]
    classical = mat.coeffs[(0, 0)]
    assert classical[pos[(2, 1, 3)], col] == 2
    assert classical[pos[(1, 3, 2)], col] == 2
    assert classical[:, col].sum() == 4
    # at q = 0 multiplication by c1 is nilpotent
    m0 = mat.at(0.0, 0.0)
    assert np.abs(np.linalg.matrix_power(m0, 6)).max() < 1e-12


def test_fl3_c1_matrix_reference():
    # the hand-written Fl(3) Chevalley table the general rule replaced
    basis = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
    want = {
        (0, 0): [[0, 0, 0, 0, 0, 0],
                 [2, 0, 0, 0, 0, 0],
                 [2, 0, 0, 0, 0, 0],
                 [0, 4, 2, 0, 0, 0],
                 [0, 2, 4, 0, 0, 0],
                 [0, 0, 0, 2, 2, 0]],
        (1, 0): [[0, 0, 2, 0, 0, 0],
                 [0, 0, 0, 0, 2, 0],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 2],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 0]],
        (0, 1): [[0, 2, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 2, 0, 0],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 2],
                 [0, 0, 0, 0, 0, 0]],
        (1, 1): [[0, 0, 0, 0, 0, 4],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 0],
                 [0, 0, 0, 0, 0, 0]],
    }
    mat = c1_matrix(FL3)
    assert mat.basis == basis
    assert set(mat.coeffs) == set(want)
    for degree, rows in want.items():
        assert np.array_equal(mat.coeffs[degree], rows)


@pytest.mark.parametrize("steps,blocks,n_values,dim", [
    ((1, 2, 3), (3, 1, 0, -1), 24, 24),  # Fl(4)
    ((1, 2), (2, 1, 0), 12, 12),  # F(1,2;4)
    ((1, 3), (2, 1, 0), 9, 12),  # F(1,3;4): 3 zero eigenvalues, no critical point
])
def test_c1_eigenvalues_match_critical_values_beyond_the_registry(steps, blocks, n_values, dim):
    shape = FlagShape(steps, 4)
    profile = EigenProfile.from_blocks(shape, blocks)
    T0 = 0.5
    po = potential.build_potential(shape, profile)
    # starts budgets the start solve: 25 per point of the generic Fl(4) potential (64)
    points = potential.find_critical_points(po, potential.SolverConfig(T0=T0, starts=1600))
    values = [potential.evaluate(po, c.numeric_at(T0), T0) for c in points]
    q = [T0 ** float(profile.value(s) - profile.value(s + 1)) for s in steps]
    eigs = complex_eigenvalues(c1_matrix(shape).at(*q))
    assert len(values) == n_values and len(eigs) == dim
    ok, pairing = multiset_match(values, eigs, 1e-7, allow_zero_padding=True)
    assert ok
    assert all(abs(eigs[j]) < 1e-9 for i, j in pairing if i >= len(values))


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (2, 6), (3, 6), (2, 7), (3, 7)])
def test_c1_eigenvalues_grassmannian_closed_form(k, n):
    # Rietsch (2001): the c1 eigenvalues of Gr(k, n) at q are n (x_j1 + ... +
    # x_jk) over the k-subsets of the roots of x^n = (-1)^(k+1) q.
    q = 0.3
    roots = ((-1) ** (k + 1) * q + 0j) ** (1 / n) * np.exp(2j * np.pi * np.arange(n) / n)
    want = np.array([n * sum(sub) for sub in itertools.combinations(roots, k)])
    got = c1_eigenvalues_grassmannian(k, n, q)
    assert len(got) == len(want)
    assert multiset_match(got, want, 1e-10)[0]


def test_fl3_quantum_parameters():
    # q_j = T^(lambda_{n_j} - lambda_{n_j + 1}) reproduces the matched
    # parameters: Fl3 (T^l1, T^l2), Gr24 T^(2 lam), Gr25 T^lam
    fl3, gr24, gr25 = SPACES["Fl3"], SPACES["Gr24"], SPACES["Gr25"]
    assert fl3.quantum_parameters(EigenProfile((1, 0, -2)), 0.5) == (0.5, 0.25)
    lam = Fraction(3, 2)
    assert gr24.quantum_parameters(EigenProfile((2 * lam, 2 * lam, 0, 0)), 0.5) == (0.5**3.0,)
    assert gr25.quantum_parameters(EigenProfile((lam, lam, 0, 0, 0)), 0.5) == (0.5**1.5,)


def test_multiset_match():
    ok, pairing = multiset_match([1.0, 1j], [1j, 1.0], 1e-12)
    assert ok and sorted(pairing) == [(0, 1), (1, 0)]
    ok, _ = multiset_match([1.0, 1j], [1j, 1.1], 1e-3)
    assert not ok
    with pytest.raises(ValueError):
        multiset_match([1.0], [1.0, 2.0], 1e-9)
    ok, _ = multiset_match([1.0], [1.0, 0.0], 1e-9, allow_zero_padding=True)
    assert ok


def test_multiset_match_finds_a_pairing_min_sum_misses():
    # every distance of (0, 1), (1, 2), (2, 0) is at most 5.84; the min-sum
    # assignment (0, 2), (1, 1), (2, 0) has the smaller total but a 6.40
    a = [2 - 2j, 1 - 1j, -3j]
    b = [-3 + 2j, -3 + 1j, -2 + 3j]
    ok, pairing = multiset_match(a, b, 6.0)
    assert ok
    assert all(abs(a[i] - b[j]) < 6.0 for i, j in pairing)


def test_multiset_match_pairs_equal_values_in_index_order():
    # re-routing before taking a free neighbour would give (0, 1), (2, 0)
    ok, pairing = multiset_match([1, 1j, 1], [1, 1, 1j], 1e-9)
    assert ok and pairing == [(0, 0), (1, 2), (2, 1)]
    # values equal up to rounding pair in index order too, not by the noise
    ok, pairing = multiset_match([1, 1 + 2e-16], [1 + 2e-16, 1], 1e-9)
    assert ok and pairing == [(0, 0), (1, 1)]


def test_multiset_match_without_perfect_matching_uses_each_index_once():
    # a[0] and a[1] both want b[0] only; a[2] is near nothing
    ok, pairing = multiset_match([0, 0, 5], [0, 1, 2], 0.5)
    assert not ok
    assert pairing == [(0, 0), (1, 1), (2, 2)]
    ok, pairing = multiset_match([9, 1, 1], [1, 1], 0.5, allow_zero_padding=True)
    assert not ok
    assert sorted(i for i, _ in pairing) == [0, 1, 2]
    assert sorted(j for _, j in pairing) == [0, 1, 2]


def test_multiset_match_padded_indices_gr24():
    # four critical values against six eigenvalues: the two padded zeros
    # get the integer indices 4 and 5 and pair with the double zero
    values = SPACES["Gr24"].critical_values(UNIT, 0.5)
    eigs = c1_eigenvalues_grassmannian(2, 4, 0.25)
    ok, pairing = multiset_match(values, eigs, 1e-7, allow_zero_padding=True)
    assert ok and len(pairing) == 6
    padded = sorted((i, j) for i, j in pairing if i >= len(values))
    assert [i for i, _ in padded] == [4, 5]
    assert all(abs(eigs[j]) < 1e-9 for _, j in padded)
    assert all(abs(values[i] - eigs[j]) < 1e-7 for i, j in pairing if i < len(values))
