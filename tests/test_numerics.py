import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcfloer import numerics
from gcfloer.numerics import (
    NonConvergenceError,
    check_hermitian,
    complex_eigenvalues,
    hermitian_eigenvalues,
    integrate_periodic,
)


def test_check_hermitian_accepts_and_rejects():
    a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    check_hermitian(a)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        check_hermitian(np.ones((2, 3)))


def test_hermitian_eigenvalues_degenerate_spectrum():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    a = q @ np.diag([2.0, 2.0, -1.0, -1.0]) @ q.conj().T
    got = hermitian_eigenvalues(a)
    assert np.abs(got - [2.0, 2.0, -1.0, -1.0]).max() < 1e-10


def test_complex_eigenvalues_sorted_and_sized():
    a = np.diag([3.0, -1.0, 2.0]).astype(complex)
    got = complex_eigenvalues(a)
    assert np.allclose(got, [-1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="square"):
        complex_eigenvalues(np.ones((2, 3)))
    # the 20-cycle has the 20th roots of unity as eigenvalues; conjugate
    # pairs share a real part, so they are ordered by imaginary part
    cycle = np.roll(np.eye(20), 1, axis=0)
    roots = np.exp(2j * np.pi * np.arange(20) / 20)
    want = sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.abs(complex_eigenvalues(cycle) - want).max() < 1e-12


def test_complex_eigenvalues_nilpotent():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.abs(complex_eigenvalues(a)).max() < 1e-12


def test_integrate_periodic_trig():
    assert abs(integrate_periodic(lambda t: 1.0 - np.cos(t)) - 1.0) < 1e-12
    assert abs(integrate_periodic(np.sin)) < 1e-12
    assert abs(integrate_periodic(lambda t: np.exp(3j * t))) < 1e-12


def test_integrate_periodic_broadcasts_constant_integrand():
    assert integrate_periodic(lambda t: 2.0) == 2.0


def test_integrate_periodic_rejects_misshapen_integrand():
    with pytest.raises(ValueError):
        integrate_periodic(lambda t: np.ones(3))


def test_integrate_periodic_rejects_bad_tol():
    with pytest.raises(ValueError):
        integrate_periodic(np.cos, tol=0.0)


def _reference_grid(panels):
    """The half-widths and nodes of the composite rule, built afresh."""
    edges = np.linspace(0.0, 2.0 * np.pi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return half, mid[:, None] + half[:, None] * numerics._NODES


def _reference_estimate(f, panels):
    """The reference estimate on panels panels: f called on that grid alone."""
    half, theta = _reference_grid(panels)
    vals = np.broadcast_to(np.asarray(f(theta), dtype=complex), theta.shape)
    return np.sum(half * (vals @ numerics._WEIGHTS)) / (2.0 * np.pi)


# the least positive tol: half of it rounds to 0, so no estimate converges and
# max_doublings = d leaves the estimate on 2^d panels as last_estimate
_NEVER = 5e-324


def _kinked(t):
    return np.abs(np.sin((t - 1.0) / 2.0))


def _bytes(z):
    return np.complex128(z).tobytes()


@pytest.mark.parametrize("f", [_kinked, lambda t: np.exp(np.sin(t) + 2j * t), lambda t: 2.0])
def test_estimates_match_unmemoized_grids(f):
    for doublings in range(9):
        with pytest.raises(NonConvergenceError) as info:
            integrate_periodic(f, tol=_NEVER, max_doublings=doublings)
        assert _bytes(info.value.last_estimate) == _bytes(_reference_estimate(f, 2**doublings))
    assert _bytes(integrate_periodic(np.cos)) == _bytes(_reference_estimate(np.cos, 2))


def test_integrand_cannot_write_the_nodes():
    def clobber(theta):
        theta[:] = 0.0
        return np.cos(theta)

    for f in (clobber, lambda t: np.sin(t, out=t)):
        with pytest.raises(ValueError):
            integrate_periodic(f)
    # later calls still get the rule's own nodes
    for doublings in (0, 1):
        with pytest.raises(NonConvergenceError) as info:
            integrate_periodic(_kinked, tol=_NEVER, max_doublings=doublings)
        assert _bytes(info.value.last_estimate) == _bytes(_reference_estimate(_kinked, 2**doublings))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, -np.inf), 1e308])
def test_non_finite_estimate_stops_at_once(monkeypatch, value):
    # a non-finite estimate can never converge; it once doubled to 2^20
    # panels first (0.8 s and 571 MB for a NaN integrand)
    calls, grids = [], []
    grid = numerics._grid
    monkeypatch.setattr(numerics, "_grid", lambda p: grids.append(p) or grid(p))

    def f(theta):
        calls.append(theta.shape)
        return np.full(theta.shape, value)

    with np.errstate(all="ignore"), pytest.raises(NonConvergenceError, match="non-finite") as info:
        integrate_periodic(f)
    assert calls == [(1, 16)]
    assert grids == [1]
    assert not np.isfinite(info.value.last_estimate)


def test_open_gw_integral_of_nan_holonomy_stops_at_once(deadline):
    # once 2.6 s of quadrature doublings; the exact table rejects it up front
    from gcfloer.floer import open_gw_integral

    for x in (float("nan"), complex(1.0, float("inf"))):
        with deadline(0.5), pytest.raises(ValueError, match="finite"):
            open_gw_integral(3, 4, x)


def test_grids_of_a_non_converging_run_are_not_kept():
    with pytest.raises(NonConvergenceError):
        integrate_periodic(_kinked, tol=_NEVER, max_doublings=8)
    assert {1, 2, 64} <= set(numerics._GRIDS)
    assert max(numerics._GRIDS) == 64


def test_nonconvergence_carries_estimate():
    # a kinked integrand: the quadrature cannot hit 1e-14 in two doublings
    f = lambda t: np.abs(np.sin((t - 1.0) / 2.0))  # kink at an interior point
    with pytest.raises(NonConvergenceError) as info:
        integrate_periodic(f, tol=1e-14, max_doublings=2)
    assert info.value.last_estimate is not None


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=5,
    )
)
def test_integrate_periodic_picks_out_constant_term(coeffs):
    def f(theta):
        return sum(c * np.exp(1j * k * theta) for k, c in enumerate(coeffs))

    got = integrate_periodic(f, tol=1e-11)
    assert abs(got - coeffs[0]) < 1e-9


def test_quadrature_rule_is_leggauss_16():
    # integrate_periodic's written-out rule is exactly numpy's, so results
    # match a rule computed at run time bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert numerics._NODES.tobytes() == nodes.tobytes()
    assert numerics._WEIGHTS.tobytes() == weights.tobytes()
    assert not numerics._NODES.flags.writeable
    assert not numerics._WEIGHTS.flags.writeable
