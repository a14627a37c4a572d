import numpy as np
import pytest

from construction_checks import energy_drift, finite_difference_jacobian, saddle_system, stacked
from islab import hamiltonian
from islab.hamiltonian import MIDPOINT_TOL, HamiltonianSystem, _midpoint_steps

SIGMA = np.log(9 + 4 * np.sqrt(5))


def pendulum_energy(p):
    # H = y^2/2 + cos(2 pi x) / (2 pi)
    return 0.5 * p[..., 1] ** 2 + np.cos(2 * np.pi * p[..., 0]) / (2 * np.pi)


def pendulum():
    def grad(p):
        return np.stack([-np.sin(2 * np.pi * p[..., 0]), p[..., 1]], axis=-1)

    def hess(p):
        return -2 * np.pi * np.cos(2 * np.pi * p[..., 0]), 0.0, 1.0

    return HamiltonianSystem("pendulum", grad, hess)


def midpoint_flow(sys, p, t, steps):
    """Image of p under the time-t midpoint flow of sys, in `steps` steps."""
    return _midpoint_steps(sys, p, t, steps, MIDPOINT_TOL, False)[0]


def test_saddle_flow_matches_exact_multipliers():
    # Time-1 flow of H = sigma*x*y is diag(e^sigma, e^-sigma).  Implicit
    # midpoint is second order (Cayley bias ~ sigma^3 h^2 / 12), so hitting
    # 1e-10 on a small box would need h ~ 6e-6; Suzuki's fourth-order
    # composition gets there at h ~ 1e-3.
    sys = saddle_system(SIGMA)
    pts = np.array([[0.05, 0.03], [-0.02, 0.05], [0.01, -0.01]])
    z, _ = _midpoint_steps(sys, pts, 1.0, 1024, MIDPOINT_TOL, False, order=4)
    exact = np.stack([np.exp(SIGMA) * pts[:, 0], np.exp(-SIGMA) * pts[:, 1]], axis=-1)
    assert np.max(np.abs(z - exact)) < 1e-10


def test_saddle_flow_jacobian_det_one():
    sys = saddle_system(SIGMA)
    pts = np.random.default_rng(0).normal(size=(200, 2))
    _, J = _midpoint_steps(sys, pts, 0.7, 64, MIDPOINT_TOL, True)
    assert np.max(np.abs(np.linalg.det(stacked(J)) - 1.0)) < 1e-12


def test_flow_roundtrip_is_identity():
    sys = pendulum()
    pts = np.random.default_rng(1).normal(size=(100, 2)) * 0.5
    back = midpoint_flow(sys, midpoint_flow(sys, pts, 0.9, 64), -0.9, 64)
    assert np.max(np.abs(back - pts)) < 1e-9


def test_midpoint_jacobian_leaves_the_image_unchanged():
    # the variational product rides along: the image carries the same bits
    # with and without it
    p = np.random.default_rng(9).uniform(-0.5, 0.5, (50, 2))
    img, J = _midpoint_steps(pendulum(), p, 0.7, 32, MIDPOINT_TOL, True)
    assert all(e.shape == (50,) for e in J)
    assert np.array_equal(img, midpoint_flow(pendulum(), p, 0.7, 32))


def test_pendulum_variational_jacobian_vs_fd():
    sys = pendulum()
    p = np.array([0.21, -0.33])
    J = stacked(_midpoint_steps(sys, p, 0.5, 50, MIDPOINT_TOL, True)[1])
    J_fd = finite_difference_jacobian(lambda q: midpoint_flow(sys, q, 0.5, 50), p)
    assert np.max(np.abs(J - J_fd)) < 5e-7
    assert abs(np.linalg.det(J) - 1.0) < 1e-13


def test_pendulum_energy_drift_second_order():
    sys = pendulum()
    pts = np.random.default_rng(2).normal(size=(50, 2)) * 0.4
    d1 = energy_drift(pendulum_energy, lambda q: midpoint_flow(sys, q, 1.0, 50), pts)
    d2 = energy_drift(pendulum_energy, lambda q: midpoint_flow(sys, q, 1.0, 100), pts)
    assert d1 < 2e-4
    assert d2 < d1 / 2.5  # ~4x reduction expected at 2nd order


def test_midpoint_second_order_convergence():
    sys = pendulum()
    p = np.array([0.3, 0.2])
    ref = midpoint_flow(sys, p, 1.0, 4096)
    e1 = np.max(np.abs(midpoint_flow(sys, p, 1.0, 64) - ref))
    e2 = np.max(np.abs(midpoint_flow(sys, p, 1.0, 128) - ref))
    assert 3.0 < e1 / e2 < 5.0


def test_midpoint_fourth_order_convergence():
    sys = pendulum()
    p = np.array([0.3, 0.2])

    def flow(steps):
        return _midpoint_steps(sys, p, 1.0, steps, MIDPOINT_TOL, False, order=4)[0]

    ref = flow(4096)
    e1 = np.max(np.abs(flow(64) - ref))
    e2 = np.max(np.abs(flow(128) - ref))
    assert 12.0 < e1 / e2 < 20.0    # 16x expected at 4th order


def test_fourth_order_stages_are_suzukis():
    # (p, p, 1 - 4p, p, p), p = 1/(4 - 4^{1/3}): consistent (sum 1),
    # symmetric, and with no h^3 error term (sum of cubes 0)
    g = np.array(hamiltonian._STAGES[4])
    assert len(g) == 5
    assert abs(np.sum(g) - 1.0) <= 4e-16
    assert np.array_equal(g, g[::-1])
    assert abs(np.sum(g ** 3)) <= 4e-16
    assert g[0] == 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))


def test_midpoint_fourth_order_jacobian_det_one():
    sys = pendulum()
    pts = np.random.default_rng(5).normal(size=(200, 2)) * 0.5
    _, J = _midpoint_steps(sys, pts, 0.7, 64, MIDPOINT_TOL, True, order=4)
    assert np.max(np.abs(np.linalg.det(stacked(J)) - 1.0)) < 1e-12


def test_midpoint_fourth_order_jacobian_vs_fd():
    sys = pendulum()
    p = np.array([0.21, -0.33])

    def flow(q):
        return _midpoint_steps(sys, q, 0.5, 50, MIDPOINT_TOL, False, order=4)[0]

    J = stacked(_midpoint_steps(sys, p, 0.5, 50, MIDPOINT_TOL, True, order=4)[1])
    assert np.max(np.abs(J - finite_difference_jacobian(flow, p))) < 5e-7


def test_midpoint_result_independent_of_batch():
    # each point stops its Newton solve at its own convergence, so
    # integrating it alone or inside a batch gives the same bits, at either
    # order
    sys = pendulum()
    pts = np.random.default_rng(3).normal(size=(40, 2)) * 0.6
    for order in (2, 4):
        z, M = _midpoint_steps(sys, pts, 0.8, 32, 1e-13, True, order=order)
        for i in (0, 17, 39):
            zi, Mi = _midpoint_steps(sys, pts[i], 0.8, 32, 1e-13, True, order=order)
            assert np.array_equal(z[i], zi)
            assert np.array_equal(stacked(M)[i], stacked(Mi))


@pytest.mark.parametrize("order", [2, 4])
def test_midpoint_solve_matches_a_tighter_solve(order):
    # the simplified-Newton solve stopped at MIDPOINT_TOL against the same
    # solve run to 1e-15; order 4 includes the backward middle substep
    sys = pendulum()
    pts = np.random.default_rng(4).normal(size=(40, 2)) * 0.6
    z, _ = _midpoint_steps(sys, pts, 0.8, 32, MIDPOINT_TOL, False, order=order)
    zt, _ = _midpoint_steps(sys, pts, 0.8, 32, 1e-15, False, order=order)
    assert np.max(np.abs(z - zt)) < 1e-12


def test_midpoint_solve_raises_at_its_cap(monkeypatch):
    # one iteration from the Euler start cannot reach the tolerance
    monkeypatch.setattr(hamiltonian, "SOLVE_CAP", 1)
    pts = np.random.default_rng(7).normal(size=(40, 2)) * 0.6
    with pytest.raises(RuntimeError, match="pendulum: midpoint solver failed at h="):
        _midpoint_steps(pendulum(), pts, 0.8, 32, MIDPOINT_TOL, False)


def test_zero_time_map_is_identity():
    sys = pendulum()
    p = np.array([[0.4, 0.1]])
    assert np.max(np.abs(midpoint_flow(sys, p, 0.0, 1) - p)) < 1e-15
