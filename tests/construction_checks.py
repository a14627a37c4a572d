"""Checks of the paper's construction that only the tests run.

No suite or acceptance criterion calls these, so they live beside the tests
rather than in the package.
"""

import numpy as np

from islab.blowup import SIGMA, from_polar, to_polar
from islab.hamiltonian import HamiltonianSystem, _midpoint_steps
from islab.maps import torus_diff, wrap_torus

EXP_2SIGMA = 161.0 + 72.0 * np.sqrt(5.0)          # e^{2 sigma}, saddle multiplier


def regime_consistency(island):
    """Sup distance between the two defining formulas on the outer collar.

    On rho in (rho_lo, rho_lo + zeta] with zeta = (r1 - rho_lo) e^{-2 sigma}
    the surgery composite equals the island flow exactly (both are the
    time-sigma flow of (rho - rho_lo) sin 2 theta while the orbit stays in
    the linear zone of psi); the residual measures the refined integrator.
    """
    prof = island.profile
    zeta = (prof.r1 - prof.rho_lo) * np.exp(-2 * SIGMA)
    rng = np.random.default_rng(7)
    th = rng.uniform(0, 2 * np.pi, 64)
    rho = prof.rho_lo + zeta * rng.uniform(0.05, 1.0, 64)
    state = np.stack([rho, th], axis=-1)
    w = from_polar(state)
    # the flow runs in the centre's own polar frame, so one integration
    # serves all four centres
    s_end, _ = _midpoint_steps(island.system, state, SIGMA, 32768, 1e-15, False)
    dw = from_polar(s_end) - w
    worst = 0.0
    for c in island.centers:
        p = wrap_torus(c + w @ island.R.T)
        surg = island(p)                       # rho > rho_lo: surgery branch
        flow = wrap_torus(p + dw @ island.R.T)
        worst = max(worst, float(np.max(np.abs(torus_diff(surg, flow)))))
    return worst


def flow_matches_linear_map(island):
    """Precondition check: the chart flow of H0 = rho sin 2 theta over time
    sigma matches the diagonalized automorphism on outer-disc samples."""
    prof = island.profile
    rng = np.random.default_rng(9)
    th = rng.uniform(0, 2 * np.pi, 64)
    w = from_polar(np.stack([np.full(64, prof.rho_hi), th], axis=-1))

    def grad(s):
        rho, t_ = s[..., 0], s[..., 1]
        return np.stack([np.sin(2 * t_), 2 * rho * np.cos(2 * t_)], axis=-1)

    def hess(s):
        rho, t_ = s[..., 0], s[..., 1]
        H = np.empty(np.shape(s)[:-1] + (2, 2), dtype=float)
        H[..., 0, 0] = 0.0
        H[..., 0, 1] = 2 * np.cos(2 * t_)
        H[..., 1, 0] = H[..., 0, 1]
        H[..., 1, 1] = -4 * rho * np.sin(2 * t_)
        return H

    sys0 = HamiltonianSystem("rho sin 2 theta", grad, hess)
    s_end, _ = _midpoint_steps(sys0, to_polar(w), SIGMA, 65536, 1e-15, False)
    D = np.diag([np.exp(SIGMA), np.exp(-SIGMA)])
    return float(np.max(np.abs(from_polar(s_end) - w @ D.T)))
