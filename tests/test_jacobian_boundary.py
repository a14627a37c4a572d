"""The one 2x2 boundary: inside the package every Jacobian is the entry
tuple (J00, J01, J10, J11) that `ev` returns, and the public `jacobian` and
`value_and_jacobian` are that tuple assembled as a (..., 2, 2) stack, bit
for bit, for every built-in descriptor and chart, on a point, a batch and
an empty batch."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from construction_checks import entries, stacked
from islab.blowup import IslandMap, _saddle_multipliers, island_check_batch, link_saddles
from islab.curves import BumpFn
from islab.links import TimeEnergyChart, build_suitable_model
from islab.maps import (affine_map, anosov_map, chirikov_map, compose, henon_like, inv2,
                        inverse_descriptor, quarter_turn, rotation_map, shear_map)
from islab.rescaling import (PASSAGE_RESID_TOL, RescalingCharts, SaddleNormalForm,
                             TransitionMap, build_perturbation, desk_model)


def _psi(x):
    return 0.05 * np.sin(2 * np.pi * x)


def _dpsi(x):
    return 0.1 * np.pi * np.cos(2 * np.pi * x)


# a stack of three shears: psi(x) of shape (3,) + x.shape
_AMP = np.array([0.5, 1.0, 2.0]).reshape(3, 1)


def _stack_psi(x):
    return _AMP * _psi(x)


def _stack_dpsi(x):
    return _AMP * _dpsi(x)


def _uniform(lo, hi, seed=0):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return lambda n: lo + (hi - lo) * np.random.default_rng(seed).random((n, 2))


def _island_points(n):
    # annulus and outside points of the island map, off the discs, where
    # Psi's Jacobian is defined
    p = np.random.default_rng(1).random((8 * n + 8, 2))
    d = p - np.round(2.0 * p) / 2.0
    return p[np.sum(d * d, axis=-1) > 0.16**2][:n]


def _g():
    kicks = [Polynomial([0.0, 0.0, 0.03]), Polynomial([0.01, 0.0, -0.02]),
             Polynomial([0.0, 0.02, 0.04])]
    return build_perturbation(RescalingCharts(desk_model(), 10), kicks)[0]


def _g_points(n):
    # inner boxes, collars and outside, over the three boxes
    m = desk_model()
    p = _uniform((-1.0, -1.0), (1.0, 1.0), 2)(n) * np.array(m.box_half) * 1.2
    return p + np.stack([m.x_plus[np.arange(n) % m.N], np.zeros(n)], axis=-1)


def _hooked_model():
    g = build_suitable_model().geometry
    eta = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta, 0.25, height=1.5e-3)
    return build_suitable_model(hook=shear_map(eta, eta.d1, name="S_eta"))


def _fixed(f, points):
    return lambda n: (f, points(n))


def _chirikov_rows(n):
    return chirikov_map(np.linspace(0.1, 6.0, n)), _uniform(0, 1)(n)


def _column_iterates(n):
    return SaddleNormalForm(0.4, 0.1).descriptor(np.arange(1, 6)[:, None]), \
        _uniform(0.05, 1.5)(n)


_TORUS = _uniform(0, 1)
_PLANE = _uniform(-2, 2)

# name -> n -> (map with ev/jacobian/value_and_jacobian, points (n, 2))
CASES = {
    "anosov": _fixed(anosov_map(), _TORUS),
    "chirikov": _fixed(chirikov_map(0.7), _TORUS),
    "chirikov-rows": _chirikov_rows,
    "shear": _fixed(shear_map(_psi, _dpsi), _PLANE),
    "shear-stack": _fixed(shear_map(_stack_psi, _stack_dpsi), _PLANE),
    "henon": _fixed(henon_like(_psi, _dpsi), _PLANE),
    "quarter-turn": _fixed(quarter_turn(), _PLANE),
    "affine": _fixed(affine_map("aff", (2.0, 0.5), (0.1, -0.3)), _PLANE),
    "rotation": _fixed(rotation_map(0.3), _PLANE),
    "compose": _fixed(compose(shear_map(_psi, _dpsi), henon_like(_psi, _dpsi)), _PLANE),
    "inverse": _fixed(inverse_descriptor(henon_like(_psi, _dpsi)), _PLANE),
    "T0^k": _fixed(SaddleNormalForm(0.4, 0.1).descriptor(8), _uniform(0.05, 1.5)),
    "T0^column": _column_iterates,
    "T1": _fixed(TransitionMap(0.9, 0.30, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1).descriptor(),
                 _uniform((0.6, 0.0), (1.2, 0.6))),
    "g": _fixed(_g(), _g_points),
    "Fhat": _fixed(IslandMap().descriptor(), _TORUS),
    "Psi": _fixed(IslandMap().surgery_descriptor(), _island_points),
    "Fstar": _fixed(build_suitable_model().fstar, _uniform((-6.0, 0.9), (6.5, 1.1))),
    "chart-a": _fixed(TimeEnergyChart("a", _hooked_model()), _uniform((-5.5, 0.9), (-3.2, 1.1))),
    "chart-b": _fixed(TimeEnergyChart("b", _hooked_model()), _uniform((2.2, 0.9), (4.8, 1.1))),
}


def _assembled(J, shape):
    """The reference stack: each entry broadcast to the batch, then laid
    out row-major."""
    e = [np.broadcast_to(np.asarray(x, dtype=float), shape) for x in J]
    return np.stack(e, axis=-1).reshape(shape + (2, 2))


# n = None is one point (2,)
SHAPES = [(name, n) for name in sorted(CASES) for n in (None, 5, 0)]
SHAPE_IDS = {None: "point", 5: "batch", 0: "empty"}


@pytest.mark.parametrize("name, n", SHAPES, ids=[f"{a}-{SHAPE_IDS[n]}" for a, n in SHAPES])
def test_public_jacobian_is_the_assembled_entries(name, n):
    f, pts = CASES[name](1 if n is None else n)
    p = pts[0] if n is None else pts
    img, J = f.ev(np.asarray(p, dtype=float), True)
    assert len(J) == 4
    ref = _assembled(J, img.shape[:-1])
    img2, J2 = f.value_and_jacobian(p)
    assert np.array_equal(img2, img)
    assert np.array_equal(J2, ref)
    assert np.array_equal(f.jacobian(p), ref)
    assert J2.shape == img.shape[:-1] + (2, 2)


def test_entry_inverse_matches_linalg_inv():
    rng = np.random.default_rng(3)
    # well-conditioned: the identity plus a perturbation of norm below 1/2
    M = np.eye(2) + 0.2 * rng.uniform(-1.0, 1.0, (500, 2, 2))
    inv = stacked(inv2(entries(M)))
    assert np.max(np.abs(inv - np.linalg.inv(M))) <= 8 * np.finfo(float).eps
    # scalars in, scalars out: one matrix given by its entries
    assert inv2((2.0, 1.0, 1.0, 1.0)) == (1.0, -1.0, -1.0, 2.0)


def test_inverse_descriptor_jacobian_is_the_entry_inverse_at_the_preimage():
    H = henon_like(_psi, _dpsi)
    q = _PLANE(50)
    p = H.inv(q)
    assert np.array_equal(inverse_descriptor(H).jacobian(q),
                          stacked(inv2(H.ev(p, True)[1])))


def test_saddle_multipliers_match_eigvals():
    # real saddles with well-separated multipliers, well-conditioned
    # eigenvectors, either sign of the trace
    rng = np.random.default_rng(4)
    lam = rng.uniform(1.5, 4.0, 300) * rng.choice([-1.0, 1.0], 300)
    P = np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (300, 2, 2))
    D = np.zeros((300, 2, 2))
    D[:, 0, 0], D[:, 1, 1] = lam, rng.uniform(0.2, 0.6, 300) / lam
    M = P @ D @ np.linalg.inv(P)
    ref = np.sort(np.abs(np.linalg.eigvals(M)), axis=-1)
    assert np.max(np.abs(_saddle_multipliers(entries(M)) - ref) / ref) <= 1e-12


def test_link_saddles_multipliers_match_eigvals():
    island = IslandMap()
    saddles = link_saddles(island, island_check_batch(island))
    P = np.array([s["point"] for s in saddles])
    # Fhat's own Jacobian, batch-independent row by row
    J = island.descriptor().jacobian(P)
    ref = np.sort(np.abs(np.linalg.eigvals(J)), axis=-1)
    got = np.array([s["multipliers"] for s in saddles])
    # the contracting multiplier e^{-2 sigma} of a matrix whose entries are
    # rounded at e^{2 sigma} is fixed only to a few ulps of the entries, so
    # the two methods agree to that, not to 1e-12 of the multiplier
    scale = np.max(np.abs(J), axis=(1, 2))[:, None]
    assert np.max(np.abs(got - ref) / scale) <= 4 * np.finfo(float).eps


def test_chart_offsets_from_one_solve_match_per_anchor_calls():
    # the 2N boundary-value fixed points are solved in one xi_eta call;
    # each matches its own scalar solve bit for bit
    for c2, lam, mu in ((0.1, 0.4, 0.8), (0.2, 0.4, 0.8), (0.1, 0.1, 0.95), (0.1, 0.6, 0.9)):
        model = desk_model(nonlinearity=c2, lam=lam, mu=mu, r=1)
        N, xp, ym = model.N, model.x_plus, model.y_minus
        for k in range(6, 61):
            charts = RescalingCharts(model, k)
            for i in range(N):
                with np.errstate(over="ignore", invalid="ignore"):
                    xi, _, r_beta = model.T0.xi_eta(k, xp[(i - 1) % N], ym[i])
                    _, eta, r_gamma = model.T0.xi_eta(k, xp[i], ym[(i + 1) % N])
                assert max(r_beta, r_gamma) <= PASSAGE_RESID_TOL
                assert charts.beta[i] == xi / charts.lamk
                assert charts.gamma[i] == eta / charts.lamk
