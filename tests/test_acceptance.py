"""Acceptance checks: one test per numbered criterion, each printing a
single pass/fail line with the measured value and its tolerance, and each
holding to the stated wall-clock budget.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
passing runs; verbose mode shows one PASSED/FAILED row per criterion).
"""

import time

import numpy as np
from numpy.polynomial import Polynomial

from islab.blowup import IslandMap, link_saddles, symmetry_and_identity_report
from islab.cli import emit_plot_data, run
from islab.config import ExperimentConfig
from islab.curves import BumpFn, MaskedPeriodic, curve_sup_diff, random_trig_poly
from islab.links import (LinkGeometry, build_suitable_model, restore_link_a,
                         restore_link_b, restoration_b_reference, splitting_a,
                         splitting_a_reference, splitting_b,
                         splitting_b_reference, stable_curve,
                         TimeEnergyChart, unstable_curve)
from islab.lyapunov import (LN4, cone_certificate, entropy_estimate,
                            max_lyapunov)
from islab.maps import (anosov_map, chirikov_map, compose, henon_like,
                        quarter_turn, rotation_map, shear_map)
from islab.rescaling import (build_perturbation, corollary_composition,
                             desk_model, SaddleNormalForm, build_transition,
                             verify_rescaling)

SIGMA = float(np.log(9.0 + 4.0 * np.sqrt(5.0)))
RNG_SEED = 20260815


def _line(num, label, ok, detail):
    print(f"criterion {num:>2} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _band_shear(g, side, height):
    if side == "a":
        eta = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta,
                     0.25, height=height)
    else:
        eta = BumpFn(g.x_b + 2 * g.delta, g.x_b + 2 * g.tau - 2 * g.delta,
                     0.25, height=height)
    return shear_map(eta, eta.d1, name="S_eta")


# ---------------------------------------------------------------------------

def test_criterion_01_symplecticity_of_all_maps():
    """|det DF - 1| <= 1e-8 for every built-in and constructed map at 1e4
    sampled points each, within 10 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    npts = 10_000
    worst = {}

    def record(name, f, pts):
        worst[name] = float(np.max(f.symplectic_defect(pts)))

    torus = rng.random((npts, 2))
    record("F_A", anosov_map(), torus)
    for a in (0.5, 2.0, 5.5):
        record(f"T_{a}", chirikov_map(a), torus)

    psi = random_trig_poly(1.0, harmonics=6, amplitude=1e-2, rng=rng)
    plane = rng.uniform(-2.0, 2.0, (npts, 2))
    record("S_psi", shear_map(psi, psi.derivative()), plane)
    record("H_psi", henon_like(psi, psi.derivative()), plane)
    record("H_0", quarter_turn(), plane)

    island = IslandMap(delta=0.15, eps=0.24)
    record("Fhat", island.descriptor(), torus)

    g = LinkGeometry()
    model = build_suitable_model(hook=_band_shear(g, "a", 1e-3))
    strips = np.concatenate([
        np.stack([rng.uniform(g.x_a - 3 * g.tau - 0.2, g.x_b + 5 * g.tau,
                              3 * npts),
                  rng.choice([g.y1, g.y2], 3 * npts)
                  + rng.uniform(-0.2, 0.2, 3 * npts)], axis=-1)])
    strips = strips[model.F.domain(strips)][:npts]
    assert len(strips) >= npts // 2
    record("F_model", model.F, strips)

    nf = SaddleNormalForm(0.4, c2=0.1)
    record("T_0", nf.descriptor(), rng.uniform(0.05, 1.5, (npts, 2)))
    record("T_0^8", nf.descriptor(8), rng.uniform(0.05, 1.5, (npts, 2)))
    t1 = build_transition(0.9, 0.30, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    box = np.stack([rng.uniform(0.6, 1.2, npts),
                    rng.uniform(0.0, 0.6, npts)], axis=-1)
    record("T_1", t1.descriptor(), box)

    desk = desk_model(nonlinearity=0.1)
    kicks = [Polynomial([0.0, 0.0, 0.03]), Polynomial([0.01, 0.0, -0.02]),
             Polynomial([0.0, 0.02, 0.04])]
    gmap, _, _ = build_perturbation(desk, 10, kicks)
    per_box = npts // desk.N
    gpts = np.concatenate([
        desk.box_center(i) + rng.uniform(-1.0, 1.0, (per_box, 2))
        * np.array(desk.box_half) for i in range(desk.N)])
    record("g", gmap, gpts)

    elapsed = time.perf_counter() - t0
    value = max(worst.values())
    ok = value <= 1e-8 and elapsed <= 10.0
    _line(1, "symplecticity", ok,
          f"max |det J - 1| = {value:.3g} <= 1e-8 over {len(worst)} maps "
          f"x {npts} pts, {elapsed:.1f}s <= 10s")
    assert value <= 1e-8, worst
    assert elapsed <= 10.0


def test_criterion_02_anosov_exponent():
    """lambda_50(F_A, p) = ln(9 + 4 sqrt 5) +- 1e-6 at 100 random points,
    within 1 second."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    f = anosov_map()
    devs = [abs(max_lyapunov(f, p, n=50).estimate - SIGMA)
            for p in rng.random((100, 2))]
    elapsed = time.perf_counter() - t0
    value = max(devs)
    ok = value <= 1e-6 and elapsed <= 1.0
    _line(2, "anosov exponent", ok,
          f"max |lambda_50 - sigma| = {value:.3g} <= 1e-6 at 100 pts, "
          f"{elapsed:.2f}s <= 1s")
    assert value <= 1e-6
    assert elapsed <= 1.0


def test_criterion_03_island_suite():
    """At delta = 0.15: odd symmetry <= 1e-9 (1e3 samples), identity below
    the inner radius <= 1e-12, exactly 4 saddles per link circle with
    multipliers e^{+-2 sigma} to 1e-4 relative, >= 95% of the 1e4-cell
    island grid has lambda_200 >= ln 4, and the grid entropy estimate is
    >= ln4 (1 - 4 pi delta^2) - 0.05; all within 5 minutes."""
    t0 = time.perf_counter()
    delta = 0.15
    island = IslandMap(delta=delta, eps=0.24)

    sym = symmetry_and_identity_report(island, n=1000)
    ok_a = sym["equivariance"] <= 1e-9
    ok_b = sym["identity_core"] <= 1e-12

    saddles = link_saddles(island)
    per_circle = {}
    for s in saddles:
        per_circle[s["center"]] = per_circle.get(s["center"], 0) + 1
    ok_count = sorted(per_circle.values()) == [4, 4, 4, 4]
    target = np.array([np.exp(-2 * SIGMA), np.exp(2 * SIGMA)])
    rel = max(float(np.max(np.abs(s["multipliers"] / target - 1.0)))
              for s in saddles)
    ok_c = ok_count and rel <= 1e-4

    f = island.descriptor()
    rep = entropy_estimate(f, resolution=100, n=200,
                           exclude=lambda q: ~island.island_mask(q))
    xs = (np.arange(100) + 0.5) / 100
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    inside = island.island_mask(np.stack([X.ravel(), Y.ravel()], axis=-1))
    good = rep.valid.ravel() & (np.nan_to_num(rep.field.ravel(), nan=-1.0)
                                >= LN4)
    frac = np.count_nonzero(good & inside) / np.count_nonzero(inside)
    ok_d = frac >= 0.95
    bound = LN4 * (1.0 - 4.0 * np.pi * delta ** 2) - 0.05
    ok_e = rep.estimate >= bound

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and ok_d and ok_e and elapsed <= 300.0
    _line(3, "island suite", ok,
          f"equivariance {sym['equivariance']:.2g} <= 1e-9, "
          f"core identity {sym['identity_core']:.2g} <= 1e-12, "
          f"4 saddles/circle mult rel err {rel:.2g} <= 1e-4, "
          f"island fraction {frac:.3f} >= 0.95, "
          f"estimate {rep.estimate:.3f} >= {bound:.3f}, "
          f"{elapsed:.0f}s <= 300s")
    assert ok_a and ok_b, sym
    assert ok_count, per_circle
    assert rel <= 1e-4
    assert ok_d, frac
    assert ok_e, (rep.estimate, bound)
    assert elapsed <= 300.0


def test_criterion_04_cone_certificate():
    """The hyperbolic automorphism passes the quadrant-cone growth test
    (both generator images grow by >= 4 every step) on every tested orbit;
    the quarter rotation fails at the very first step."""
    rng = np.random.default_rng(RNG_SEED)
    f = anosov_map()
    certs = [cone_certificate(f, p, n=50) for p in rng.random((20, 2))]
    ok_pass = all(c.passed for c in certs)
    min_ratio = min(c.min_ratio for c in certs)

    rot = rotation_map(np.pi / 2)
    bad = cone_certificate(rot, np.array([0.3, 0.4]), n=5)
    ok_fail = (not bad.passed) and bad.first_failure == 0

    ok = ok_pass and min_ratio >= 4.0 and ok_fail
    _line(4, "cone certificate", ok,
          f"automorphism min generator growth {min_ratio:.2f} >= 4 on 20 "
          f"orbits; quarter rotation fails at step {bad.first_failure + 1}")
    assert ok_pass and min_ratio >= 4.0
    assert ok_fail


def test_criterion_05_splitting_closed_forms():
    """For 20 random trig polynomials per side (<= 8 harmonics, amplitude
    <= 1e-2), the measured splitting functions match their closed forms to
    1e-6 in sup norm, within 30 seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    g = LinkGeometry()
    model = build_suitable_model()
    chart_a = TimeEnergyChart(model.F, "a", model)
    chart_b = TimeEnergyChart(model.F, "b", model)
    xa = np.linspace(g.x_a - g.tau, g.x_a, 401)
    xb = np.linspace(g.x_b, g.x_b + g.tau, 401)
    worst_a = worst_b = 0.0
    for _ in range(20):
        psit = random_trig_poly(g.tau, harmonics=8, amplitude=1e-2, rng=rng,
                                origin=g.x_a - 2 * g.tau)
        psi = MaskedPeriodic(model.partition_bump("a"), psit)
        M = splitting_a(model.F, psi, model, chart=chart_a)
        ref = splitting_a_reference(psi, model)
        worst_a = max(worst_a, float(np.max(np.abs(M(xa) - ref(xa)))))

        psit = random_trig_poly(g.tau, harmonics=8, amplitude=1e-2, rng=rng,
                                origin=g.x_b)
        psi = MaskedPeriodic(model.partition_bump("b"), psit)
        M = splitting_b(model.F, psi, model, chart=chart_b,
                        check_link_a=False)
        ref = splitting_b_reference(psi, model)
        worst_b = max(worst_b, float(np.max(np.abs(M(xb) - ref(xb)))))
    elapsed = time.perf_counter() - t0
    value = max(worst_a, worst_b)
    ok = value <= 1e-6 and elapsed <= 30.0
    _line(5, "splitting closed forms", ok,
          f"sup gap a-side {worst_a:.2g}, b-side {worst_b:.2g} <= 1e-6 over "
          f"20 draws each, {elapsed:.1f}s <= 30s")
    assert worst_a <= 1e-6
    assert worst_b <= 1e-6
    assert elapsed <= 30.0


def test_criterion_06_zero_mean():
    """|mean M^b| <= 1e-8 for 10 random b-side perturbations of size 1e-3
    that leave the a-link intact."""
    rng = np.random.default_rng(RNG_SEED)
    g = LinkGeometry()
    model = build_suitable_model()
    chart_b = TimeEnergyChart(model.F, "b", model)
    worst = 0.0
    for _ in range(10):
        psit = random_trig_poly(g.tau, harmonics=8, amplitude=1e-3, rng=rng,
                                origin=g.x_b)
        psi = MaskedPeriodic(model.partition_bump("b"), psit)
        M = splitting_b(model.F, psi, model, chart=chart_b)
        worst = max(worst, abs(M.mean()))
    ok = worst <= 1e-8
    _line(6, "zero mean", ok, f"max |mean M^b| = {worst:.2g} <= 1e-8 "
          f"over 10 draws")
    assert worst <= 1e-8


def test_criterion_07_restoration():
    """10 random band perturbations of size 1e-3: each link restoration
    converges in <= 30 iterations to sup residual <= 1e-8, the restored
    stable and unstable curves coincide to 1e-7 over the fundamental
    interval, and the averaging operator contracts by <= 0.6 in the
    C^1/C^2 norm."""
    rng = np.random.default_rng(RNG_SEED)
    g = LinkGeometry()
    worst_iters = 0
    worst_final = 0.0
    worst_gap = 0.0
    for side in ("a", "b") * 5:
        h = 1e-3 * (0.5 + 0.5 * rng.random())
        model = build_suitable_model(hook=_band_shear(g, side, h))
        if side == "a":
            psi, trace = restore_link_a(model.F, model)
            lo, hi = g.x_a - g.tau, g.x_a
        else:
            psi, trace = restore_link_b(model.F, model)
            lo, hi = g.x_b, g.x_b + g.tau
        worst_iters = max(worst_iters, len(trace))
        worst_final = max(worst_final, trace[-1][1])
        chart = TimeEnergyChart(model.F, side, model)
        w_u = unstable_curve(model.F, model, side, chart=chart)
        w_s = stable_curve(model.F, model, side, psi=psi, chart=chart)
        worst_gap = max(worst_gap, curve_sup_diff(w_u, w_s, lo, hi))

    base = build_suitable_model()
    ref_op = restoration_b_reference(base)
    contraction = 0.0
    for _ in range(20):
        z = random_trig_poly(g.tau, harmonics=8, amplitude=1e-2, rng=rng,
                             origin=g.x_b, zero_mean=True)
        contraction = max(contraction, ref_op(z).norm0() / z.norm0())

    ok = (worst_iters <= 30 and worst_final <= 1e-8 and worst_gap <= 1e-7
          and contraction <= 0.6)
    _line(7, "restoration", ok,
          f"iterations {worst_iters} <= 30, final residual "
          f"{worst_final:.2g} <= 1e-8, curve gap {worst_gap:.2g} <= 1e-7, "
          f"contraction {contraction:.3f} <= 0.6, 10 perturbations")
    assert worst_iters <= 30
    assert worst_final <= 1e-8
    assert worst_gap <= 1e-7
    assert contraction <= 0.6


def test_criterion_08_rescaling():
    """Affine configuration: conjugation error <= 1e-9 at every k in
    {8, 10, 12, 14}.  Nonlinear desk configuration (lambda 0.4, mu 0.8,
    r = 2, N = 3): the error is strictly decreasing over those k with
    E(14) <= 0.05, and the leg anchor constants are independent of the
    kicks to 1e-9 across 5 random sets; all within 2 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    klist = [8, 10, 12, 14]

    affine = desk_model(nonlinearity=0.0, tails=False)
    worst_affine = max(verify_rescaling(affine, k)["error"] for k in klist)

    model = desk_model(nonlinearity=0.1)
    kicks = [Polynomial(rng.uniform(-0.03, 0.03, 3)) for _ in range(3)]
    errs = [verify_rescaling(model, k, kicks)["error"] for k in klist]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))

    spread = 0.0
    base_defects = None
    for _ in range(5):
        ks = [Polynomial(rng.uniform(-0.03, 0.03, 3)) for _ in range(3)]
        pd = np.array(verify_rescaling(model, 12, ks)["phi_defects"])
        if base_defects is None:
            base_defects = pd
        else:
            spread = max(spread, float(np.max(np.abs(pd - base_defects))))

    elapsed = time.perf_counter() - t0
    ok = (worst_affine <= 1e-9 and decreasing and errs[-1] <= 0.05
          and spread <= 1e-9 and elapsed <= 120.0)
    _line(8, "rescaling", ok,
          f"affine error {worst_affine:.2g} <= 1e-9; nonlinear E(k) = "
          f"{', '.join(f'{e:.3g}' for e in errs)} strictly decreasing, "
          f"E(14) <= 0.05; anchor spread {spread:.2g} <= 1e-9; "
          f"{elapsed:.0f}s <= 120s")
    assert worst_affine <= 1e-9
    assert decreasing, errs
    assert errs[-1] <= 0.05
    assert spread <= 1e-9
    assert elapsed <= 120.0


def test_criterion_09_corollary_composition():
    """With the shear factored as S_psi = H_psi o H_0^{-1}, the Henon
    product equals S_psi o F_target to 1e-10 at 1e3 disc points."""
    rng = np.random.default_rng(RNG_SEED)
    quads = [Polynomial(rng.uniform(-0.5, 0.5, 3)) for _ in range(2)]
    cubic = Polynomial(rng.uniform(-0.3, 0.3, 4))
    target, pair = corollary_composition(quads, cubic)

    pts = rng.uniform(-1.0, 1.0, (3000, 2))
    pts = pts[np.sum(pts ** 2, axis=-1) <= 1.0][:1000]
    assert len(pts) == 1000

    h0 = quarter_turn()
    hs = [henon_like(lambda y, q=q: q(y)) for q in
          (cubic, Polynomial([0.0]), Polynomial([0.0]), quads[1], quads[0])]
    product = compose(*hs)
    gap = float(np.max(np.abs(product(pts) - pair(pts))))

    dcubic = cubic.deriv()
    s_psi = shear_map(lambda x: cubic(np.asarray(x, float)),
                      lambda x: dcubic(np.asarray(x, float)))
    h_psi = henon_like(lambda y: cubic(np.asarray(y, float)))
    shear_gap = float(np.max(np.abs(s_psi(pts)
                                    - h_psi(h0.inverse(pts)))))
    factor_gap = float(np.max(np.abs(pair(pts) - s_psi(target(pts)))))

    value = max(gap, shear_gap, factor_gap)
    ok = value <= 1e-10
    _line(9, "corollary composition", ok,
          f"product vs shear-of-target gap {gap:.2g}, shear factorization "
          f"{shear_gap:.2g}, pairing {factor_gap:.2g}, all <= 1e-10 at "
          f"1000 disc points")
    assert value <= 1e-10


def test_criterion_10_determinism(tmp_path):
    """Two runs with an identical config and seed produce bitwise-identical
    CSV and JSON artifacts."""
    text = ("suite = rescaling\nseed = 5\nrescaling.k_list = 8,10\n")
    out = tmp_path / "det"
    first = {}
    for attempt in range(2):
        report, code = run(ExperimentConfig.from_text(text))
        assert code == 0
        emit_plot_data(report, out)
        blobs = {}
        for name in ("report.json", "e_of_k.csv"):
            with open(out / name, "rb") as fh:
                blobs[name] = fh.read()
        if attempt == 0:
            first = blobs
    identical = all(first[k] == blobs[k] for k in first)

    text2 = ("suite = stdmap-scan\nseed = 2\nstdmap.a_min = 0.1\n"
             "stdmap.a_max = 2.1\nstdmap.a_step = 0.5\nstdmap.n = 60\n"
             "stdmap.points = 16\n")
    out2 = tmp_path / "det2"
    csvs = []
    for _ in range(2):
        report, code = run(ExperimentConfig.from_text(text2))
        emit_plot_data(report, out2)
        with open(out2 / "scan.csv", "rb") as fh:
            csvs.append(fh.read())
    identical = identical and csvs[0] == csvs[1]

    _line(10, "determinism", identical,
          "two identical (config, seed) runs -> bitwise-identical "
          "report.json and CSV artifacts, two suites")
    assert identical
