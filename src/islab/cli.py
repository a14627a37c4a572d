"""Experiment runner: `islab run <config>` executes one of the five
numerical suites and writes CSV/JSON artifacts; `islab validate <config>`
lints a config without running.

Exit codes: 0 all checks passed, 1 a numeric check failed, 2 bad config
(a config file that is missing, unreadable or not UTF-8 included).

Only the rescaling suite uses `islab.rescaling` and `numpy.polynomial`;
both are imported where they are used, so no other run pays for loading
them.

Artifacts are bitwise-deterministic for a given (config, seed): all
randomness flows through one seeded generator, every suite runs in one
thread, floats are serialized with repr, and wall clock goes to the
console only.
"""

import argparse
import json
import operator
import os
import sys
import time

import numpy as np

from .blowup import (SIGMA, IslandMap, island_check_batch, link_saddles,
                     symmetry_and_identity_report)
from .config import (COMMON_SCHEMA, ConfigError, ExperimentConfig, validate as validate_raw,
                     parse_text, read_config)
from .curves import BumpFn, MaskedPeriodic, PeriodicFn, curve_sup_diff, random_trig_poly
from .links import (LinkGeometry, build_suitable_model, restore_link_a, restore_link_b,
                    restoration_b_reference, splitting_a, splitting_a_reference,
                    splitting_b, splitting_b_reference, unstable_curve)
from .lyapunov import LN4, entropy_estimate, lambda_field_rows, max_lyapunov
from .maps import anosov_map, chirikov_map, compose, henon_like, shear_map


_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
            "==": operator.eq}
# links suite: shears per stacked splitting call.  Each stage of a stack of K
# rows maps K * 283 points at once, so its temporaries grow with K: past 10
# rows the suite's peak RSS keeps rising while its run time no longer falls
SPLIT_ROWS = 10


def _check(name, value, tolerance, comparison="<="):
    ok = _COMPARE[comparison](value, tolerance)
    return {"name": name, "passed": bool(ok), "value": float(value),
            "tolerance": float(tolerance), "comparison": comparison}


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, rows):
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        # repr of tolist()'s Python floats is _fmt's text.  A grid's columns
        # repeat few values, so each column's text is made once per value,
        # keyed by its bit pattern: -0.0 and 0.0 keep their own.  A column's
        # keys go as soon as its texts are listed, so one column's are held
        # at a time
        def column(col):
            bits = col.view(np.int64).tolist()
            text = {k: repr(v) for k, v in dict(zip(bits, col.tolist())).items()}
            return list(map(text.__getitem__, bits))
        lines = map(",".join, zip(*map(column, rows.astype(float, copy=False).T)))
    else:
        lines = (",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _bump_shear(lo, hi, height):
    eta = BumpFn(lo, hi, 0.25, height=height)
    return shear_map(eta, eta.d1, name="S_eta")


def _band_hook(g, side, height):
    """The bump shear of a link side's band; a (K,) height is a stack of K
    hooks, one row each."""
    if side == "a":
        return _bump_shear(g.x_a - 2 * g.tau + 2 * g.delta,
                           g.x_a - 2 * g.delta, height)
    return _bump_shear(g.x_b + 2 * g.delta,
                       g.x_b + 2 * g.tau - 2 * g.delta, height)


# ---------------------------------------------------------------------------
# suites


# rows per batched cocycle call of the stdmap scan; bounds its memory when
# (a values) x (points) is large
SCAN_BLOCK_ROWS = 65536


def _clamped_mean_exponent(avals, pts, n):
    """Mean over pts of max(lambda_n, 0) for the standard map at each a.

    Every (a, point) pair is one row of a batched cocycle, in blocks of at
    most SCAN_BLOCK_ROWS rows.
    """
    lam = np.empty(len(avals) * len(pts))
    for i in range(0, lam.size, SCAN_BLOCK_ROWS):
        rows = np.arange(i, min(i + SCAN_BLOCK_ROWS, lam.size))
        a_idx, p_idx = np.divmod(rows, len(pts))
        lam[rows] = max_lyapunov(chirikov_map(avals[a_idx]), pts[p_idx],
                                 n).estimate
    return np.mean(np.maximum(lam, 0.0).reshape(len(avals), len(pts)), axis=1)


def _run_lyapunov(cfg, rng):
    p = cfg.params
    if p["map"] == "anosov":
        f = anosov_map()
    else:
        f = chirikov_map(p["a"])
    pts = rng.random((p["points"], 2))
    lams = max_lyapunov(f, pts, n=p["n"]).estimate
    checks = []
    metrics = {"mean_lambda": float(np.mean(lams)),
               "min_lambda": float(np.min(lams)),
               "max_lambda": float(np.max(lams))}
    if p["map"] == "anosov":
        checks.append(_check("anosov-exponent-matches-log(9+4*sqrt(5))",
                             float(np.max(np.abs(lams - SIGMA))), 1e-6))
        metrics["sigma"] = SIGMA
    rep = entropy_estimate(f, resolution=p["grid"], n=p["grid_n"])
    tables = {"lambda_field.csv": (("x", "y", "lambda", "valid"),
                                   lambda_field_rows(rep))}
    metrics["grid_estimate"] = rep.estimate
    metrics["grid_fraction_above_ln4"] = rep.fraction_above
    return checks, metrics, tables


def _run_island(cfg, rng):
    p = cfg.params
    island = IslandMap(delta=p["delta"], eps=p["eps"])
    # the symmetry report and link_saddles read one evaluation of Fhat.  The
    # batch goes before the entropy grid: held through it, its arrays split
    # the heap, and the benchmark's peak RSS crept up operation by operation
    batch = island_check_batch(island, n=p["samples"])
    sym = symmetry_and_identity_report(island, batch)
    saddles = link_saddles(island, batch)
    del batch
    checks = [
        _check("odd-symmetry-equivariance", sym["equivariance"], 1e-9),
        # the entropy grid integrates one cell per orbit of p -> -p and these
        # translations, so both symmetries are gated
        _check("half-lattice-translation-equivariance", sym["translation"], 1e-9),
        # relative energy error of the island flow over its discs: at most
        # 2.6e-6 over the profiles of blowup.FLOW_STEPS's table, 1e-3 at order 2
        _check("island-flow-energy-drift", sym["energy_drift"], 1e-5),
        _check("identity-inside-the-link-circles", sym["identity_core"], 1e-12),
        _check("surgery-conjugacy-to-the-automorphism", sym["conjugacy"], 1e-9),
    ]
    per_circle = {}
    for s in saddles:
        per_circle[s["center"]] = per_circle.get(s["center"], 0) + 1
    # the count furthest from 4: 4 exactly when every circle has four
    worst = max(per_circle.values(), key=lambda v: abs(v - 4))
    checks.append(_check("four-saddles-per-link-circle", worst, 4.0, "=="))
    target = np.array([np.exp(-2.0 * SIGMA), np.exp(2.0 * SIGMA)])
    rel_err = lambda key: max(float(np.max(np.abs(s[key] / target - 1.0)))
                              for s in saddles)
    checks.append(_check("saddle-multipliers-exp(+-2sigma)",
                         rel_err("multipliers"), 1e-4))
    checks.append(_check("saddle-fixed-point-defect",
                         max(s["fixed_defect"] for s in saddles), 1e-9))

    f = island.descriptor()
    exclude = lambda q: ~island.island_mask(q)
    rep = entropy_estimate(f, resolution=p["grid"], n=p["n"], exclude=exclude)
    # the admitted cells are those that start in the island
    frac = rep.fraction_above
    checks.append(_check("island-fraction-with-lambda>=ln4", frac, 0.95,
                         comparison=">="))
    bound = LN4 * (1.0 - 4.0 * np.pi * p["delta"] ** 2) - 0.05
    checks.append(_check("pesin-grid-estimate", rep.estimate, bound,
                         comparison=">="))
    metrics = {"island_area": island.island_area(),
               "grid_estimate": rep.estimate,
               "island_fraction_above_ln4": frac,
               "pesin_lower_bound": bound,
               # the finite-difference cross-check of the saddle multipliers
               "saddle_fd_multiplier_error": rel_err("fd_multipliers")}
    metrics.update({f"symmetry_{k}": v for k, v in sym.items()})
    tables = {
        "lambda_field.csv": (("x", "y", "lambda", "valid"), lambda_field_rows(rep)),
        "saddles.csv": (("center", "theta", "x", "y", "mult_stable",
                         "mult_unstable", "fixed_defect"),
                        [(s["center"], s["theta"], s["point"][0], s["point"][1],
                          s["multipliers"][0], s["multipliers"][1],
                          s["fixed_defect"]) for s in saddles]),
    }
    return checks, metrics, tables


def _run_stdmap(cfg, rng):
    p = cfg.params
    count = int(np.floor((p["a_max"] - p["a_min"]) / p["a_step"] + 1e-9)) + 1
    avals = p["a_min"] + p["a_step"] * np.arange(count)
    pts = rng.random((p["points"], 2))
    means = _clamped_mean_exponent(avals, pts, p["n"])
    rows = [(a, m, 2.0 - 2.0 * np.pi * a) for a, m in zip(avals, means)]
    metrics = {"cells": count,
               "max_mean_lambda": float(np.max(means)),
               "min_mean_lambda": float(np.min(means))}
    return [], metrics, {"scan.csv": (("a", "mean_lambda", "elliptic_trace"),
                                      rows)}


def _run_links(cfg, rng):
    p = cfg.params
    g = LinkGeometry()
    base = build_suitable_model()
    checks = []
    metrics = {}

    # closed-form splitting identities on the unperturbed model: every shear
    # is drawn first, alternating sides a and b, then the 10 zero-mean-check
    # shears of side b; they are split in stacks of SPLIT_ROWS rows
    xa = np.linspace(g.x_a - g.tau, g.x_a, 401)
    xb = np.linspace(g.x_b, g.x_b + g.tau, 401)
    origins = (g.x_a - 2 * g.tau, g.x_b)
    draws = [random_trig_poly(g.tau, harmonics=p["harmonics"], amplitude=1e-2,
                              rng=rng, origin=origin).samples
             for _ in range(20) for origin in origins]
    draws += [random_trig_poly(g.tau, harmonics=p["harmonics"], amplitude=p["size"],
                               rng=rng, origin=g.x_b).samples
              for _ in range(10)]
    worst_a = worst_b = 0.0
    for k in range(0, 40, 2 * SPLIT_ROWS):
        psi = MaskedPeriodic(base.partition_bump("a"),
                             PeriodicFn(g.tau, draws[k:k + 2 * SPLIT_ROWS:2], origins[0]))
        M = splitting_a(psi, base)
        ref = splitting_a_reference(psi, base)
        worst_a = max(worst_a, float(np.max(np.abs(M(xa) - ref(xa)))))
        psi = MaskedPeriodic(base.partition_bump("b"),
                             PeriodicFn(g.tau, draws[k + 1:k + 2 * SPLIT_ROWS:2], origins[1]))
        M = splitting_b(psi, base)
        ref = splitting_b_reference(psi, base)
        worst_b = max(worst_b, float(np.max(np.abs(M(xb) - ref(xb)))))
    psi = MaskedPeriodic(base.partition_bump("b"), PeriodicFn(g.tau, draws[40:], origins[1]))
    worst_mean = float(np.max(np.abs(splitting_b(psi, base).mean())))
    checks.append(_check("splitting-a-closed-form", worst_a, 1e-6))
    checks.append(_check("splitting-b-closed-form", worst_b, 1e-6))
    checks.append(_check("splitting-b-zero-mean", worst_mean, 1e-8))

    # contraction factor of the two-term averaging operator, on one stack
    # of 20 zero-mean draws
    z = PeriodicFn(g.tau, [random_trig_poly(g.tau, harmonics=p["harmonics"], amplitude=1e-2,
                                            rng=rng, origin=g.x_b, zero_mean=True).samples
                           for _ in range(20)], origin=g.x_b)
    worst_ratio = float(np.max(restoration_b_reference(base)(z).norm0() / z.norm0()))
    checks.append(_check("restoration-b-contraction-factor", worst_ratio, 0.6))

    # restoration runs on randomly perturbed models, side a then side b: the
    # n_each heights of a side are drawn first and restored as one stack of
    # models; the first row of each side contributes its trace to
    # residuals.csv
    n_each = p["count"] // 2
    max_iters = 0
    max_final = 0.0
    max_coincide = 0.0
    residual_rows = []
    for side, restore in (("a", restore_link_a), ("b", restore_link_b)):
        heights = p["size"] * (0.5 + 0.5 * rng.random(n_each))
        model = build_suitable_model(hook=_band_hook(g, side, heights))
        _, traces, w_s = restore(model)
        max_iters = max(max_iters, *(len(t) for t in traces))
        max_final = max(max_final, *(t[-1][1] for t in traces))
        max_coincide = max(max_coincide, curve_sup_diff(
            unstable_curve(model, side), w_s, *model.fundamental_interval(side)))
        base_i = len(residual_rows)
        residual_rows += [(base_i + i, s, n0) for i, s, n0 in traces[0]]
    checks.append(_check("restoration-iterations", max_iters, 30))
    checks.append(_check("restoration-final-residual", max_final, 1e-8))
    checks.append(_check("restored-curves-coincide", max_coincide, 1e-7))
    metrics.update({"worst_closed_form_a": worst_a,
                    "worst_closed_form_b": worst_b,
                    "worst_zero_mean": worst_mean,
                    "contraction_factor": worst_ratio,
                    "max_restoration_iterations": max_iters})
    return checks, metrics, {
        "residuals.csv": (("iter", "sup_residual", "norm0_residual"),
                          residual_rows)}


def _disc_points(rng, n):
    pts = rng.uniform(-1.0, 1.0, (3 * n, 2))
    pts = pts[np.sum(pts ** 2, axis=-1) <= 1.0]
    return pts[:n]


def _run_rescaling(cfg, rng):
    # imported here, not at start-up (see the module docstring)
    from numpy.polynomial import Polynomial

    from .rescaling import corollary_composition, desk_model, verify_rescaling

    p = cfg.params
    lam, mu, r = p["lambda"], p["mu"], p["r"]
    klist = list(p["k_list"])
    checks = []

    affine = desk_model(nonlinearity=0.0, tails=False, lam=lam, mu=mu, r=r)
    worst_affine = max(verify_rescaling(affine, k)["error"] for k in klist)
    checks.append(_check("affine-configuration-error", worst_affine, 1e-9))

    model = desk_model(nonlinearity=p["nonlinearity"], lam=lam, mu=mu, r=r)

    def draw_kicks():
        return [Polynomial(rng.uniform(-p["kick_amp"], p["kick_amp"], 3)) for _ in range(3)]

    kicks = draw_kicks()
    reports = [verify_rescaling(model, k, kicks) for k in klist]
    errs = [rep["error"] for rep in reports]
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    checks.append(_check("error-strictly-decreasing-in-k",
                         float(np.max(ratios)) if ratios else 0.0, 1.0, "<"))
    checks.append(_check("error-at-largest-k", errs[-1], 0.05))

    k_probe = klist[-2] if len(klist) > 1 else klist[0]
    pd = np.array([verify_rescaling(model, k_probe, draw_kicks())["phi_defects"]
                   for _ in range(5)])
    spread = float(np.max(np.abs(pd[1:] - pd[0])))
    checks.append(_check("phi-defect-kick-independence", spread, 1e-9))

    quad = [Polynomial(rng.uniform(-0.5, 0.5, 3)) for _ in range(2)]
    cube = Polynomial(rng.uniform(-0.3, 0.3, 4))
    target, pair = corollary_composition(quad, cube)
    pts = _disc_points(rng, 1000)
    H = [henon_like(q, q.deriv()) for q in (cube, Polynomial([0.0]),
                                            Polynomial([0.0]), quad[1], quad[0])]
    gap = float(np.max(np.abs(compose(*H)(pts) - pair(pts))))
    checks.append(_check("corollary-composition-identity", gap, 1e-10))

    rows = [(rep["k"], rep["n"], rep["error"], rep["phi_defect_max"])
            for rep in reports]
    metrics = {"errors": errs, "worst_affine_error": worst_affine,
               "phi_independence_spread": spread, "corollary_gap": gap}
    return checks, metrics, {"e_of_k.csv": (("k", "n", "error", "phi_defect"),
                                            rows)}


_SUITES = {
    "lyapunov": _run_lyapunov,
    "island": _run_island,
    "stdmap-scan": _run_stdmap,
    "links": _run_links,
    "rescaling": _run_rescaling,
}


# ---------------------------------------------------------------------------
# orchestration


def run(cfg, threads=1):
    """Execute the configured suite.  Returns (report, exit_code).  Raises
    ConfigError, before running, for values `islab validate` refuses.  Every
    suite runs in one thread; `threads` is kept for callers that pass 1, and
    any other value raises ValueError."""
    if threads != 1:
        raise ValueError(f"threads must be 1, not {threads!r}: every suite runs in one thread")
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    checks, metrics, tables = _SUITES[cfg.suite](cfg, rng)
    elapsed = time.perf_counter() - t0
    passed = all(c["passed"] for c in checks)
    report = {
        "suite": cfg.suite,
        "config": cfg.resolved(),
        "checks": checks,
        "metrics": metrics,
        "passed": passed,
        "artifacts": sorted(tables) + ["report.json"],
        "_tables": tables,
        "_elapsed": elapsed,
    }
    return report, (0 if passed else 1)


def emit_plot_data(report, outdir):
    """Write the report's grid tables as CSV plus the JSON summary; returns
    the paths written.  Raises RuntimeError when outdir or a file in it
    cannot be written."""
    paths = []
    try:
        os.makedirs(outdir, exist_ok=True)
        for name, (header, rows) in sorted(report["_tables"].items()):
            path = os.path.join(outdir, name)
            _write_csv(path, header, rows)
            paths.append(path)
        payload = {k: v for k, v in report.items() if not k.startswith("_")}
        path = os.path.join(outdir, "report.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        paths.append(path)
    except OSError as e:
        raise RuntimeError(f"failed writing artifact {e.filename}: {e}") from e
    return paths


def _cmd_run(args):
    try:
        cfg = ExperimentConfig.from_file(args.config)
    except ConfigError as e:
        for v in e.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        try:
            cfg.seed = COMMON_SCHEMA["seed"].parse(args.seed)
        except ValueError as e:
            print(f"config error: seed: {e}", file=sys.stderr)
            return 2
    try:
        report, code = run(cfg)
        paths = emit_plot_data(report, cfg.out)
    except (ValueError, RuntimeError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        print(f"{mark} {c['name']}: value={c['value']:.6g} "
              f"{c['comparison']} {c['tolerance']:.6g}")
    print(f"suite={cfg.suite} seed={cfg.seed} elapsed={report['_elapsed']:.2f}s "
          f"artifacts={len(paths)} -> {cfg.out}")
    return code


def _cmd_validate(args):
    try:
        raw = parse_text(read_config(args.config))
    except ConfigError as e:
        for v in e.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    violations = validate_raw(raw)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 2
    print("ok")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="islab",
                                 description="surface-dynamics experiment runner")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a suite from a config file")
    runp.add_argument("config")
    runp.add_argument("--out", default=None, help="output directory override")
    runp.add_argument("--seed", type=int, default=None, help="seed override")
    runp.set_defaults(fn=_cmd_run)
    valp = sub.add_parser("validate", help="check a config file")
    valp.add_argument("config")
    valp.set_defaults(fn=_cmd_validate)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
