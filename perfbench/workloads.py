"""The benchmark's workloads: the suite configs each one runs, and the
checks the benchmark makes on every operation's artifacts.

Every workload writes the run's seed into each of its configs; the program
sees only those configs.  The island suite draws no random numbers, so its
inputs, and its artifacts apart from the echoed seed, do not depend on it.
"""

import csv
import math
import os

# Suite parameters, pinned at the seed commit's defaults so that a change
# of default does not silently change a workload.
ISLAND = {"island.delta": 0.15, "island.eps": 0.24, "island.n": 200,
          "island.grid": 100, "island.samples": 1000}
LINKS = {"links.size": 0.001, "links.count": 10, "links.harmonics": 8}
STDMAP = {"stdmap.a_min": 0.1, "stdmap.a_max": 6.0, "stdmap.a_step": 0.1,
          "stdmap.n": 200, "stdmap.points": 64}
LYAPUNOV = {"lyapunov.map": "anosov", "lyapunov.n": 50,
            "lyapunov.points": 100, "lyapunov.grid": 48, "lyapunov.grid_n": 60}
RESCALING = {"rescaling.lambda": 0.4, "rescaling.mu": 0.8, "rescaling.r": 2,
             "rescaling.N": 3, "rescaling.k_list": "8,10,12,14",
             "rescaling.nonlinearity": 0.1, "rescaling.kick_amp": 0.03}

# workload -> [(suite, params, {csv name: expected data rows or None})]
WORKLOADS = {
    "island": [("island", ISLAND, {"lambda_field.csv": 100 * 100,
                                   "saddles.csv": 16})],
    "links": [("links", LINKS, {"residuals.csv": None})],
    "cocycle": [("stdmap-scan", STDMAP, {"scan.csv": 60}),
                ("lyapunov", LYAPUNOV, {"lambda_field.csv": 48 * 48})],
    "rescaling": [("rescaling", RESCALING, {"e_of_k.csv": 4})],
}

# one line each; BENCHMARK.json and README.md carry the same reasons
WHY = {
    "island": "blowup, hamiltonian and lyapunov do all the work (psi_inv, "
              "midpoint steps, entropy grid); control for curves and links "
              "changes; ignores the seed",
    "links": "curves, links and maps.compose do all the work (graph "
             "transforms, PeriodicFn, splines); control for island changes",
    "cocycle": "stdmap scan then anosov lyapunov: closed-form maps, so "
               "per-call dispatch in maps and lyapunov is the cost",
    "rescaling": "the only workload where rescaling does most of the work: "
                 "verify_rescaling, the box perturbation g, the corollary",
}


def config_text(suite, params, seed):
    lines = [f"suite = {suite}", f"seed = {seed}", "out = artifacts"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    return "\n".join(lines) + "\n"


def write_configs(workload, seed, directory):
    """Write the workload's configs; returns their paths in run order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for suite, params, _ in WORKLOADS[workload]:
        path = os.path.join(directory, f"{suite}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(suite, params, seed))
        paths.append(path)
    return paths


# A check more than this far inside its gate reads as this far inside: the
# anosov exponent check sits at one ulp of sigma, and a change of rounding
# (1 ulp to 2) must not read as a doubled gate ratio.
GATE_FLOOR = 1e-3


def gate_ratio(checks):
    """Worst headroom over checks: value/tolerance for '<=' and '<',
    tolerance/value for '>=', '==' left out; 1 means at the gate.  Never
    below GATE_FLOOR."""
    worst = GATE_FLOOR
    for c in checks:
        value, tol, cmp = c["value"], c["tolerance"], c["comparison"]
        if cmp in ("<=", "<"):
            ratio = value / tol
        elif cmp == ">=":
            ratio = tol / value if value != 0 else math.inf
        else:
            continue
        worst = max(worst, ratio)
    return worst


def check_artifacts(workload, reports, paths):
    """Problems with one operation's outputs; empty when all is well.

    reports/paths: per config, the report dict and the written file paths.
    """
    problems = []
    for (suite, _, rows), report, written in zip(WORKLOADS[workload],
                                                 reports, paths):
        names = sorted(os.path.basename(p) for p in written)
        if names != sorted(report["artifacts"]):
            problems.append(f"{suite}: wrote {names}, report lists "
                            f"{sorted(report['artifacts'])}")
        for c in report["checks"]:
            if not c["passed"]:
                problems.append(f"{suite}: check {c['name']} failed")
        for path in written:
            name = os.path.basename(path)
            if not name.endswith(".csv"):
                continue
            with open(path, encoding="utf-8", newline="") as fh:
                data = list(csv.reader(fh))[1:]
            if rows.get(name) is not None and len(data) != rows[name]:
                problems.append(f"{suite}: {name} has {len(data)} rows, "
                                f"expected {rows[name]}")
            if not data:
                problems.append(f"{suite}: {name} is empty")
            if not all(math.isfinite(float(v)) for row in data for v in row):
                problems.append(f"{suite}: {name} holds a non-finite value")
    return problems
