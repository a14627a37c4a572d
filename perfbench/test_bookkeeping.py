"""Tests of the benchmark's own bookkeeping.

    python -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from refkernel import REF_NOMINAL_S, Sampler, trimmed_mean  # noqa: E402
from tracing import (FLOW_SLACK, REGIMES, Span, Tracer,  # noqa: E402
                     classify_regimes, op_metrics, outermost, self_times)
from workloads import GATE_FLOOR, gate_ratio  # noqa: E402


def _spans(rows):
    return [Span(i, name, a, b, parent, 0) for i, (name, a, b, parent)
            in enumerate(rows)]


def test_self_time_nested_and_siblings():
    spans = _spans([
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),        # sibling of b and c
        ("b", 2.5, 4.0, 0),        # overlaps a: the union counts once
        ("c", 6.0, 7.0, 0),
        ("a.inner", 1.5, 2.0, 1),  # grandchild: charged to a, not root
        ("late", 9.5, 11.0, 0),    # runs past its parent: clipped
    ])
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert st[1] == pytest.approx(2.0 - 0.5)
    assert st[2] == pytest.approx(1.5)
    assert st[4] == pytest.approx(0.5)
    assert st[5] == pytest.approx(1.5)


def test_busy_time_counts_recursive_calls_once():
    spans = _spans([
        ("links.splitting", 0.0, 4.0, None),
        ("links.splitting", 1.0, 2.0, 0),    # splitting_b -> splitting_a
        ("curves.sup", 2.0, 3.0, 0),
        ("links.splitting", 5.0, 6.0, None),
    ])
    assert outermost(spans) == {0, 2, 3}
    m = op_metrics(spans, Tracer().counts)
    assert m["links.splitting.calls"] == 3
    assert m["links.splitting.busy_s"] == pytest.approx(5.0)
    assert m["links.splitting.self_s"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert m["links.self_s"] == pytest.approx(4.0)
    assert m["curves.self_s"] == pytest.approx(1.0)


def _check(value, tol, cmp):
    return {"name": "x", "passed": True, "value": value, "tolerance": tol,
            "comparison": cmp}


@pytest.mark.parametrize("cmp, value, tol, expected", [
    ("<=", 2e-7, 1e-6, 0.2),
    ("<", 0.6, 1.0, 0.6),
    (">=", 2.0, 0.5, 0.25),
    (">=", 0.0, 0.5, float("inf")),
])
def test_gate_ratio_orientation(cmp, value, tol, expected):
    assert gate_ratio([_check(value, tol, cmp)]) == pytest.approx(expected)


def test_gate_ratio_skips_equality_and_takes_the_worst():
    checks = [_check(4.0, 4.0, "=="), _check(1e-9, 1e-6, "<="),
              _check(1.0, 0.95, ">=")]
    assert gate_ratio(checks) == pytest.approx(0.95)


def test_gate_ratio_floors_rounding_level_headroom():
    one_ulp = _check(4.440892098500626e-16, 1e-6, "<=")
    two_ulp = _check(8.881784197001252e-16, 1e-6, "<=")
    assert gate_ratio([one_ulp]) == gate_ratio([two_ulp]) == GATE_FLOOR
    assert gate_ratio([_check(4.0, 4.0, "==")]) == GATE_FLOOR
    assert gate_ratio([]) == GATE_FLOOR


def _grid(n):
    t = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(t, t, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def test_regime_classifier_agrees_with_island_mask():
    from islab.blowup import IslandMap
    from islab.maps import torus_diff
    island = IslandMap()
    pts = _grid(257)
    kinds = classify_regimes(island, pts)
    assert set(np.unique(kinds)) == {0, 1, 2, 3}
    # island_mask is r^2 >= delta^2; the flow branch also takes the thin
    # float-slack band just outside the circle
    d = torus_diff(pts[None], island.centers[:, None])
    r2 = np.sum(d * d, axis=-1)
    band = ((r2 >= island.profile.delta ** 2)
            & (r2 <= island.profile.delta ** 2 * (1 + FLOW_SLACK))).any(axis=0)
    mask = island.island_mask(pts)
    agree = (kinds >= 2) == mask
    assert np.all(agree | band)


def test_core_points_are_fixed_and_regime_counts_cover_every_point():
    from islab.blowup import IslandMap
    island = IslandMap()
    pts = _grid(64)
    kinds = classify_regimes(island, pts)
    core = pts[kinds == 0]
    assert core.size and np.array_equal(island(core), core)

    plain = island(pts)
    tracer = Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        traced = island(pts)
    finally:
        tracer.uninstall()
    assert np.array_equal(plain, traced)
    assert IslandMap._eval.__name__ == "_eval"
    assert not hasattr(IslandMap._eval, "__wrapped__")
    m = op_metrics([s for s in tracer.spans if s.op == 0], tracer.counts)
    assert m["blowup.eval.calls"] == 1
    assert m["blowup.eval.points"] == len(pts)
    assert [m["blowup.points." + r] for r in REGIMES] == \
        [np.count_nonzero(kinds == k) for k in range(4)]


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert trimmed_mean([1.0, 2.0, 6.0]) == pytest.approx(3.0)
    assert trimmed_mean([-100.0] + [1.0] * 8 + [100.0]) == pytest.approx(1.0)


def test_sampler_subtracts_its_own_time_and_reads_nearby_samples():
    s = Sampler(period_s=0.5)
    s.samples = [(0.0, 0.02), (0.5, 0.03), (1.0, 0.025), (1.5, 0.025),
                 (5.0, 0.1)]
    # inside [0.4, 1.2): the samples at 0.5 and 1.0
    assert s.own_cpu(0.4, 1.2) == pytest.approx(0.055)
    # widened by 0.75 on each side: the four samples up to 1.5
    assert s.reading(0.4, 1.2) == pytest.approx(0.025)
    assert s.in_ref_seconds(0.4, 1.2) == pytest.approx(
        (0.8 - 0.055) * REF_NOMINAL_S / 0.025)
    assert s.reading(10.0, 11.0) == pytest.approx(0.1)  # the nearest


def test_sampler_interrupts_work_without_changing_it():
    import signal
    from time import perf_counter
    before = signal.getsignal(signal.SIGALRM)
    x = np.linspace(0.0, 1.0, 4096)

    def work():
        return [float(np.sum(np.sin(x * k))) for k in range(500)]

    expected = work()
    s = Sampler(period_s=0.02)
    s.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            assert work() == expected
    finally:
        s.stop()
    assert len(s.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before


def test_sampler_runs_are_spans_outside_every_layer():
    tracer = Tracer()
    tracer.begin_op(0)
    s = Sampler()
    s.span = tracer.span
    with tracer.span("blowup.outer"):
        s.sample()
    outer, run = tracer.spans
    assert (run.name, run.parent) == ("trace.sampler", outer.id)
    m = op_metrics(tracer.spans, tracer.counts)
    assert m["blowup.self_s"] == pytest.approx(outer.duration - run.duration)


def _benchmark_json():
    import json
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_run_reports():
    import run
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    emitted = set(op_metrics([], Tracer().counts)) | {
        "setup.import_s", "config.load_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == emitted
    for m in bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_readme_lists_every_metric():
    import re
    text = (HERE / "README.md").read_text(encoding="utf-8")
    listed = set()
    for token in re.findall(r"`([a-z0-9_.{},]+)`", text):
        m = re.fullmatch(r"([a-z0-9_.]*)\{([a-z0-9_,]+)\}", token)
        listed |= ({m.group(1) + k for k in m.group(2).split(",")} if m
                   else {token})
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert sorted(set(names) - listed) == []


def test_install_patches_names_where_they_are_looked_up():
    import islab.blowup
    import islab.cli
    import islab.links
    looked_up = [(islab.cli, "entropy_estimate"), (islab.cli, "link_saddles"),
                 (islab.cli, "max_lyapunov"), (islab.cli, "_clamped_mean_exponent"),
                 (islab.cli, "splitting_b"), (islab.links, "splitting_a"),
                 (islab.blowup, "_midpoint_steps"),
                 (islab.links, "graph_transform")]
    originals = [getattr(mod, name) for mod, name in looked_up]
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, name), orig in zip(looked_up, originals):
            assert getattr(mod, name).__wrapped__ is orig, name
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in looked_up] == originals
