"""Span tracing around islab's module boundaries, and the per-layer metrics
derived from the spans.

Nothing under ``src/`` is edited: `Tracer.install` replaces each traced
function wherever an islab module looks it up (every ``islab.*`` module
attribute bound to it) and each traced method on its class, and
`Tracer.uninstall` puts the originals back.  Spans live in memory and are
written out by the caller when the run ends.

A span records name, start, end, parent span and operation id, plus a point
count ``n`` and one boundary-specific number ``extra`` (steps, valid cells,
iterations or bytes).  The self time of a span is its duration minus the
part of it covered by its child spans.  Boundaries hit about 10^5 times per
operation (the Hamiltonian field and its Jacobian) record a call count,
point count and summed time instead of one span per call; their time stays
inside the enclosing span's self time.
"""

import contextlib
import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# The repo's modules, in the order the layer table lists them.
LAYERS = ("maps", "hamiltonian", "blowup", "lyapunov", "curves", "links",
          "rescaling", "config", "cli")

# Slack of the flow-regime test inside IslandMap._eval: points up to this
# relative distance outside the link circle still take the flow branch.
FLOW_SLACK = 1e-8


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "n", "extra")

    def __init__(self, id, name, start, end, parent, op, n=0, extra=0):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.n = n
        self.extra = extra

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the part covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(children[s.id], s.start, s.end)
            for s in spans}


def outermost(spans):
    """Ids of spans with no ancestor of the same name.

    Summing their durations gives a name's busy time without counting a
    recursive call (splitting_b calling splitting_a, a composite Jacobian
    calling its factors' Jacobians) twice.
    """
    by_id = {s.id: s for s in spans}
    keep = set()
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            keep.add(s.id)
    return keep


def classify_regimes(island, p):
    """IslandMap regime of each input point, split as in `IslandMap._eval`.

    Returns an int array: 0 core (inside a link disc with rho <= rho0,
    left fixed), 1 flow (inside a link disc, integrated), 2 annulus (a
    surgery annulus, Psi applied before A), 3 outside (A alone).
    """
    prof = island.profile
    from islab.maps import torus_diff
    flat = np.mod(np.asarray(p, dtype=float).reshape(-1, 2), 1.0)
    d = torus_diff(flat[None, :, :], island.centers[:, None, :])
    r2 = np.sum(d * d, axis=-1)
    inside = r2 <= prof.delta ** 2 * (1 + FLOW_SLACK)
    w = d @ island.R
    core = (inside & (0.5 * np.sum(w * w, axis=-1) <= prof.rho0)).any(axis=0)
    inside_any = inside.any(axis=0)
    annulus = ((r2 > prof.delta ** 2 * (1 + FLOW_SLACK))
               & (r2 < prof.eps ** 2)).any(axis=0)
    return np.where(inside_any, np.where(core, 0, 1),
                    np.where(annulus, 2, 3))


REGIMES = ("core", "flow", "annulus", "outside")


def _points(a):
    return int(np.size(a) // 2)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: [0, 0, 0.0])   # calls, points, time
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def _open(self, name, n):
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.op, n)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code inside a traced call."""
        span = self._open(name, 0)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name, points=None, finish=None):
        """Wrapper of `fn` recording one span per call.

        name: a string, or a callable (bound arguments) -> string.
        points: callable (bound arguments) -> point count.
        finish: callable (span, bound arguments, result), run after the
            span has closed, that fills in the span's n or extra.
        """
        sig = inspect.signature(fn)
        bind = (lambda a, k: sig.bind(*a, **k).arguments) \
            if callable(name) or points or finish else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = bind(args, kwargs) if bind else None
            span = self._open(name(bound) if callable(name) else name,
                              points(bound) if points else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if finish:
                finish(span, bound, result)
            return result

        return traced

    def count(self, fn, name):
        """Wrapper of a method fn(self, p) recording calls, points and time."""
        slot = self.counts[name]

        @functools.wraps(fn)
        def counted(obj, p):
            t = perf_counter()
            result = fn(obj, p)
            slot[2] += perf_counter() - t
            slot[0] += 1
            slot[1] += _points(p)
            return result

        return counted

    def begin_op(self, op):
        """Tag later spans with `op` and zero the counters in place (the
        counting wrappers hold on to their slots)."""
        self.op = op
        for slot in self.counts.values():
            slot[:] = [0, 0, 0.0]

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, **how):
        """Replace module.attr in every islab module that binds it."""
        orig = getattr(module, attr)
        wrapped = self.wrap(orig, **how)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "islab" and mod is not None:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)

    def patch_method(self, cls, attr, **how):
        self._set(cls, attr, self.wrap(getattr(cls, attr), **how))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self):
        """Wrap every module boundary the per-layer metrics read."""
        import islab.blowup as blowup
        import islab.cli as cli
        import islab.curves as curves
        import islab.hamiltonian as hamiltonian
        import islab.links as links
        import islab.lyapunov as lyapunov
        import islab.maps as maps
        import islab.rescaling as rescaling

        pts = {"points": lambda b: _points(b["p"])}

        # maps: every descriptor evaluation; the rescaling perturbation g is
        # a descriptor too, and is booked to the rescaling layer
        self.patch_method(
            maps.MapDescriptor, "__call__", **pts,
            name=lambda b: ("rescaling.g" if b["self"].name.startswith("g[k=")
                            else "maps.eval"))
        self.patch_method(maps.MapDescriptor, "jacobian", name="maps.jacobian",
                          **pts)

        # blowup; the regime split is tracing work, so it gets a span of
        # its own and stays out of its parent's self time
        counts = self.counts

        def regimes(b):
            span = self._open("trace.regimes", _points(b["p"]))
            kinds = classify_regimes(b["self"], b["p"])
            for k, label in enumerate(REGIMES):
                counts["blowup.points." + label][0] += int(np.count_nonzero(kinds == k))
            self._close(span)
            return span.n

        self.patch_method(
            blowup.IslandMap, "_eval", points=regimes,
            name=lambda b: "blowup.jac" if b.get("with_jac") else "blowup.eval")
        self.patch_method(blowup.SurgeryProfile, "psi_inv",
                          name="blowup.psi_inv",
                          points=lambda b: int(np.size(b["v"])))
        self.patch_function(blowup, "link_saddles", name="blowup.link_saddles")
        self.patch_function(blowup, "symmetry_and_identity_report",
                            name="blowup.symmetry")

        # hamiltonian
        self.patch_function(hamiltonian, "_midpoint_steps",
                            name="hamiltonian.midpoint",
                            points=lambda b: _points(b["p"]),
                            finish=_set_extra(lambda b, r: int(b["steps"])))
        self._set(hamiltonian.HamiltonianSystem, "field", self.count(
            hamiltonian.HamiltonianSystem.field, "hamiltonian.field"))
        self._set(hamiltonian.HamiltonianSystem, "field_jacobian", self.count(
            hamiltonian.HamiltonianSystem.field_jacobian,
            "hamiltonian.field_jacobian"))

        # lyapunov
        self.patch_function(lyapunov, "entropy_estimate", name="lyapunov.entropy",
                            finish=_entropy_cells)
        self.patch_function(lyapunov, "max_lyapunov",
                            name="lyapunov.max_lyapunov")

        # curves
        self.patch_function(curves, "graph_transform",
                            name="curves.graph_transform")
        self.patch_method(curves.PeriodicFn, "__call__",
                          name="curves.periodic_eval",
                          points=lambda b: int(np.size(b["x"])))
        self.patch_method(curves.GraphCurve, "__init__",
                          name="curves.spline_build",
                          points=lambda b: int(np.size(b["samples"])))
        self.patch_method(curves.PeriodicFn, "sup", name="curves.sup")
        self.patch_method(curves.PeriodicFn, "norm0", name="curves.sup")

        # links
        self.patch_method(links.TimeEnergyChart, "__init__",
                          name="links.chart_build")
        self.patch_method(links.TimeEnergyChart, "__call__",
                          name="links.chart_eval", **pts)
        self.patch_method(links.TimeEnergyChart, "jacobian",
                          name="links.chart_eval", **pts)
        for attr in ("splitting_a", "splitting_b"):
            self.patch_function(links, attr, name="links.splitting")
        for attr in ("restore_link_a", "restore_link_b"):
            self.patch_function(links, attr, name="links.restore",
                                finish=_set_extra(lambda b, r: len(r[1])))
        self.patch_function(links, "build_suitable_model",
                            name="links.build_model")

        # rescaling
        self.patch_function(rescaling, "verify_rescaling",
                            name="rescaling.verify")
        self.patch_function(rescaling, "build_perturbation",
                            name="rescaling.perturbation")
        self.patch_function(rescaling, "corollary_composition",
                            name="rescaling.corollary")

        # cli: the suite, the per-point cocycle of the stdmap scan, and the
        # artifact writer
        self.patch_function(cli, "run", name="cli.suite")
        self.patch_function(cli, "_clamped_mean_exponent", name="cli.cocycle")
        self.patch_function(cli, "emit_plot_data", name="cli.emit",
                            finish=_set_extra(_file_bytes))


def _set_extra(value):
    def finish(span, bound, result):
        span.extra = value(bound, result)
    return finish


def _entropy_cells(span, bound, report):
    span.n = int(report.valid.size)
    span.extra = int(np.count_nonzero(report.valid))


def _file_bytes(bound, paths):
    return sum(os.path.getsize(p) for p in paths)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced operation


class _Agg:
    __slots__ = ("calls", "n", "extra", "busy", "self", "weighted")

    def __init__(self):
        self.calls = 0
        self.n = 0
        self.extra = 0
        self.busy = 0.0
        self.self = 0.0
        self.weighted = 0        # sum of n * extra (point-steps)


def _rate(num, den):
    return num / den if den > 0 else 0.0


def op_metrics(spans, counts):
    """Per-layer metrics of one operation's spans and counters."""
    selfs = self_times(spans)
    outer = outermost(spans)
    by_id = {s.id: s for s in spans}
    agg = defaultdict(_Agg)
    layer_self = defaultdict(float)
    for s in spans:
        a = agg[s.name]
        a.calls += 1
        a.n += s.n
        a.extra += s.extra
        a.weighted += s.n * s.extra
        a.self += selfs[s.id]
        if s.id in outer:
            a.busy += s.duration
        layer_self[s.name.split(".")[0]] += selfs[s.id]

    def under(span, name):
        p = span.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    # direct children of a parent name, by child name
    def child_stats(parent, names):
        calls = points = 0
        for s in spans:
            if s.parent is not None and by_id[s.parent].name == parent \
                    and s.name in names:
                calls += 1
                points += s.n
        return calls, points

    psi_inv_in_entropy = sum(
        s.duration for s in spans
        if s.name == "blowup.psi_inv" and s.id in outer
        and under(s, "lyapunov.entropy"))
    map_calls, _ = child_stats("curves.graph_transform",
                               ("maps.eval", "maps.jacobian",
                                "links.chart_eval"))
    _, cell_steps = child_stats("lyapunov.entropy", ("maps.jacobian",))

    m = {}

    def put(name, value):
        m[name] = float(value)

    def basic(name, keys):
        a = agg[name]
        table = {"calls": a.calls, "points": a.n, "busy_s": a.busy,
                 "self_s": a.self, "points_per_s": _rate(a.n, a.busy)}
        for k in keys:
            put(f"{name}.{k}", table[k])

    full = ("calls", "points", "busy_s", "points_per_s")
    basic("blowup.eval", full)
    basic("blowup.jac", full)
    for label in REGIMES:
        put("blowup.points." + label, counts["blowup.points." + label][0])
    basic("blowup.psi_inv", full)
    put("blowup.psi_inv.share_of_entropy",
        _rate(psi_inv_in_entropy, agg["lyapunov.entropy"].busy))
    basic("blowup.link_saddles", ("busy_s",))
    basic("blowup.symmetry", ("busy_s",))

    mid = agg["hamiltonian.midpoint"]
    steps = mid.extra
    put("hamiltonian.midpoint.calls", mid.calls)
    put("hamiltonian.midpoint.point_steps", mid.weighted)
    put("hamiltonian.midpoint.busy_s", mid.busy)
    put("hamiltonian.midpoint.point_steps_per_s", _rate(mid.weighted, mid.busy))
    field = counts["hamiltonian.field"]
    put("hamiltonian.field.calls", field[0])
    put("hamiltonian.field.points", field[1])
    put("hamiltonian.field.busy_s", field[2])
    put("hamiltonian.field_jacobian.calls",
        counts["hamiltonian.field_jacobian"][0])
    put("hamiltonian.field_evals_per_step", _rate(field[0], steps))

    ent = agg["lyapunov.entropy"]
    put("lyapunov.entropy.calls", ent.calls)
    put("lyapunov.entropy.busy_s", ent.busy)
    put("lyapunov.entropy.self_s", ent.self)
    put("lyapunov.entropy.cells", ent.n)
    put("lyapunov.entropy.cell_steps", cell_steps)
    put("lyapunov.entropy.cell_steps_per_s", _rate(cell_steps, ent.busy))
    put("lyapunov.entropy.valid_ratio", _rate(ent.extra, ent.n))
    basic("lyapunov.max_lyapunov", ("calls", "busy_s", "self_s"))

    basic("maps.eval", ("calls", "points", "busy_s"))
    basic("maps.jacobian", ("calls", "points", "busy_s"))
    ev, jac = agg["maps.eval"], agg["maps.jacobian"]
    put("maps.points_per_call", _rate(ev.n + jac.n, ev.calls + jac.calls))

    basic("curves.graph_transform", ("calls", "busy_s", "self_s"))
    put("curves.graph_transform.map_calls_per_call",
        _rate(map_calls, agg["curves.graph_transform"].calls))
    basic("curves.periodic_eval", full)
    basic("curves.spline_build", ("calls", "busy_s"))
    basic("curves.sup", ("calls", "busy_s"))

    basic("links.chart_build", ("calls", "busy_s"))
    basic("links.chart_eval", ("points", "busy_s"))
    basic("links.splitting", ("calls", "busy_s", "self_s"))
    basic("links.restore", ("calls", "busy_s"))
    put("links.restore.iterations", agg["links.restore"].extra)
    basic("links.build_model", ("calls", "busy_s"))

    basic("rescaling.verify", ("calls", "busy_s", "self_s"))
    basic("rescaling.perturbation", ("calls", "busy_s"))
    basic("rescaling.g", ("points", "busy_s"))
    basic("rescaling.corollary", ("busy_s",))

    suite = agg["cli.suite"]
    put("cli.suite.busy_s", suite.busy)
    put("curves.periodic_eval.share_of_suite",
        _rate(agg["curves.periodic_eval"].busy, suite.busy))
    basic("cli.cocycle", ("busy_s", "self_s"))
    put("cli.emit.busy_s", agg["cli.emit"].busy)
    put("cli.emit.bytes", agg["cli.emit"].extra)

    for layer in LAYERS:
        if layer != "config":
            put(f"{layer}.self_s", layer_self[layer])
    return m
