"""islab benchmark: runs one workload through the CLI's own entry points and
prints its metrics.

    python3 perfbench/run.py --workload island --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run it from anywhere inside a checkout of the repo; islab is imported from
the checkout's ``src/``.  An operation is one run of the workload's suite
config(s), ``islab.cli.run`` followed by ``islab.cli.emit_plot_data``, as
``islab run`` does after start-up.  The load is a closed loop: this one
process runs one operation at a time with ``--threads 1``, and starts
another until ``--seconds`` have passed (at least one; an island operation
alone outlasts the usual window).

Times are in reference seconds (refkernel.py): an operation's process CPU
time, scaled by a fixed reference kernel timed every quarter second of the
run.  Wall and CPU times are recorded beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced operations and prints the per-layer metrics of the traced ones.
Either way every operation's artifacts must match the first operation's
byte for byte, and the last stdout line is one JSON object with keys
correct, attempted, failed and metrics.  Full results, the environment
record and (with --trace 1) the spans go to ``.perfbench/results/``.
"""

import os

# one compute thread: set before numpy is imported (an explicit setting in
# the environment wins and is recorded)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
SETUP_REF_REPEATS = 3
# warm-up readings of the reference kernel before the first and after the
# last operation, so that both have readings on either side
EDGE_SAMPLES = 3
# the end-to-end metrics --trace 0 reports, with their units
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "gate_ratio": "1"}

import tracing  # noqa: E402
from refkernel import (REF_NOMINAL_S, Sampler, in_ref_seconds,  # noqa: E402
                       ref_seconds)
from workloads import WORKLOADS, check_artifacts, gate_ratio, write_configs  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description="islab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(config_paths):
    """Import and config-load times in fresh interpreters, one sample each,
    with reference-kernel readings taken between them in this process."""
    samples = []
    ref_before = ref_seconds(SETUP_REF_REPEATS)
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *config_paths],
            env=_src_env(), capture_output=True, text=True, timeout=120,
            check=True)
        s = json.loads(out.stdout.strip().splitlines()[-1])
        ref_after = ref_seconds(SETUP_REF_REPEATS)
        kernel_s = (ref_before + ref_after) / 2
        s["import_ref_s"] = in_ref_seconds(s["import_cpu_s"], kernel_s)
        s["load_ref_s"] = in_ref_seconds(s["load_cpu_s"], kernel_s)
        s["ref_before_s"], s["ref_after_s"] = ref_before, ref_after
        ref_before = ref_after
        samples.append(s)
    return samples


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "git_sha": sha,
        "machine": platform.machine(),
        "processes": 1,
        "islab_threads": 1,
    }


def _read_tree(directory):
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def run_operation(cli, configs, outdir):
    """One operation: every config through run + emit_plot_data, timed in
    wall seconds and by its process CPU-time interval."""
    reports, written, codes = [], [], []
    t0, c0 = perf_counter(), process_time()
    for cfg in configs:
        report, code = cli.run(cfg, threads=1)
        written.append(cli.emit_plot_data(report, os.path.join(outdir, cfg.suite)))
        reports.append(report)
        codes.append(code)
    return perf_counter() - t0, (c0, process_time()), reports, written, codes


def run_workload(args):
    import islab.cli as cli
    from islab.config import ExperimentConfig

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        config_paths = write_configs(args.workload, args.seed, work / "configs")
        setup = measure_setup(config_paths)
        configs = [ExperimentConfig.from_file(p) for p in config_paths]

        tracer = tracing.Tracer() if args.trace else None
        ops, layer_rows, reference, gate = [], [], None, None
        sampler = Sampler()
        for _ in range(EDGE_SAMPLES):
            sampler.sample()
        sampler.start()
        start = perf_counter()
        try:
            while True:
                i = len(ops)
                traced = bool(args.trace) and i % 2 == 1
                outdir = work / f"op{i}"
                op = {"index": i, "traced": traced, "seconds": None,
                      "wall_s": None, "cpu_span": None, "problems": []}
                try:
                    if traced:
                        sampler.span = tracer.span
                        tracer.begin_op(i)
                        tracer.install()
                    try:
                        (op["wall_s"], op["cpu_span"], reports, written,
                         codes) = run_operation(cli, configs, str(outdir))
                    finally:
                        if traced:
                            tracer.uninstall()
                            sampler.span = None
                    if any(codes):
                        op["problems"].append(f"exit codes {codes}")
                    op["problems"] += check_artifacts(args.workload, reports,
                                                      written)
                    tree = _read_tree(outdir)
                    if reference is None:
                        reference = tree
                        gate = gate_ratio([c for r in reports
                                           for c in r["checks"]])
                    elif tree != reference:
                        diff = sorted(k for k in set(tree) | set(reference)
                                      if tree.get(k) != reference.get(k))
                        op["problems"].append(f"artifacts differ from the "
                                              f"first operation's: {diff}")
                    if traced:
                        own = [s for s in tracer.spans if s.op == i]
                        layer_rows.append(tracing.op_metrics(own,
                                                             tracer.counts))
                except Exception:  # an operation that raises counts as failed
                    op["problems"].append(traceback.format_exc())
                finally:
                    shutil.rmtree(outdir, ignore_errors=True)
                for p in op["problems"]:
                    print(f"operation {i} failed: {p}", file=sys.stderr)
                ops.append(op)
                pair_done = not args.trace or len(ops) % 2 == 0
                if pair_done and perf_counter() - start >= args.seconds:
                    break
        finally:
            sampler.stop()
        for _ in range(EDGE_SAMPLES):
            sampler.sample()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for op in ops:
        if op["cpu_span"] is not None:
            a, b = op.pop("cpu_span")
            op["cpu_at_s"], op["cpu_s"] = a, b - a
            op["sampler_cpu_s"] = sampler.own_cpu(a, b)
            op["ref_s"] = sampler.reading(a, b)
            op["seconds"] = sampler.in_ref_seconds(a, b)

    failed = sum(1 for op in ops if op["problems"])
    ok = [op for op in ops if not op["problems"]]
    untraced = [op for op in ok if not op["traced"]]
    plain = [op["seconds"] for op in untraced]
    refs = [d for _, d in sampler.samples]
    env = environment()
    setup_s = [s["import_ref_s"] + s["load_ref_s"] for s in setup]
    summary = {
        "run_s": statistics.median(plain) if plain else float("nan"),
        "run_s_samples": len(plain),
        "run_wall_s": (statistics.median(op["wall_s"] for op in untraced)
                       if untraced else float("nan")),
        "run_cpu_s": (statistics.median(op["cpu_s"] for op in untraced)
                      if untraced else float("nan")),
        "ref_s": statistics.median(refs),
        "ref_samples": len(refs),
        "setup_s": statistics.median(setup_s),
        "setup_wall_s": statistics.median(s["import_s"] + s["load_s"]
                                          for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": failed / len(ops),
        "gate_ratio": gate if gate is not None else float("nan"),
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "summary": summary, "ops": ops, "setup": setup,
              "ref_samples": sampler.samples}

    if args.trace:
        traced_s = [op["seconds"] for op in ok if op["traced"]]
        metrics = {k: statistics.median(row[k] for row in layer_rows)
                   for k in (layer_rows[0] if layer_rows else {})}
        metrics["setup.import_s"] = statistics.median(s["import_ref_s"]
                                                      for s in setup)
        metrics["config.load_s"] = statistics.median(s["load_ref_s"]
                                                     for s in setup)
        metrics["trace.overhead_s"] = (
            statistics.median(traced_s) - summary["run_s"]
            if traced_s and plain else float("nan"))
        record["layer_metrics"] = metrics
        with open(results / f"{args.workload}.spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        out_metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in sorted(metrics.items())}
    else:
        out_metrics = {k: {"value": summary[k], "unit": unit}
                       for k, unit in END_TO_END.items()}
    with open(results / f"{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print_summary(args, record, plain)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": out_metrics}))
    return 0


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") and not last.endswith("per_s"):
        return "s"
    if last.endswith("per_s"):
        return "1/s"
    if last == "bytes":
        return "bytes"
    if last in ("valid_ratio", "points_per_call", "field_evals_per_step",
                "map_calls_per_call") or last.startswith("share_of"):
        return "1"
    return "count"


def print_summary(args, record, plain):
    summary, env = record["summary"], record["env"]
    print(f"islab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}; closed loop, 1 process, 1 operation at a time, "
          f"--threads 1")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    n = len(plain)
    tail = ""
    if n >= 20:
        q = int(100 * (n - 10) / n)
        tail = f", p{q} {sorted(plain)[n - 11]:.4f} s"
    print(f"run_s        {summary['run_s']:.4f} s   (reference seconds, median "
          f"of {n} untraced operations{tail}; wall {summary['run_wall_s']:.4f} "
          f"s, CPU {summary['run_cpu_s']:.4f} s)")
    print(f"setup_s      {summary['setup_s']:.4f} s   (reference seconds, median "
          f"of {SETUP_PROBES} fresh interpreters; wall "
          f"{summary['setup_wall_s']:.4f} s)")
    print(f"ref kernel   {summary['ref_s']:.5f} s   (median CPU time; nominal "
          f"{REF_NOMINAL_S} s, so this machine ran at "
          f"{REF_NOMINAL_S / summary['ref_s']:.3f}x the reference speed)")
    print(f"peak_rss_mb  {summary['peak_rss_mb']:.1f} MB")
    failed = sum(1 for op in record["ops"] if op["problems"])
    print(f"fail_ratio   {summary['fail_ratio']:.4g} 1   ({failed} failed of "
          f"{len(record['ops'])} attempted)")
    print(f"gate_ratio   {summary['gate_ratio']:.6g} 1   (worst check headroom)")
    if args.trace:
        m = record["layer_metrics"]
        print(f"trace.overhead_s {m['trace.overhead_s']:.4f} s (traced minus "
              f"untraced run_s)")
        total = m["cli.suite.busy_s"] + m["cli.emit.busy_s"]
        ranked = sorted(((m[f"{layer}.self_s"], layer)
                         for layer in tracing.LAYERS if layer != "config"),
                        reverse=True)
        print("top layers by self time (traced operation):")
        for value, layer in ranked[:3]:
            share = value / total if total else 0.0
            print(f"  {layer:<12} {value:8.3f} s  {100 * share:5.1f} %")


def run_all(args):
    """Each workload in its own process, then one table."""
    rows, correct, attempted, failed, metrics = [], True, 0, 0, {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"workload {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            metrics[f"{name}.{k}"] = v
        rows.append((name, result))
    if not args.trace:
        print(f"{'workload':<10} {'run_s':>10} {'setup_s':>8} {'peak_rss_mb':>12} "
              f"{'fail_ratio':>10} {'gate_ratio':>11}")
        for name, r in rows:
            m = r["metrics"]
            print(f"{name:<10} {m['run_s']['value']:>10.4f} "
                  f"{m['setup_s']['value']:>8.4f} "
                  f"{m['peak_rss_mb']['value']:>12.1f} "
                  f"{r['failed'] / r['attempted']:>10.4g} "
                  f"{m['gate_ratio']['value']:>11.4g}")
        print("units: run_s s, setup_s s, peak_rss_mb MB, fail_ratio 1, "
              "gate_ratio 1")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "islab" / "cli.py").is_file():
        print(f"perfbench: no islab sources at {SRC}; run from a checkout of "
              f"the repo", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
