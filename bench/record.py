"""Benchmark record of a change against its parent, written as one JSON file.

    python bench/record.py --parent REV --pairs 10 --profile --out BENCH_<n>.json
    python bench/record.py --pairs 0 --out digests.json      # digests only

The change is this checkout's working tree; the parent is REV exported with
`git archive` into a temporary directory.  Both trees' bytecode is compiled
before anything runs, so neither side pays for compiling in its first
timings.

Timing: `perfbench/run.py` runs unchanged, as a subprocess of each tree, for
every workload, in alternating pairs (the parent first in odd pairs, the
change first in even ones).  The record holds each pair's end-to-end
readings (`run_s`, `setup_s`, `peak_rss_mb`, `gate_ratio`, and the
operations attempted and failed), and per workload and metric both sides'
medians and quartiles and the number of pairs in which the change read
lower.  Every end-to-end metric is better lower.

Digests: every artifact of the five suites, run through `islab run` at the
benchmark's parameters (`perfbench/workloads.py`) at seeds 1 and 7, is
hashed with sha256, `report.json` after its `config.out`, the output path,
is dropped.  With --pairs 0 and no --parent the record holds this tree's
digests alone, and two passes over the same tree must write the same bytes.

Profiles (--profile): each tree runs each workload's configs in a fresh
process under cProfile, PROFILE_OPERATIONS operations after one warm-up,
each operation `cli.run` and `cli.emit_plot_data` per config as
perfbench's.  The record keeps, per tree and workload, the profile's total
seconds, the PROFILE_TOP functions with the most own time (`tottime`) and
every islab function whose time including callees (`cumtime`) is at least
PROFILE_MIN_SHARE of the total, each as a share of the total.  A function
is named by its file, relative to the tree's `src/` for islab and by its
last two path parts otherwise, and its name: "islab/links.py:_restore".
Profiles are telemetry, apart from the digests: they move with the load.
"""

import argparse
import ast
import cProfile
import functools
import hashlib
import json
import os
import pstats
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, write_configs  # noqa: E402

METRICS = ("run_s", "setup_s", "peak_rss_mb", "gate_ratio")
SEEDS = (1, 7)
PROFILE_OPERATIONS = 3
PROFILE_TOP = 20
PROFILE_MIN_SHARE = 0.005


def digest(path):
    """sha256 of an artifact's bytes; of `report.json` without config.out,
    which echoes where the run wrote and nothing it computed."""
    path = Path(path)
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        report["config"].pop("out", None)
        data = json.dumps(report, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def artifact_digests(tree):
    """{"<workload>/<suite>/seed<s>/<file>": sha256} for every artifact of
    the workloads' suite configs at SEEDS, run by `tree`'s islab, with each
    run's exit code under "<workload>/<suite>/seed<s>/exit"."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in WORKLOADS:
                for cfg in write_configs(workload, seed, os.path.join(tmp, f"{workload}-{seed}")):
                    key = f"{workload}/{Path(cfg).stem}/seed{seed}"
                    dest = os.path.join(tmp, key.replace("/", "-"))
                    run = subprocess.run([sys.executable, "-m", "islab.cli", "run", cfg,
                                          "--out", dest], env=env, cwd=tmp,
                                         capture_output=True, text=True, check=False)
                    if run.returncode not in (0, 1):
                        raise RuntimeError(f"{key}: islab run exited {run.returncode}\n"
                                           f"{run.stderr}")
                    out[f"{key}/exit"] = run.returncode
                    for name in sorted(os.listdir(dest)):
                        out[f"{key}/{name}"] = digest(os.path.join(dest, name))
    return out


def perfbench(tree, workload, seed, seconds):
    """The end-to-end readings of one `perfbench/run.py` run of `tree`."""
    run = subprocess.run([sys.executable, str(Path(tree) / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench {workload} exited {run.returncode}\n{run.stderr}")
    result = json.loads(lines[-1])
    reading = {k: result["metrics"][k]["value"] for k in METRICS}
    reading.update(attempted=result["attempted"], failed=result["failed"])
    return reading


@functools.cache
def qualnames(filename):
    """{first line: qualified name} of the functions a source file defines,
    as Python names them ("PeriodicFn.__call__", "f.<locals>.g"); the first
    line of a decorated function is its first decorator's, as in its code
    object."""
    out = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, prefix)

    walk(ast.parse(Path(filename).read_text(encoding="utf-8")), "")
    return out


def function_name(key, src):
    """"file:function" for a pstats key (file, line, function): for islab,
    the file relative to src and the function's qualified name; otherwise
    the file's last two path parts and the bare name; a built-in's name
    alone."""
    filename, line, func = key
    if filename == "~":
        return func
    path = Path(filename)
    try:
        where = path.relative_to(src).as_posix()
    except ValueError:
        return f"{'/'.join(path.parts[-2:])}:{func}"
    return f"{where}:{qualnames(str(path)).get(line, func)}"


def profile_shares(stats, src):
    """The record's view of a pstats `stats` table ({key: (cc, nc, tt, ct,
    callers)}): the total seconds, the PROFILE_TOP functions by own time,
    and the islab functions (files under src/islab) by time with callees,
    at least PROFILE_MIN_SHARE, as shares of the total.  Functions that
    share a name add up."""
    total = sum(row[2] for row in stats.values())
    own, with_callees = {}, {}
    for key, (_, _, tt, ct, _) in stats.items():
        name = function_name(key, src)
        own[name] = own.get(name, 0.0) + tt
        if name.startswith("islab/"):
            with_callees[name] = with_callees.get(name, 0.0) + ct
    top = sorted(own.items(), key=lambda kv: (-kv[1], kv[0]))[:PROFILE_TOP]
    share = lambda t: round(t / total, 4) if total else 0.0
    return {"total_s": round(total, 4),
            "tottime": {name: share(t) for name, t in top},
            "islab_cumtime": {name: share(t) for name, t in sorted(with_callees.items())
                              if t >= PROFILE_MIN_SHARE * total}}


def profile_here(workload, seed, operations):
    """Run in a profiling child: the workload's configs, one warm-up
    operation and then `operations` under cProfile; prints profile_shares
    as one JSON line.  islab comes from the child's PYTHONPATH."""
    import islab.cli as cli
    from islab.config import ExperimentConfig

    configs = [ExperimentConfig.from_file(path)
               for path in write_configs(workload, seed, "configs")]

    def operation():
        for cfg in configs:
            report, _ = cli.run(cfg)
            cli.emit_plot_data(report, os.path.join("artifacts", cfg.suite))

    operation()
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(operations):
        operation()
    prof.disable()
    src = Path(cli.__file__).resolve().parents[1]
    print(json.dumps(profile_shares(pstats.Stats(prof).stats, src)))


def profile_tree(tree, seed, operations=PROFILE_OPERATIONS, workloads=tuple(WORKLOADS)):
    """{workload: profile_shares} of `tree`, each workload in a fresh
    process with one compute thread, as perfbench runs."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import record; "
            "record.profile_here(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))")
    out = {}
    for workload in workloads:
        with tempfile.TemporaryDirectory() as tmp:
            run = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent),
                                  workload, str(seed), str(operations)],
                                 env=env, cwd=tmp, capture_output=True, text=True, check=False)
        if run.returncode != 0:
            raise RuntimeError(f"{tree}: profile of {workload} exited {run.returncode}\n"
                               f"{run.stderr}")
        out[workload] = json.loads(run.stdout.strip().splitlines()[-1])
    return out


def spread(values):
    """Median and quartiles (inclusive method) of a list of readings."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs):
    """Per workload and metric: both sides' spread, and the pairs the change
    read lower (ties count for neither side)."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for metric in METRICS:
            p = [pair[workload]["parent"][metric] for pair in pairs]
            c = [pair[workload]["change"][metric] for pair in pairs]
            out[workload][metric] = {
                "parent": spread(p), "change": spread(c),
                "change_lower": sum(b < a for a, b in zip(p, c)),
                "change_higher": sum(b > a for a, b in zip(p, c)), "pairs": len(p)}
    return out


def export(rev, dest):
    """`git archive` of rev, unpacked into dest."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def record(parent, pairs, seed, seconds, tmp, profile=False):
    trees = {"change": ROOT}
    rec = {"change": git("describe", "--always", "--dirty", "--abbrev=12")}
    if parent is not None:
        rec["parent"] = git("rev-parse", parent)
        trees["parent"] = Path(tmp) / "parent"
        trees["parent"].mkdir()
        export(parent, trees["parent"])
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src"),
                        str(tree / "perfbench")], check=True)
    rec["digests"] = {side: artifact_digests(tree) for side, tree in trees.items()}
    if parent is not None:
        a, b = rec["digests"]["parent"], rec["digests"]["change"]
        rec["digests_differ"] = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if pairs and parent is not None:
        rec["timing"] = {"seed": seed, "seconds": seconds, "order": "parent first in odd pairs"}
        rec["pairs"] = []
        for i in range(1, pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            row = {w: {side: perfbench(trees[side], w, seed, seconds) for side in order}
                   for w in WORKLOADS}
            rec["pairs"].append(row)
            print(f"pair {i}: " + ", ".join(
                f"{w} {row[w]['parent']['run_s']:.4f}->{row[w]['change']['run_s']:.4f}"
                for w in WORKLOADS), file=sys.stderr)
        rec["summary"] = summarize(rec["pairs"])
    if profile:
        rec["profile"] = {"seed": seed, "warmup": 1, "operations": PROFILE_OPERATIONS}
        rec["profile"].update((side, profile_tree(tree, seed)) for side, tree in trees.items())
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench/record.py")
    ap.add_argument("--parent", help="the parent revision to compare with")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating parent/change pairs (needs --parent)")
    ap.add_argument("--seed", type=int, default=701)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="perfbench's --seconds per run")
    ap.add_argument("--profile", action="store_true",
                    help="add each tree's cProfile shares per workload")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs and args.parent is None:
        ap.error("--pairs needs --parent; use --pairs 0 for digests alone")
    with tempfile.TemporaryDirectory() as tmp:
        rec = record(args.parent, args.pairs, args.seed, args.seconds, tmp, args.profile)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
