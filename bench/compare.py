"""Compare two benchmark records written by bench/record.py, or two
artifact trees.

    python bench/compare.py A.json B.json
    python bench/compare.py B.json:parent B.json
    python bench/compare.py --artifacts DIR_A DIR_B
    python bench/compare.py --trend BENCH_*.json

For each workload and end-to-end metric that both records timed, prints
the change side's median in A and in B and their ratio B / A.  When either
record holds its numpy target (`record.py` writes numpy's version, baseline
and active dispatch targets), both are printed, "not recorded" for a record
from before them.  Then lists every artifact digest that differs between
A's and B's change trees (a key that only one of them holds differs too),
or says that they are identical.  Bytes repeat only for one numpy build on
one dispatch target, so when both records hold targets and these differ in
version, baseline or dispatch targets, the digests are labelled "not
comparable".
A digest-only record (`--pairs 0`) has no timing, so only its digests are
compared.  When either record holds checks (every record from
`record.py` since checks were added), the change trees' checks follow: for
each run of a suite, each check whose value, tolerance, comparison, pass or
headroom differs, with both sides' values and headrooms, and each scalar
metric that differs, with both values and the absolute and relative
change; then one line that says how many differ, or that they are
identical.  A is the reference: a check that passes in A and fails in B
crossed its gate, and is marked so.  When either record holds a profile
(`record.py --profile`), the change trees' profiles follow: per workload and table (`tottime`, the top
functions by own time, and `islab_cumtime`), every function whose share of
the profile moved by more than SHARE_POINTS, a function absent from one
side's table reading 0 there.  When either record holds memory readings
(`record.py --profile` since they were added), each workload's tracemalloc
peak of one operation follows, in A and in B with their ratio B / A.  A
record path with the suffix ":parent" reads that record's parent tree in
place of its change tree, so a record can be compared with its own parent.

With --artifacts, A and B are directories, such as two `islab run --out`
trees, and every file under either is compared by its path relative to
it.  A file whose bytes match reads as identical, and one that only one
tree holds is named as such.  For a CSV that differs the count of data
rows that differ is printed, with the largest absolute difference in each
column (over the rows both files hold); any other file that differs is
named as differing.

With --trend, any number of records are read, and each one's change-side
medians of `run_s`, `setup_s` and `peak_rss_mb` are printed as one table:
per workload, one row per record in the order given, "-" where a record did
not time that workload.

Exit codes: 0 when both files (with --trend, all of them) read as records,
or both paths are directories, and no check crossed its gate; 1 when a
check crossed its gate (it passes in A and fails in B); 2 when one cannot
be read as a record, or is not a directory.
"""

import argparse
import csv
import io
import itertools
import json
import sys
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb", "gate_ratio")
# the medians the trend table prints
TREND_METRICS = ("run_s", "setup_s", "peak_rss_mb")
# a profile share that moves by more than this is printed
SHARE_POINTS = 0.05


class RecordError(ValueError):
    """A file that cannot be read as a benchmark record."""


def load(path):
    """The record at path; at "<path>:parent", that record with its parent
    tree's digests, checks, medians, profile and memory read as its change
    tree's.  Raises RecordError when the file cannot be read, is not JSON,
    or holds no digests of the tree asked for."""
    path, side = str(path), "change"
    if path.endswith(":parent"):
        path, side = path[:-len(":parent")], "parent"
    try:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise RecordError(f"{path}: cannot read a record: {e}") from None
    digests = rec.get("digests") if isinstance(rec, dict) else None
    if not isinstance(digests, dict) or not isinstance(digests.get(side), dict):
        raise RecordError(f"{path}: not a benchmark record: no {side}-tree digests")
    if side == "parent":
        summary = {w: {m: dict(row, change=row["parent"]) for m, row in metrics.items()}
                   for w, metrics in rec.get("summary", {}).items()}
        rec = dict(rec, digests={"change": digests["parent"]}, summary=summary,
                   checks={"change": rec.get("checks", {}).get("parent")},
                   profile={"change": rec.get("profile", {}).get("parent")},
                   memory={"change": rec.get("memory", {}).get("parent")})
    return rec


def medians(rec):
    """{(workload, metric): the change side's median} of a record's timing;
    empty for a digest-only record."""
    return {(w, m): row[m]["change"]["median"]
            for w, row in rec.get("summary", {}).items() for m in METRICS if m in row}


def differing_digests(a, b):
    """The keys whose change-tree digest differs between records a and b."""
    da, db = a["digests"]["change"], b["digests"]["change"]
    return sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))


def report(a, b):
    """The comparison's lines, and whether a check crossed its gate."""
    lines = []
    ma, mb = medians(a), medians(b)
    shared = [key for key in ma if key in mb]
    if shared:
        lines.append(f"{'workload':<10} {'metric':<12} {'A':>12} {'B':>12} {'B/A':>8}")
        for w, m in shared:
            ratio = f"{mb[w, m] / ma[w, m]:8.3f}" if ma[w, m] else f"{'-':>8}"
            lines.append(f"{w:<10} {m:<12} {ma[w, m]:12.6g} {mb[w, m]:12.6g} {ratio}")
    else:
        lines.append("timing: not in both records")
    na, nb = a.get("numpy"), b.get("numpy")
    if na or nb:
        lines += [f"numpy {side}: {_target(n)}" for side, n in (("A", na), ("B", nb))]
    label = "digests:"
    if na and nb and na != nb:
        label = "digests: not comparable, numpy targets differ;"
    differ = differing_digests(a, b)
    total = len(set(a["digests"]["change"]) | set(b["digests"]["change"]))
    if differ:
        lines.append(f"{label} {len(differ)} of {total} differ")
        lines += [f"  {key}" for key in differ]
    else:
        lines.append(f"{label} identical ({total})")
    crossed = False
    ca, cb = (rec.get("checks", {}).get("change") for rec in (a, b))
    if ca and cb:
        more, crossed = check_lines(ca, cb)
        lines += more
    elif ca or cb:
        lines.append("checks: not in both records")
    pa, pb = (rec.get("profile", {}).get("change") for rec in (a, b))
    if pa or pb:
        lines += profile_lines(pa, pb) if pa and pb else ["profile: not in both records"]
    ma, mb = (rec.get("memory", {}).get("change") for rec in (a, b))
    if ma or mb:
        lines += memory_lines(ma, mb) if ma and mb else ["memory: not in both records"]
    return lines, crossed


def _target(n):
    """One record's numpy target as a line's tail."""
    if not n:
        return "not recorded"
    return (f"{n['version']}, baseline {' '.join(n['baseline']) or '-'}, "
            f"dispatch {' '.join(n['dispatch']) or '-'}")


def trend_lines(records):
    """The trend table of records, [(name, record)]: per workload, in the
    order the records first name it, each record's change-side median of
    every TREND_METRICS metric."""
    width = max(len("record"), *(len(name) for name, _ in records))
    lines = [f"{'workload':<10} {'record':<{width}} "
             + " ".join(f"{m:>12}" for m in TREND_METRICS)]
    workloads = dict.fromkeys(w for _, rec in records for w in rec.get("summary", {}))
    for w in workloads:
        for name, rec in records:
            row = medians(rec)
            lines.append(f"{w:<10} {name:<{width}} " + " ".join(
                f"{row[w, m]:12.6g}" if (w, m) in row else f"{'-':>12}"
                for m in TREND_METRICS))
    return lines


def _num(x):
    return "-" if x is None else f"{x:.6g}"


def check_lines(ca, cb):
    """The lines for two trees' checks, {run: {"checks": {name: entry},
    "metrics": {name: value}}} as bench/record.py writes them, and whether a
    check that passes in ca fails in cb.  A check or metric that only one
    side holds differs."""
    lines, crossed, counts = [], 0, {"checks": [0, 0], "metrics": [0, 0]}
    empty = {"checks": {}, "metrics": {}}
    for run in sorted(set(ca) | set(cb)):
        ra, rb = ca.get(run, empty), cb.get(run, empty)
        for kind in ("checks", "metrics"):
            for name in sorted(set(ra[kind]) | set(rb[kind])):
                ea, eb = ra[kind].get(name), rb[kind].get(name)
                counts[kind][1] += 1
                if ea == eb:
                    continue
                counts[kind][0] += 1
                what = f"{kind[:-1]} {run} {name}"
                if ea is None or eb is None:
                    lines.append(f"{what}: only in {'A' if eb is None else 'B'}")
                elif kind == "metrics":
                    rel = f"{(eb - ea) / abs(ea):+.3g}" if ea else "-"
                    lines.append(f"{what}: {ea!r} -> {eb!r} (change {eb - ea:+.3g}, "
                                 f"relative {rel})")
                else:
                    gate = ea["passed"] and not eb["passed"]
                    crossed += gate
                    lines.append(f"{what}: value {ea['value']!r} -> {eb['value']!r}, "
                                 f"headroom {_num(ea['headroom'])} -> {_num(eb['headroom'])}"
                                 + (f", crossed its gate {eb['comparison']} "
                                    f"{eb['tolerance']!r}" if gate else ""))
    (dc, nc), (dm, nm) = counts["checks"], counts["metrics"]
    if dc or dm:
        lines.append(f"checks: {dc} of {nc} checks and {dm} of {nm} metrics differ, "
                     f"{crossed} crossed its gate")
    else:
        lines.append(f"checks: identical ({nc} checks, {nm} metrics)")
    return lines, bool(crossed)


def profile_lines(pa, pb):
    """The lines for two trees' profiles, {workload: {table: {function:
    share}}}: each function whose share moved by more than SHARE_POINTS."""
    lines = []
    for w in (w for w in pa if w in pb):
        for table in ("tottime", "islab_cumtime"):
            ta, tb = pa[w][table], pb[w][table]
            for name in sorted(set(ta) | set(tb)):
                sa, sb = ta.get(name, 0.0), tb.get(name, 0.0)
                if abs(sb - sa) > SHARE_POINTS:
                    lines.append(f"profile {w:<10} {table:<13} {name}: {sa:.3f} -> {sb:.3f}")
    if not lines:
        lines.append(f"profile: no share moved by more than {SHARE_POINTS:.2f}")
    return lines


def memory_lines(ma, mb):
    """The lines for two trees' memory readings, {workload: tracemalloc
    peak in MB}: both peaks of each workload that both hold, and B / A."""
    lines = []
    for w in (w for w in ma if w in mb):
        ratio = f"{mb[w] / ma[w]:8.3f}" if ma[w] else f"{'-':>8}"
        lines.append(f"memory {w:<10} tracemalloc peak MB {ma[w]:10.4f} {mb[w]:10.4f} {ratio}")
    return lines


def _cell_diff(x, y):
    """|x - y| for two CSV cells that differ; inf when either is not a
    number."""
    try:
        return abs(float(x) - float(y))
    except ValueError:
        return float("inf")


def csv_lines(name, a, b):
    """The lines for a CSV whose bytes a and b differ: how many data rows
    differ (a row only one side holds differs too), and per column the
    largest absolute difference over the rows both sides hold."""
    ra, rb = (list(csv.reader(io.StringIO(data.decode("utf-8")))) for data in (a, b))
    da, db = ra[1:], rb[1:]
    changed, worst = abs(len(da) - len(db)), {}
    for row_a, row_b in zip(da, db):
        if row_a != row_b:
            changed += 1
            for j, (x, y) in enumerate(itertools.zip_longest(row_a, row_b, fillvalue="")):
                if x != y:
                    worst[j] = max(worst.get(j, 0.0), _cell_diff(x, y))
    lines = [f"{name}: {changed} of {max(len(da), len(db))} rows differ"]
    if ra[:1] != rb[:1]:
        lines.append("  header differs")
    header = max(ra[:1] + rb[:1], key=len, default=[])
    for j in range(max(len(header), max(worst, default=-1) + 1)):
        col = header[j] if j < len(header) else f"column {j}"
        lines.append(f"  {col:<16} max |diff| {worst.get(j, 0.0):.3g}")
    return lines


def artifact_lines(dir_a, dir_b):
    """The comparison's lines for two artifact trees."""
    fa, fb = ({str(p.relative_to(d)): p for p in Path(d).rglob("*") if p.is_file()}
              for d in (dir_a, dir_b))
    names = sorted(set(fa) | set(fb))
    lines, differ = [], 0
    for name in names:
        if name not in fa or name not in fb:
            differ += 1
            lines.append(f"{name}: only in {'A' if name in fa else 'B'}")
            continue
        a, b = fa[name].read_bytes(), fb[name].read_bytes()
        if a == b:
            lines.append(f"{name}: identical")
            continue
        differ += 1
        lines += csv_lines(name, a, b) if name.endswith(".csv") else [f"{name}: differs"]
    lines.append(f"artifacts: {differ} of {len(names)} differ" if differ
                 else f"artifacts: identical ({len(names)})")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench/compare.py")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--artifacts", action="store_true",
                      help="compare two artifact directories instead of two records")
    mode.add_argument("--trend", action="store_true",
                      help="print any number of records' medians as one table")
    ap.add_argument("paths", nargs="+", metavar="path",
                    help="two records (or directories); with --trend, any number of records")
    args = ap.parse_args(argv)
    if not args.trend and len(args.paths) != 2:
        ap.error("give two records or directories, or --trend")
    if args.artifacts:
        for path in args.paths:
            if not Path(path).is_dir():
                print(f"{path}: not a directory", file=sys.stderr)
                return 2
        print("\n".join(artifact_lines(*args.paths)))
        return 0
    try:
        records = [load(path) for path in args.paths]
    except RecordError as e:
        print(e, file=sys.stderr)
        return 2
    if args.trend:
        print("\n".join(trend_lines([(Path(path).name, rec)
                                     for path, rec in zip(args.paths, records)])))
        return 0
    lines, crossed = report(*records)
    print("\n".join(lines))
    return 1 if crossed else 0


if __name__ == "__main__":
    sys.exit(main())
