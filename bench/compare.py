"""Compare two benchmark records written by bench/record.py, or two
artifact trees.

    python bench/compare.py A.json B.json
    python bench/compare.py B.json:parent B.json
    python bench/compare.py --artifacts DIR_A DIR_B

For each workload and end-to-end metric that both records timed, prints
the change side's median in A and in B and their ratio B / A.  Then lists
every artifact digest that differs between A's and B's change trees (a key
that only one of them holds differs too), or says that they are identical.
A digest-only record (`--pairs 0`) has no timing, so only its digests are
compared.  When either record holds a profile (`record.py --profile`), the
change trees' profiles follow: per workload and table (`tottime`, the top
functions by own time, and `islab_cumtime`), every function whose share of
the profile moved by more than SHARE_POINTS, a function absent from one
side's table reading 0 there.  A record path with the suffix ":parent"
reads that record's parent tree in place of its change tree, so a record
can be compared with its own parent.

With --artifacts, A and B are directories, such as two `islab run --out`
trees, and every file under either is compared by its path relative to
it.  A file whose bytes match reads as identical, and one that only one
tree holds is named as such.  For a CSV that differs the count of data
rows that differ is printed, with the largest absolute difference in each
column (over the rows both files hold); any other file that differs is
named as differing.

Exit codes: 0 when both files read as records, or both paths are
directories, whatever they hold; 2 when one cannot be read as a record,
or is not a directory.
"""

import argparse
import csv
import io
import itertools
import json
import sys
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb", "gate_ratio")
# a profile share that moves by more than this is printed
SHARE_POINTS = 0.05


class RecordError(ValueError):
    """A file that cannot be read as a benchmark record."""


def load(path):
    """The record at path; at "<path>:parent", that record with its parent
    tree's digests, medians and profile read as its change tree's.  Raises
    RecordError when the file cannot be read, is not JSON, or holds no
    digests of the tree asked for."""
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
                   profile={"change": rec.get("profile", {}).get("parent")})
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
    """The comparison's lines."""
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
    differ = differing_digests(a, b)
    total = len(set(a["digests"]["change"]) | set(b["digests"]["change"]))
    if differ:
        lines.append(f"digests: {len(differ)} of {total} differ")
        lines += [f"  {key}" for key in differ]
    else:
        lines.append(f"digests: identical ({total})")
    pa, pb = (rec.get("profile", {}).get("change") for rec in (a, b))
    if pa or pb:
        lines += profile_lines(pa, pb) if pa and pb else ["profile: not in both records"]
    return lines


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
    ap.add_argument("--artifacts", action="store_true",
                    help="compare two artifact directories instead of two records")
    ap.add_argument("a", help="the first record (or directory)")
    ap.add_argument("b", help="the second record (or directory)")
    args = ap.parse_args(argv)
    if args.artifacts:
        for path in (args.a, args.b):
            if not Path(path).is_dir():
                print(f"{path}: not a directory", file=sys.stderr)
                return 2
        print("\n".join(artifact_lines(args.a, args.b)))
        return 0
    try:
        a, b = load(args.a), load(args.b)
    except RecordError as e:
        print(e, file=sys.stderr)
        return 2
    print("\n".join(report(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
