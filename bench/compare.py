"""Compare two benchmark records written by bench/record.py, or two
artifact trees.

    python bench/compare.py A.json B.json
    python bench/compare.py --artifacts DIR_A DIR_B

For each workload and end-to-end metric that both records timed, prints
the change side's median in A and in B and their ratio B / A.  Then lists
every artifact digest that differs between A's and B's change trees (a key
that only one of them holds differs too), or says that they are identical.
A digest-only record (`--pairs 0`) has no timing, so only its digests are
compared.

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


class RecordError(ValueError):
    """A file that cannot be read as a benchmark record."""


def load(path):
    """The record at path.  Raises RecordError when the file cannot be
    read, is not JSON, or holds no change-tree digests."""
    try:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise RecordError(f"{path}: cannot read a record: {e}") from None
    digests = rec.get("digests") if isinstance(rec, dict) else None
    if not isinstance(digests, dict) or not isinstance(digests.get("change"), dict):
        raise RecordError(f"{path}: not a benchmark record: no change-tree digests")
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
