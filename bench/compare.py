"""Compare two benchmark records written by bench/record.py.

    python bench/compare.py A.json B.json

For each workload and end-to-end metric that both records timed, prints
the change side's median in A and in B and their ratio B / A.  Then lists
every artifact digest that differs between A's and B's change trees (a key
that only one of them holds differs too), or says that they are identical.
A digest-only record (`--pairs 0`) has no timing, so only its digests are
compared.

Exit codes: 0 when both files read as records, whatever they hold; 2 when
one cannot be read as a record.
"""

import argparse
import json
import sys

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


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench/compare.py")
    ap.add_argument("a", help="the first record")
    ap.add_argument("b", help="the second record")
    args = ap.parse_args(argv)
    try:
        a, b = load(args.a), load(args.b)
    except RecordError as e:
        print(e, file=sys.stderr)
        return 2
    print("\n".join(report(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
