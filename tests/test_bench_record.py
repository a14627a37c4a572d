"""The benchmark recorder's artifact digests (bench/record.py): a digest
reads every byte an artifact computed, and nothing of where it was
written.  The comparer (bench/compare.py) reads two records, or two
artifact trees."""

import importlib.util
import json
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record():
    return _load("record")


def test_a_changed_csv_byte_changes_the_digest(tmp_path):
    digest = _record().digest
    path = tmp_path / "lambda_field.csv"
    path.write_bytes(b"x,y,lambda,valid\n0.005,0.005,2.0610180,1.0\n")
    before = digest(path)
    path.write_bytes(b"x,y,lambda,valid\n0.005,0.005,2.0610184,1.0\n")
    assert digest(path) != before


def test_a_changed_out_path_keeps_the_digest(tmp_path):
    digest = _record().digest
    report = {"suite": "island", "config": {"out": "a-artifacts", "seed": 1},
              "metrics": {"grid_estimate": 2.061018}}
    digests = []
    for out in ("a-artifacts", "/elsewhere/b-artifacts"):
        report["config"]["out"] = out
        path = tmp_path / out.replace("/", "-") / "report.json"
        path.parent.mkdir()
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        digests.append(digest(path))
    assert digests[0] == digests[1]
    # the seed beside it is read
    report["config"]["seed"] = 7
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    assert digest(path) != digests[1]


def _timed_record():
    """A record as bench/record.py writes it: two workloads' summaries and
    both trees' digests."""
    digests = {"links/links/seed1/exit": 0, "links/links/seed1/report.json": "ab" * 32,
               "island/island/seed1/report.json": "cd" * 32}
    summary = {w: {m: {"parent": {"median": 2.0, "q1": 1.9, "q3": 2.1},
                       "change": {"median": 1.5, "q1": 1.4, "q3": 1.6},
                       "change_lower": 10, "change_higher": 0, "pairs": 10}
                   for m in ("run_s", "setup_s", "peak_rss_mb", "gate_ratio")}
               for w in ("island", "links")}
    return {"change": "abc", "parent": "def", "digests_differ": [],
            "digests": {"parent": dict(digests), "change": dict(digests)}, "summary": summary}


def _write(tmp_path, name, rec):
    path = tmp_path / name
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    return str(path)


def test_compare_a_record_with_itself_reports_everything_identical(tmp_path, capsys):
    path = _write(tmp_path, "a.json", _timed_record())
    assert _load("compare").main([path, path]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [ln.split() for ln in lines[1:-1]]
    assert len(rows) == 8 and all(r[-1] == "1.000" for r in rows)
    assert lines[-1] == "digests: identical (3)"


def test_compare_lists_a_changed_digest(tmp_path, capsys):
    rec = _timed_record()
    a = _write(tmp_path, "a.json", rec)
    rec["digests"]["change"]["links/links/seed1/report.json"] = "ef" * 32
    rec["summary"]["links"]["run_s"]["change"]["median"] = 1.2
    b = _write(tmp_path, "b.json", rec)
    assert _load("compare").main([a, b]) == 0
    out = capsys.readouterr().out
    assert out.endswith("digests: 1 of 3 differ\n  links/links/seed1/report.json\n")
    assert "links      run_s                 1.5          1.2    0.800" in out


def test_compare_reads_digest_only_records(tmp_path, capsys):
    # bench/record.py --pairs 0 writes this tree's digests alone
    rec = _timed_record()
    digests = {"change": rec["digests"]["change"]}
    a = _write(tmp_path, "a.json", {"change": "abc", "digests": digests})
    assert _load("compare").main([a, _write(tmp_path, "b.json", rec)]) == 0
    assert capsys.readouterr().out == "timing: not in both records\ndigests: identical (3)\n"


def test_compare_refuses_a_file_that_is_not_a_record(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _timed_record())
    for name, text in (("missing.json", None), ("text.json", "not json"),
                       ("other.json", json.dumps({"digests": []}))):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert _load("compare").main([a, str(path)]) == 2
        assert capsys.readouterr().err.startswith(str(path))


def _tree(root, files):
    """An artifact tree under root: {relative path: text}."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


_FIELD = "x,y,lambda,valid\n0.25,0.25,2.5,1.0\n0.75,0.25,2.75,1.0\n0.25,0.75,0.0,0.0\n"


def test_compare_artifacts_counts_a_changed_cell(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"island/lambda_field.csv": _FIELD, "island/report.json": "{}\n"})
    b = _tree(tmp_path / "b", {"island/lambda_field.csv": _FIELD.replace("2.75", "2.7500000000000004"),
                               "island/report.json": "{}\n"})
    assert _load("compare").main(["--artifacts", a, b]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "island/lambda_field.csv: 1 of 3 rows differ",
        "  x                max |diff| 0",
        "  y                max |diff| 0",
        "  lambda           max |diff| 4.44e-16",
        "  valid            max |diff| 0",
        "island/report.json: identical",
        "artifacts: 1 of 2 differ"]


def test_compare_artifacts_of_identical_trees(tmp_path, capsys):
    files = {"island/lambda_field.csv": _FIELD, "island/report.json": "{}\n"}
    a, b = _tree(tmp_path / "a", files), _tree(tmp_path / "b", files)
    assert _load("compare").main(["--artifacts", a, b]) == 0
    assert capsys.readouterr().out == ("island/lambda_field.csv: identical\n"
                                       "island/report.json: identical\n"
                                       "artifacts: identical (2)\n")


def test_compare_artifacts_names_a_file_on_one_side_only(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"scan.csv": "a,mean_lambda\n0.1,0.0\n"})
    b = _tree(tmp_path / "b", {"scan.csv": "a,mean_lambda\n0.1,0.0\n", "extra.csv": "a\n1\n"})
    assert _load("compare").main(["--artifacts", a, b]) == 0
    assert capsys.readouterr().out == ("extra.csv: only in B\nscan.csv: identical\n"
                                       "artifacts: 1 of 2 differ\n")
    # a path that is not a directory is refused
    assert _load("compare").main(["--artifacts", a, str(tmp_path / "a" / "scan.csv")]) == 2
    assert capsys.readouterr().err.endswith("scan.csv: not a directory\n")


# ---------------------------------------------------------------------------
# profiles (bench/record.py --profile)


ROOT = BENCH.parent


def test_profile_shares_name_islab_functions_by_qualified_name():
    record = _record()
    src = ROOT / "src"
    curves = str(src / "islab" / "curves.py")
    line = next(n for n, name in record.qualnames(curves).items()
                if name == "PeriodicFn.__call__")
    stats = {(curves, line, "__call__"): (1, 1, 3.0, 6.0, {}),
             ("~", 0, "<built-in method numpy.zeros>"): (1, 1, 1.0, 1.0, {}),
             ("/usr/lib/python3/numpy/_core/fromnumeric.py", 10, "sum"): (1, 1, 4.0, 4.0, {})}
    shares = record.profile_shares(stats, src)
    assert shares["total_s"] == 8.0
    assert shares["tottime"] == {"_core/fromnumeric.py:sum": 0.5,
                                 "islab/curves.py:PeriodicFn.__call__": 0.375,
                                 "<built-in method numpy.zeros>": 0.125}
    # only islab functions carry their time with callees
    assert shares["islab_cumtime"] == {"islab/curves.py:PeriodicFn.__call__": 0.75}


def test_a_profiled_record_round_trips_through_the_comparer(tmp_path, capsys):
    # one real profiling child of this tree, at one operation, written into
    # a record and read back by the comparer
    record = _record()
    prof = record.profile_tree(ROOT, seed=1, operations=1, workloads=("rescaling",))
    shares = prof["rescaling"]
    assert len(shares["tottime"]) == record.PROFILE_TOP
    assert 0.5 < shares["islab_cumtime"]["islab/cli.py:_run_rescaling"] <= 1.0
    rec = _timed_record()
    rec["profile"] = {"seed": 1, "warmup": 1, "operations": 1, "change": prof,
                      "parent": json.loads(json.dumps(prof))}
    a = _write(tmp_path, "a.json", rec)
    assert _load("compare").main([a, a]) == 0
    assert capsys.readouterr().out.endswith(
        "digests: identical (3)\nprofile: no share moved by more than 0.05\n")
    # a share that moves by more than 5 points is named, with both shares
    name = "islab/cli.py:_run_rescaling"
    rec["profile"]["parent"]["rescaling"]["islab_cumtime"][name] -= 0.25
    b = _write(tmp_path, "b.json", rec)
    assert _load("compare").main([b + ":parent", b]) == 0
    moved = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("profile")]
    before = rec["profile"]["parent"]["rescaling"]["islab_cumtime"][name]
    after = prof["rescaling"]["islab_cumtime"][name]
    assert moved == [f"profile rescaling  islab_cumtime {name}: {before:.3f} -> {after:.3f}"]


def test_compare_reads_a_record_without_a_profile_beside_a_profiled_one(tmp_path, capsys):
    rec = _timed_record()
    a = _write(tmp_path, "a.json", rec)
    rec["profile"] = {"change": {"links": {"total_s": 1.0, "tottime": {"f": 1.0},
                                           "islab_cumtime": {}}}}
    b = _write(tmp_path, "b.json", rec)
    assert _load("compare").main([a, b]) == 0
    assert capsys.readouterr().out.endswith("digests: identical (3)\n"
                                            "profile: not in both records\n")
    # a record's parent side reads as a record: its medians and digests
    assert _load("compare").main([a + ":parent", a]) == 0
    out = capsys.readouterr().out
    assert "links      run_s                   2          1.5    0.750" in out
    assert out.endswith("digests: identical (3)\n")
