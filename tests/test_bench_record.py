"""The benchmark recorder's artifact digests (bench/record.py): a digest
reads every byte an artifact computed, and nothing of where it was
written."""

import importlib.util
import json
import pathlib

RECORD = pathlib.Path(__file__).resolve().parents[1] / "bench" / "record.py"


def _record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
