"""Suite runner: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from islab import cli, maps, rescaling
from islab.cli import _SUITES, emit_plot_data, main, run
from islab.config import ConfigError, ExperimentConfig, parse_text, validate


def _cfg(text):
    return ExperimentConfig.from_text(text)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# suite runs (reduced sizes)

LYAP = """
suite = lyapunov
seed = 7
lyapunov.n = 50
lyapunov.points = 20
lyapunov.grid = 12
lyapunov.grid_n = 15
"""

SCAN = """
suite = stdmap-scan
seed = 3
stdmap.a_min = 0.1
stdmap.a_max = 1.3
stdmap.a_step = 0.4
stdmap.n = 80
stdmap.points = 24
"""

RESC = """
suite = rescaling
seed = 11
rescaling.k_list = 8,10
"""

ISLAND = """
suite = island
seed = 1
island.grid = 16
island.n = 40
island.samples = 100
"""

LINKS = """
suite = links
seed = 9
links.count = 2
links.harmonics = 4
"""


def test_lyapunov_suite(tmp_path):
    report, code = run(_cfg(LYAP))
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "anosov-exponent-matches-log(9+4*sqrt(5))" in names
    assert all(c["passed"] for c in report["checks"])
    paths = emit_plot_data(report, tmp_path)
    field = os.path.join(tmp_path, "lambda_field.csv")
    assert field in paths
    lines = _read(field).decode().splitlines()
    assert lines[0] == "x,y,lambda,valid"
    assert len(lines) == 1 + 12 * 12


def test_scan_suite_has_no_checks(tmp_path):
    report, code = run(_cfg(SCAN))
    assert code == 0
    assert report["checks"] == []
    emit_plot_data(report, tmp_path)
    lines = _read(os.path.join(tmp_path, "scan.csv")).decode().splitlines()
    assert lines[0] == "a,mean_lambda,elliptic_trace"
    assert len(lines) == 1 + 4  # 0.1, 0.5, 0.9, 1.3


def test_scan_blocks_do_not_change_outputs(monkeypatch):
    rows = run(_cfg(SCAN))[0]["_tables"]["scan.csv"][1]
    # 4 a values x 24 points = 96 rows: three blocks, split inside an a
    monkeypatch.setattr(cli, "SCAN_BLOCK_ROWS", 40)
    assert run(_cfg(SCAN))[0]["_tables"]["scan.csv"][1] == rows


def test_rescaling_suite(tmp_path):
    report, code = run(_cfg(RESC))
    assert code == 0
    assert all(c["passed"] for c in report["checks"])
    emit_plot_data(report, tmp_path)
    lines = _read(os.path.join(tmp_path, "e_of_k.csv")).decode().splitlines()
    assert lines[0] == "k,n,error,phi_defect"
    ks = [int(l.split(",")[0]) for l in lines[1:]]
    assert ks == [8, 10]
    ns = [int(l.split(",")[1]) for l in lines[1:]]
    assert ns == [27, 33]


def test_island_suite(tmp_path):
    report, code = run(_cfg(ISLAND))
    assert code == 0
    assert all(c["passed"] for c in report["checks"])
    # every check's verdict is its comparison of value against tolerance
    for c in report["checks"]:
        assert c["passed"] == cli._COMPARE[c["comparison"]](c["value"], c["tolerance"])
    emit_plot_data(report, tmp_path)
    lines = _read(os.path.join(tmp_path, "saddles.csv")).decode().splitlines()
    assert lines[0] == ("center,theta,x,y,mult_stable,mult_unstable,"
                        "fixed_defect")
    assert len(lines) == 1 + 16  # four saddles on each of the four circles
    # the finite-difference cross-check is reported, as a metric
    assert 0.0 < report["metrics"]["saddle_fd_multiplier_error"] <= 1e-4
    assert "saddle_fd_multiplier_error" not in {c["name"] for c in report["checks"]}


@pytest.mark.parametrize("delta, eps", [(0.2, 0.2001), (0.01, 0.24), (0.24, 0.2499),
                                        (0.001, 0.002), (0.1, 0.24999)])
def test_island_suite_at_edge_profiles(delta, eps):
    text = (f"suite = island\nisland.delta = {delta}\nisland.eps = {eps}\n"
            "island.grid = 16\nisland.n = 50\n")
    assert validate(parse_text(text)) == []
    report, code = run(_cfg(text))
    assert code == 0, [c["name"] for c in report["checks"] if not c["passed"]]


def test_links_suite(tmp_path):
    report, code = run(_cfg(LINKS))
    assert code == 0
    assert all(c["passed"] for c in report["checks"])
    emit_plot_data(report, tmp_path)
    lines = _read(os.path.join(tmp_path, "residuals.csv")).decode().splitlines()
    assert lines[0] == "iter,sup_residual,norm0_residual"
    iters = [int(l.split(",")[0]) for l in lines[1:]]
    assert iters == list(range(len(iters)))  # renumbered consecutively


# ---------------------------------------------------------------------------
# report structure

def test_check_comparisons():
    passed = [cli._check("c", 1.0, 1.0, op)["passed"] for op in ("<=", "<", ">=", "==")]
    assert passed == [True, False, True, True]
    assert cli._check("c", 0.5, 1.0, "<") == {
        "name": "c", "passed": True, "value": 0.5, "tolerance": 1.0, "comparison": "<"}


def test_failed_check_carries_value_and_tolerance(tmp_path, monkeypatch):
    def failing(cfg, rng):
        return ([{"name": "synthetic", "passed": False, "value": 2.5,
                  "tolerance": 1.0, "comparison": "<="}], {}, {})
    monkeypatch.setitem(_SUITES, "lyapunov", failing)
    report, code = run(_cfg("suite = lyapunov\n"))
    assert code == 1
    assert report["passed"] is False
    bad = report["checks"][0]
    assert bad["value"] == 2.5 and bad["tolerance"] == 1.0


def test_broken_corollary_identity_fails_its_check(monkeypatch):
    # a shear off by 1e-6 breaks the corollary identity: the run reports the
    # check as failed, with exit code 1, rather than raising
    def off_shear(psi, dpsi, name="S_psi"):
        return maps.shear_map(lambda x: psi(x) + 1e-6, dpsi, name=name)

    monkeypatch.setattr(rescaling, "shear_map", off_shear)
    report, code = run(_cfg(RESC))
    assert code == 1
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["corollary-composition-identity"]
    assert abs(failed[0]["value"] - 1e-6) <= 1e-9


def test_report_json_echoes_config_and_excludes_wall_clock(tmp_path):
    report, _ = run(_cfg(LYAP))
    emit_plot_data(report, tmp_path)
    payload = json.loads(_read(os.path.join(tmp_path, "report.json")))
    assert payload["config"]["lyapunov.n"] == 50
    assert payload["config"]["seed"] == 7
    assert payload["suite"] == "lyapunov"
    assert "_elapsed" not in payload
    assert not any(k.startswith("_") for k in payload)
    assert "report.json" in payload["artifacts"]


def test_csv_float_array_writes_the_bytes_of_its_tuple_rows(tmp_path):
    # a float array is written through repr, once per distinct bit pattern
    # of a column, tuple rows of the same values through _fmt: the two files
    # must be the same bytes.  The last column repeats values and holds both
    # zeros, which compare equal but print apart
    rows = np.array([[-0.0, 1e-300, 3.0, 0.0], [0.1, -2.0, 1e16, -0.0],
                     [5e-324, -1e300, 2.0 / 3.0, 0.0], [0.1, -2.0, 1e16, -0.0],
                     [0.0, np.nan, -np.inf, 2.0 / 3.0]])
    header = ("x", "y", "z", "w")
    cli._write_csv(tmp_path / "array.csv", header, rows)
    cli._write_csv(tmp_path / "tuples.csv", header, [tuple(r) for r in rows])
    blob = _read(tmp_path / "array.csv")
    assert blob == _read(tmp_path / "tuples.csv")
    assert blob.decode().splitlines()[1:3] == ["-0.0,1e-300,3.0,0.0", "0.1,-2.0,1e+16,-0.0"]


# ---------------------------------------------------------------------------
# determinism

def test_bitwise_determinism_same_config(tmp_path):
    cfg = _cfg(RESC)
    out = tmp_path / "a"
    report1, _ = run(cfg)
    emit_plot_data(report1, out)
    first = {p: _read(os.path.join(out, p)) for p in
             ("report.json", "e_of_k.csv")}
    report2, _ = run(_cfg(RESC))
    emit_plot_data(report2, out)
    for name, blob in first.items():
        assert _read(os.path.join(out, name)) == blob


def test_seed_changes_outputs():
    r1, _ = run(_cfg(SCAN))
    cfg = _cfg(SCAN)
    cfg.seed = 4
    r2, _ = run(cfg)
    a = np.array([row[1] for row in r1["_tables"]["scan.csv"][1]])
    b = np.array([row[1] for row in r2["_tables"]["scan.csv"][1]])
    assert np.any(a != b)


@pytest.mark.parametrize("threads", [0, 2, 4])
def test_run_refuses_more_than_one_thread(monkeypatch, threads):
    # every suite runs in one thread; run keeps the keyword for callers that
    # pass 1, and refuses any other count before its suite runs
    def never(cfg, rng):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(_SUITES, "lyapunov", never)
    with pytest.raises(ValueError, match="threads must be 1"):
        run(_cfg("suite = lyapunov\n"), threads=threads)


# ---------------------------------------------------------------------------
# command line

def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_main_run_and_validate(tmp_path, capsys):
    path = _write_cfg(tmp_path, LYAP)
    assert main(["validate", path]) == 0
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "lambda_field.csv"))


def test_main_config_error_exit_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, "suite = island\nisland.delta = 0.3\n")
    assert main(["validate", path]) == 2
    assert main(["run", path]) == 2
    assert main(["validate", str(tmp_path / "missing.cfg")]) == 2


def test_validate_rejects_outer_radius_at_its_bound(tmp_path, capsys):
    # at eps = 0.25 the outer discs overlap and SurgeryProfile refuses the
    # run, so the schema's upper bound on island.eps is open
    path = _write_cfg(tmp_path, "suite = island\nisland.eps = 0.25\n")
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert "island.eps" in captured.out + captured.err
    assert "ok" not in captured.out


@pytest.mark.parametrize("k_list, reason", [("8,8", "must be strictly increasing"),
                                             ("14,8", "must be strictly increasing"),
                                             ("8,,10", "has an empty entry")])
def test_validate_rejects_a_k_list_the_suite_cannot_pass(tmp_path, capsys, k_list, reason):
    # the suite gates its error as strictly decreasing in k, so a repeated
    # or falling k fails it by construction (at seed 1, 8,8 reads 1 against
    # < 1 and 14,8 reads 9.12); an empty entry is not dropped either
    path = _write_cfg(tmp_path, f"suite = rescaling\nrescaling.k_list = {k_list}\n")
    assert main(["validate", path]) == 2
    assert f"rescaling.k_list: {reason}" in capsys.readouterr().out


@pytest.mark.parametrize("count, reason", [("3", "must be even"), ("99", "must be even"),
                                           ("1", "must be >= 2"), ("0", "must be >= 2")])
def test_validate_rejects_a_links_count_the_suite_does_not_restore(tmp_path, capsys,
                                                                   count, reason):
    # the suite restores count / 2 models on each link side: an odd count
    # would run as the even count below it (1 as 2) and echo the count it
    # did not restore
    path = _write_cfg(tmp_path, f"suite = links\nlinks.count = {count}\n")
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert f"links.count: {reason}" in captured.out + captured.err
    ok = _write_cfg(tmp_path, "suite = links\nlinks.count = 2\n", name="even.cfg")
    assert main(["validate", ok]) == 0


@pytest.mark.parametrize("suite, key, value, reason", [
    ("links", "count", 1, "links.count: must be >= 2"),
    ("links", "count", 3, "links.count: must be even"),
    ("island", "delta", 0.24, "island.delta: inner radius must be < outer"),
    ("rescaling", "k_list", [10, 8], "rescaling.k_list: must be strictly increasing"),
])
def test_run_refuses_params_set_in_code_that_validate_refuses(monkeypatch, suite, key,
                                                              value, reason):
    # a config edited past ExperimentConfig.from_raw is held to the rules a
    # config file is, before its suite runs
    def never(cfg, rng):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(_SUITES, suite, never)
    cfg = _cfg(f"suite = {suite}\n")
    cfg.params[key] = value
    with pytest.raises(ConfigError, match=reason):
        run(cfg)


def test_run_of_a_valid_config_set_in_code_is_its_file_run(tmp_path):
    # count 2 set in code runs as the file that states it, byte for byte,
    # and validating leaves the config's values as they were
    edited = _cfg(LINKS.replace("links.count = 2", "links.count = 4"))
    edited.params["count"] = 2
    params = dict(edited.params)
    outs = []
    for cfg in (edited, _cfg(LINKS)):
        report, code = run(cfg)
        assert code == 0
        outs.append(tmp_path / str(len(outs)))
        emit_plot_data(report, outs[-1])
    assert edited.params == params
    assert sorted(os.listdir(outs[0])) == sorted(os.listdir(outs[1]))
    for name in os.listdir(outs[0]):
        assert _read(outs[0] / name) == _read(outs[1] / name)


def test_validate_rejects_an_annulus_past_the_conjugacy_conditioning_limit(tmp_path, capsys):
    # at delta/eps = 0.24/0.24000001 the surgery's max psi' is 4.5e7, and the
    # run's conjugacy check would read 4.8e-9 against 1e-9; 0.2/0.2001, the
    # edge profiles' largest psi' (3750), is accepted
    thin = _write_cfg(tmp_path, "suite = island\nisland.delta = 0.24\nisland.eps = 0.24000001\n")
    for command in ("validate", "run"):
        assert main([command, thin]) == 2
        captured = capsys.readouterr()
        assert "island.eps" in captured.out + captured.err
        assert "psi'" in captured.out + captured.err
    wide = _write_cfg(tmp_path, "suite = island\nisland.delta = 0.2\nisland.eps = 0.2001\n",
                      name="wide.cfg")
    assert main(["validate", wide]) == 0


@pytest.mark.parametrize("command", ["run", "validate"])
def test_main_unreadable_config_exit_2(tmp_path, capsys, command):
    # a directory and a file that is not UTF-8 are config errors, reported
    # on one line each, not tracebacks
    folder = tmp_path / "dir.cfg"
    folder.mkdir()
    binary = tmp_path / "bad.cfg"
    binary.write_bytes(b"suite = island\n# caf\xff\n")
    for path, text in ((folder, "cannot read config file"), (binary, "not UTF-8")):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and text in err and err.count("\n") == 1


def test_main_numeric_abort_exit_1(tmp_path, capsys):
    # k = 6 is too short a saddle passage for the built-in nonlinearity:
    # a leg orbit exits its perturbation box and the run aborts numerically
    path = _write_cfg(tmp_path, "suite = rescaling\nrescaling.k_list = 6\n")
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    assert "run failed" in capsys.readouterr().err


def test_main_unwritable_out_exit_1(tmp_path, capsys):
    # --out below a regular file: the directory cannot be made
    path = _write_cfg(tmp_path, SCAN)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", path, "--out", str(blocker / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: ") and err.count("\n") == 1


def test_main_seed_override(tmp_path):
    path = _write_cfg(tmp_path, SCAN)
    o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", path, "--out", o1, "--seed", "99"]) == 0
    assert main(["run", path, "--out", o2, "--seed", "99"]) == 0
    assert _read(os.path.join(o1, "scan.csv")) == \
        _read(os.path.join(o2, "scan.csv"))
    payload = json.loads(_read(os.path.join(o1, "report.json")))
    assert payload["config"]["seed"] == 99


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_main_seed_override_outside_the_schema_exit_2(tmp_path, capsys, seed):
    # the override is held to the schema's seed range, as a config's seed is
    path = _write_cfg(tmp_path, SCAN)
    out = tmp_path / "o"
    assert main(["run", path, "--out", str(out), "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")
    assert not out.exists()


def test_console_script_end_to_end(tmp_path):
    path = _write_cfg(tmp_path, RESC)
    out = str(tmp_path / "cli_out")
    proc = subprocess.run(
        [sys.executable, "-m", "islab.cli", "run", path, "--out", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "PASS" in proc.stdout
    assert "elapsed" in proc.stdout  # wall clock on console only
    payload = json.loads(_read(os.path.join(out, "report.json")))
    assert payload["passed"] is True
