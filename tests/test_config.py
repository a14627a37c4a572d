"""Config parsing and validation."""

import pytest

from islab.config import (ConfigError, ExperimentConfig, SUITE_SCHEMA, SUITES, parse_text,
                          validate)

FLOAT_KEYS = [(suite, key) for suite, schema in SUITE_SCHEMA.items()
              for key, spec in schema.items() if spec.kind == "float"]


def test_parse_key_value_with_comments():
    raw = parse_text("""
# a comment
suite = island          # trailing comment
island.delta = 0.15

island.eps=0.24
""")
    assert raw == {"suite": "island", "island.delta": "0.15",
                   "island.eps": "0.24"}


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError) as e:
        parse_text("suite = island\nsuite = lyapunov\n")
    assert any("duplicate" in v for v in e.value.violations)
    with pytest.raises(ConfigError) as e:
        parse_text("just some words\n")
    assert any("line 1" in v for v in e.value.violations)


def test_defaults_fill_in():
    cfg = ExperimentConfig.from_text("suite = lyapunov\n")
    assert cfg.suite == "lyapunov"
    assert cfg.seed == 0
    assert cfg.params["map"] == "anosov"
    assert cfg.params["n"] == 50
    assert cfg.params["points"] == 100


def test_unknown_key_rejected():
    vs = validate({"suite": "lyapunov", "lyapunov.bogus": "3"})
    assert any("unknown key 'lyapunov.bogus'" in v for v in vs)
    vs = validate({"suite": "island", "lyapunov.n": "50"})
    assert any("unknown key" in v for v in vs)


def test_missing_or_bad_suite():
    assert any("suite" in v for v in validate({}))
    assert any("suite" in v for v in validate({"suite": "nope"}))


def test_numeric_range_enforced():
    vs = validate({"suite": "island", "island.delta": "0.3"})
    assert vs
    vs = validate({"suite": "island", "island.delta": "-0.1"})
    assert vs
    vs = validate({"suite": "lyapunov", "lyapunov.n": "0"})
    assert vs
    vs = validate({"suite": "lyapunov", "seed": "-1"})
    assert vs


@pytest.mark.parametrize("suite, key", FLOAT_KEYS)
def test_nan_float_rejected_on_its_own_key(suite, key):
    # a NaN compares false with every range bound, and a cross-field rule
    # that reads it would blame another key
    assert validate({"suite": suite, key: "nan"}) == [f"{key}: must be finite"]


def test_inner_outer_radius_ordering():
    vs = validate({"suite": "island", "island.delta": "0.24",
                   "island.eps": "0.2"})
    assert "island.delta: inner radius must be < outer" in vs
    assert not validate({"suite": "island", "island.delta": "0.15",
                         "island.eps": "0.24"})


def test_annulus_past_the_conjugacy_conditioning_limit_rejected():
    # max psi' = 1 + 3.75 rho_lo / (rho_hi - rho_lo): 4.5e7 at 0.24/0.24000001,
    # where the conjugacy check reads 4.8e-9 against its 1e-9 gate
    vs = validate({"suite": "island", "island.delta": "0.24",
                   "island.eps": "0.24000001"})
    assert len(vs) == 1 and vs[0].startswith("island.eps: ") and "psi' = 4.5e+07" in vs[0]
    assert not validate({"suite": "island", "island.delta": "0.2",
                         "island.eps": "0.2001"})
    # the rule needs both radii, in order
    assert validate({"suite": "island", "island.delta": "0.24",
                     "island.eps": "0.2"}) == ["island.delta: inner radius must be < outer"]
    assert all(v.startswith("island.delta: ")
               for v in validate({"suite": "island", "island.delta": "x",
                                  "island.eps": "0.24000001"}))


def test_even_alternation_count_rejected():
    vs = validate({"suite": "rescaling", "rescaling.N": "4"})
    assert "rescaling.N: must be <= 3" in vs


def test_scale_inequality_rejected():
    vs = validate({"suite": "rescaling", "rescaling.lambda": "0.7",
                   "rescaling.mu": "0.8", "rescaling.r": "2"})
    assert "rescaling.lambda: scales must satisfy |lambda| < mu^r < 1" in vs
    assert not validate({"suite": "rescaling", "rescaling.lambda": "0.4",
                         "rescaling.mu": "0.8", "rescaling.r": "2"})


def test_stdmap_range_ordering():
    vs = validate({"suite": "stdmap-scan", "stdmap.a_min": "3.0",
                   "stdmap.a_max": "1.0"})
    assert vs


def test_k_list_parsing():
    cfg = ExperimentConfig.from_text(
        "suite = rescaling\nrescaling.k_list = 8, 10, 12\n")
    assert cfg.params["k_list"] == [8, 10, 12]
    vs = validate({"suite": "rescaling", "rescaling.k_list": "8,oops"})
    assert vs
    vs = validate({"suite": "rescaling", "rescaling.k_list": "2,4"})
    assert vs  # below the minimum passage length


def test_from_raw_raises_with_all_violations():
    with pytest.raises(ConfigError) as e:
        ExperimentConfig.from_raw({"suite": "island", "island.delta": "2",
                                   "island.grid": "0"})
    assert len(e.value.violations) >= 2


def test_resolved_echo_roundtrip():
    cfg = ExperimentConfig.from_text(
        "suite = island\nseed = 42\nisland.delta = 0.12\n")
    echo = cfg.resolved()
    assert echo["suite"] == "island"
    assert echo["seed"] == 42
    assert echo["island.delta"] == 0.12
    assert "island.eps" in echo  # defaults are echoed too
    # the echo is itself a valid config
    text = "\n".join(f"{k} = {v if not isinstance(v, list) else ','.join(map(str, v))}"
                     for k, v in echo.items())
    cfg2 = ExperimentConfig.from_text(text)
    assert cfg2.params == cfg.params
    assert cfg2.seed == cfg.seed


def test_all_suites_have_schemas():
    for suite in SUITES:
        cfg = ExperimentConfig.from_text(f"suite = {suite}\n")
        assert cfg.params  # every suite carries defaults


def test_missing_file():
    with pytest.raises(ConfigError) as e:
        ExperimentConfig.from_file("/nonexistent/path.cfg")
    assert any("not found" in v for v in e.value.violations)


def test_unreadable_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        ExperimentConfig.from_file(str(tmp_path))
    path = tmp_path / "latin1.cfg"
    path.write_bytes("suite = island\n# caf\xe9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="not UTF-8 text: byte 0xe9"):
        ExperimentConfig.from_file(str(path))
