"""Experiment configuration: flat key = value files with dotted section
prefixes, '#' comments, typed schema validation, and stable defaults.

Example::

    suite = island
    seed = 7
    island.delta = 0.15
    island.eps = 0.24   # outer profile radius

Unknown keys, keys from a different suite's block, type mismatches, and
out-of-range values are all reported by `validate`; `ExperimentConfig`
raises `ConfigError` listing every violation at once.  `read_config` is
the one reader of a config file: a file that is missing, cannot be read or
is not UTF-8 text is a `ConfigError` too.
"""

from dataclasses import dataclass, field

SUITES = ("island", "lyapunov", "stdmap-scan", "links", "rescaling")


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


@dataclass
class _Key:
    kind: str                   # int | float | str | choice | int_list
    default: object
    lo: object = None
    hi: object = None
    choices: tuple = ()
    lo_open: bool = False
    hi_open: bool = False

    def parse(self, raw):
        if self.kind == "int":
            v = int(raw)
        elif self.kind == "float":
            v = float(raw)
        elif self.kind == "int_list":
            v = _int_list(raw)
        elif self.kind == "choice":
            v = str(raw)
            if v not in self.choices:
                raise ValueError(f"must be one of {', '.join(self.choices)}")
            return v
        else:
            return str(raw)
        vals = v if self.kind == "int_list" else [v]
        for x in vals:
            if self.lo is not None and (x <= self.lo if self.lo_open else x < self.lo):
                raise ValueError(f"must be {'>' if self.lo_open else '>='} {self.lo}")
            if self.hi is not None and (x >= self.hi if self.hi_open else x > self.hi):
                raise ValueError(f"must be {'<' if self.hi_open else '<='} {self.hi}")
        if self.kind == "int_list" and not vals:
            raise ValueError("must list at least one value")
        return v


COMMON_SCHEMA = {
    "suite": _Key("choice", None, choices=SUITES),
    "seed": _Key("int", 0, lo=0, hi=2 ** 64 - 1),
    "out": _Key("str", "out"),
}

SUITE_SCHEMA = {
    "lyapunov": {
        "lyapunov.map": _Key("choice", "anosov", choices=("anosov", "chirikov")),
        "lyapunov.a": _Key("float", 2.0, lo=0.0, hi=20.0, lo_open=True),
        "lyapunov.n": _Key("int", 50, lo=1, hi=100000),
        "lyapunov.points": _Key("int", 100, lo=1, hi=100000),
        "lyapunov.grid": _Key("int", 48, lo=8, hi=512),
        "lyapunov.grid_n": _Key("int", 60, lo=1, hi=10000),
    },
    "island": {
        "island.delta": _Key("float", 0.15, lo=0.0, hi=0.25, lo_open=True, hi_open=True),
        "island.eps": _Key("float", 0.24, lo=0.0, hi=0.25, lo_open=True),
        "island.n": _Key("int", 200, lo=1, hi=100000),
        "island.grid": _Key("int", 100, lo=8, hi=512),
        "island.samples": _Key("int", 1000, lo=1, hi=100000),
    },
    "stdmap-scan": {
        "stdmap.a_min": _Key("float", 0.1, lo=0.0, hi=20.0, lo_open=True),
        "stdmap.a_max": _Key("float", 6.0, lo=0.0, hi=20.0, lo_open=True),
        "stdmap.a_step": _Key("float", 0.1, lo=0.0, hi=5.0, lo_open=True),
        "stdmap.n": _Key("int", 200, lo=1, hi=100000),
        "stdmap.points": _Key("int", 64, lo=1, hi=100000),
    },
    "links": {
        "links.size": _Key("float", 1e-3, lo=0.0, hi=0.01, lo_open=True),
        "links.count": _Key("int", 10, lo=1, hi=100),
        "links.harmonics": _Key("int", 8, lo=1, hi=16),
    },
    "rescaling": {
        "rescaling.lambda": _Key("float", 0.4, lo=0.0, hi=1.0, lo_open=True, hi_open=True),
        "rescaling.mu": _Key("float", 0.8, lo=0.0, hi=1.0, lo_open=True, hi_open=True),
        "rescaling.r": _Key("int", 2, lo=1, hi=8),
        "rescaling.N": _Key("int", 3, lo=3, hi=99),
        "rescaling.k_list": _Key("int_list", [8, 10, 12, 14], lo=6, hi=60),
        "rescaling.nonlinearity": _Key("float", 0.1, lo=0.0, hi=0.2),
        "rescaling.kick_amp": _Key("float", 0.03, lo=0.0, hi=0.05),
    },
}


def parse_text(text):
    """key = value lines -> raw string dict.  '#' starts a comment."""
    raw = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"line {ln}: expected 'key = value'"])
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError([f"line {ln}: empty key or value"])
        if key in raw:
            raise ConfigError([f"line {ln}: duplicate key '{key}'"])
        raw[key] = value
    return raw


def read_config(path):
    """The text of the config file at path.  A file that cannot be read
    (missing, a directory, no permission) or is not UTF-8 raises
    ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except OSError as e:
        raise ConfigError([f"cannot read config file {path}: {e.strerror}"]) from None
    except UnicodeDecodeError as e:
        raise ConfigError([f"config file {path} is not UTF-8 text: byte "
                           f"{e.object[e.start]:#04x}, {e.reason}"]) from None


def _resolve(raw):
    """(values, violations) of a raw config: every schema key of its suite
    that parses or takes its default, in schema order, and the violations,
    each key parsed once."""
    suite = raw.get("suite")
    if suite is None:
        return {}, ["missing required key 'suite'"]
    if suite not in SUITES:
        return {}, [f"suite: must be one of {', '.join(SUITES)} (got '{suite}')"]
    schema = {**COMMON_SCHEMA, **SUITE_SCHEMA[suite]}
    values, violations = {}, []
    for key, rawval in raw.items():
        spec = schema.get(key)
        if spec is None:
            violations.append(f"unknown key '{key}' for suite {suite}")
            continue
        try:
            values[key] = spec.parse(rawval)
        except ValueError as e:
            violations.append(f"{key}: {e}")
    values = {key: values.get(key, spec.default) for key, spec in schema.items()
              if key in values or key not in raw}

    # cross-field constraints
    if suite == "island" and "island.delta" in values and "island.eps" in values:
        if not values["island.delta"] < values["island.eps"]:
            violations.append("island.delta: inner radius must be < outer")
    if suite == "stdmap-scan" and {"stdmap.a_min", "stdmap.a_max"} <= values.keys():
        if not values["stdmap.a_min"] <= values["stdmap.a_max"]:
            violations.append("stdmap.a_min: must not exceed stdmap.a_max")
    if suite == "rescaling":
        N = values.get("rescaling.N")
        if N is not None and N % 2 == 0:
            violations.append(
                "rescaling.N: the alternation count N must be odd")
        elif N is not None and N != 3:
            violations.append(
                "rescaling.N: only the three-transition configuration is built in")
        lam = values.get("rescaling.lambda")
        mu = values.get("rescaling.mu")
        r = values.get("rescaling.r")
        if None not in (lam, mu, r) and not abs(lam) < mu ** r < 1.0:
            violations.append(
                "rescaling.lambda: scales must satisfy |lambda| < mu^r < 1")
    return values, violations


def validate(raw):
    """List of violations; empty iff `run` would accept the config."""
    return _resolve(raw)[1]


@dataclass
class ExperimentConfig:
    suite: str
    seed: int
    out: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_raw(cls, raw):
        values, violations = _resolve(raw)
        if violations:
            raise ConfigError(violations)
        params = {k.split(".", 1)[1]: v for k, v in values.items() if "." in k}
        return cls(suite=values["suite"], seed=values["seed"], out=values["out"],
                   params=params)

    @classmethod
    def from_text(cls, text):
        return cls.from_raw(parse_text(text))

    @classmethod
    def from_file(cls, path):
        return cls.from_text(read_config(path))

    def resolved(self):
        """Full key = value echo (defaults included), for reports."""
        prefix = {"stdmap-scan": "stdmap"}.get(self.suite, self.suite)
        out = {"suite": self.suite, "seed": self.seed, "out": self.out}
        for k in sorted(self.params):
            v = self.params[k]
            out[f"{prefix}.{k}"] = list(v) if isinstance(v, list) else v
        return out
