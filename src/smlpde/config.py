"""Line-oriented experiment configuration.

Format: `key = value` lines grouped under `[section]` headers, with blank
lines allowed; a `#` comment may fill a line or end any line, a header's
included.  Parsing is strict - unknown sections or keys, malformed values,
and duplicates are errors that carry the line number - so a typo can never
silently fall back to a default.  The full schema with defaults is what
`smlpde print-default-config` emits, and printing a parsed config
reproduces that canonical text byte for byte.

Each rule has one owner:
  * a key's type and range live in its SCHEMA entry, whose parser refuses
    any text that is not a valid value of the key; the error names the
    line, section and key (`line N: [section] key = 'text': reason`).
    Floats are finite, except param_norm_p, where inf selects the
    max-norm of the parameters;
  * every other rule of a value lives in the run's object that holds it,
    and _validate builds each: the grid (build_grid), the ground truth
    (build_gt_spec: kappa 0 to 2 and one experiment per entry of
    u0_profiles, which every phi list of the kind matches), each profile
    (a finite parameter), the objective's Weights (q, r, rho,
    param_norm_p), the network's Activation, an OptimConfig with max_iters
    and grad_tol, the scale-1 MeasurementOp of the family and the probe's
    f_true.  The ValueError one raises becomes a ConfigError naming the
    [section];
  * _validate's one rule of its own ties two keys: interval_lo <
    interval_hi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .grid import Grid
from .ground_truth import GroundTruthSpec, f_true, profile_array
from .measurement import MeasurementOp
from .mlp import Activation
from .objective import MIN_BOX_MARGIN, Weights
from .optimizer import OptimConfig


def _str_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _positive(text):
    value = _finite(text)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _at_least(low, parse=int):
    """A parser that reads the value with parse and refuses it below low."""
    def parse_bounded(text):
        value = parse(text)
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return parse_bounded


def _widths(text):
    widths = [int(part) for part in _str_list(text)]
    if not widths or widths[0] < 1 \
            or any(a >= b for a, b in zip(widths, widths[1:])):
        raise ValueError("must be a nonempty increasing list of positive ints "
                         "(each fit widens the last, and the rate fit needs "
                         "distinct widths)")
    return widths


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


# (parser, default); order defines the canonical print order
SCHEMA = {
    "grid": {
        "nx": (int, 65),
        "nt": (int, 65),
        "x_lo": (_finite, 0.0),
        "x_hi": (_finite, 1.0),
        "t_end": (_finite, 0.5),
    },
    "ground_truth": {
        "kind": (str, "convection"),
        "f_true": (str, "cubic"),
        "kappa": (int, 0),
        "phi1_profiles": (_str_list, ["constant:0.9", "constant:-0.6", "constant:0.25"]),
        "phi2_profiles": (_str_list, []),
        "u0_profiles": (_str_list, ["sine:1.0", "sine:0.8", "bump:1.0"]),
    },
    "measurement": {
        "family": (str, "smooth"),
        "noise0": (_at_least(0, parse=_finite), 0.05),
        "data_seed": (_at_least(0), 1234),
    },
    "weights": {
        "q": (_finite, 2.0),
        "r": (_finite, 2.0),
        "rho": (_finite, 2.0),
        "param_norm_p": (float, 2.0),
        "box_margin": (_at_least(MIN_BOX_MARGIN, parse=_finite), 1.5),
    },
    "schedule": {
        "lambda0": (_positive, 1.0),
        "mu0": (_positive, 1.0),
        "growth": (_positive, 4.0),
        "nu0": (_positive, 0.1),
        "nu_decay": (_positive, 4.0),
        "m_max": (_at_least(1), 5),
        "beta_hat": (_finite, 0.0),
    },
    "network": {
        "width0": (_at_least(1), 8),
        "depth": (_at_least(2), 3),
        "activation": (str, "tanh"),
        "init_seed": (_at_least(0), 7),
    },
    "optimizer": {
        "max_iters": (int, 1500),
        "grad_tol": (_finite, 1e-07),
        "restarts": (_at_least(1), 3),
    },
    "probe": {
        "f_name": (str, "cubic"),
        "interval_lo": (_finite, -2.0),
        "interval_hi": (_finite, 2.0),
        "widths": (_widths, [4, 8, 16, 32]),
        "train_iters": (_at_least(1), 6000),
        "probe_seed": (_at_least(0), 3),
    },
    "output": {
        "dir": (str, "out"),
    },
}


@dataclass
class ExperimentConfig:
    """Parsed configuration: one dict of values per section."""

    sections: dict = field(default_factory=dict)

    def __getitem__(self, section):
        return self.sections[section]


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        {sec: {k: (v[1].copy() if isinstance(v[1], list) else v[1])
               for k, v in keys.items()}
         for sec, keys in SCHEMA.items()})


def format_config(cfg: ExperimentConfig) -> str:
    lines = ["# smlpde experiment configuration", ""]
    for sec, keys in SCHEMA.items():
        lines.append(f"[{sec}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(cfg.sections[sec][key])}")
        lines.append("")
    return "\n".join(lines)


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = default_config()
    seen = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {line!r}", lineno)
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        seen.add((section, key))
        try:
            cfg.sections[section][key] = SCHEMA[section][key][0](value)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {value!r}: {exc}",
                              lineno) from None
    _validate(cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    """parse_config_text on the file at path; a path that cannot be read
    (missing, a directory, unreadable) or text that is not UTF-8 is a
    ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {str(path)!r}: "
                          f"{exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{str(path)!r} is not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from None
    return parse_config_text(text)


def build_grid(cfg: ExperimentConfig) -> Grid:
    g = cfg["grid"]
    return Grid(nx=g["nx"], nt=g["nt"], x_lo=g["x_lo"], x_hi=g["x_hi"],
                t_end=g["t_end"])


def build_gt_spec(cfg: ExperimentConfig) -> GroundTruthSpec:
    gt = cfg["ground_truth"]
    return GroundTruthSpec(kind=gt["kind"], f_name=gt["f_true"],
                           kappa=gt["kappa"],
                           phi_profiles=[list(gt["phi1_profiles"]),
                                         list(gt["phi2_profiles"])],
                           u0_profiles=list(gt["u0_profiles"]))


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError a ConfigError led by where."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _validate(cfg: ExperimentConfig) -> None:
    grid = _build("[grid]", build_grid, cfg)
    _build("[ground_truth]", build_gt_spec, cfg)
    for key in ("u0_profiles", "phi1_profiles", "phi2_profiles"):
        for spec in cfg["ground_truth"][key]:
            _build(f"[ground_truth] {key} entry {spec!r}:", profile_array,
                   spec, grid)
    w = cfg["weights"]
    _build("[weights]", Weights, q=w["q"], r=w["r"], rho=w["rho"],
           param_norm_p=w["param_norm_p"])
    _build("[measurement]", MeasurementOp, cfg["measurement"]["family"], 1,
           grid)
    _build("[optimizer]", OptimConfig, max_iters=cfg["optimizer"]["max_iters"],
           grad_tol=cfg["optimizer"]["grad_tol"])
    _build("[network]", Activation, cfg["network"]["activation"])
    probe = cfg["probe"]
    _build("[probe]", f_true, probe["f_name"])
    if not probe["interval_lo"] < probe["interval_hi"]:
        raise ConfigError("[probe] interval_lo must be below interval_hi")
