"""Line-oriented experiment configuration.

Format: `key = value` lines grouped under `[section]` headers, with `#`
comments and blank lines allowed.  Parsing is strict - unknown sections or
keys, malformed values, and duplicates are errors that carry the line
number - so a typo can never silently fall back to a default.  The full
schema with defaults is what `smlpde print-default-config` emits, and
printing a parsed config reproduces that canonical text byte for byte.

A parsed config is valid when the run's objects build from it: the grid
(build_grid), the ground truth (build_gt_spec, one experiment per entry of
u0_profiles, which every phi list of the kind matches), each profile, the
objective's Weights (q, r, rho, param_norm_p), the network's Activation,
an OptimConfig with max_iters and the probe's f_true.  Each object owns its
rules, and the ValueError one raises becomes a ConfigError naming the
[section].  The measurement family is checked against
measurement.MEASUREMENT_KINDS and box_margin against
objective.MIN_BOX_MARGIN, without building a measurement operator or a
box.  _validate keeps only the rules no object enforces: finite floats
(param_norm_p may be inf), nonnegative seeds and noise0, positive schedule
keys with m_max >= 1, restarts, width0 and depth, the probe's widths,
train_iters and interval, the kappa range and finite profile values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .ground_truth import GroundTruthSpec, f_true, profile_array
from .measurement import MEASUREMENT_KINDS
from .mlp import Activation
from .objective import MIN_BOX_MARGIN, Weights
from .optimizer import OptimConfig


def _parse_str_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_int_list(text):
    return [int(part) for part in _parse_str_list(text)]


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


# (type tag, default); order defines the canonical print order
SCHEMA = {
    "grid": {
        "nx": ("int", 65),
        "nt": ("int", 65),
        "x_lo": ("float", 0.0),
        "x_hi": ("float", 1.0),
        "t_end": ("float", 0.5),
    },
    "ground_truth": {
        "kind": ("str", "convection"),
        "f_true": ("str", "cubic"),
        "kappa": ("int", 0),
        "phi1_profiles": ("str_list", ["constant:0.9", "constant:-0.6", "constant:0.25"]),
        "phi2_profiles": ("str_list", []),
        "u0_profiles": ("str_list", ["sine:1.0", "sine:0.8", "bump:1.0"]),
    },
    "measurement": {
        "family": ("str", "smooth"),
        "noise0": ("float", 0.05),
        "data_seed": ("int", 1234),
    },
    "weights": {
        "q": ("float", 2.0),
        "r": ("float", 2.0),
        "rho": ("float", 2.0),
        "param_norm_p": ("float", 2.0),
        "box_margin": ("float", 1.5),
    },
    "schedule": {
        "lambda0": ("float", 1.0),
        "mu0": ("float", 1.0),
        "growth": ("float", 4.0),
        "nu0": ("float", 0.1),
        "nu_decay": ("float", 4.0),
        "m_max": ("int", 5),
        "beta_hat": ("float", 0.0),
    },
    "network": {
        "width0": ("int", 8),
        "depth": ("int", 3),
        "activation": ("str", "tanh"),
        "init_seed": ("int", 7),
    },
    "optimizer": {
        "max_iters": ("int", 1500),
        "grad_tol": ("float", 1e-07),
        "restarts": ("int", 3),
    },
    "probe": {
        "f_name": ("str", "cubic"),
        "interval_lo": ("float", -2.0),
        "interval_hi": ("float", 2.0),
        "widths": ("int_list", [4, 8, 16, 32]),
        "train_iters": ("int", 6000),
        "probe_seed": ("int", 3),
    },
    "output": {
        "dir": ("str", "out"),
    },
}

_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "str_list": _parse_str_list,
    "int_list": _parse_int_list,
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
        line = raw.strip()
        if not line or line.startswith("#"):
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
        value = value.split("#", 1)[0].strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        seen.add((section, key))
        type_tag = SCHEMA[section][key][0]
        try:
            cfg.sections[section][key] = _PARSERS[type_tag](value)
        except ValueError as exc:
            raise ConfigError(
                f"malformed {type_tag} value for {key!r}: {value!r} ({exc})",
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


# the lower bounds that no object the run builds enforces
_MINIMUM = {("measurement", "noise0"): 0, ("measurement", "data_seed"): 0,
            ("network", "init_seed"): 0, ("probe", "probe_seed"): 0,
            ("schedule", "m_max"): 1, ("optimizer", "restarts"): 1,
            ("network", "width0"): 1, ("network", "depth"): 2,
            ("probe", "train_iters"): 1}


def _validate(cfg: ExperimentConfig) -> None:
    for sec, keys in SCHEMA.items():
        for key, (type_tag, _) in keys.items():
            value = cfg[sec][key]
            if type_tag != "float" or np.isfinite(value):
                continue
            # param_norm_p = inf selects the max-norm of the parameters
            if not (key == "param_norm_p" and value == np.inf):
                raise ConfigError(f"[{sec}] {key} must be finite, got {value!r}")
    grid = _build("[grid]", build_grid, cfg)
    _build("[ground_truth]", build_gt_spec, cfg)
    gt = cfg["ground_truth"]
    if not 0 <= gt["kappa"] <= 2:
        raise ConfigError("[ground_truth] kappa must be 0, 1 or 2 (stencils "
                          "go up to order 2)")
    for key in ("u0_profiles", "phi1_profiles", "phi2_profiles"):
        for spec in gt[key]:
            values = _build(f"[ground_truth] {key} entry {spec!r}:",
                            profile_array, spec, grid)
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"[ground_truth] {key} entry {spec!r} has "
                                  "non-finite values")
    w = cfg["weights"]
    _build("[weights]", Weights, q=w["q"], r=w["r"], rho=w["rho"],
           param_norm_p=w["param_norm_p"])
    if w["box_margin"] < MIN_BOX_MARGIN:
        raise ConfigError(f"[weights] box_margin must be >= {MIN_BOX_MARGIN}")
    if cfg["measurement"]["family"] not in MEASUREMENT_KINDS:
        raise ConfigError("[measurement] unknown measurement family "
                          f"{cfg['measurement']['family']!r}")
    for (sec, key), low in _MINIMUM.items():
        if cfg[sec][key] < low:
            raise ConfigError(f"[{sec}] {key} must be >= {low}")
    for key in ("lambda0", "mu0", "nu0", "growth", "nu_decay"):
        if cfg["schedule"][key] <= 0:
            raise ConfigError(f"[schedule] {key} must be positive")
    _build("[optimizer]", OptimConfig, max_iters=cfg["optimizer"]["max_iters"])
    _build("[network]", Activation, cfg["network"]["activation"])
    probe = cfg["probe"]
    _build("[probe]", f_true, probe["f_name"])
    widths = probe["widths"]
    if not widths or widths[0] < 1 \
            or any(a >= b for a, b in zip(widths, widths[1:])):
        raise ConfigError("[probe] widths must be a nonempty increasing list "
                          "of positive ints (each fit widens the last, and "
                          "the rate fit needs distinct widths)")
    if not probe["interval_lo"] < probe["interval_hi"]:
        raise ConfigError("[probe] interval_lo must be below interval_hi")
