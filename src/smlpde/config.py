"""Line-oriented experiment configuration.

Format: `key = value` lines grouped under `[section]` headers, with `#`
comments and blank lines allowed.  Parsing is strict - unknown sections or
keys, malformed values, and duplicates are errors that carry the line
number - so a typo can never silently fall back to a default.  The full
schema with defaults is what `smlpde print-default-config` emits, and
printing a parsed config reproduces that canonical text byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Grid
from .ground_truth import F_TRUE_LIBRARY, profile_array
from .mlp import ACTIVATION_KINDS
from .physics import PHYSICS_KINDS, n_param_slots


def _parse_bool(text):
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    raise ValueError("expected true/false")


def _parse_str_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_int_list(text):
    return [int(part) for part in _parse_str_list(text)]


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


# (type tag, default); order defines the canonical print order
SCHEMA = {
    "grid": {
        "d": ("int", 1),
        "nx": ("int", 65),
        "nt": ("int", 65),
        "x_lo": ("float", 0.0),
        "x_hi": ("float", 1.0),
        "t_end": ("float", 0.5),
    },
    "ground_truth": {
        "kind": ("str", "convection"),
        "f_true": ("str", "cubic"),
        "n_experiments": ("int", 3),
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
        "tau0_factor": ("float", 0.1),
        "box_margin": ("float", 1.5),
        "box_points_per_axis": ("int", 33),
        "box_sample_budget": ("int", 4096),
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
        "rate": ("float", 0.001),
        "max_iters": ("int", 1500),
        "grad_tol": ("float", 1e-07),
        "restarts": ("int", 3),
        "gradcheck_samples": ("int", 60),
        "gradcheck_step": ("float", 1e-05),
    },
    "probe": {
        "f_name": ("str", "cubic"),
        "interval_lo": ("float", -2.0),
        "interval_hi": ("float", 2.0),
        "widths": ("int_list", [4, 8, 16, 32]),
        "probe_depth": ("int", 3),
        "train_iters": ("int", 6000),
        "fit_points": ("int", 129),
        "eval_points": ("int", 257),
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
    "bool": _parse_bool,
    "str_list": _parse_str_list,
    "int_list": _parse_int_list,
}


@dataclass
class ExperimentConfig:
    """Parsed configuration: one dict of values per section."""

    sections: dict = field(default_factory=dict)

    def __getitem__(self, section):
        return self.sections[section]

    def get(self, section, key):
        return self.sections[section][key]


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
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _validate(cfg: ExperimentConfig) -> None:
    g = cfg["grid"]
    if g["d"] != 1:
        raise ConfigError("only d = 1 is supported")
    try:
        grid = Grid(nx=g["nx"], nt=g["nt"], x_lo=g["x_lo"], x_hi=g["x_hi"],
                    t_end=g["t_end"])
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from None
    gt = cfg["ground_truth"]
    if gt["kind"] not in PHYSICS_KINDS:
        raise ConfigError(f"unknown physics kind {gt['kind']!r}")
    if gt["f_true"] not in F_TRUE_LIBRARY:
        raise ConfigError(f"unknown ground-truth nonlinearity {gt['f_true']!r}")
    if not 0 <= gt["kappa"] <= 2:
        raise ConfigError("kappa must be 0, 1 or 2 (stencils go up to order 2)")
    n_exp = gt["n_experiments"]
    if n_exp < 1:
        raise ConfigError("n_experiments must be >= 1")
    slots = n_param_slots(gt["kind"])
    for key in ["u0_profiles"] + ["phi1_profiles", "phi2_profiles"][:slots]:
        if len(gt[key]) != n_exp:
            raise ConfigError(f"{key} has {len(gt[key])} entries for "
                              f"n_experiments = {n_exp}")
        for spec in gt[key]:
            try:
                finite = np.all(np.isfinite(profile_array(spec, grid)))
            except ValueError as exc:
                raise ConfigError(f"{key} entry {spec!r}: {exc}") from None
            if not finite:
                raise ConfigError(f"{key} entry {spec!r} has non-finite values")
    w = cfg["weights"]
    for key in ("q", "r", "rho"):
        if w[key] < 2:
            raise ConfigError(f"weights key {key!r} must be >= 2 "
                              "(the objective gradient needs it)")
    if w["param_norm_p"] < 1:
        raise ConfigError("param_norm_p must be >= 1 (or inf)")
    if w["box_points_per_axis"] < 2:
        raise ConfigError("box_points_per_axis must be >= 2")
    if w["box_sample_budget"] < 1:
        raise ConfigError("box_sample_budget must be >= 1")
    meas = cfg["measurement"]
    if meas["family"] not in ("full", "subsample", "smooth"):
        raise ConfigError(f"unknown measurement family {meas['family']!r}")
    if meas["noise0"] < 0:
        raise ConfigError("noise0 must be >= 0")
    sched = cfg["schedule"]
    for key in ("lambda0", "mu0", "nu0", "growth", "nu_decay"):
        if sched[key] <= 0:
            raise ConfigError(f"schedule key {key!r} must be positive")
    if sched["m_max"] < 1:
        raise ConfigError("m_max must be >= 1")
    opt = cfg["optimizer"]
    if opt["rate"] <= 0:
        raise ConfigError("optimizer rate must be positive")
    if opt["max_iters"] < 0:
        raise ConfigError("optimizer max_iters must be >= 0")
    if opt["restarts"] < 1:
        raise ConfigError("optimizer restarts must be >= 1")
    if not 1e-7 <= opt["gradcheck_step"] <= 1e-3:
        raise ConfigError("gradcheck_step must lie in [1e-7, 1e-3]")
    if opt["gradcheck_samples"] < 1:
        raise ConfigError("gradcheck_samples must be >= 1")
    net = cfg["network"]
    if net["width0"] < 1:
        raise ConfigError("network width0 must be >= 1")
    if net["depth"] < 2:
        raise ConfigError("network depth must be >= 2")
    if net["activation"] not in ACTIVATION_KINDS:
        raise ConfigError(f"unknown activation {net['activation']!r}")
    if cfg["probe"]["f_name"] not in F_TRUE_LIBRARY:
        raise ConfigError(f"unknown probe function {cfg['probe']['f_name']!r}")
    widths = cfg["probe"]["widths"]
    if not widths or min(widths) < 1:
        raise ConfigError("probe widths must be a nonempty list of positive ints")
    if cfg["weights"]["box_margin"] < 1.1:
        raise ConfigError("box_margin must be >= 1.1")
