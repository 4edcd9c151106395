"""The benchmark's workloads: config text, seed mapping and time-to-target.

Each workload is a config in the program's own `key = value` format; keys
not given keep the program's defaults.  The workload seed becomes the
config's `data_seed` and `init_seed` (studies) or `probe_seed` (probe), so
the same seed always gives the same inputs.  Seed 0 is held out: it was not
used while the benchmark was tuned, and is kept for confirming claims.

Time-to-target measures how soon the optimizer gets where it is going.
A stage is the calls of one objective or fit closure.  A stage's time is
counted from its first call until its best value has closed all but `gap`
of the distance from its first value to the best value the stage ends
with.  A stage that never falls to `target_frac` times its first value
misses its target, and the execution counts as failed.  tt_target_s is the
sum over the workload's `target_stages`:
  - studies: every objective closure, that is each restart at m=1 and the
    single warm start at each later scale.  Every stage of seeds 1 to 10
    ends at or below 0.78 of its first value.
  - probe: the width-16 fit, which starts from the widened width-8 fit and
    ends at 0.35 to 0.76 of its first loss.  The narrower fits and the
    widest one reach a gap target at calls that vary several-fold between
    seeds; the width-16 fit reaches it after 4,500 of its 7,208 calls.
With `gap` 0.05, the seed-to-seed spread of the call counts (interquartile
range over median, calls weighted by their cost) is 0.016 on
convection-k0, 0.044 on burgers-k1 and 0.033 on the probe.  A target within
2% of the end value spreads 0.072 on convection-k0; on burgers-k1 it spreads
0.023 but is reached at call 39 to 42 of 43, so it hardly differs from the
fixed budget.  The numbers come from runs of seeds 1 to 10 of the program
as it stood when the benchmark was written.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True)
class Workload:
    name: str
    entry: str            # "study" or "probe"
    config_text: str
    target_stages: slice  # of the closures whose calls are timed, in call order
    target_frac: float    # a stage must fall to this times its first value
    gap: float            # share of a stage's progress left at its target
    why: str


_STUDY_SCALE = """
[schedule]
m_max = 3
"""

WORKLOADS = {w.name: w for w in (
    Workload(
        name="convection-k0",
        entry="study",
        config_text=_STUDY_SCALE + """
[optimizer]
max_iters = 60
""",
        target_stages=slice(None), target_frac=0.9, gap=0.05,
        why="default convection study, m=1..3: residual tapes lead, box tapes small"),
    Workload(
        name="burgers-k1",
        entry="study",
        config_text=_STUDY_SCALE + """
[ground_truth]
kind = burgers1d
kappa = 1
phi1_profiles =
[optimizer]
max_iters = 40
""",
        target_stages=slice(None), target_frac=0.9, gap=0.05,
        why="Burgers, kappa=1, m=1..3: 3-D box tapes weigh three times more"),
    Workload(
        name="probe",
        entry="probe",
        config_text="",
        target_stages=slice(2, 3), target_frac=0.9, gap=0.05,
        why="approximation probe: tiny fits where per-call overhead dominates"),
)}


def build_config(workload: Workload, seed: int, out_dir: str):
    """Parse the workload's config and apply the seed and output directory."""
    from smlpde.config import parse_config_text

    cfg = parse_config_text(workload.config_text)
    if workload.entry == "study":
        cfg.sections["measurement"]["data_seed"] += seed
        cfg.sections["network"]["init_seed"] += 1000 * seed
    else:
        cfg.sections["probe"]["probe_seed"] += seed
    cfg.sections["output"]["dir"] = out_dir
    return cfg
