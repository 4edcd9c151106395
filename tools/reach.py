"""List the statements of src/smlpde that no `smlpde` command executes.

Runs every command of the command-line interface in this one process under
sys.settrace, its outputs in a temporary directory:

  * print-default-config,
  * run, probe and gradcheck on a 9 x 9 grid, over configs that between
    them name every physics kind, measurement family and activation, kappa
    0 to 2, q, r and rho other than 2, param_norm_p 1 and inf, and a
    schedule weight other than its default,
  * run on invalid configs, each of which must exit 2.

It then prints every statement of the package that no command executed,
as `path:line: source`, and their count.  A statement counts as executed
when a line of it (of its header, for a compound statement) ran.
Docstrings and `nonlocal`/`global` declarations never execute and are not
listed.  A command that exits with another code than expected is reported
on stderr, and the tool then exits 1.

Usage: python3 tools/reach.py
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smlpde"

# a short study: two scales, two starts, eight closure calls a scale
SMALL = {"grid": {"nx": 9, "nt": 9},
         "schedule": {"m_max": 2},
         "network": {"width0": 2},
         "optimizer": {"max_iters": 8, "restarts": 2},
         "probe": {"widths": "2, 3", "train_iters": 20}}

VALID = [
    {"ground_truth": {"kind": "convection", "kappa": 0},
     "measurement": {"family": "smooth"},
     "network": {"activation": "tanh"},
     "weights": {"q": 3.0, "param_norm_p": 1.0}},
    {"ground_truth": {"kind": "burgers1d", "kappa": 1, "f_true": "sine",
                      "phi1_profiles": ""},
     "measurement": {"family": "subsample"},
     "network": {"activation": "softplus"},
     "weights": {"r": 3.0, "param_norm_p": "inf"},
     "schedule": {"beta_hat": 0.5, "lambda0": 2.0}},
    {"ground_truth": {"kind": "diffusion_reaction", "kappa": 2,
                      "f_true": "identity",
                      "phi1_profiles": "linear:0.1, sinusoidal:0.1, "
                                       "constant:0.1",
                      "phi2_profiles": "constant:1, bump:1, constant:0.5"},
     "measurement": {"family": "full", "noise0": 0.0},
     "network": {"activation": "relu"},
     "weights": {"rho": 3.0}},
    {"ground_truth": {"kind": "none", "kappa": 1, "f_true": "decay",
                      "phi1_profiles": "", "u0_profiles": "sine:1.0"},
     "measurement": {"family": "smooth"},
     "network": {"activation": "leaky-relu"},
     "schedule": {"m_max": 1},
     "probe": {"f_name": "logistic"}},
    {"ground_truth": {"kind": "convection", "kappa": 0, "f_true": "zero"},
     "measurement": {"family": "subsample"},
     "network": {"activation": "requ"},
     "optimizer": {"grad_tol": 1e6},
     "probe": {"f_name": "sine"}},
]

# each exits 2: a config error, at parse time or, for the output directory
# and the diverging simulation, when the run starts
INVALID = [
    "[grid\nnx = 9\n",
    "[gird]\nnx = 9\n",
    "[grid]\nnx 9\n",
    "nx = 9\n",
    "[grid]\nnxx = 9\n",
    "[grid]\nnx = 9\nnx = 9\n",
    "[grid]\nnx = nine\n",
    "[weights]\nq = nan\n",
    "[weights]\nparam_norm_p = nan\n",
    "[grid]\nnx = 4\n",
    "[ground_truth]\nkind = advection\n",
    "[ground_truth]\nkappa = 3\n",
    "[ground_truth]\nu0_profiles = wave:1.0, sine:0.8, bump:1.0\n",
    "[ground_truth]\nu0_profiles = constant:nan, sine:0.8, bump:1.0\n",
    "[weights]\nrho = 1.5\n",
    "[weights]\nbox_margin = 1.0\n",
    "[measurement]\nfamily = blur\n",
    "[measurement]\nnoise0 = -0.1\n",
    "[schedule]\ngrowth = 0.0\n",
    "[optimizer]\ngrad_tol = -1\n",
    "[network]\nactivation = gelu\n",
    "[probe]\nf_name = quartic\n",
    "[probe]\nwidths = 8, 4\n",
    "[probe]\ninterval_lo = 3.0\n",
    # u' = u (1 - u) from u = -5 blows up before t = 0.2
    "[ground_truth]\nkind = none\nf_true = logistic\nphi1_profiles =\n"
    "u0_profiles = constant:-5\n",
]


def config_text(*parts):
    """The config text of the merged {section: {key: value}} parts."""
    merged = defaultdict(dict)
    for part in parts:
        for section, keys in part.items():
            merged[section].update(keys)
    lines = ["# written by tools/reach.py", ""]
    for section, keys in merged.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def commands(tmp):
    """(argv, expected exit code) of every command the trace runs."""
    yield ["print-default-config"], 0
    for i, variant in enumerate(VALID):
        path = os.path.join(tmp, f"valid{i}.cfg")
        Path(path).write_text(config_text(
            SMALL, variant, {"output": {"dir": os.path.join(tmp, f"out{i}")}}))
        for command in ("run", "probe", "gradcheck"):
            yield [command, path], 0
    blocker = os.path.join(tmp, "blocker")
    Path(blocker).write_text("")
    invalid = INVALID + [config_text(
        {"output": {"dir": os.path.join(blocker, "out")}})]
    for i, text in enumerate(invalid):
        path = os.path.join(tmp, f"invalid{i}.cfg")
        Path(path).write_text(text)
        yield ["run", path], 2
    yield ["run", os.path.join(tmp, "missing.cfg")], 2


def statements(tree):
    """(first, last) line of every statement that can execute: the whole
    of a simple statement, the header of a compound one (its decorators
    included)."""
    docstrings = docstring_lines(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node.lineno in docstrings \
                or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        start = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield start, end


def trace(argv_codes):
    """Run the commands under a line tracer; returns the lines executed per
    file of the package and the commands that exited unexpectedly."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    seen = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    failures = []
    sys.settrace(enter)
    try:
        # imported under the tracer, so that module-level statements count
        from smlpde.cli import main
        for argv, expected in argv_codes:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(argv)
            if code != expected:
                failures.append((argv, expected, code, sink.getvalue()))
    finally:
        sys.settrace(None)
    return seen, failures


def main():
    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        seen, failures = trace(list(commands(tmp)))
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = seen[str(path)]
        for start, end in sorted(statements(ast.parse(source))):
            if ran.isdisjoint(range(start, end + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{start}: "
                      f"{lines[start - 1].strip()}")
    print(f"{missed} statements of src/smlpde that no command executed")
    for argv, expected, code, output in failures:
        print(f"smlpde {' '.join(argv)} exited {code}, expected {expected}:\n"
              f"{output}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
