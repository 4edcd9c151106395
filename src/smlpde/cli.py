"""Command-line entry point.

    smlpde run <config>              run the convergence study
    smlpde probe <config>            run the approximation probe
    smlpde gradcheck <config>        finite-difference audit of the gradient
    smlpde print-default-config      emit the canonical default configuration
"""

from __future__ import annotations

import argparse
import sys

from .config import default_config, format_config, parse_config
from .errors import BoxViolationError, ConfigError, DivergedError
from .harness import approximation_probe, gradcheck_from_config, run_convergence_study


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smlpde",
        description="All-at-once structured model learning on desk-scale grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "run the scale-indexed convergence study"),
                        ("probe", "fit networks of growing width to a "
                                  "library function"),
                        ("gradcheck", "compare objective gradients against "
                                      "finite differences")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to a key = value config file")
    sub.add_parser("print-default-config",
                   help="write the canonical default config to stdout")
    args = parser.parse_args(argv)

    if args.command == "print-default-config":
        sys.stdout.write(format_config(default_config()))
        return 0

    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            run_convergence_study(cfg)
            return 0
        if args.command == "probe":
            approximation_probe(cfg)
            return 0
        # gradcheck
        err = gradcheck_from_config(cfg)
        return 0 if err < 1e-4 else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BoxViolationError, DivergedError) as exc:
        # a start the gradient check cannot evaluate; the study records
        # such a start as diverged and goes on
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
