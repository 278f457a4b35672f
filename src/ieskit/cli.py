"""Command-line front end.

Exit codes: 0 success, 2 config error, 3 numerical blow-up, 4 certification
refused, 5 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from ieskit import __version__
from ieskit.invariance import NoInvariantLevelError
from ieskit.scenarios import (
    ACTIONS,
    SCHEMA,
    BlowUpError,
    ConfigError,
    Scenario,
    parse_config,
    run_scenario,
)
from ieskit.smallgain import CertificationError, InfeasibleBudgetError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_REFUSED = 4
EXIT_INTERNAL = 5


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ieskit",
        description="incremental-stability toolkit: simulation, certification, "
        "envelope estimation, invariant sets, weight tables, figure data",
    )
    parser.add_argument("--version", action="version", version=f"ieskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for action in ACTIONS:
        name = action.replace("_", "-")
        p = sub.add_parser(name, help=f"run the {name} action")
        p.add_argument("--config", type=Path, default=None,
                       help="scenario config file (key = value sections)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--seed", default=None,
                       help="sampler seed (overrides the config)")
        p.add_argument("--tolerance", default=None,
                       help="check tolerance (overrides the config)")
    return parser


def _scenario_from_args(args) -> Scenario:
    action = args.command.replace("-", "_")
    if args.config is not None:
        scenario = parse_config(args.config)
        if scenario.action != action:
            raise ConfigError(
                f"config requests action {scenario.action!r} but the "
                f"{args.command} subcommand was invoked"
            )
    else:
        if action != "figures":
            raise ConfigError(f"{args.command} requires --config")
        scenario = Scenario(system="fhn", action=action, name=action)
    # the overrides are read and checked like the config keys they replace
    out = SCHEMA["scenario"]["out"]
    if args.out is not None:
        scenario.output_path = out.read("out", args.out, "--out")
    else:  # checked here too, so the default out is refused before any work
        out.read("out", str(scenario.output_path), "output directory")
    if args.seed is not None:
        scenario.seed = SCHEMA["scenario"]["seed"].read("seed", args.seed, "--seed")
    if args.tolerance is not None:
        scenario.tolerance = SCHEMA["scenario"]["tolerance"].read(
            "tolerance", args.tolerance, "--tolerance")
    return scenario


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _scenario_from_args(args)
        written = run_scenario(scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (CertificationError, InfeasibleBudgetError) as exc:
        print(f"certification refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except NoInvariantLevelError as exc:
        print(f"invariant set not found: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
