"""Command-line front end.

    ccgclocks rates        --config cfg.json --out outdir
    ccgclocks optimize     --config cfg.json --out outdir
    ccgclocks scaling      --config cfg.json --out outdir
    ccgclocks simulate     --config cfg.json --out outdir
    ccgclocks redshift     --config cfg.json --out outdir
    ccgclocks paper-report [--config cfg.json] --out outdir

A global --convention {direct,2pi,both} overrides the config. Exit codes:
0 success, 2 config validation failure, 3 computation or write failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .scenarios import ConfigError, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3

# CLI subcommand -> scenario kind
_SUBCOMMANDS = {
    "rates": "rates",
    "optimize": "optimize",
    "scaling": "scaling-sweep",
    "simulate": "simulate",
    "redshift": "redshift",
    "paper-report": "paper-report",
}


@functools.cache  # each add_argument asks the terminal for its size
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccgclocks",
        description="Dephasing rates, scaling laws and open-system dynamics "
                    "of gravitationally coupled clocks.")
    parser.add_argument("--convention", choices=["direct", "2pi", "both"],
                        default=None,
                        help="override the frequency convention of the config")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run a {kind} scenario")
        p.add_argument("--config", type=Path,
                       required=(name != "paper-report"),
                       help="path to the scenario JSON config")
        p.add_argument("--out", type=Path, required=True,
                       help="directory for the output artifacts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    kind = _SUBCOMMANDS[args.command]
    if args.config is None:
        config = {"kind": kind}
    else:
        try:
            config = json.loads(args.config.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    if not isinstance(config, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return EXIT_VALIDATION
    if config.get("kind", kind) != kind:
        print(f"error: config kind {config.get('kind')!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return EXIT_VALIDATION
    config.setdefault("kind", kind)

    try:
        written = run_scenario(config, args.out, convention_override=args.convention)
    except ConfigError as exc:  # a ValueError: caught before the computation's
        path = "/".join(str(p) for p in exc.path) or "<root>"
        print(f"error: invalid config at {path}: {exc.message}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, RuntimeError, OSError) as exc:  # OSError: a file not written
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
