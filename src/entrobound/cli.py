"""Command-line entry point.

One subcommand per experiment; parameters come from an optional JSON
config file with flag overrides on top (flags win).  The machine
output goes to --out when given (stdout otherwise); the human summary
goes to stdout alongside a written file, to stderr when the machine
text occupies stdout.  Exit codes: 0 on success, 1 when the run fails
(the solver does not converge, the numbers it meets are unusable, a
sigma-decay fit keeps fewer than 3 levels once the exactly recovered
ones are left out, or the report cannot be written), 2 when a flag does
not parse or the configuration fails validation, which runs first (a
--format other than csv or json, an --out in a missing or unwritable
directory or naming a directory), 3 when a verified property is
breached (any ``PropertyViolationError``).  Exits 1 and 2 print one ``error:`` line
per problem, exit 3 one ``property violation:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigValidationError, EntroboundError, PropertyViolationError
from .harness import _REGISTRY, ExperimentConfig, _field_kind, _settable, run


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrobound",
        description="entropy-number experiments for atom hulls, balls, "
                    "and subspaces")
    sub = parser.add_subparsers(dest="experiment", required=True)
    types = {"exponent": float, "levels": _int_list, "count": int, "text": str}
    for name, entry in _REGISTRY.items():
        cmd = sub.add_parser(name, help=entry.help)
        cmd.add_argument("--config", help="JSON config file")
        for field in _settable(name):
            cmd.add_argument("--" + field.replace("_", "-"),
                             type=types[_field_kind(field)])
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigValidationError([f"config: cannot read ({exc})"])
        except json.JSONDecodeError as exc:
            raise ConfigValidationError([f"config: invalid JSON ({exc})"])
        if not isinstance(doc, dict):
            raise ConfigValidationError(["config: must hold a JSON object"])
    for key, value in vars(args).items():  # the subcommand names the experiment
        if key != "config" and value is not None:
            doc[key] = value
    return ExperimentConfig.from_json(doc)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        report, text = run(config)
    except ConfigValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 3
    except (EntroboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.out is None:
        sys.stdout.write(text)
        sys.stderr.write(report.summary_text())
    else:
        sys.stdout.write(report.summary_text())
        print(f"wrote {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
