"""Command-line front end.

Subcommands map one-to-one onto harness experiments: ``sample`` (emit
generator output as JSONL), ``moments`` (design moment verification),
``fool`` (gap experiments), ``check cw|tail|deriv|prop4`` (verification
suites) and ``plan`` (print a generator plan with its seed accounting).
Exit status is 0 iff every configured flag passed, and 2, with one
``gaussprg: error:`` line, for an argument or config file it cannot use.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._bits import normalize_hex_seed
from .generator import config_to_json, plan
from .harness import ExperimentSpec, _atomic_open, _read_config, _samples_key, run_experiment


def _load_config(parser: argparse.ArgumentParser, path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"--config {path}: the top level must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _build_spec(
    parser: argparse.ArgumentParser, kind: str, cfg: dict, args: argparse.Namespace
) -> ExperimentSpec:
    sections = {s: cfg.get(s, {}) for s in ("ensemble", "generator", "samples")}
    for s, value in sections.items():
        if not isinstance(value, dict):
            parser.error(f"--config {args.config}: {s} must be a JSON object, got {type(value).__name__}")
    for key in sorted(cfg.keys() - sections.keys()):
        parser.error(f"--config {args.config}: config has unknown key {key}")
    if args.samples is not None:
        # --samples overrides the kind's main count knob
        key = _samples_key(kind)
        if key is None:
            parser.error(f"--samples: {kind} has no sample count")
        sections["samples"] = {**sections["samples"], key: args.samples}
    return ExperimentSpec(kind=kind, **sections, seed=args.seed, out=args.out, jobs=args.jobs)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", default="00", help="master seed (hex)")
    p.add_argument("--samples", type=int, default=None, help="sample-count override")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p.add_argument("--out", required=True, help="output path")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gaussprg")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print generator parameters and seed accounting")
    p_plan.add_argument("--config", required=True, help="JSON with n, d, k, epsilon[, ell_cap]")
    p_plan.add_argument("--out", help="write the plan JSON here instead of stdout")

    for kind, helptext in (
        ("sample", "emit generator samples as JSONL"),
        ("moments", "verify design moments"),
        ("fool", "fooling-gap experiment sweep"),
    ):
        p = sub.add_parser(kind, help=helptext)
        _add_common(p)

    p_check = sub.add_parser("check", help="verification suites")
    check_sub = p_check.add_subparsers(dest="check_kind", required=True)
    for kind in ("cw", "tail", "deriv", "prop4"):
        p = check_sub.add_parser(kind)
        _add_common(p)

    args = parser.parse_args(argv)

    if args.command == "plan":
        cfg = _load_config(parser, args.config)
        try:
            config = plan(**_read_config("plan", {"": cfg})[""])
        except ValueError as exc:
            parser.error(f"--config {args.config}: {exc}")
        text = config_to_json(config)
        if args.out:
            try:
                with _atomic_open(args.out) as fh:
                    fh.write(text)
                    fh.write("\n")
            except ValueError as exc:
                parser.error(str(exc))
        else:
            print(text)
        return 0

    if args.samples is not None and args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    try:
        normalize_hex_seed(args.seed)
    except ValueError:
        parser.error(f"--seed must be hexadecimal, got {args.seed!r}")
    kind = args.check_kind if args.command == "check" else args.command
    spec = _build_spec(parser, kind, _load_config(parser, args.config), args)
    try:
        result = run_experiment(spec)
    except ValueError as exc:
        # The library raises ValueError for every input it rejects.
        parser.error(str(exc))
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
