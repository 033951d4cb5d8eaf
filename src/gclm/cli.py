"""Command-line entry point: gclm run | plots | table1."""

from __future__ import annotations

import argparse
import sys

from gclm import harness
from gclm.collapse import BadBracketError, UndecidedProbeError
from gclm.dynamics import RunControls
from gclm.spectral import Domain, GclmParams


def _cmd_run(args) -> int:
    config = harness.parse_config(args.config)
    artifacts = harness.run(config)
    for name, path in sorted(artifacts.items()):
        print(f"{name}: {path}")
    return 0


def _cmd_plots(args) -> int:
    for path in harness.emit_plots(args.dir):
        print(path)
    return 0


def _parse_row(text: str) -> dict:
    """One Table-1 row spec: 'a=0.5 sigma=1 nu=1 lo=3 hi=4 tol=0.1'."""
    row = {}
    for item in text.replace(",", " ").split():
        key, _, val = item.partition("=")
        try:
            row[key] = float(val)
        except ValueError:
            raise harness.ConfigError(
                f"bad row item {item!r}; expected key=value") from None
    for req in ("a", "sigma", "lo", "hi"):
        if req not in row:
            raise harness.ConfigError(f"row {text!r} missing {req}=")
    return row


def _cmd_table1(args) -> int:
    rows = [_parse_row(r) for r in args.rows.split(";") if r.strip()]
    for i, row in enumerate(rows):
        params = GclmParams(a=row["a"], sigma=row["sigma"],
                            nu=row.get("nu", 1.0))
        sweep = {"bracket_lo": row["lo"], "bracket_hi": row["hi"],
                 "tol": row.get("tol", 0.1),
                 "validate_bracket": bool(row.get("validate", 1.0))}
        try:
            params.validate(Domain.CIRCLE)
            controls = RunControls(
                t_end=row.get("t_end", 50.0),
                n0=int(row.get("n0", 64)),
                n_max=int(row.get("n_max", 4096)),
                sample_dt=row.get("sample_dt", 0.05),
            )
            harness.check_sweep(sweep)
        except ValueError as e:
            raise harness.ConfigError(f"row {i} invalid: {e}") from e
        config = harness.RunConfig(
            mode=harness.Mode.CRITICAL_SWEEP,
            domain=Domain.CIRCLE,
            params=params,
            initial={"kind": "two_mode", "amplitude": row["hi"]},
            controls=controls,
            output_dir=f"table1_row{i}",
            sweep=sweep,
        )
        artifacts = harness.run(config)
        print(f"row {i}: a={params.a} sigma={params.sigma} nu={params.nu} "
              f"-> {artifacts['critical']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gclm",
        description="Spectral simulation lab for the dissipative gCLM "
                    "equation on the circle and the compactified line.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("config", help="path to a run config file")
    p_run.set_defaults(func=_cmd_run)

    p_plots = sub.add_parser("plots",
                             help="emit plot scripts for a run directory")
    p_plots.add_argument("dir", help="artifact directory of a finished run")
    p_plots.set_defaults(func=_cmd_plots)

    p_t1 = sub.add_parser("table1",
                          help="critical-amplitude sweeps (two-mode data)")
    p_t1.add_argument("--rows", required=True,
                      help="semicolon-separated rows, e.g. "
                           "'a=0.5 sigma=1 lo=3 hi=4 tol=0.1'")
    p_t1.set_defaults(func=_cmd_table1)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, BadBracketError, UndecidedProbeError) as e:
        parser.exit(2, f"gclm: error: {e}\n")  # argparse's own convention


if __name__ == "__main__":
    sys.exit(main())
