"""Command-line entry points.

    prodmlp run <config.json>             train and write all artifacts
    prodmlp validate <config.json>        check a config, print it resolved
    prodmlp eval <checkpoint.json>        recompute summary metrics
    prodmlp export-field <checkpoint.json> --out <path>
    prodmlp mollifier-demo [--eps ...]    approximate-identity table

Successful commands exit 0.  Failures exit 1 after printing a single
machine-readable JSON line {"error": kind, "message": ...} to stderr.
"""

import argparse
import json
import sys

from .fdgrid import _atomic_text
from .harness import (
    CheckpointError,
    ConfigError,
    _parse_grid,
    eval_checkpoint,
    export_field,
    load_config,
    run_experiment,
)
from .mollifier import DEFAULT_QUAD_POINTS, convergence_report, write_convergence_csv
from .network import GAUSSIAN_BUMP
from .targets import target_by_name
from .training import TrainingDiverged


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors become main's one JSON line;
    add_subparsers makes its subparsers of the same class."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg)
    print(json.dumps({
        "output_dir": str(result.output_dir),
        "runs": [r.run_id for r in result.records],
        "medians": result.medians,
        "config_digest": cfg.digest,
    }, indent=2))
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(json.dumps({"config": cfg.resolved, "config_digest": cfg.digest}, indent=2))
    return 0


def _cmd_eval(args) -> int:
    grid = None if args.grid is None else _parse_grid(args.grid, "--grid")
    summary = eval_checkpoint(args.checkpoint, grid=grid)
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_export_field(args) -> int:
    grid = None if args.grid is None else _parse_grid(args.grid, "--grid")
    out = export_field(args.checkpoint, args.out, grid=grid)
    print(str(out))
    return 0


def _cmd_mollifier_demo(args) -> int:
    try:
        eps_list = [float(e) for e in args.eps.split(",")]
    except ValueError:
        return _fail("usage", f"--eps must be comma-separated numbers, got {args.eps!r}")
    grid = _parse_grid(args.grid, "--grid")
    target = target_by_name(args.target)
    rows = convergence_report(GAUSSIAN_BUMP, eps_list, target, grid, args.quad_points)
    if args.out:
        with _atomic_text(args.out) as fh:
            write_convergence_csv(rows, fh)
        print(args.out)
    else:
        write_convergence_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="prodmlp", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every (architecture, seed) combination of a config")
    run.add_argument("config")
    run.set_defaults(fn=_cmd_run)

    val = sub.add_parser("validate", help="validate a config and print its resolved form")
    val.add_argument("config")
    val.set_defaults(fn=_cmd_validate)

    ev = sub.add_parser("eval", help="recompute summary metrics from a checkpoint")
    ev.add_argument("checkpoint")
    ev.add_argument("--grid", default=None, help="metric grid spacing override, e.g. 1/64")
    ev.set_defaults(fn=_cmd_eval)

    ex = sub.add_parser("export-field", help="write a checkpoint's error field as CSV")
    ex.add_argument("checkpoint")
    ex.add_argument("--out", required=True)
    ex.add_argument("--grid", default=None, help="grid spacing override, e.g. 1/64")
    ex.set_defaults(fn=_cmd_export_field)

    mo = sub.add_parser("mollifier-demo",
                        help="emit an eps,sup_error,l2_error convergence table")
    mo.add_argument("--eps", default="0.4,0.2,0.1,0.05",
                    help="comma-separated decreasing scales")
    mo.add_argument("--target", default="circle", choices=["circle", "cone"])
    mo.add_argument("--grid", default="1/16", help="evaluation grid spacing")
    mo.add_argument("--quad-points", type=int, default=DEFAULT_QUAD_POINTS,
                    help="quadrature points per axis")
    mo.add_argument("--out", default=None, help="write the table here instead of stdout")
    mo.set_defaults(fn=_cmd_mollifier_demo)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        return _fail("usage", str(e))
    try:
        return args.fn(args)
    except ConfigError as e:
        return _fail("config", str(e))
    except CheckpointError as e:
        return _fail("checkpoint", str(e))
    except TrainingDiverged as e:
        return _fail("diverged", str(e))
    except (ValueError, OSError, MemoryError) as e:
        return _fail("runtime", str(e) or type(e).__name__)


if __name__ == "__main__":
    sys.exit(main())
