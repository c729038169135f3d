"""prodmlp benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload desk-l2 --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Set-up is repeated and timed, then
measured passes run until ``--seconds`` have elapsed (at least one pass).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced and the result holds the
per-layer metrics.  The last line of stdout is the result; the lines before
it record the environment and the sample statistics.  A full report and the
spans are written under ``.perfbench_out/``.  ``--smoke`` runs the same code
at a tiny size.  README.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, layer_self, network_points_per_report, span_table

ROOT = Path(__file__).resolve().parent.parent
# Value of NUMPY_MADVISE_HUGEPAGE per workload.  numpy advises huge pages for
# large arrays, and the kernel may grant them at once or only after compacting
# memory.  With the advice, desk eval medians varied twofold between and
# within runs, while paper-width runs stayed steady and ran 1.3-1.9x faster
# than with plain pages.  So the desk workloads run with plain pages.
HUGE_PAGES = {"desk-l2": "0", "desk-h2": "0", "paper-eval": "1"}
WORKLOADS = tuple(HUGE_PAGES)
# the per-layer table covers the set-up repetitions and this many traced
# passes, so its counts repeat exactly from run to run
TABLE_PASSES = 2

END_TO_END = {
    "setup_s": "s", "run_s.mlp": "s", "run_s.mmlp": "s",
    "eval_s.mlp": "s", "eval_s.mmlp": "s", "export_s.mlp": "s", "export_s.mmlp": "s",
    "peak_rss_mb": "MB", "ok_share": "1",
}


def _import_package():
    """Import prodmlp from this checkout's src/, or exit 2."""
    if not (ROOT / "src" / "prodmlp" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/prodmlp under {ROOT}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import prodmlp
    if Path(prodmlp.__file__).resolve().parent != ROOT / "src" / "prodmlp":
        sys.stderr.write(f"perfbench: imported prodmlp from {prodmlp.__file__}\n")
        sys.exit(2)


def environment() -> dict:
    """What a number depends on besides the code: versions, BLAS, cores."""
    import ctypes
    import numpy as np
    import numpy.linalg._umath_linalg as linalg

    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "prodmlp").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    head, commit = ROOT / ".git" / "HEAD", None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(linalg.__file__), symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {
        "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "max": max(values)}


def end_to_end(wl, setup_s: list[float]) -> dict:
    samples = dict(wl.samples, setup_s=setup_s)
    out = {name: statistics.median(samples[name])
           for name in END_TO_END if name in samples}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ok_share"] = (wl.ledger.attempted - wl.ledger.failed) / wl.ledger.attempted
    return out


def per_layer(spans, pass_s: dict, artifact_bytes: int):
    table = span_table(spans)
    empty = {"calls": 0, "points": 0, "bytes": 0, "busy_s": 0.0, "self_s": 0.0}
    row = lambda name: table.get(name, empty)
    own = layer_self(table)
    wall = sum(s.end - s.start for s in spans if s.parent < 0)
    metrics = {
        "targets.calls": (row("targets.call")["calls"], "count"),
        "targets.points": (row("targets.call")["points"], "count"),
        "targets.busy_s": (row("targets.call")["busy_s"], "s"),
        "network.forward.calls": (row("network.forward")["calls"], "count"),
        "network.forward.points": (row("network.forward")["points"], "count"),
        "network.forward.busy_s": (row("network.forward")["busy_s"], "s"),
        "fdgrid.discrete_laplacian.calls": (row("fdgrid.discrete_laplacian")["calls"], "count"),
        "fdgrid.discrete_laplacian.points": (row("fdgrid.discrete_laplacian")["points"], "count"),
        "fdgrid.discrete_laplacian.busy_s": (row("fdgrid.discrete_laplacian")["busy_s"], "s"),
        "fdgrid.write_field_csv.busy_s": (row("fdgrid.write_field_csv")["busy_s"], "s"),
        "fdgrid.write_field_csv.bytes": (row("fdgrid.write_field_csv")["bytes"], "B"),
        "training.steps": (row("training.adam_step")["calls"], "count"),
        "training.train.self_s": (row("training.train")["self_s"], "s"),
        "training.adam_step.busy_s": (row("training.adam_step")["busy_s"], "s"),
        "training.write_trace_csv.busy_s": (row("training.write_trace_csv")["busy_s"], "s"),
        "metrics.report.calls": (row("metrics.report")["calls"], "count"),
        "metrics.report.busy_s": (row("metrics.report")["busy_s"], "s"),
        "metrics.report.self_s": (row("metrics.report")["self_s"], "s"),
        "metrics.error_field.busy_s": (row("metrics.error_field")["busy_s"], "s"),
        "metrics.localization_ratio.busy_s": (row("metrics.localization_ratio")["busy_s"], "s"),
        "metrics.network_points_per_report.run":
            (network_points_per_report(spans, "harness.run_experiment"), "count"),
        "metrics.network_points_per_report.eval":
            (network_points_per_report(spans, "cli.main"), "count"),
        "harness.run_experiment.self_s": (row("harness.run_experiment")["self_s"], "s"),
        "harness.load_checkpoint.busy_s": (row("harness.load_checkpoint")["busy_s"], "s"),
        "harness.artifact_bytes": (artifact_bytes, "B"),
        "cli.main.self_s": (row("cli.main")["self_s"], "s"),
    }
    for layer, seconds in own.items():
        if layer not in ("bench", "cli"):    # cli.main is the cli layer's one span
            metrics[f"{layer}.self_s"] = (seconds, "s")
    overhead = statistics.median(pass_s[True]) / statistics.median(pass_s[False]) - 1.0
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (own["bench"], "s"),
        "trace.overhead_share": (overhead, "1"),
        "trace.spans": (len(spans), "count"),
    })
    return metrics, table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    os.environ["NUMPY_MADVISE_HUGEPAGE"] = HUGE_PAGES[args.workload]   # before numpy loads
    _import_package()
    from workloads import SETUP_REPS, Workload

    env = environment()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    wl = Workload(args.workload, args.seed, work, args.smoke)
    try:
        setup_s = []
        for rep in range(SETUP_REPS):
            with tracer.run("setup", f"setup-{rep}") if tracer else nullcontext():
                t = time.perf_counter()
                wl.setup(rep)
                setup_s.append(time.perf_counter() - t)

        # in a traced run odd passes are traced and even ones are not, so the
        # two medians give the tracing overhead on the same work
        pass_s = {False: [], True: []}
        min_passes = 2 * TABLE_PASSES if tracer else 1
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i < min_passes or time.perf_counter() < deadline:
            traced = bool(tracer) and i % 2 == 1
            keep = i // 2 < TABLE_PASSES
            with tracer.run("pass", f"pass-{i}", keep) if traced else nullcontext():
                pass_s[traced].append(wl.run_pass(i))
            i += 1
        artifact_bytes = sum(f.stat().st_size for f in work.rglob("*") if f.is_file())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": env,
              "passes": i, "attempted": wl.ledger.attempted, "failed": wl.ledger.failed,
              "l2_error": wl.l2_error,
              "samples": {k: stats(v) for k, v in dict(wl.samples, setup_s=setup_s).items()}}
    if tracer:
        metrics, table = per_layer(tracer.spans, pass_s, artifact_bytes)
        report["layers"] = table
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(wl, setup_s).items()}
    missing = [k for k in END_TO_END if k not in metrics] if not tracer else []
    if missing:
        sys.stderr.write(f"perfbench: no measurement for {missing}\n")
        return 1
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(json.dumps({"env": env, "l2_error": wl.l2_error}))
    for name, s in report["samples"].items():
        print(f"{name:16s} n={s['n']:3d} median={s['median']:.4f} q1={s['q1']:.4f} "
              f"q3={s['q3']:.4f} max={s['max']:.4f}")
    for name, row in report.get("layers", {}).items():
        print(f"{name:30s} calls={row['calls']:7d} busy={row['busy_s']:9.4f} "
              f"self={row['self_s']:9.4f}")
    print(json.dumps({"correct": wl.ledger.failed == 0, "attempted": wl.ledger.attempted,
                      "failed": wl.ledger.failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
