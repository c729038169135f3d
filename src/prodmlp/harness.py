"""Experiment harness: JSON configs, batch runs, checkpoints, summaries.

A config JSON names a target, an architecture (or a parameter-matched pair),
an activation, a loss, and optionally training / metric settings and a seed
list.  Each section is read into its dataclass -- MollifiedCircle or
RadialCone, LossSpec, TrainConfig, MetricConfig with its ZygmundSpec -- which
is the one definition of its fields: an omitted key takes the dataclass's
default, the dataclass checks every value, and its error names the config
path.  The harness checks only JSON types and keys; unknown keys anywhere are
rejected with an error naming the offending field.  Scalar shorthands are
accepted where they are unambiguous ("cone", "l2"), and grid spacings may be
written as fractions ("1/128").  The resolved form is read back from the
built dataclasses.

Resolved configs are canonical: their SHA-256 digest (computed over
everything except the output location) stamps every artifact, and artifacts
depend only on (config, seeds) -- with the single exception of the wall-clock
seconds column in trace CSVs, which records real time.

run_experiment maps the per-run step, _run, over every (architecture, seed)
pair: it trains one run and writes its four artifacts under the output
directory,

    <run_id>_trace.csv        iter,l2_error,h2_error,zygmund_error,seconds
    <run_id>_checkpoint.json  final parameters + resolved config + digest
    <run_id>_error_field.csv  x,y,value rows of |F - f| on the metric grid
    <run_id>_summary.json     initial/final metrics, localization ratio

and the reduce step then writes one experiment_summary.json with the run
summaries and per-architecture medians across seeds.  Final metrics and
error fields read one F - f array on the widened metric grid: a run's, the
one its last training checkpoint formed; eval's and export-field's, the
checkpoint's parameters evaluated again.  PRODMLP_OUTPUT_ROOT sets the base
of relative output paths.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .fdgrid import Grid2D, _atomic_text, write_field_csv
from .metrics import (
    MetricConfig,
    MetricReport,
    ZygmundSpec,
    annulus_region,
    approximation_report,
    disk_region,
    localization_ratio,
    node_error_field,
    sample_widened,
    widened_axis,
)
from .network import (
    Arch,
    Activation,
    MlpArch,
    MmlpArch,
    activation_by_name,
    grid_values,
    matched_additive_width,
    near_zero_factor_weights,
    pack_params,
    param_count,
    unpack_params,
)
from .targets import MollifiedCircle, RadialCone, TargetFunction
from .training import (
    LossSpec,
    TrainConfig,
    TrainingDiverged,
    train,
    write_trace_csv,
)

__all__ = [
    "ConfigError",
    "CheckpointError",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "config_digest",
    "desk_config",
    "run_experiment",
    "RunRecord",
    "ExperimentResult",
    "load_checkpoint",
    "eval_checkpoint",
    "export_field",
    "OUTPUT_ROOT_ENV",
    "CHECKPOINT_FORMAT",
]

OUTPUT_ROOT_ENV = "PRODMLP_OUTPUT_ROOT"
CHECKPOINT_FORMAT = "prodmlp-checkpoint-v1"

PARAM_LAYOUT_NOTE = (
    "additive: w row-major (n,m), b (n), alpha (n), c | "
    "multiplicative: w row-major (n_b,m), b row-major (n_b,m), alpha (n_b), c"
)


class ConfigError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {path or 'config'}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing required key(s) {missing} in {path or 'config'}")


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path} must be a number, got {v!r}")
    # JSON reads 1e400 as inf and NaN/Infinity literals as such; an integer
    # literal beyond the float range overflows
    x = float(v) if isinstance(v, float) or abs(v) < 2**1024 else math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path} must be a finite number, got {v!r}")
    return x


def _as_int(v, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {v}")
    return v


def _as_bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path} must be true/false, got {v!r}")
    return v


def _parse_spacing(v, path: str) -> float:
    """Accept a number or a fraction string like "1/128"."""
    if isinstance(v, str):
        parts = v.split("/")
        try:
            if len(parts) == 1:
                val = float(parts[0])
            elif len(parts) == 2:
                val = float(parts[0]) / float(parts[1])
            else:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{path} must be a number or 'a/b' fraction, got {v!r}")
        v = val
    return _as_number(v, path)


def _parse_grid(v, path: str) -> Grid2D:
    """The grid of a spacing written as a number or a fraction: the config's
    metrics.grid_h and every --grid flag."""
    h = _parse_spacing(v, path)
    try:
        return Grid2D(h=h)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}")


# A section table maps each JSON key to the dataclass field it sets and the
# reader that checks its JSON type; a nested table is a sub-object whose keys
# set fields of the same dataclass.  A section that names its kind maps each
# kind to its constructor and table.  Defaults and value checks belong to the
# dataclasses alone.
_TARGETS = {
    "circle": (MollifiedCircle, {"r0": ("r0", _as_number), "eps": ("eps", _as_number)}),
    "cone": (RadialCone, {"beta": ("beta", _as_number)}),
}
_LOSSES = {
    "l2": (partial(LossSpec, kind="l2"), {}),
    "h2": (partial(LossSpec, kind="h2"),
           {"lambda": ("lam", _as_number), "h": ("h", _parse_spacing)}),
}
_TRAIN = {
    "iterations": ("iterations", _as_int),
    "batch_size": ("batch_size", _as_int),
    "samples": ("samples", _as_int),
    "checkpoint_interval": ("checkpoint_interval", _as_int),
    "learning_rate": ("learning_rate", _as_number),
    "adam": {"beta1": ("beta1", _as_number), "beta2": ("beta2", _as_number),
             "epsilon": ("epsilon", _as_number)},
}
_ZYGMUND = {"alpha": ("alpha", _as_number), "k_max": ("k_max", _as_int),
            "diagonals": ("include_diagonals", _as_bool)}
_METRICS = {
    "grid_h": ("grid", _parse_grid),
    "zygmund": ("zygmund", lambda v, path: _build(ZygmundSpec, v, path, _ZYGMUND)),
}


def _read(v, path: str, table: dict, paths: dict) -> dict:
    """The dataclass fields that the keys present in object v set; an omitted
    key stays out, so the dataclass supplies its default.  Records each
    field's config path in paths."""
    if not isinstance(v, dict):
        raise ConfigError(f"{path} must be an object, got {v!r}")
    _check_keys(v, path, (), tuple(table))
    fields = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            fields.update(_read(v.get(key, {}), f"{path}.{key}", entry, paths))
            continue
        field, read = entry
        paths[field] = f"{path}.{key}"
        if key in v:
            fields[field] = read(v[key], paths[field])
    return fields


def _resolved(obj, table: dict) -> dict:
    """The section's resolved JSON, read back from the object built from it."""
    return {key: _resolved(obj, entry) if isinstance(entry, dict) else getattr(obj, entry[0])
            for key, entry in table.items()}


def _build(cls, v, path: str, table: dict):
    """cls built from section v; the dataclass checks every value, and its
    error, whose message opens with the field's name, names the config path."""
    paths = {}
    fields = _read(v, path, table, paths)
    try:
        return cls(**fields)
    except ValueError as e:
        name, _, rest = str(e).partition(" ")
        raise ConfigError(f"{paths[name]} {rest}" if name in paths else f"{path}: {e}")


def _parse_kind(v, path: str, kinds: dict):
    """A section that names its kind ("cone" is shorthand for {"kind":
    "cone"}): the object built from it and its resolved JSON."""
    if isinstance(v, str):
        v = {"kind": v}
    if not isinstance(v, dict):
        raise ConfigError(f"{path} must be a string or object, got {v!r}")
    kind = v.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind must be {' or '.join(map(repr, kinds))}, got {kind!r}")
    cls, table = kinds[kind]
    obj = _build(cls, {k: x for k, x in v.items() if k != "kind"}, path, table)
    return obj, {"kind": kind, **_resolved(obj, table)}


def _parse_archs(v, path: str) -> list[Arch]:
    if not isinstance(v, dict) or len(v) != 1:
        raise ConfigError(
            f"{path} must be an object with exactly one of 'mlp', 'mmlp', "
            f"'matched_pair', got {v!r}"
        )
    (key, units), = v.items()
    if key == "mlp":
        return [MlpArch(n=_as_int(units, f"{path}.mlp", minimum=1))]
    if key == "mmlp":
        return [MmlpArch(n_b=_as_int(units, f"{path}.mmlp", minimum=1))]
    if key == "matched_pair":
        n_b = _as_int(units, f"{path}.matched_pair", minimum=1)
        try:
            n = matched_additive_width(n_b)
        except ValueError as e:
            raise ConfigError(f"{path}.matched_pair: {e}")
        return [MlpArch(n=n), MmlpArch(n_b=n_b)]
    raise ConfigError(f"{path} key must be 'mlp', 'mmlp' or 'matched_pair', got {key!r}")


def _check_region(target: TargetFunction, grid: Grid2D, path: str) -> None:
    """The localization ratio needs the target's singular region to split the
    metric grid."""
    inside = _singular_region(target)[0](grid.node_array())
    if inside.all() or not inside.any():
        raise ConfigError(
            f"{path}: the target's singular region covers {int(inside.sum())} of "
            f"{inside.size} metric-grid nodes; it must cover some but not all of them")


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: every default filled in."""

    target: TargetFunction
    archs: tuple[Arch, ...]
    activation: Activation
    loss: LossSpec
    train: TrainConfig  # seed 0; train_config gives each run's
    metrics: MetricConfig
    seeds: tuple[int, ...]
    output_dir: str
    resolved: dict      # canonical JSON form, output_dir included
    digest: str

    def train_config(self, seed: int) -> TrainConfig:
        return replace(self.train, seed=seed)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(resolved: dict) -> str:
    """SHA-256 of the canonical resolved config, output location excluded.

    Moving artifacts to a different directory must not invalidate them, so
    output_dir stays out of the digest.
    """
    content = {k: v for k, v in resolved.items() if k != "output_dir"}
    return hashlib.sha256(_canonical_json(content).encode()).hexdigest()


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config dict and fill in all defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    _check_keys(raw, "", ("target", "arch", "activation", "loss"),
                ("train", "metrics", "seeds", "output_dir"))

    target, target_resolved = _parse_kind(raw["target"], "target", _TARGETS)
    archs = _parse_archs(raw["arch"], "arch")
    try:
        act = activation_by_name(raw["activation"])
    except ValueError as e:
        raise ConfigError(f"activation: {e}")
    loss, loss_resolved = _parse_kind(raw["loss"], "loss", _LOSSES)
    # an h2 run at lam = 0 would be an l2 run under another name
    if loss.kind == "h2" and not loss.lam > 0:
        raise ConfigError(f"loss.lambda must be > 0 for the h2 loss, got {loss.lam}")
    train_cfg = _build(TrainConfig, raw.get("train", {}), "train", _TRAIN)
    mc = _build(MetricConfig, raw.get("metrics", {}), "metrics", _METRICS)
    _check_region(target, mc.grid, "target")

    seeds = raw.get("seeds", [0, 1, 2])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds must be a non-empty list of integers, got {seeds!r}")
    seeds = tuple(_as_int(s, f"seeds[{i}]", minimum=0) for i, s in enumerate(seeds))
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {list(seeds)}")

    (arch_key, arch_units), = raw["arch"].items()
    resolved = {
        "target": target_resolved,
        "arch": {arch_key: arch_units},
        "activation": act.name,
        "loss": loss_resolved,
        "train": _resolved(train_cfg, _TRAIN),
        "metrics": {"grid_h": mc.grid.h, "zygmund": _resolved(mc.zygmund, _ZYGMUND)},
        "seeds": list(seeds),
    }
    digest = config_digest(resolved)
    output_dir = raw.get("output_dir", os.path.join("runs", digest[:12]))
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")
    resolved["output_dir"] = output_dir

    return ExperimentConfig(
        target=target, archs=tuple(archs), activation=act, loss=loss,
        train=train_cfg, metrics=mc, seeds=seeds, output_dir=output_dir,
        resolved=resolved, digest=digest,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    return parse_config(raw)


def desk_config(target: str = "cone", loss: str = "l2", seeds=(0, 1, 2),
                output_dir: str | None = None) -> dict:
    """Desk-scale config dict: matched pair, 2000 iterations, coarse metrics.

    Small enough to train in seconds per run on one core while showing the
    same qualitative behavior as the full-scale defaults.
    """
    cfg = {
        "target": target,
        "arch": {"matched_pair": 64},
        "activation": "gaussian",
        "loss": loss if loss == "l2" else {"kind": "h2", "lambda": 1e-2, "h": "1/128"},
        "train": {
            "iterations": 2000,
            "batch_size": 512,
            "samples": 10_000,
            "checkpoint_interval": 100,
        },
        "metrics": {"grid_h": "1/32"},
        "seeds": list(seeds),
    }
    if output_dir is not None:
        cfg["output_dir"] = output_dir
    return cfg


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _arch_descriptor(arch: Arch) -> dict:
    if isinstance(arch, MlpArch):
        return {"kind": "mlp", "units": arch.n, "m": arch.m}
    return {"kind": "mmlp", "units": arch.n_b, "m": arch.m}


def _arch_label(arch: Arch) -> str:
    return "{kind}{units}".format_map(_arch_descriptor(arch))


def _singular_region(target: TargetFunction):
    """Region where the target loses smoothness, plus its JSON descriptor."""
    if isinstance(target, MollifiedCircle):
        halfwidth = 3.0 * target.eps
        return (annulus_region(target.r0, halfwidth),
                {"kind": "annulus", "r0": target.r0, "halfwidth": halfwidth})
    return disk_region(0.25), {"kind": "disk", "radius": 0.25}


def run_id_for(arch: Arch, act: Activation, loss: LossSpec, seed: int) -> str:
    return f"{_arch_label(arch)}_{act.name}_{loss.kind}_seed{seed}"


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    # joining an absolute output_dir keeps it as it is
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "")) / cfg.output_dir


@dataclass
class RunRecord:
    run_id: str
    arch: Arch
    seed: int
    summary: dict
    trace_path: Path
    checkpoint_path: Path
    field_path: Path
    summary_path: Path


@dataclass
class ExperimentResult:
    output_dir: Path
    records: list[RunRecord]
    medians: dict
    summary_path: Path


def _metric_dict(report) -> dict:
    return {"l2_error": report.l2_error, "h2_error": report.h2_error,
            "zygmund_error": report.zygmund_error}


def _final_summary(err: np.ndarray, report: MetricReport, target: TargetFunction,
                   mc: MetricConfig):
    """Final metrics, report (approximation_report of err), + localization ratio
    for the target's singular region, plus the error field, all from the
    widened F - f array err."""
    region, region_desc = _singular_region(target)
    efield = node_error_field(err, mc)
    out = _metric_dict(report)
    out["localization_ratio"] = localization_ratio(efield, region)
    return out, region_desc, efield


def _write_json(obj, path: Path) -> None:
    with _atomic_text(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _median(values: list):
    return None if None in values else float(np.median(values))


def _check_output_dir(outdir: Path, digest: str) -> None:
    try:
        stored = json.loads((outdir / "experiment_summary.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        return
    except (OSError, ValueError):
        stored = None
    stored = stored.get("config_digest") if isinstance(stored, dict) else None
    if stored != digest:
        raise ConfigError(
            f"output_dir {str(outdir)!r} holds the experiment_summary.json of another "
            f"config (digest {stored!r}, this config {digest!r}); choose another output_dir"
        )


def _run(cfg: ExperimentConfig, outdir: Path, arch: Arch, seed: int) -> RunRecord:
    """The per-run step: train one run, write its four artifacts, return its
    record.  A diverged run writes its partial trace and a flagged summary,
    then re-raises TrainingDiverged."""
    rid = run_id_for(arch, cfg.activation, cfg.loss, seed)
    rec = RunRecord(
        run_id=rid, arch=arch, seed=seed,
        summary={"run_id": rid, "architecture": _arch_descriptor(arch),
                 "activation": cfg.activation.name, "loss": cfg.resolved["loss"],
                 "seed": seed},
        trace_path=outdir / f"{rid}_trace.csv",
        checkpoint_path=outdir / f"{rid}_checkpoint.json",
        field_path=outdir / f"{rid}_error_field.csv",
        summary_path=outdir / f"{rid}_summary.json",
    )
    try:
        result = train(arch, cfg.activation, cfg.target, cfg.loss, cfg.train_config(seed),
                       metrics=cfg.metrics)
    except TrainingDiverged as e:
        if e.trace is not None:
            write_trace_csv(e.trace, rec.trace_path)
        _write_json({
            **rec.summary,
            "status": "diverged",
            "diverged_at_iteration": e.iteration,
            "config_digest": cfg.digest,
        }, rec.summary_path)
        raise

    write_trace_csv(result.trace, rec.trace_path)
    final, region_desc, efield = _final_summary(
        result.final_error, result.final_report, cfg.target, cfg.metrics)
    write_field_csv(efield, rec.field_path)

    rec.summary.update({
        "status": "ok",
        "iterations": cfg.train.iterations,
        "initial": _metric_dict(result.trace.rows[0]),
        "final": final,
        "singular_region": region_desc,
        "near_zero_factor_weights": near_zero_factor_weights(result.params),
        "config_digest": cfg.digest,
    })
    _write_json(rec.summary, rec.summary_path)

    _write_json({
        "format": CHECKPOINT_FORMAT,
        "run_id": rid,
        "architecture": _arch_descriptor(arch),
        "activation": cfg.activation.name,
        "iteration": cfg.train.iterations,
        "seed": seed,
        "param_layout": PARAM_LAYOUT_NOTE,
        "params": [float(x) for x in pack_params(result.params)],
        "config": cfg.resolved,
        "config_digest": cfg.digest,
    }, rec.checkpoint_path)
    return rec


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Map the per-run step over every (architecture, seed) pair, then reduce
    the records to experiment_summary.json: the runs and per-architecture medians.

    A diverged run aborts the experiment: the summary names it beside the runs
    before it, and TrainingDiverged is re-raised.  Another config's output
    directory is refused, so two configs' artifacts never mix.
    """
    outdir = resolve_output_dir(cfg)
    _check_output_dir(outdir, cfg.digest)
    outdir.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    diverged = None
    try:
        for arch in cfg.archs:
            for seed in cfg.seeds:
                records.append(_run(cfg, outdir, arch, seed))
        outcome = {"status": "ok"}
    except TrainingDiverged as e:
        # arch and seed still name the run that diverged
        diverged = e
        outcome = {
            "status": "aborted",
            "aborted_run": run_id_for(arch, cfg.activation, cfg.loss, seed),
            "diverged_at_iteration": e.iteration,
        }

    finals = {}
    for r in records:
        finals.setdefault(_arch_label(r.arch), []).append(r.summary["final"])
    medians = {label: {key: _median([f[key] for f in group]) for key in group[0]}
               for label, group in finals.items()}
    summary_path = outdir / "experiment_summary.json"
    _write_json({
        "config": cfg.resolved,
        "config_digest": cfg.digest,
        **outcome,
        "runs": [r.summary for r in records],
        **({"medians": medians} if diverged is None else {}),
    }, summary_path)
    if diverged is not None:
        raise diverged
    return ExperimentResult(output_dir=outdir, records=records,
                            medians=medians, summary_path=summary_path)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    arch: Arch
    params: object            # NetworkParams
    activation: Activation
    iteration: int
    seed: int
    config: ExperimentConfig
    run_id: str


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint JSON.

    The run -- architecture, activation, seed and iteration count -- is read
    from the embedded config, which the stored digest protects, at the run
    that the stored run_id names.  The copies of those fields stored beside
    the config must agree with it, so a hand-edited copy cannot make the
    parameters evaluate as another network.  Also rejects unknown formats,
    stale digests (an edited config), parameters that are not a flat list of
    finite JSON numbers and parameter vectors of the wrong length.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}")
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise CheckpointError(f"checkpoint {path} must hold a JSON object")
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {data.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    try:
        cfg = parse_config(data["config"])
    except KeyError:
        raise CheckpointError(f"checkpoint {path} has no embedded config")
    except ConfigError as e:
        raise CheckpointError(f"checkpoint {path} embeds an invalid config: {e}")
    stored = data.get("config_digest")
    if stored != cfg.digest:
        raise CheckpointError(
            f"checkpoint {path} is stale: stored config digest {stored!r} does not "
            f"match its embedded config ({cfg.digest!r})"
        )
    runs = {run_id_for(arch, cfg.activation, cfg.loss, seed): (arch, seed)
            for arch in cfg.archs for seed in cfg.seeds}
    run_id = data.get("run_id")
    if not isinstance(run_id, str) or run_id not in runs:
        raise CheckpointError(f"checkpoint {path}: run_id {run_id!r} is not a run of its config")
    arch, seed = runs[run_id]
    for key, value in (("architecture", _arch_descriptor(arch)),
                       ("activation", cfg.activation.name),
                       ("iteration", cfg.train.iterations), ("seed", seed)):
        if data.get(key) != value:
            raise CheckpointError(
                f"checkpoint {path}: {key} {data.get(key)!r} disagrees with its "
                f"config, which gives {value!r} for run_id {run_id!r}")
    expected = param_count(arch)
    params = data.get("params", [])
    kinds = {type(v) for v in params} if isinstance(params, list) else {type(params)}
    if not isinstance(params, list) or list in kinds:
        try:
            shape = np.shape(params)
        except ValueError:                      # a ragged nested list
            shape = "ragged"
        raise CheckpointError(f"checkpoint {path} carries parameters of shape {shape}, "
                              f"expected a flat list of {expected}")
    # JSON numbers only, as _as_number takes them: no strings, no booleans
    if not kinds <= {int, float}:
        raise CheckpointError(f"checkpoint {path} carries non-numeric parameters")
    try:
        vec = np.array(params, dtype=float)
    except OverflowError:                       # an integer literal beyond the float range
        vec = None
    if vec is None or not np.all(np.isfinite(vec)):
        raise CheckpointError(f"checkpoint {path} carries non-finite parameters")
    if vec.shape != (expected,):
        raise CheckpointError(
            f"checkpoint {path} carries {vec.size} parameters, "
            f"expected {expected} for {arch}"
        )
    return Checkpoint(
        arch=arch, params=unpack_params(arch, vec), activation=cfg.activation,
        iteration=cfg.train.iterations, seed=seed, config=cfg, run_id=run_id,
    )


def _checkpoint_error(path, grid: Grid2D | None):
    """A stored checkpoint, its config's metrics with the grid override (the
    CLI's --grid) applied, and F - f on their widened grid, which eval's final
    metrics and export-field's field read."""
    ck = load_checkpoint(path)
    mc = ck.config.metrics if grid is None else replace(ck.config.metrics, grid=grid)
    axis = widened_axis(mc)
    err = grid_values(ck.params, ck.activation, axis) - sample_widened(ck.config.target, mc)
    return ck, mc, err


def eval_checkpoint(path, grid: Grid2D | None = None) -> dict:
    """Recompute the final summary metrics of a stored checkpoint.

    With no grid override this reproduces the run summary's "final" block
    exactly (same code path, same inputs).  An override grid (the CLI's
    --grid) must be split by the target's singular region, as parse_config
    already requires of the config's own grid.
    """
    ck, mc, err = _checkpoint_error(path, grid)
    if grid is not None:
        _check_region(ck.config.target, grid, "--grid")
    report = approximation_report(err, mc)
    out, region_desc, _ = _final_summary(err, report, ck.config.target, mc)
    return {"run_id": ck.run_id, "iteration": ck.iteration, "seed": ck.seed,
            "singular_region": region_desc, "final": out,
            "config_digest": ck.config.digest}


def export_field(path, out_path, grid: Grid2D | None = None) -> Path:
    """Write the |F - f| error field of a checkpoint to a CSV file; on the
    config's own grid its bytes are those of the run's error-field CSV."""
    _, mc, err = _checkpoint_error(path, grid)
    efield = node_error_field(err, mc)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_field_csv(efield, out_path)
    return out_path
