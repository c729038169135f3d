"""Experiment harness: JSON configs, batch runs, checkpoints, summaries.

A config JSON names a target, an architecture (or a parameter-matched pair),
an activation, a loss, and optionally training / metric settings and a seed
list.  Everything omitted is filled with the standard defaults; unknown keys
anywhere are rejected with an error naming the offending field.  Scalar
shorthands are accepted where they are unambiguous ("cone", "l2"), and grid
spacings may be written as fractions ("1/128").

Resolved configs are canonical: their SHA-256 digest (computed over
everything except the output location) stamps every artifact, and artifacts
depend only on (config, seeds) -- with the single exception of the wall-clock
seconds column in trace CSVs, which records real time.

Artifacts per run, under the output directory:

    <run_id>_trace.csv        iter,l2_error,h2_error,zygmund_error,seconds
    <run_id>_checkpoint.json  final parameters + resolved config + digest
    <run_id>_error_field.csv  x,y,value rows of |F - f| on the metric grid
    <run_id>_summary.json     initial/final metrics, localization ratio

plus one experiment_summary.json with per-run summaries and per-architecture
medians across seeds.  The environment variable PRODMLP_OUTPUT_ROOT, when
set, becomes the base directory for relative output paths.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fdgrid import Grid2D, write_field_csv
from .metrics import (
    MetricConfig,
    ZygmundSpec,
    annulus_region,
    approximation_report,
    disk_region,
    error_field,
    localization_ratio,
)
from .network import (
    Arch,
    Activation,
    MlpArch,
    MmlpArch,
    activation_by_name,
    matched_additive_width,
    near_zero_factor_weights,
    pack_params,
    param_count,
    predictor,
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


def _grid_for(h: float, path: str) -> Grid2D:
    try:
        return Grid2D(h=h)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}")


def _parse_target(v, path: str) -> TargetFunction:
    if isinstance(v, str):
        v = {"kind": v}
    if not isinstance(v, dict):
        raise ConfigError(f"{path} must be a string or object, got {v!r}")
    kind = v.get("kind")
    if kind == "circle":
        _check_keys(v, path, ("kind",), ("r0", "eps"))
        try:
            return MollifiedCircle(
                r0=_as_number(v["r0"], f"{path}.r0") if "r0" in v else 0.5,
                eps=_as_number(v["eps"], f"{path}.eps") if "eps" in v else 0.05,
            )
        except ValueError as e:
            raise ConfigError(f"{path}: {e}")
    if kind == "cone":
        _check_keys(v, path, ("kind",), ("beta",))
        try:
            return RadialCone(
                beta=_as_number(v["beta"], f"{path}.beta") if "beta" in v else 1.8
            )
        except ValueError as e:
            raise ConfigError(f"{path}: {e}")
    raise ConfigError(f"{path}.kind must be 'circle' or 'cone', got {kind!r}")


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


def _parse_loss(v, path: str) -> LossSpec:
    if isinstance(v, str):
        v = {"kind": v}
    if not isinstance(v, dict):
        raise ConfigError(f"{path} must be a string or object, got {v!r}")
    kind = v.get("kind")
    if kind == "l2":
        _check_keys(v, path, ("kind",), ())
        return LossSpec(kind="l2")
    if kind == "h2":
        _check_keys(v, path, ("kind",), ("lambda", "h"))
        lam = _as_number(v["lambda"], f"{path}.lambda") if "lambda" in v else 1e-2
        if not lam > 0:
            raise ConfigError(f"{path}.lambda must be > 0 for the h2 loss, got {lam}")
        h = _parse_spacing(v.get("h", 1.0 / 128.0), f"{path}.h")
        _grid_for(h, f"{path}.h")  # stencil centers are drawn from this grid
        return LossSpec(kind="h2", lam=lam, h=h)
    raise ConfigError(f"{path}.kind must be 'l2' or 'h2', got {kind!r}")


def _parse_train(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{path} must be an object, got {v!r}")
    _check_keys(v, path, (), ("iterations", "batch_size", "samples",
                             "checkpoint_interval", "learning_rate", "adam"))
    out = {
        "iterations": _as_int(v.get("iterations", 10_000), f"{path}.iterations"),
        "batch_size": _as_int(v.get("batch_size", 2_048), f"{path}.batch_size"),
        "samples": _as_int(v.get("samples", 50_000), f"{path}.samples"),
        "checkpoint_interval": _as_int(
            v.get("checkpoint_interval", 100), f"{path}.checkpoint_interval"
        ),
        "learning_rate": _as_number(v.get("learning_rate", 1e-3), f"{path}.learning_rate"),
    }
    adam = v.get("adam", {})
    if not isinstance(adam, dict):
        raise ConfigError(f"{path}.adam must be an object, got {adam!r}")
    _check_keys(adam, f"{path}.adam", (), ("beta1", "beta2", "epsilon"))
    out["adam"] = {
        "beta1": _as_number(adam.get("beta1", 0.9), f"{path}.adam.beta1"),
        "beta2": _as_number(adam.get("beta2", 0.999), f"{path}.adam.beta2"),
        "epsilon": _as_number(adam.get("epsilon", 1e-8), f"{path}.adam.epsilon"),
    }
    try:
        _train_config(out, seed=0)
    except ValueError as e:
        # TrainConfig's messages open with the offending field's name
        field = str(e).split()[0]
        raise ConfigError(f"{path}{'.adam' if field in out['adam'] else ''}.{e}")
    return out


def _train_config(t: dict, seed: int) -> TrainConfig:
    """A resolved train block's keys, adam's included, are TrainConfig fields."""
    return TrainConfig(**{k: v for k, v in t.items() if k != "adam"}, **t["adam"], seed=seed)


def _parse_metrics(v, path: str) -> tuple[dict, MetricConfig]:
    """The resolved metrics block and the MetricConfig it describes."""
    if not isinstance(v, dict):
        raise ConfigError(f"{path} must be an object, got {v!r}")
    _check_keys(v, path, (), ("grid_h", "zygmund"))
    grid_h = _parse_spacing(v.get("grid_h", 1.0 / 128.0), f"{path}.grid_h")
    grid = _grid_for(grid_h, f"{path}.grid_h")
    zy = v.get("zygmund", {})
    if not isinstance(zy, dict):
        raise ConfigError(f"{path}.zygmund must be an object, got {zy!r}")
    _check_keys(zy, f"{path}.zygmund", (), ("alpha", "k_max", "diagonals"))
    alpha = _as_number(zy.get("alpha", 0.8), f"{path}.zygmund.alpha")
    k_max = _as_int(zy.get("k_max", 8), f"{path}.zygmund.k_max", 1)
    diagonals = zy.get("diagonals", False)
    if not isinstance(diagonals, bool):
        raise ConfigError(f"{path}.zygmund.diagonals must be true/false, got {diagonals!r}")
    try:
        zygmund = ZygmundSpec(alpha=alpha, k_max=k_max, include_diagonals=diagonals)
    except ValueError as e:
        raise ConfigError(f"{path}.zygmund: {e}")
    return ({"grid_h": grid_h,
             "zygmund": {"alpha": alpha, "k_max": k_max, "diagonals": diagonals}},
            MetricConfig(grid=grid, zygmund=zygmund))


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: every default filled in."""

    target: TargetFunction
    archs: tuple[Arch, ...]
    activation: Activation
    loss: LossSpec
    train: dict
    metrics: MetricConfig
    seeds: tuple[int, ...]
    output_dir: str
    resolved: dict      # canonical JSON form, output_dir included
    digest: str

    def train_config(self, seed: int) -> TrainConfig:
        return _train_config(self.train, seed)


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

    target = _parse_target(raw["target"], "target")
    archs = _parse_archs(raw["arch"], "arch")
    try:
        act = activation_by_name(raw["activation"])
    except ValueError as e:
        raise ConfigError(f"activation: {e}")
    loss = _parse_loss(raw["loss"], "loss")
    train_d = _parse_train(raw.get("train", {}), "train")
    metrics_d, mc = _parse_metrics(raw.get("metrics", {}), "metrics")
    # the localization ratio needs the region to split the metric grid
    inside = _singular_region(target)[0](mc.grid.node_array())
    if inside.all() or not inside.any():
        raise ConfigError(
            f"target: its singular region covers {int(inside.sum())} of {inside.size} "
            f"metric-grid nodes; it must cover some but not all of them")

    seeds = raw.get("seeds", [0, 1, 2])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds must be a non-empty list of integers, got {seeds!r}")
    seeds = tuple(_as_int(s, f"seeds[{i}]", minimum=0) for i, s in enumerate(seeds))
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {list(seeds)}")

    if isinstance(target, MollifiedCircle):
        target_resolved = {"kind": "circle", "r0": target.r0, "eps": target.eps}
    else:
        target_resolved = {"kind": "cone", "beta": target.beta}
    arch_raw = raw["arch"]
    (arch_key, arch_units), = arch_raw.items()
    loss_resolved = {"kind": "l2"} if loss.kind == "l2" else \
        {"kind": "h2", "lambda": loss.lam, "h": loss.h}

    resolved = {
        "target": target_resolved,
        "arch": {arch_key: arch_units},
        "activation": act.name,
        "loss": loss_resolved,
        "train": train_d,
        "metrics": metrics_d,
        "seeds": list(seeds),
    }
    digest = config_digest(resolved)
    output_dir = raw.get("output_dir", os.path.join("runs", digest[:12]))
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")
    resolved["output_dir"] = output_dir

    return ExperimentConfig(
        target=target, archs=tuple(archs), activation=act, loss=loss,
        train=train_d, metrics=mc, seeds=seeds, output_dir=output_dir,
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


def desk_config(target: str = "cone", loss: str = "l2", n_b: int = 64,
                activation: str = "gaussian", seeds=(0, 1, 2),
                output_dir: str | None = None) -> dict:
    """Desk-scale config dict: matched pair, 2000 iterations, coarse metrics.

    Small enough to train in seconds per run on one core while showing the
    same qualitative behavior as the full-scale defaults.
    """
    cfg = {
        "target": target,
        "arch": {"matched_pair": n_b},
        "activation": activation,
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


def _arch_label(arch: Arch) -> str:
    if isinstance(arch, MlpArch):
        return f"mlp{arch.n}"
    return f"mmlp{arch.n_b}"


def _arch_descriptor(arch: Arch) -> dict:
    if isinstance(arch, MlpArch):
        return {"kind": "mlp", "units": arch.n, "m": arch.m}
    return {"kind": "mmlp", "units": arch.n_b, "m": arch.m}


def _arch_from_descriptor(d: dict) -> Arch:
    try:
        kind = d["kind"]
        units, m = (_as_int(d[k], f"architecture.{k}", minimum=1) for k in ("units", "m"))
    except (KeyError, TypeError, ConfigError):
        raise CheckpointError(f"malformed architecture descriptor: {d!r}")
    if kind == "mlp":
        return MlpArch(n=units, m=m)
    if kind == "mmlp":
        return MmlpArch(n_b=units, m=m)
    raise CheckpointError(f"unknown architecture kind {kind!r}")


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
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(cfg.output_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


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


def _final_summary(F, target: TargetFunction, mc: MetricConfig):
    """Final metrics + localization ratio for the target's singular region,
    plus the error field; export_field writes the same error_field bitwise."""
    region, region_desc = _singular_region(target)
    efield = error_field(F, target, mc.grid)
    out = _metric_dict(approximation_report(F, target, mc))
    out["localization_ratio"] = localization_ratio(efield, region)
    return out, region_desc, efield


def _write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _median(values):
    vals = [v for v in values if v is not None]
    if len(vals) < len(list(values)) or not vals:
        return None
    return float(np.median(vals))


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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (architecture, seed) combination and write all artifacts.

    A diverged run still writes its partial trace and a flagged summary, and
    the whole experiment is then aborted by re-raising TrainingDiverged.
    An output directory holding another config's experiment_summary.json is
    refused, so two configs' artifacts never mix; the same config overwrites.
    """
    outdir = resolve_output_dir(cfg)
    _check_output_dir(outdir, cfg.digest)
    outdir.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []

    for arch in cfg.archs:
        for seed in cfg.seeds:
            rid = run_id_for(arch, cfg.activation, cfg.loss, seed)
            paths = {
                "trace": outdir / f"{rid}_trace.csv",
                "checkpoint": outdir / f"{rid}_checkpoint.json",
                "field": outdir / f"{rid}_error_field.csv",
                "summary": outdir / f"{rid}_summary.json",
            }
            tc = cfg.train_config(seed)
            try:
                result = train(arch, cfg.activation, cfg.target, cfg.loss, tc,
                               metrics=cfg.metrics)
            except TrainingDiverged as e:
                if e.trace is not None:
                    write_trace_csv(e.trace, paths["trace"])
                _write_json({
                    "run_id": rid,
                    "architecture": _arch_descriptor(arch),
                    "activation": cfg.activation.name,
                    "loss": cfg.resolved["loss"],
                    "seed": seed,
                    "status": "diverged",
                    "diverged_at_iteration": e.iteration,
                    "config_digest": cfg.digest,
                }, paths["summary"])
                _write_json({
                    "config": cfg.resolved,
                    "config_digest": cfg.digest,
                    "status": "aborted",
                    "aborted_run": rid,
                    "diverged_at_iteration": e.iteration,
                    "runs": [r.summary for r in records],
                }, outdir / "experiment_summary.json")
                raise

            write_trace_csv(result.trace, paths["trace"])
            final, region_desc, efield = _final_summary(
                predictor(result.params, cfg.activation), cfg.target, cfg.metrics)
            write_field_csv(efield, paths["field"])

            first = result.trace.rows[0]
            summary = {
                "run_id": rid,
                "architecture": _arch_descriptor(arch),
                "activation": cfg.activation.name,
                "loss": cfg.resolved["loss"],
                "seed": seed,
                "status": "ok",
                "iterations": tc.iterations,
                "initial": {"l2_error": first.l2_error, "h2_error": first.h2_error,
                            "zygmund_error": first.zygmund_error},
                "final": final,
                "singular_region": region_desc,
                "near_zero_factor_weights": near_zero_factor_weights(result.params),
                "config_digest": cfg.digest,
            }
            _write_json(summary, paths["summary"])

            _write_json({
                "format": CHECKPOINT_FORMAT,
                "run_id": rid,
                "architecture": _arch_descriptor(arch),
                "activation": cfg.activation.name,
                "iteration": tc.iterations,
                "seed": seed,
                "param_layout": PARAM_LAYOUT_NOTE,
                "params": [float(x) for x in pack_params(result.params)],
                "config": cfg.resolved,
                "config_digest": cfg.digest,
            }, paths["checkpoint"])

            records.append(RunRecord(
                run_id=rid, arch=arch, seed=seed, summary=summary,
                trace_path=paths["trace"], checkpoint_path=paths["checkpoint"],
                field_path=paths["field"], summary_path=paths["summary"],
            ))

    medians = {}
    for arch in cfg.archs:
        label = _arch_label(arch)
        group = [r.summary["final"] for r in records
                 if r.summary["architecture"] == _arch_descriptor(arch)]
        medians[label] = {
            key: _median([g[key] for g in group])
            for key in ("l2_error", "h2_error", "zygmund_error", "localization_ratio")
        }

    summary_path = outdir / "experiment_summary.json"
    _write_json({
        "config": cfg.resolved,
        "config_digest": cfg.digest,
        "status": "ok",
        "runs": [r.summary for r in records],
        "medians": medians,
    }, summary_path)

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

    Rejects unknown formats, non-finite parameters, parameter vectors of the
    wrong length, and checkpoints whose stored digest no longer matches their
    embedded config (a stale or hand-edited file).
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
    arch = _arch_from_descriptor(data.get("architecture"))
    try:
        vec = np.asarray(data.get("params", []), dtype=float)
    except (TypeError, ValueError):
        raise CheckpointError(f"checkpoint {path} carries non-numeric parameters")
    if not np.all(np.isfinite(vec)):
        raise CheckpointError(f"checkpoint {path} carries non-finite parameters")
    expected = param_count(arch)
    if vec.shape != (expected,):
        raise CheckpointError(
            f"checkpoint {path} carries {vec.size} parameters, "
            f"expected {expected} for {arch}"
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
    try:
        act = activation_by_name(data["activation"])
        iteration = _as_int(data.get("iteration", 0), "iteration", minimum=0)
        seed = _as_int(data.get("seed", 0), "seed", minimum=0)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"checkpoint {path}: {e}")
    return Checkpoint(
        arch=arch, params=unpack_params(arch, vec), activation=act,
        iteration=iteration, seed=seed,
        config=cfg, run_id=str(data.get("run_id", "")),
    )


def _metrics_override(cfg: ExperimentConfig, grid_h: float | None) -> MetricConfig:
    if grid_h is None:
        return cfg.metrics
    return MetricConfig(grid=_grid_for(grid_h, "grid override"), zygmund=cfg.metrics.zygmund)


def eval_checkpoint(path, grid_h: float | None = None) -> dict:
    """Recompute the final summary metrics of a stored checkpoint.

    With no grid override this reproduces the run summary's "final" block
    exactly (same code path, same inputs).
    """
    ck = load_checkpoint(path)
    out, region_desc, _ = _final_summary(predictor(ck.params, ck.activation),
                                         ck.config.target, _metrics_override(ck.config, grid_h))
    return {"run_id": ck.run_id, "iteration": ck.iteration, "seed": ck.seed,
            "singular_region": region_desc, "final": out,
            "config_digest": ck.config.digest}


def export_field(path, out_path, grid_h: float | None = None) -> Path:
    """Write the |F - f| error field of a checkpoint to a CSV file."""
    ck = load_checkpoint(path)
    mc = _metrics_override(ck.config, grid_h)
    F = predictor(ck.params, ck.activation)
    efield = error_field(F, ck.config.target, mc.grid)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_field_csv(efield, out_path)
    return out_path
