"""Config parsing, experiment artifacts, checkpoints, CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prodmlp
from helpers import traced_peak
from prodmlp import (
    CheckpointError,
    ConfigError,
    Grid2D,
    MetricConfig,
    MlpArch,
    MmlpArch,
    MollifiedCircle,
    RadialCone,
    ScalarField,
    ZygmundSpec,
    approximation_report,
    eval_checkpoint,
    export_field,
    grid_values,
    init_params,
    load_checkpoint,
    load_config,
    parse_config,
    read_field_csv,
    read_trace_csv,
    run_experiment,
    sample_widened,
    widened_axis,
    write_field_csv,
)
from prodmlp.cli import main
from prodmlp.harness import (
    CHECKPOINT_FORMAT,
    OUTPUT_ROOT_ENV,
    _LOSSES,
    _METRICS,
    _TARGETS,
    _TRAIN,
    _ZYGMUND,
    _final_summary,
    _write_json,
    config_digest,
    desk_config,
    resolve_output_dir,
    run_id_for,
)
from prodmlp.network import GAUSSIAN_BUMP, pack_params
from prodmlp.training import LossSpec, TrainConfig, l2_loss


def micro_config(tmp_path, **overrides):
    """Smallest config that exercises the full artifact pipeline."""
    cfg = {
        "target": "cone",
        "arch": {"mmlp": 3},
        "activation": "gaussian",
        "loss": "l2",
        "train": {"iterations": 4, "batch_size": 8, "samples": 16,
                  "checkpoint_interval": 2},
        "metrics": {"grid_h": "1/4", "zygmund": {"k_max": 2}},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# parsing and defaults
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config({"target": "cone", "arch": {"mlp": 10},
                        "activation": "tanh", "loss": "l2"})
    assert isinstance(cfg.target, RadialCone) and cfg.target.beta == 1.8
    assert cfg.archs == (MlpArch(n=10),)
    assert cfg.loss.kind == "l2"
    assert cfg.seeds == (0, 1, 2)
    assert cfg.train.iterations == 10_000
    assert cfg.train.batch_size == 2_048
    assert cfg.train.samples == 50_000
    assert (cfg.train.beta1, cfg.train.beta2, cfg.train.epsilon) == (0.9, 0.999, 1e-8)
    assert cfg.metrics.grid.h == 1.0 / 128.0
    assert cfg.metrics.zygmund.alpha == 0.8
    # default output location is derived from the digest
    assert cfg.output_dir == f"runs/{cfg.digest[:12]}"


def test_target_object_form():
    cfg = parse_config({"target": {"kind": "circle", "r0": 0.4, "eps": 0.1},
                        "arch": {"mlp": 4}, "activation": "tanh", "loss": "l2"})
    assert isinstance(cfg.target, MollifiedCircle)
    assert cfg.target.r0 == 0.4 and cfg.target.eps == 0.1


def test_matched_pair_expands_to_both_architectures():
    cfg = parse_config({"target": "cone", "arch": {"matched_pair": 4},
                        "activation": "gaussian", "loss": "l2"})
    assert cfg.archs == (MlpArch(n=5), MmlpArch(n_b=4))


def test_loss_object_form_and_fractions():
    cfg = parse_config({"target": "cone", "arch": {"mlp": 4}, "activation": "tanh",
                        "loss": {"kind": "h2", "lambda": 0.05, "h": "1/64"},
                        "metrics": {"grid_h": "1/16"}})
    assert cfg.loss.kind == "h2" and cfg.loss.lam == 0.05
    assert cfg.loss.h == 1.0 / 64.0
    assert cfg.metrics.grid.h == 1.0 / 16.0


def test_unknown_keys_are_named():
    base = {"target": "cone", "arch": {"mlp": 4}, "activation": "tanh", "loss": "l2"}
    with pytest.raises(ConfigError, match="typo_key"):
        parse_config({**base, "typo_key": 1})
    with pytest.raises(ConfigError, match="train"):
        parse_config({**base, "train": {"iterations": 5, "warmup": 2}})
    with pytest.raises(ConfigError, match="zygmund"):
        parse_config({**base, "metrics": {"zygmund": {"alpha": 0.5, "beta": 1}}})


def test_missing_required_keys_are_named():
    with pytest.raises(ConfigError, match="loss"):
        parse_config({"target": "cone", "arch": {"mlp": 4}, "activation": "tanh"})


def test_bad_values_rejected():
    base = {"target": "cone", "arch": {"mlp": 4}, "activation": "tanh", "loss": "l2"}
    with pytest.raises(ConfigError, match="activation"):
        parse_config({**base, "activation": "relu"})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({**base, "target": "sphere"})
    with pytest.raises(ConfigError, match="lambda"):
        parse_config({**base, "loss": {"kind": "h2", "lambda": 0.0}})
    with pytest.raises(ConfigError, match="lambda must be a finite number"):
        parse_config({**base, "loss": {"kind": "h2", "lambda": math.inf}})
    # each dataclass's error names the config path of the field it rejects
    for section, bad, message in (
            ("target", {"kind": "cone", "beta": math.inf}, r"target\.beta must be a finite"),
            ("target", {"kind": "cone", "beta": "steep"}, r"target\.beta must be a number"),
            ("target", {"kind": "circle", "eps": 0.0}, r"target\.eps must be positive"),
            ("loss", {"kind": "h2", "lambda": -0.5}, r"loss\.lambda must be >= 0"),
            ("loss", {"kind": "h2", "h": 0.01}, r"loss\.h must be a grid spacing"),
            ("metrics", {"zygmund": {"alpha": 1.5}}, r"metrics\.zygmund\.alpha must lie"),
            ("metrics", {"zygmund": {"k_max": 0}}, r"metrics\.zygmund\.k_max must be >= 1")):
        with pytest.raises(ConfigError, match="^" + message):
            parse_config({**base, section: bad})
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({**base, "arch": {"mlp": 4, "mmlp": 4}})
    with pytest.raises(ConfigError, match="matched_pair"):
        parse_config({**base, "arch": {"matched_pair": 3}})
    with pytest.raises(ConfigError, match="grid_h"):
        parse_config({**base, "metrics": {"grid_h": 0.01}})
    with pytest.raises(ConfigError, match="seeds"):
        parse_config({**base, "seeds": []})
    with pytest.raises(ConfigError, match="distinct"):
        parse_config({**base, "seeds": [1, 1]})
    with pytest.raises(ConfigError, match="batch_size"):
        parse_config({**base, "train": {"batch_size": 64, "samples": 32}})
    # the singular region must split the metric grid: r0 = 2 misses every
    # node, eps = 1 widens the annulus over all of them
    for target in ({"kind": "circle", "r0": 2.0}, {"kind": "circle", "eps": 1.0}):
        with pytest.raises(ConfigError, match="^target"):
            parse_config({**base, "target": target})


def test_train_errors_name_the_field():
    # TrainConfig validates each training field once; the parser names its path
    base = {"target": "cone", "arch": {"mlp": 4}, "activation": "tanh", "loss": "l2"}
    for train, path in (({"adam": {"beta1": 1.0}}, "train.adam.beta1"),
                        ({"adam": {"beta2": 1.5}}, "train.adam.beta2"),
                        ({"adam": {"epsilon": -1e-8}}, "train.adam.epsilon"),
                        ({"learning_rate": 0.0}, "train.learning_rate"),
                        ({"learning_rate": 1e400}, "train.learning_rate"),
                        ({"learning_rate": 10**400}, "train.learning_rate"),
                        ({"iterations": 0}, "train.iterations")):
        with pytest.raises(ConfigError, match=re.escape(path + " ")):
            parse_config({**base, "train": train})


def test_digest_ignores_output_dir_only():
    base = {"target": "cone", "arch": {"mlp": 4}, "activation": "tanh", "loss": "l2"}
    a = parse_config({**base, "output_dir": "here"})
    b = parse_config({**base, "output_dir": "there"})
    assert a.digest == b.digest
    c = parse_config({**base, "train": {"iterations": 5}})
    assert c.digest != a.digest
    assert config_digest(a.resolved) == a.digest


def test_resolved_config_reparses_to_the_same_digest():
    cfg = parse_config(desk_config())
    # checkpoints written by earlier versions must keep loading
    assert cfg.digest == "f4292422d8e567397bcba39a089c770416b4403746d2bd92cfd42a1787052651"
    again = parse_config(dict(cfg.resolved))
    assert again.digest == cfg.digest
    assert again.resolved == cfg.resolved


def test_train_config_mapping():
    cfg = parse_config({"target": "cone", "arch": {"mlp": 4}, "activation": "tanh",
                        "loss": "l2", "train": {"iterations": 7, "batch_size": 3,
                                                "samples": 9, "learning_rate": 0.5}})
    tc = cfg.train_config(seed=4)
    assert (tc.iterations, tc.batch_size, tc.samples, tc.seed) == (7, 3, 9, 4)
    assert tc.learning_rate == 0.5 and tc.beta1 == 0.9


def _fields_set_by(table):
    """Names of the dataclass fields that a section table's keys set."""
    return {name for entry in table.values()
            for name in (_fields_set_by(entry) if isinstance(entry, dict) else [entry[0]])}


def test_every_config_section_field_is_set_by_a_config_key():
    # a field no key sets is a setting nothing can change: it should be a constant
    sections = [(ZygmundSpec, _ZYGMUND), (MetricConfig, _METRICS), (TrainConfig, _TRAIN),
                (LossSpec, {k: e for _, t in _LOSSES.values() for k, e in t.items()}),
                *_TARGETS.values()]
    unset = {cls.__name__: {f.name for f in dataclasses.fields(cls)} - _fields_set_by(table)
             for cls, table in sections}
    # seed comes from the config's seeds list, kind from the loss's kind
    assert unset == {"ZygmundSpec": set(), "MetricConfig": set(), "TrainConfig": {"seed"},
                     "LossSpec": {"kind"}, "MollifiedCircle": set(), "RadialCone": set()}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_desk_config_shape():
    cfg = parse_config(desk_config())
    assert cfg.archs == (MlpArch(n=80), MmlpArch(n_b=64))
    assert cfg.train.iterations == 2000
    assert cfg.train.batch_size == 512
    assert cfg.metrics.grid.h == 1.0 / 32.0
    h2 = parse_config(desk_config(loss="h2"))
    assert h2.loss.kind == "h2" and h2.loss.lam == 1e-2 and h2.loss.h == 1.0 / 128.0


def test_output_root_env(monkeypatch, tmp_path):
    cfg = parse_config({"target": "cone", "arch": {"mlp": 4}, "activation": "tanh",
                        "loss": "l2", "output_dir": "rel/dir"})
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert resolve_output_dir(cfg) == tmp_path / "rel" / "dir"
    abs_cfg = parse_config({"target": "cone", "arch": {"mlp": 4}, "activation": "tanh",
                            "loss": "l2", "output_dir": str(tmp_path / "abs")})
    assert resolve_output_dir(abs_cfg) == tmp_path / "abs"
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert resolve_output_dir(cfg) == Path("rel/dir")


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------


def test_run_experiment_writes_all_artifacts(tmp_path):
    cfg = parse_config(micro_config(tmp_path))
    result = run_experiment(cfg)
    assert len(result.records) == 2  # one arch, two seeds
    for rec in result.records:
        assert rec.trace_path.exists()
        assert rec.checkpoint_path.exists()
        assert rec.field_path.exists()
        assert rec.summary_path.exists()
        trace = read_trace_csv(rec.trace_path)
        assert [r.iteration for r in trace.rows] == [0, 2, 4]
        summary = json.loads(rec.summary_path.read_text())
        assert summary["status"] == "ok"
        assert summary["run_id"] == rec.run_id
        assert summary["config_digest"] == cfg.digest
        assert set(summary["initial"]) == {"l2_error", "h2_error", "zygmund_error"}
        assert set(summary["final"]) == {"l2_error", "h2_error", "zygmund_error",
                                         "localization_ratio"}
        assert summary["singular_region"] == {"kind": "disk", "radius": 0.25}
        field = read_field_csv(rec.field_path)
        assert field.grid.h == 1.0 / 4.0

    top = json.loads(result.summary_path.read_text())
    assert top["status"] == "ok"
    assert top["config_digest"] == cfg.digest
    assert len(top["runs"]) == 2
    assert set(top["medians"]) == {"mmlp3"}
    med = top["medians"]["mmlp3"]
    assert set(med) == {"l2_error", "h2_error", "zygmund_error", "localization_ratio"}
    # median of two runs lies between them
    vals = sorted(r["final"]["l2_error"] for r in top["runs"])
    assert vals[0] <= med["l2_error"] <= vals[1]


def test_run_ids_and_circle_region(tmp_path):
    assert run_id_for(MlpArch(80), GAUSSIAN_BUMP, l2_loss(), 2) == "mlp80_gaussian_l2_seed2"
    cfg = parse_config(micro_config(tmp_path, target="circle", seeds=[3]))
    result = run_experiment(cfg)
    summary = result.records[0].summary
    assert summary["run_id"] == "mmlp3_gaussian_l2_seed3"
    # the transition annulus tracks the target's own width parameter
    assert summary["singular_region"] == {"kind": "annulus", "r0": 0.5,
                                          "halfwidth": 0.15000000000000002}


def test_matched_pair_run_groups_medians(tmp_path):
    cfg = parse_config(micro_config(tmp_path, arch={"matched_pair": 4}, seeds=[0]))
    result = run_experiment(cfg)
    assert sorted(r.run_id for r in result.records) == \
        ["mlp5_gaussian_l2_seed0", "mmlp4_gaussian_l2_seed0"]
    assert set(result.medians) == {"mlp5", "mmlp4"}


def test_run_experiment_respects_output_root(monkeypatch, tmp_path):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    cfg = parse_config(micro_config(tmp_path, output_dir="nested/exp"))
    result = run_experiment(cfg)
    assert result.output_dir == tmp_path / "nested" / "exp"
    assert (tmp_path / "nested" / "exp" / "experiment_summary.json").exists()


def test_run_experiment_refuses_another_configs_output_dir(tmp_path):
    first = parse_config(micro_config(tmp_path, seeds=[0]))
    run_experiment(first)
    run_experiment(first)  # the same config overwrites its own artifacts
    with pytest.raises(ConfigError, match="^output_dir .*another config"):
        run_experiment(parse_config(micro_config(tmp_path, seeds=[1])))
    outdir = resolve_output_dir(first)
    assert not (outdir / "mmlp3_gaussian_l2_seed1_summary.json").exists()
    assert json.loads((outdir / "experiment_summary.json").read_text())["config_digest"] \
        == first.digest
    # a summary that names no digest is no proof of the same config either
    (outdir / "experiment_summary.json").write_text("[]")
    with pytest.raises(ConfigError, match="^output_dir"):
        run_experiment(first)


def test_desk_h2_replay_is_bitwise_at_one_blas_thread(tmp_path):
    # replays are bitwise for a fixed numpy/BLAS build and thread count: the
    # product-block h2 gradient's table GEMMs round differently across
    # OpenBLAS thread counts, so both replays run at one thread, each in a
    # fresh process
    src = Path(prodmlp.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    raw = desk_config(target="cone", loss="h2", seeds=[0])
    raw["arch"] = {"mmlp": 64}
    raw["train"].update(iterations=30, checkpoint_interval=10)
    artifacts = []
    for k in range(2):
        out = tmp_path / f"replay{k}"
        out.mkdir()
        path = write_config(out, {**raw, "output_dir": str(out)})
        proc = subprocess.run([sys.executable, "-m", "prodmlp", "run", str(path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        run = out / "mmlp64_gaussian_h2_seed0"
        trace = [(r.iteration, r.l2_error, r.h2_error, r.zygmund_error)
                 for r in read_trace_csv(f"{run}_trace.csv").rows]
        params = json.loads(Path(f"{run}_checkpoint.json").read_text())["params"]
        artifacts.append((trace, params, Path(f"{run}_error_field.csv").read_bytes()))
    assert len(artifacts[0][0]) == 4
    assert artifacts[0] == artifacts[1]


def test_diverged_run_writes_flagged_artifacts(tmp_path):
    from prodmlp import TrainingDiverged

    cfg = parse_config(micro_config(
        tmp_path, train={"iterations": 5, "batch_size": 8, "samples": 16,
                         "checkpoint_interval": 2, "learning_rate": 1e160},
        seeds=[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            run_experiment(cfg)
    outdir = resolve_output_dir(cfg)
    summary = json.loads((outdir / "mmlp3_gaussian_l2_seed0_summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["diverged_at_iteration"] == 2
    top = json.loads((outdir / "experiment_summary.json").read_text())
    assert top["status"] == "aborted"
    assert top["aborted_run"] == "mmlp3_gaussian_l2_seed0"
    # the partial trace still landed on disk
    trace = read_trace_csv(outdir / "mmlp3_gaussian_l2_seed0_trace.csv")
    assert [r.iteration for r in trace.rows] == [0]


def _second_run_raises(monkeypatch, error):
    """Let the first run of a matched pair train; the second raises error."""
    from prodmlp import harness

    real_train, calls = harness.train, []

    def train(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise error
        return real_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", train)


def test_aborted_summary_lists_the_finished_runs(tmp_path, monkeypatch):
    from prodmlp import TrainingDiverged

    cfg = parse_config(micro_config(tmp_path, arch={"matched_pair": 4}, seeds=[0]))
    _second_run_raises(monkeypatch, TrainingDiverged(3, float("nan")))
    with pytest.raises(TrainingDiverged):
        run_experiment(cfg)
    outdir = resolve_output_dir(cfg)
    top = json.loads((outdir / "experiment_summary.json").read_text())
    assert list(top) == ["config", "config_digest", "status", "aborted_run",
                         "diverged_at_iteration", "runs"]
    assert top["status"] == "aborted"
    assert top["aborted_run"] == "mmlp4_gaussian_l2_seed0"
    assert top["diverged_at_iteration"] == 3
    first = json.loads((outdir / "mlp5_gaussian_l2_seed0_summary.json").read_text())
    assert first["status"] == "ok"
    assert top["runs"] == [first]
    flagged = json.loads((outdir / "mmlp4_gaussian_l2_seed0_summary.json").read_text())
    assert flagged["status"] == "diverged"
    # no trace came with the exception, so none is written
    assert not (outdir / "mmlp4_gaussian_l2_seed0_trace.csv").exists()


def test_other_errors_write_no_experiment_summary(tmp_path, monkeypatch):
    cfg = parse_config(micro_config(tmp_path, arch={"matched_pair": 4}, seeds=[0]))
    _second_run_raises(monkeypatch, OSError("disk full"))
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg)
    outdir = resolve_output_dir(cfg)
    assert (outdir / "mlp5_gaussian_l2_seed0_summary.json").exists()
    assert not (outdir / "experiment_summary.json").exists()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@pytest.fixture()
def finished_run(tmp_path):
    cfg = parse_config(micro_config(tmp_path, seeds=[0]))
    result = run_experiment(cfg)
    return cfg, result.records[0]


def test_checkpoint_round_trip(finished_run):
    cfg, rec = finished_run
    ck = load_checkpoint(rec.checkpoint_path)
    assert ck.run_id == rec.run_id
    assert ck.iteration == 4 and ck.seed == 0
    assert ck.arch == MmlpArch(n_b=3)
    assert ck.config.digest == cfg.digest
    raw = json.loads(rec.checkpoint_path.read_text())
    assert raw["format"] == CHECKPOINT_FORMAT
    # float lists in JSON round trip doubles exactly
    assert np.array_equal(pack_params(ck.params), np.array(raw["params"]))


def test_eval_checkpoint_reproduces_summary(finished_run):
    cfg, rec = finished_run
    out = eval_checkpoint(rec.checkpoint_path)
    stored = rec.summary["final"]
    for key in ("l2_error", "h2_error", "zygmund_error", "localization_ratio"):
        assert abs(out["final"][key] - stored[key]) <= 1e-12, key
    assert out["run_id"] == rec.run_id
    assert out["config_digest"] == cfg.digest


def test_eval_checkpoint_grid_override(finished_run):
    _, rec = finished_run
    coarse = eval_checkpoint(rec.checkpoint_path, grid=Grid2D(h=0.5))
    default = eval_checkpoint(rec.checkpoint_path)
    assert coarse["final"]["l2_error"] != default["final"]["l2_error"]


def test_export_field_round_trip(finished_run, tmp_path):
    _, rec = finished_run
    out_path = tmp_path / "sub" / "field.csv"
    export_field(rec.checkpoint_path, out_path)
    direct = read_field_csv(rec.field_path)
    exported = read_field_csv(out_path)
    assert np.array_equal(exported.values, direct.values)
    finer = tmp_path / "finer.csv"
    export_field(rec.checkpoint_path, finer, grid=Grid2D(h=1.0 / 8.0))
    assert read_field_csv(finer).grid.h == 1.0 / 8.0


@pytest.mark.parametrize("arch", [MlpArch(1280), MmlpArch(1024)], ids=["mlp1280", "mmlp1024"])
def test_final_summary_memory_is_bounded_at_paper_scale(arch):
    # report, error field and localization ratio of a paper-width network on
    # the default h = 1/128 metric grid (273**2 widened nodes): ridge units are
    # evaluated in blocks of whole grid rows, one row (2.8 MB of hidden
    # features) at this width, so the traced peak is about 4 MB for mlp1280;
    # mmlp1024's product table with its sigma tables takes it to about 7 MB
    def summary():
        mc = MetricConfig()
        err = (grid_values(init_params(arch, 0), GAUSSIAN_BUMP, widened_axis(mc))
               - sample_widened(RadialCone(), mc))
        return _final_summary(err, approximation_report(err, mc), RadialCone(), mc)

    (final, _, efield), peak = traced_peak(summary)
    assert peak < 64 * 2**20, f"{peak / 2**20:.0f} MB"
    assert efield.values.shape == (257, 257)
    assert all(np.isfinite(v) for v in final.values())


def test_product_grid_keeps_only_the_sigma_tables_and_the_table():
    # grid_values of mmlp1024 on the widened h = 1/128 axis (273 nodes) holds at
    # its peak the two sigma tables, sigma_x alpha and P; no pre-activation
    # table outlives _product_table, and 1 MiB covers the rest
    mc = MetricConfig()
    axis = widened_axis(mc)
    p = init_params(MmlpArch(1024), 0)
    n, n_b = len(axis), 1024
    assert n == 273
    _, peak = traced_peak(grid_values, p, GAUSSIAN_BUMP, axis)
    bound = 8 * (2 * n * n_b + n * n_b + n * n) + 2**20
    assert peak <= bound, f"{peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"


def test_checkpoint_rejects_tampering(tmp_path):
    # mlp5 and mmlp4 both have 21 parameters, so a swapped kind fits the vector
    cfg = parse_config(micro_config(tmp_path, arch={"matched_pair": 4}, seeds=[0]))
    rec = run_experiment(cfg).records[1]
    assert rec.run_id == "mmlp4_gaussian_l2_seed0"
    data = json.loads(rec.checkpoint_path.read_text())

    def write_variant(mutate):
        d = json.loads(rec.checkpoint_path.read_text())
        mutate(d)
        p = tmp_path / "variant.json"
        p.write_text(json.dumps(d))
        return p

    p = write_variant(lambda d: d.update(format="other-format"))
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(p)

    p = write_variant(lambda d: d.update(params=data["params"][:-2]))
    with pytest.raises(CheckpointError, match="parameters"):
        load_checkpoint(p)

    # editing the embedded config without refreshing the digest marks it stale
    def bump_iters(d):
        d["config"]["train"]["iterations"] = 99
    p = write_variant(bump_iters)
    with pytest.raises(CheckpointError, match="stale"):
        load_checkpoint(p)

    p = write_variant(lambda d: d.pop("config"))
    with pytest.raises(CheckpointError, match="config"):
        load_checkpoint(p)

    # the run comes from the embedded config; its stored copies must agree
    for key, bad, named in (("architecture", {"kind": "mlp", "units": 5, "m": 2}, None),
                            ("activation", "tanh", None),
                            ("seed", 1, None),
                            ("iteration", 3, None),
                            ("run_id", "mlp5_gaussian_l2_seed0", "architecture"),
                            ("run_id", "mmlp4_gaussian_l2_seed7", None)):
        p = write_variant(lambda d: d.update({key: bad}))
        with pytest.raises(CheckpointError, match=f"^checkpoint .*: {named or key} "):
            load_checkpoint(p)

    # fields outside the digest are checked too, never a bare traceback
    for key, bad in (("architecture", {"kind": "mlp", "units": "5", "m": 2}),
                     ("activation", ["x"]),
                     ("iteration", None),
                     ("run_id", ["x"]),
                     ("params", ["x"] * len(data["params"])),
                     ("params", [math.nan] + data["params"][1:]),
                     ("params", data["params"][:-1] + [math.inf])):
        p = write_variant(lambda d: d.update({key: bad}))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([data]))
    with pytest.raises(CheckpointError, match="JSON object"):
        load_checkpoint(listed)

    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "nope.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{{{{")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(garbled)


@pytest.mark.parametrize("edit, message", [
    (lambda v: [str(x) for x in v], "non-numeric parameters"),
    (lambda v: [True] + v[1:], "non-numeric parameters"),
    (lambda v: [[x] for x in v], r"parameters of shape \(16, 1\), expected a flat list of 16$"),
    (lambda v: [10**400] + v[1:], "non-finite parameters"),
], ids=["strings", "boolean", "nested", "integer-overflow"])
def test_checkpoint_parameters_must_be_json_numbers(finished_run, tmp_path, capsys, edit, message):
    # hand-edited parameters that numpy would coerce or that the length check
    # would misreport are refused as checkpoints, also by the CLI
    _, rec = finished_run
    data = json.loads(rec.checkpoint_path.read_text())
    assert len(data["params"]) == 16
    data["params"] = edit(data["params"])
    p = tmp_path / "edited_checkpoint.json"
    p.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(p)
    assert main(["eval", str(p)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "checkpoint" and re.search(message, err["message"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_validate(tmp_path, capsys):
    path = write_config(tmp_path, micro_config(tmp_path))
    assert main(["validate", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["activation"] == "gaussian"
    assert len(out["config_digest"]) == 64


def test_cli_validate_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, {"target": "cone"})
    assert main(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "missing" in err["message"]


def test_cli_run_eval_export(tmp_path, capsys):
    path = write_config(tmp_path, micro_config(tmp_path, seeds=[1]))
    assert main(["run", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["runs"] == ["mmlp3_gaussian_l2_seed1"]
    ck = tmp_path / "out" / "mmlp3_gaussian_l2_seed1_checkpoint.json"

    assert main(["eval", str(ck)]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert evaluated["iteration"] == 4

    dest = tmp_path / "exported.csv"
    assert main(["export-field", str(ck), "--out", str(dest), "--grid", "1/8"]) == 0
    capsys.readouterr()
    assert read_field_csv(dest).grid.h == 1.0 / 8.0

    # no node of the 2x2-cell grid lies in the cone's singular disk: the
    # localization ratio is undefined there, but the error field is not
    assert main(["eval", str(ck), "--grid", "2"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "singular region" in err["message"]
    assert err["message"].startswith("--grid:")
    assert main(["export-field", str(ck), "--out", str(dest), "--grid", "2"]) == 0
    capsys.readouterr()
    assert read_field_csv(dest).grid.h == 2.0


def test_cli_out_of_memory_is_one_json_error(tmp_path, capsys, monkeypatch):
    # a grid too fine for memory fails in numpy's allocator; raised here, not
    # provoked, since an overcommitting host may kill the process instead
    def too_large(*_):
        raise MemoryError("Unable to allocate 32.0 TiB for an array")

    monkeypatch.setattr("prodmlp.harness._check_region", too_large)
    path = write_config(tmp_path, micro_config(tmp_path))
    assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "runtime",
                                    "message": "Unable to allocate 32.0 TiB for an array"}


def test_cli_eval_missing_checkpoint(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "none.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "checkpoint"


@pytest.mark.parametrize("grid", ["1/0", "1/2/3", "abc", "1/3"])
@pytest.mark.parametrize("command", [["eval", "checkpoint.json"], ["mollifier-demo"]])
def test_cli_bad_grid_is_one_json_error(command, grid, capsys):
    assert main([*command, "--grid", grid]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config" and "--grid" in err["message"]


def test_cli_mollifier_demo(capsys):
    assert main(["mollifier-demo", "--eps", "0.4,0.2", "--grid", "1/4",
                 "--quad-points", "33"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eps,sup_error,l2_error"
    assert len(lines) == 3
    e1 = [float(v) for v in lines[1].split(",")]
    e2 = [float(v) for v in lines[2].split(",")]
    assert e1[0] == 0.4 and e2[0] == 0.2
    assert e2[1] < e1[1]  # shrinking scale shrinks the sup error


def test_cli_mollifier_demo_to_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    assert main(["mollifier-demo", "--eps", "0.5", "--grid", "1/2",
                 "--quad-points", "17", "--out", str(dest)]) == 0
    capsys.readouterr()
    assert dest.read_text().startswith("eps,sup_error,l2_error\n")


def test_interrupted_artifact_write_keeps_the_old_file(tmp_path):
    # json.dump and the field CSV writer stream, so each has written part of
    # its output when the unserializable value raises
    summary, field = tmp_path / "experiment_summary.json", tmp_path / "field.csv"
    _write_json({"config_digest": "old"}, summary)
    write_field_csv(ScalarField(Grid2D(h=1.0), np.ones((3, 3))), field)
    before = summary.read_bytes(), field.read_bytes()
    with pytest.raises(TypeError):
        _write_json({"config_digest": "new", "runs": [1.0] * 1000 + [object()]}, summary)
    bad = ScalarField(Grid2D(h=1.0), np.zeros((3, 3)))
    bad.values = np.array([[0.0] * 3, [0.0] * 3, [0.0, 0.0, None]], dtype=object)
    with pytest.raises(TypeError):
        write_field_csv(bad, field)
    assert (summary.read_bytes(), field.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment_summary.json", "field.csv"]


def test_cli_mollifier_demo_bad_eps(capsys):
    assert main(["mollifier-demo", "--eps", "0.4,bogus"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


@pytest.mark.parametrize("eps", ["inf", "1e400"])
def test_cli_mollifier_demo_infinite_eps(capsys, eps):
    # 1e400 parses as inf; the table would read inf,nan,nan
    assert main(["mollifier-demo", "--eps", eps]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    err = json.loads(err)
    assert err["error"] == "runtime" and "finite and positive" in err["message"]


@pytest.mark.parametrize("argv", [["eval"], ["bogus"],
                                  ["mollifier-demo", "--quad-points", "abc"]])
def test_cli_usage_error_is_one_json_line(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "usage"


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "mollifier-demo" in capsys.readouterr().out
