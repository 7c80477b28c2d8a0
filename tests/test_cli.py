"""End-to-end CLI runs: gen / train / eval / ablate / gradcheck, exit codes,
option precedence."""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import box_mesh, save_off, uv_sphere

from duinnet import cli, metrics, tensor as T
from duinnet.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, REQUIRED, _COMMANDS,
                         _load_samples, main, resolve_options)
from duinnet.datasetgen import ConfigError, Manifest, split_records
from duinnet.gradcheck import PRIMITIVE_CHECKS
from duinnet.model import DuInNet, make_config, network


# SHA-256 of the manifest.json (records, config and splits) that ``gen`` writes
# for the cli_workspace fixture. Generated datasets are byte-identical across
# versions, so any change to this digest is a defect.
MANIFEST_SHA256 = "d80f8fccc8ae5c38fb72663766324180d716fa49ad5bf72fb0c0b28ed1a42a8c"


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Small 4-model, 4-viewpoint dataset generated through the CLI itself."""
    base = tmp_path_factory.mktemp("cli")
    mesh_dir = base / "meshes"
    for cat, builder in (("chair", box_mesh), ("bowl", uv_sphere)):
        (mesh_dir / cat).mkdir(parents=True)
        for i in (1, 2):
            save_off(mesh_dir / cat / f"{cat}_{i:04d}.off", builder())
    data = base / "data"
    rc = main(["gen", "--mesh-dir", str(mesh_dir), "--out", str(data),
               "--n-points", "128", "--n-viewpoints", "4", "--image-side", "32",
               "--seed", "11"])
    assert rc == EXIT_OK
    return base, mesh_dir, data


# -- gen ---------------------------------------------------------------------------


def test_gen_manifest_and_pair_count(cli_workspace):
    _, _, data = cli_workspace
    manifest = Manifest.load(data / "manifest.json")
    assert manifest.pair_count == 4 * 4  # 4 models x 4 viewpoints
    assert set(manifest.splits) == {"supervised", "denoising", "zeroshot"}
    assert (data / "generation_report.json").exists()


def test_gen_manifest_bytes_are_pinned(cli_workspace):
    _, _, data = cli_workspace
    assert hashlib.sha256((data / "manifest.json").read_bytes()).hexdigest() == MANIFEST_SHA256


def test_gen_rerun_is_byte_identical(cli_workspace, tmp_path):
    _, mesh_dir, data = cli_workspace
    data2 = tmp_path / "data2"
    rc = main(["gen", "--mesh-dir", str(mesh_dir), "--out", str(data2),
               "--n-points", "128", "--n-viewpoints", "4", "--image-side", "32",
               "--seed", "11"])
    assert rc == EXIT_OK
    files1 = sorted(p.relative_to(data) for p in data.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(data2) for p in data2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert filecmp.cmp(data / rel, data2 / rel, shallow=False), rel


def test_gen_missing_mesh_dir(tmp_path):
    assert main(["gen", "--mesh-dir", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA


def test_gen_empty_mesh_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["gen", "--mesh-dir", str(empty),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA


def test_gen_degenerate_mesh_reported_without_failing(tmp_path):
    mesh_dir = tmp_path / "meshes"
    (mesh_dir / "chair").mkdir(parents=True)
    save_off(mesh_dir / "chair" / "chair_0001.off", box_mesh())
    (mesh_dir / "chair" / "chair_0002.off").write_text(
        "OFF\n3 1 0\n0 0 0\n0 0 0\n0 0 0\n3 0 1 2\n")  # zero-area mesh
    out = tmp_path / "out"
    rc = main(["gen", "--mesh-dir", str(mesh_dir), "--out", str(out),
               "--n-points", "64", "--n-viewpoints", "2", "--image-side", "32"])
    assert rc == EXIT_OK
    report = json.loads((out / "generation_report.json").read_text())
    assert len(report["mesh_errors"]) == 1
    assert report["mesh_errors"][0]["model_id"] == "chair_0002"


def test_gen_writing_no_record_exits_data(tmp_path, capsys):
    mesh_dir = tmp_path / "meshes"
    (mesh_dir / "chair").mkdir(parents=True)
    for i in (1, 2):
        (mesh_dir / "chair" / f"chair_000{i}.off").write_text(
            "OFF\n3 1 0\n0 0 0\n0 0 0\n0 0 0\n3 0 1 2\n")  # zero-area mesh
    capsys.readouterr()
    assert main(["gen", "--mesh-dir", str(mesh_dir), "--out", str(tmp_path / "out"),
                 "--n-points", "64", "--n-viewpoints", "2", "--image-side", "32"]) == EXIT_DATA
    err = capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "generation_report.json").read_text())
    first = report["mesh_errors"][0]
    assert err.startswith("error: no record written") and "Traceback" not in err
    assert f"chair_0001.off: {first['error']}" in err


def test_gen_reads_upper_case_off_suffix(tmp_path):
    mesh_dir = tmp_path / "meshes"
    (mesh_dir / "chair").mkdir(parents=True)
    save_off(mesh_dir / "chair" / "chair_0001.OFF", box_mesh())
    out = tmp_path / "out"
    assert main(["gen", "--mesh-dir", str(mesh_dir), "--out", str(out),
                 "--n-points", "64", "--n-viewpoints", "2", "--image-side", "32"]) == EXIT_OK
    assert json.loads((out / "generation_report.json").read_text())["mesh_errors"] == []


@pytest.mark.parametrize("first,second", [("train/chair_0001.off", "test/chair_0001.off"),
                                          ("chair_0002.off", "chair_0002.ply")])
def test_gen_rejects_two_meshes_with_one_model_id(tmp_path, capsys, first, second):
    mesh_dir = tmp_path / "meshes"
    for rel in (first, second):
        (mesh_dir / "chair" / rel).parent.mkdir(parents=True, exist_ok=True)
        save_off(mesh_dir / "chair" / rel, box_mesh())
    capsys.readouterr()
    assert main(["gen", "--mesh-dir", str(mesh_dir), "--out", str(tmp_path / "out"),
                 "--n-points", "64", "--n-viewpoints", "2", "--image-side", "32"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: meshes") and "Traceback" not in err
    assert str(mesh_dir / "chair" / first) in err and str(mesh_dir / "chair" / second) in err
    assert not (tmp_path / "out").exists()  # rejected before any synthesis


def test_gen_rejects_one_point_before_any_output(tmp_path, capsys):
    assert main(["gen", "--mesh-dir", str(_mesh_dir(tmp_path)), "--out", str(tmp_path / "out"),
                 "--n-points", "1", "--n-viewpoints", "2", "--image-side", "32"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: n_points=1 must be >= 3")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_points", [3, 4])
def test_gen_fewest_points_write_records_without_mesh_errors(tmp_path, n_points):
    """Views that see more than max_ratio of the cloud are thinned to at least one point."""
    out = tmp_path / "out"
    assert main(["gen", "--mesh-dir", str(_mesh_dir(tmp_path)), "--out", str(out),
                 "--n-points", str(n_points), "--n-viewpoints", "8",
                 "--image-side", "32"]) == EXIT_OK
    report = json.loads((out / "generation_report.json").read_text())
    assert report["mesh_errors"] == [] and report["records"] == 8


def test_limit_takes_categories_round_robin(cli_workspace):
    _, _, data = cli_workspace
    manifest = Manifest.load(data / "manifest.json")
    records = split_records(manifest, "zeroshot", "test")
    for limit in range(1, len(records) + 1):
        _, got = _load_samples(data, manifest, "zeroshot", "test", 0, limit)
        cats = [rec.category for rec in got]
        assert len(got) == limit and abs(cats.count("bowl") - cats.count("chair")) <= 1
        for cat in set(cats):  # each category's first records, in manifest order
            assert [r for r in got if r.category == cat] == \
                [r for r in records if r.category == cat][:cats.count(cat)]


# -- train -------------------------------------------------------------------------


def test_train_writes_curve_and_checkpoint(cli_workspace):
    base, _, data = cli_workspace
    run = base / "run_train"
    rc = main(["train", "--data", str(data), "--out", str(run), "--profile", "mini",
               "--steps", "3", "--limit", "2", "--lr", "0.001", "--seed", "0"])
    assert rc == EXIT_OK
    rows = (run / "loss_curve.tsv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert [int(r.split("\t")[0]) for r in rows] == [0, 1, 2]
    assert (run / "checkpoint.ckpt").exists()


def test_train_resume_continues_curve(cli_workspace):
    base, _, data = cli_workspace
    run = base / "run_resume"
    assert main(["train", "--data", str(data), "--out", str(run), "--profile", "mini",
                 "--steps", "2", "--limit", "2", "--seed", "0"]) == EXIT_OK
    assert main(["train", "--data", str(data), "--out", str(run), "--profile", "mini",
                 "--steps", "2", "--limit", "2", "--seed", "0",
                 "--resume", str(run / "checkpoint.ckpt")]) == EXIT_OK
    steps = [int(r.split("\t")[0])
             for r in (run / "loss_curve.tsv").read_text().strip().splitlines()]
    assert steps == [0, 1, 2, 3]


def test_train_fresh_run_restarts_curve(cli_workspace, tmp_path):
    _, _, data = cli_workspace
    argv = ["train", "--data", str(data), "--out", str(tmp_path), "--profile", "mini",
            "--steps", "3", "--limit", "2", "--seed", "0"]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    steps = [int(r.split("\t")[0])
             for r in (tmp_path / "loss_curve.tsv").read_text().strip().splitlines()]
    assert steps == [0, 1, 2]


def test_train_denoising_task_runs(cli_workspace):
    base, _, data = cli_workspace
    run = base / "run_denoise"
    rc = main(["train", "--data", str(data), "--out", str(run), "--profile", "mini",
               "--task", "denoising", "--steps", "2", "--limit", "2", "--seed", "0"])
    assert rc == EXIT_OK


def test_train_verbose_prints_the_first_step_loss(cli_workspace, tmp_path, capsys):
    _, _, data = cli_workspace
    assert main(["train", "--data", str(data), "--out", str(tmp_path), "--profile", "mini",
                 "--steps", "1", "--limit", "2", "--seed", "0", "--verbose"]) == EXIT_OK
    printed = re.findall(r"^step (\d+)  loss (\d+\.\d{6})$", capsys.readouterr().out, re.M)
    curve = (tmp_path / "loss_curve.tsv").read_text().split()
    assert [step for step, _ in printed] == ["0"]
    assert abs(float(printed[0][1]) - float(curve[1])) <= 5e-7


def test_train_nonfinite_loss_exits_numeric(cli_workspace, tmp_path):
    _, _, data = cli_workspace
    import duinnet.tensor as T
    from duinnet.model import DuInNet, mini_config
    params = DuInNet(mini_config(), seed=0).state_dict()
    params["apg.pc_blocks.0.linear2.weight"].data[...] = np.nan  # loss is NaN, forward runs
    nan_ckpt = tmp_path / "nan.ckpt"
    T.save_checkpoint(nan_ckpt, params)
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--profile", "mini",
                 "--steps", "2", "--limit", "2", "--seed", "0",
                 "--resume", str(nan_ckpt)]) == EXIT_NUMERIC
    assert (run / "loss_curve.tsv").read_text() == ""


@pytest.mark.parametrize("keep", [8, -3], ids=["header", "data"])
def test_train_resume_truncated_checkpoint_exits_data(cli_workspace, tmp_path, capsys, keep):
    _, _, data = cli_workspace
    import duinnet.tensor as T
    from duinnet.model import DuInNet, mini_config
    cut = tmp_path / "cut.ckpt"
    T.save_checkpoint(cut, DuInNet(mini_config(), seed=0).state_dict())
    cut.write_bytes(cut.read_bytes()[:keep])
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--profile", "mini", "--steps", "1", "--limit", "2",
                 "--resume", str(cut)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cut.ckpt" in err and "Traceback" not in err


@pytest.mark.parametrize("C,drop", [(16, None), (32, "apg.pc_blocks.0.linear2.weight")],
                         ids=["shape", "missing-name"])
def test_train_resume_checkpoint_mismatch_exits_config(cli_workspace, tmp_path, capsys, C, drop):
    _, _, data = cli_workspace
    import duinnet.tensor as T
    from duinnet.model import DuInNet, mini_config
    params = DuInNet(mini_config(C=C), seed=0).state_dict()
    params.pop(drop, None)
    bad = tmp_path / "bad.ckpt"
    T.save_checkpoint(bad, params)
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--profile", "mini",
                 "--steps", "1", "--limit", "2", "--resume", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: cannot resume")
    assert not (run / "loss_curve.tsv").exists()


@pytest.mark.parametrize("key,shape", [("opt.m.apg.img_blocks.0.lbr1.bn.bias", (1, 1)),
                                       ("opt.v.apg.img_blocks.0.lbr1.bn.bias", (1, 1)),
                                       ("meta.step", (0,))], ids=["m", "v", "empty-step"])
def test_train_resume_misshaped_moment_exits_config(cli_workspace, tmp_path, capsys, key, shape):
    """A mis-shaped Adam moment or an empty step counter: exit 2, nothing trained."""
    _, _, data = cli_workspace
    import duinnet.tensor as T
    from duinnet.model import DuInNet, mini_config
    from duinnet.training import TrainState
    good = tmp_path / "good.ckpt"
    TrainState(DuInNet(mini_config(), seed=0)).save(good)
    arrays = T.load_checkpoint(good)
    arrays[key] = np.zeros(shape, dtype=np.float32)
    bad = tmp_path / "bad.ckpt"
    T.save_checkpoint(bad, {k: T.tensor(v) for k, v in arrays.items()})
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--profile", "mini",
                 "--steps", "1", "--limit", "2", "--resume", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot resume") and key in err
    assert not (run / "loss_curve.tsv").exists()


def test_train_unknown_task(cli_workspace):
    base, _, data = cli_workspace
    assert main(["train", "--data", str(data), "--out", str(base / "x"),
                 "--task", "adversarial", "--steps", "1"]) == EXIT_CONFIG


def test_train_missing_manifest(tmp_path):
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                 "--steps", "1"]) == EXIT_DATA


@pytest.mark.parametrize("keep", [9, -3], ids=["side", "planes"])
def test_train_truncated_raster_exits_data(cli_workspace, tmp_path, capsys, keep):
    _, _, data = cli_workspace
    cut = tmp_path / "data"
    shutil.copytree(data, cut)
    for raster in cut.rglob("*.raster"):
        raster.write_bytes(raster.read_bytes()[:keep])
    capsys.readouterr()
    assert main(["train", "--data", str(cut), "--out", str(tmp_path / "run"),
                 "--profile", "mini", "--steps", "1", "--limit", "2"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and ".raster" in err and "truncated" in err
    assert "Traceback" not in err


# -- eval --------------------------------------------------------------------------


def test_eval_emits_table_and_report(cli_workspace):
    base, _, data = cli_workspace
    run = base / "run_eval"
    rc = main(["eval", "--data", str(data), "--out", str(run), "--profile", "mini",
               "--checkpoint", str(base / "run_train" / "checkpoint.ckpt"),
               "--seed", "0"])
    assert rc == EXIT_OK
    table = (run / "eval_table.tsv").read_text().strip().splitlines()
    assert table[0].split("\t")[0] == "category"
    assert table[-1].startswith("mean\t")
    report = json.loads((run / "eval_report.json").read_text())
    assert set(report["mean"]) == {"cd_l1", "cd_l2", "fscore", "precision", "recall"}
    # table means equal independently recomputed per-sample means
    assert float(table[-1].split("\t")[1]) == pytest.approx(
        report["mean"]["cd_l1"] * 1e3, abs=5e-4)


def test_eval_zeroshot_reports_seen_unseen_means(cli_workspace):
    base, _, data = cli_workspace
    run = base / "run_eval_zs"
    rc = main(["eval", "--data", str(data), "--out", str(run), "--profile", "mini",
               "--task", "zeroshot", "--seed", "0"])
    assert rc == EXIT_OK
    table = (run / "eval_table.tsv").read_text()
    report = json.loads((run / "eval_report.json").read_text())
    assert "Mean(unseen)" in table and "Mean(seen)" in table
    assert set(report["extra"]) == {"Mean(seen)", "Mean(unseen)"}
    manifest = Manifest.load(data / "manifest.json")
    assert manifest.splits["zeroshot"]["unseen_categories"] == ["bowl"]


def test_eval_zeroshot_extra_rows_equal_evaluate_batch_over_subsets(cli_workspace, tmp_path):
    _, _, data = cli_workspace
    assert main(["eval", "--data", str(data), "--out", str(tmp_path), "--profile", "mini",
                 "--task", "zeroshot", "--seed", "0"]) == EXIT_OK
    report = json.loads((tmp_path / "eval_report.json").read_text())
    manifest = Manifest.load(data / "manifest.json")
    unseen = set(manifest.splits["zeroshot"]["unseen_categories"])
    model = DuInNet(make_config("mini"), seed=0)
    model.eval()
    preds, gts = {False: [], True: []}, {False: [], True: []}
    for (partial, image, gt), rec in zip(*_load_samples(data, manifest, "zeroshot", "test", 0)):
        with T.no_grad():
            pred = model(partial, image)["p_gen2"].data.astype(np.float64)
        preds[rec.category in unseen].append(pred)
        gts[rec.category in unseen].append(gt)
    for label, is_unseen in (("Mean(seen)", False), ("Mean(unseen)", True)):
        rep = metrics.evaluate_batch(preds[is_unseen], gts[is_unseen])
        assert report["extra"][label] == {"cd_l1": rep.cd_l1, "cd_l2": rep.cd_l2,
                                          "fscore": rep.fscore}
    rep = metrics.evaluate_batch(preds[False] + preds[True], gts[False] + gts[True])
    assert report["mean"]["cd_l1"] == pytest.approx(rep.cd_l1, rel=1e-12)


def test_eval_nonfinite_prediction_exits_numeric(cli_workspace, tmp_path, capsys):
    _, _, data = cli_workspace
    from duinnet.model import mini_config
    params = DuInNet(mini_config(), seed=0).state_dict()
    params["apg.pc_blocks.0.linear2.weight"].data[...] = np.nan  # p_gen2 is NaN, forward runs
    nan_ckpt = tmp_path / "nan.ckpt"
    T.save_checkpoint(nan_ckpt, params)
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--out", str(tmp_path / "run"), "--profile", "mini",
                 "--limit", "1", "--checkpoint", str(nan_ckpt)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    first = split_records(Manifest.load(data / "manifest.json"), "supervised", "test")[0]
    assert err.startswith("error: non-finite prediction") and first.record_id in err
    assert "Traceback" not in err


def test_eval_checkpoint_config_mismatch(cli_workspace, tmp_path):
    base, _, data = cli_workspace
    import duinnet.tensor as T
    from duinnet.model import DuInNet, mini_config
    other = DuInNet(mini_config(C=16), seed=0)
    bad = tmp_path / "bad.ckpt"
    T.save_checkpoint(bad, other.state_dict())
    assert main(["eval", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--profile", "mini", "--checkpoint", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("keep", [8, -3], ids=["header", "data"])
def test_eval_truncated_checkpoint_exits_data(cli_workspace, tmp_path, capsys, keep):
    _, _, data = cli_workspace
    import duinnet.tensor as T
    from duinnet.model import DuInNet, mini_config
    cut = tmp_path / "cut.ckpt"
    T.save_checkpoint(cut, DuInNet(mini_config(), seed=0).state_dict())
    cut.write_bytes(cut.read_bytes()[:keep])
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--profile", "mini", "--checkpoint", str(cut)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cut.ckpt" in err and "Traceback" not in err


# -- ablate ------------------------------------------------------------------------


def test_ablate_sweep_table(cli_workspace):
    base, _, data = cli_workspace
    out = base / "ablation"
    rc = main(["ablate", "--data", str(data), "--out", str(out),
               "--partitions", "0/4,2/2,4/0", "--steps", "1", "--limit", "1",
               "--seed", "0"])
    assert rc == EXIT_OK
    rows = (out / "ablation_table.tsv").read_text().strip().splitlines()
    assert rows[0].split("\t")[:3] == ["n_img", "n_pc", "task"]
    assert len(rows) == 1 + 3 * 3  # partitions x tasks


def test_ablate_rejects_mismatched_partition_sums(cli_workspace):
    base, _, data = cli_workspace
    assert main(["ablate", "--data", str(data), "--out", str(base / "x"),
                 "--partitions", "5/2,3/4"]) == EXIT_CONFIG


def test_ablate_rejects_blocks_not_dividing_n(cli_workspace):
    base, _, data = cli_workspace
    assert main(["ablate", "--data", str(data), "--out", str(base / "x"),
                 "--partitions", "1/2"]) == EXIT_CONFIG


# -- gradcheck ---------------------------------------------------------------------


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    names = [name for name, _, _ in PRIMITIVE_CHECKS]
    names += ["cross_attention_block", "generator_block", "completion_loss"]
    assert [ln.split(":")[0] for ln in lines] == [f"PASS {name}" for name in names]


# -- option precedence -------------------------------------------------------------


def test_env_variable_supplies_missing_flag(cli_workspace, monkeypatch, tmp_path):
    _, _, data = cli_workspace
    run = tmp_path / "run_env"
    monkeypatch.setenv("DUINNET_STEPS", "2")
    monkeypatch.setenv("DUINNET_LIMIT", "1")
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--profile", "mini", "--seed", "0"]) == EXIT_OK
    assert len((run / "loss_curve.tsv").read_text().strip().splitlines()) == 2


def test_flag_beats_env_beats_file(cli_workspace, monkeypatch, tmp_path):
    _, _, data = cli_workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 5, "limit": 1}))
    monkeypatch.setenv("DUINNET_STEPS", "3")
    run1 = tmp_path / "run_file_env"
    assert main(["train", "--data", str(data), "--out", str(run1),
                 "--config", str(cfg), "--profile", "mini", "--seed", "0"]) == EXIT_OK
    assert len((run1 / "loss_curve.tsv").read_text().strip().splitlines()) == 3
    run2 = tmp_path / "run_flag"
    assert main(["train", "--data", str(data), "--out", str(run2),
                 "--config", str(cfg), "--profile", "mini", "--seed", "0",
                 "--steps", "1"]) == EXIT_OK
    assert len((run2 / "loss_curve.tsv").read_text().strip().splitlines()) == 1


# three distinct raw values per declared type: for flag, environment, config file
_RAW = {cli._count: ("1", "2", "3"), float: ("0.5", "0.25", "0.125"), str: ("a", "b", "c"),
        cli._positive: ("0.5", "0.25", "0.125"),
        Path: ("a", "b", "c"), cli._int_tuple: ("1", "1,2", "3"),
        cli._partitions: ("1/1", "2/0", "0/2"), cli._task: ("supervised", "denoising", "zeroshot")}
_OPTIONS = [(cmd, name) for cmd, (_, _, options) in _COMMANDS.items() for name in options]


@pytest.mark.parametrize("command,name", _OPTIONS, ids=[f"{c}-{n}" for c, n in _OPTIONS])
def test_option_precedence(command, name, tmp_path, monkeypatch):
    """Flag beats DUINNET_<NAME>, which beats the config file, which beats the
    declared default; a value that does not convert names the option."""
    options = _COMMANDS[command][2]
    for other in options:
        monkeypatch.delenv("DUINNET_" + other.upper(), raising=False)
    kind, default = options[name]
    env, option = "DUINNET_" + name.upper(), "--" + name.replace("_", "-")
    flags = {n: "x" for n, (_, d) in options.items() if d is REQUIRED and n != name}
    if name == "config":  # the file it names sets --seed
        flag_raw, env_raw = (str(_write(tmp_path / f"{i}.json", f'{{"seed": {i}}}'))
                             for i in (1, 2))
        expect = [{"seed": 1}, {"seed": 2}]
    else:
        flag_raw, env_raw, file_raw = _RAW[kind]
        expect = [kind(flag_raw), kind(env_raw), kind(file_raw)]
        if "config" in options:
            flags["config"] = str(_write(tmp_path / "cfg.json", json.dumps({name: file_raw})))
    monkeypatch.setenv(env, env_raw)
    assert resolve_options(command, {**flags, name: flag_raw})[name] == expect[0]
    assert resolve_options(command, flags)[name] == expect[1]
    monkeypatch.delenv(env)
    if "config" in flags:
        assert resolve_options(command, flags)[name] == expect[2]
        del flags["config"]
    if default is REQUIRED:
        with pytest.raises(ConfigError, match=f"{option} is required"):
            resolve_options(command, flags)
    else:
        assert resolve_options(command, flags)[name] == (None if default is None
                                                         else kind(default))
    if kind not in (str, Path, cli._json_object):
        monkeypatch.setenv(env, "abc")
        with pytest.raises(ConfigError, match=f"invalid {option} 'abc'"):
            resolve_options(command, flags)


def test_config_file_serves_several_commands(tmp_path):
    cfg = str(_write(tmp_path / "cfg.json", json.dumps({"n_points": 64, "steps": 1})))
    assert resolve_options("gen", {"mesh_dir": "m", "config": cfg})["n_points"] == 64
    assert resolve_options("train", {"data": "d", "config": cfg})["steps"] == 1
    _write(tmp_path / "cfg.json", json.dumps({"steps": 1, "stpes": 2, "zz": 3}))
    with pytest.raises(ConfigError, match="no option: stpes, zz"):
        resolve_options("train", {"data": "d", "config": cfg})


def test_missing_config_file_is_config_error(cli_workspace, tmp_path):
    _, _, data = cli_workspace
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG


_BLAS_PROBE = """
import json
from duinnet import cli
from duinnet.model import make_config, network

seen = {}
for name in ("eval", "gen"):
    def probe(o, name=name):
        runner = network.branch_runner(make_config("paper")).__name__
        seen[name] = [network._blas_threads(), runner]
        return 0
    help_text, _, options = cli._COMMANDS[name]
    cli._COMMANDS[name] = (help_text, probe, options)
assert cli.main(["eval", "--data", "."]) == 0
after = network._blas_threads()
assert cli.main(["gen", "--mesh-dir", "."]) == 0
print(json.dumps([seen["eval"], after, seen["gen"]]))
"""


def test_model_commands_run_one_blas_thread_and_give_the_count_back():
    """Under a two-thread OpenBLAS, ``eval`` runs its handler on one BLAS
    thread, so ``paper`` gets the two-core runner where two cores are usable,
    and ``main`` sets two threads again on return; ``gen`` keeps two."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    two_cores = len(os.sched_getaffinity(0)) >= 2
    assert json.loads(out) == [[1, "side_by_side" if two_cores else "in_turn"], 2,
                               [2, "in_turn"]]


def test_paper_checkpoint_does_not_depend_on_the_blas_thread_setting(tmp_path):
    """``train --profile paper`` writes the same checkpoint and loss curve
    whether ``OPENBLAS_NUM_THREADS`` is unset, 1 or 2."""
    if network._blas_threads() is None:
        pytest.skip("the OpenBLAS thread count cannot be read here")
    for cat, builder in (("chair", box_mesh), ("bowl", uv_sphere)):
        (tmp_path / "meshes" / cat).mkdir(parents=True)
        save_off(tmp_path / "meshes" / cat / f"{cat}_0001.off", builder())
    assert main(["gen", "--mesh-dir", str(tmp_path / "meshes"), "--out", str(tmp_path / "data"),
                 "--n-viewpoints", "2"]) == EXIT_OK
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    digests = set()
    for threads in (None, "1", "2"):
        out = tmp_path / f"run_{threads}"
        subprocess.run([sys.executable, "-m", "duinnet.cli", "train", "--profile", "paper",
                        "--data", str(tmp_path / "data"), "--out", str(out), "--steps", "2"],
                       env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
                       capture_output=True, timeout=300, check=True)
        digests.add(tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                          for name in ("checkpoint.ckpt", "loss_curve.tsv")))
    assert len(digests) == 1


# -- exit codes --------------------------------------------------------------------


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _mesh_dir(tmp: Path) -> Path:
    (tmp / "meshes" / "chair").mkdir(parents=True)
    save_off(tmp / "meshes" / "chair" / "chair_0001.off", box_mesh())
    return tmp / "meshes"


def _bowl_dataset(data: Path, tmp: Path) -> Path:
    """A dataset of the workspace's bowls alone: bowl is an unseen category, so
    the zero-shot train split is empty."""
    shutil.copytree(data.parent / "meshes" / "bowl", tmp / "meshes" / "bowl")
    assert main(["gen", "--mesh-dir", str(tmp / "meshes"), "--out", str(tmp / "bowl"),
                 "--n-points", "128", "--n-viewpoints", "4", "--image-side", "32"]) == EXIT_OK
    return tmp / "bowl"


def _without_splits(data: Path, tmp: Path) -> Path:
    doc = json.loads((data / "manifest.json").read_text())
    del doc["splits"]
    return _write(tmp / "manifest.json", json.dumps(doc)).parent


def _copy_without(data: Path, tmp: Path, pattern: str) -> Path:
    cut = tmp / "data"
    shutil.copytree(data, cut)
    for f in cut.rglob(pattern):
        f.unlink()
    return cut


# id: (argv from (dataset, tmp dir), environment, exit code, text stderr must contain)
_EXIT_CASES = {
    "config-missing": (lambda d, t: ["train", "--data", d, "--config", t / "absent.json"],
                       {}, EXIT_CONFIG, "absent.json"),
    "config-unparsable": (lambda d, t: ["train", "--data", d,
                                        "--config", _write(t / "c.json", "{steps")],
                          {}, EXIT_CONFIG, "c.json"),
    "config-not-object": (lambda d, t: ["train", "--data", d,
                                        "--config", _write(t / "c.json", "[1]")],
                          {}, EXIT_CONFIG, "not a JSON object"),
    "env-steps-not-int": (lambda d, t: ["train", "--data", d],
                          {"DUINNET_STEPS": "abc"}, EXIT_CONFIG, "--steps"),
    "config-unknown-key": (lambda d, t: ["train", "--data", d,
                                         "--config", _write(t / "c.json", '{"stpes": 1}')],
                           {}, EXIT_CONFIG, "stpes"),
    "train-negative-steps": (lambda d, t: ["train", "--data", d, "--steps", "-3"],
                             {}, EXIT_CONFIG, "--steps"),
    "train-negative-seed": (lambda d, t: ["train", "--data", d, "--seed", "-1"],
                            {}, EXIT_CONFIG, "--seed"),
    "train-nan-lr": (lambda d, t: ["train", "--data", d, "--steps", "1", "--lr", "nan"],
                     {}, EXIT_CONFIG, "--lr"),
    "env-inf-lr": (lambda d, t: ["train", "--data", d, "--steps", "1"],
                   {"DUINNET_LR": "inf"}, EXIT_CONFIG, "--lr"),
    "config-zero-lr": (lambda d, t: ["train", "--data", d, "--steps", "1",
                                     "--config", _write(t / "c.json", '{"lr": 0}')],
                       {}, EXIT_CONFIG, "--lr"),
    "train-negative-lr": (lambda d, t: ["train", "--data", d, "--steps", "1", "--lr", "-0.001"],
                          {}, EXIT_CONFIG, "--lr"),
    "train-negative-decay-steps": (lambda d, t: ["train", "--data", d, "--decay-steps", "5,-1"],
                                   {}, EXIT_CONFIG, "--decay-steps"),
    "env-negative-decay-steps": (lambda d, t: ["train", "--data", d],
                                 {"DUINNET_DECAY_STEPS": "-1"}, EXIT_CONFIG, "--decay-steps"),
    "config-negative-decay-steps": (lambda d, t: ["train", "--data", d, "--config",
                                                  _write(t / "c.json", '{"decay_steps": -2}')],
                                    {}, EXIT_CONFIG, "--decay-steps"),
    "eval-negative-limit": (lambda d, t: ["eval", "--data", d, "--limit", "-2"],
                            {}, EXIT_CONFIG, "--limit"),
    "env-negative-n-img-blocks": (lambda d, t: ["eval", "--data", d],
                                  {"DUINNET_N_IMG_BLOCKS": "-1"}, EXIT_CONFIG, "--n-img-blocks"),
    "gen-negative-n-points": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t),
                                            "--n-points", "-5"], {}, EXIT_CONFIG, "--n-points"),
    "gen-negative-seed": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t), "--seed", "-1"],
                          {}, EXIT_CONFIG, "--seed"),
    "gen-one-viewpoint": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t), "--n-viewpoints", "1"],
                          {}, EXIT_CONFIG, "n_viewpoints=1"),
    "gen-negative-noise-sigma": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t),
                                               "--noise-sigma", "-1"],
                                 {}, EXIT_CONFIG, "noise_sigma=-1.0"),
    "gen-nan-noise-sigma": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t),
                                          "--noise-sigma", "nan"],
                            {}, EXIT_CONFIG, "noise_sigma=nan"),
    "gen-no-record": (lambda d, t: ["gen", "--mesh-dir",
                                    _write(_mesh_dir(t) / "chair" / "chair_0001.off",
                                           "OFF\n").parent.parent],
                      {}, EXIT_DATA, "no record written"),
    "gen-zero-points": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t), "--n-points", "0"],
                        {}, EXIT_CONFIG, "n_points=0"),
    "gen-two-points": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t), "--n-points", "2"],
                       {}, EXIT_CONFIG, "n_points=2"),
    "gen-image-side-zero": (lambda d, t: ["gen", "--mesh-dir", _mesh_dir(t), "--image-side", "0"],
                            {}, EXIT_CONFIG, "image_side=0"),
    "train-image-side-mismatch": (lambda d, t: ["train", "--data", d, "--profile", "paper"],
                                  {}, EXIT_CONFIG, "32-pixel images, but the model takes 224"),
    "eval-unknown-task": (lambda d, t: ["eval", "--data", d, "--task", "bogus"],
                          {}, EXIT_CONFIG, "--task"),
    "ablate-partition-no-block": (lambda d, t: ["ablate", "--data", d, "--partitions", "0/0"],
                                  {}, EXIT_CONFIG, "--partitions"),
    "ablate-partition-negative": (lambda d, t: ["ablate", "--data", d, "--partitions", "5/-1"],
                                  {}, EXIT_CONFIG, "--partitions"),
    "ablate-partition-totals-differ": (lambda d, t: ["ablate", "--data", d,
                                                     "--partitions", "0/4,2/3"],
                                       {}, EXIT_CONFIG, "block count: [4, 5]"),
    "gen-no-mesh-dir": (lambda d, t: ["gen"], {}, EXIT_CONFIG, "--mesh-dir"),
    "train-no-data": (lambda d, t: ["train"], {}, EXIT_CONFIG, "--data"),
    "eval-no-data": (lambda d, t: ["eval"], {}, EXIT_CONFIG, "--data"),
    "ablate-no-data": (lambda d, t: ["ablate"], {}, EXIT_CONFIG, "--data"),
    "eval-no-manifest": (lambda d, t: ["eval", "--data", t], {}, EXIT_DATA, "manifest.json"),
    "eval-manifest-not-object": (lambda d, t: ["eval", "--data",
                                               _write(t / "manifest.json", "[]").parent],
                                 {}, EXIT_DATA, "JSON object"),
    "eval-missing-checkpoint": (lambda d, t: ["eval", "--data", d,
                                              "--checkpoint", t / "none.ckpt"],
                                {}, EXIT_DATA, "none.ckpt"),
    "train-missing-raster": (lambda d, t: ["train", "--data", _copy_without(d, t, "*.raster"),
                                           "--steps", "1", "--limit", "2"],
                             {}, EXIT_DATA, ".raster"),
    "eval-missing-ply": (lambda d, t: ["eval", "--data", _copy_without(d, t, "*.ply")],
                         {}, EXIT_DATA, ".ply"),
    "train-manifest-without-splits": (lambda d, t: ["train", "--data", _without_splits(d, t)],
                                      {}, EXIT_DATA, "malformed manifest: no 'supervised' split"),
    "train-zeroshot-only-unseen": (lambda d, t: ["train", "--data", _bowl_dataset(d, t),
                                                 "--task", "zeroshot", "--steps", "1"],
                                   {}, EXIT_DATA, "empty train split of task 'zeroshot'"),
}


@pytest.mark.parametrize("case", list(_EXIT_CASES), ids=list(_EXIT_CASES))
def test_exit_code_without_traceback(cli_workspace, tmp_path, monkeypatch, capsys, case):
    _, _, data = cli_workspace
    argv, env, code, needle = _EXIT_CASES[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    work = tmp_path / "work"
    work.mkdir()
    args = [str(a) for a in argv(data, work)] + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and "Traceback" not in err
