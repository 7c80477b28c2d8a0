"""Command-line orchestration: gen / train / eval / ablate / gradcheck.

Option precedence is flag > DUINNET_* environment variable > config file >
built-in default. Exit codes: 0 success, 2 config error (bad or missing
option, config file or checkpoint layout), 3 data error (missing or malformed
dataset file, mesh, raster or checkpoint), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasetgen, geometry, metrics, tensor as T
from .datasetgen import ConfigError, GenConfig, Manifest
from .gradcheck import gradient_suite
from .model import DuInNet, make_config, mini_config
from .model.config import ConfigError as ModelConfigError
from .training import TrainState, train_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ENV_PREFIX = "DUINNET_"


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _resolve(args, key: str, file_cfg: dict, default=None, cast=None, required=False):
    """The first value set by flag, environment, config file or ``default``,
    converted by ``cast``. A missing required value or a failed conversion
    raises ``ConfigError`` naming the option."""
    val = getattr(args, key, None)
    if val is None:
        val = _env(key)
    if val is None:
        val = file_cfg.get(key)
    if val is None:
        val = default
    option = "--" + key.replace("_", "-")
    if val is None:
        if required:
            raise ConfigError(f"{option} is required")
        return None
    try:
        return val if cast is None else cast(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {option} {val!r}: {exc}") from exc


def _load_file_cfg(args) -> dict:
    path = getattr(args, "config", None) or _env("config")
    if not path:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} is not a JSON object")
    return cfg


# -- gen -------------------------------------------------------------------------


def _collect_meshes(mesh_dir: Path) -> dict[tuple[str, str], Path]:
    """ModelNet layout: <dir>/<category>/[train|test/]<model>.off (or .ply)."""
    out: dict[tuple[str, str], Path] = {}
    for cat_dir in sorted(p for p in mesh_dir.iterdir() if p.is_dir()):
        for f in sorted(cat_dir.rglob("*")):
            if f.suffix.lower() in (".off", ".ply") and f.is_file():
                out[(cat_dir.name, f.stem)] = f
    return out


def cmd_gen(args) -> int:
    file_cfg = _load_file_cfg(args)
    mesh_dir = _resolve(args, "mesh_dir", file_cfg, cast=Path, required=True)
    out = _resolve(args, "out", file_cfg, "dataset", cast=Path)
    cfg = GenConfig(
        n_points=_resolve(args, "n_points", file_cfg, 2048, cast=int),
        n_viewpoints=_resolve(args, "n_viewpoints", file_cfg, 32, cast=int),
        image_side=_resolve(args, "image_side", file_cfg, 224, cast=int),
        noise_sigma=_resolve(args, "noise_sigma", file_cfg, 0.01, cast=float),
        seed=_resolve(args, "seed", file_cfg, 0, cast=int),
    )
    meshes = _collect_meshes(mesh_dir)  # a missing directory raises OSError: exit 3
    if not meshes:
        raise ValueError(f"no OFF/PLY meshes under {mesh_dir}")
    manifest, report = datasetgen.generate_dataset(meshes, cfg, out)
    datasetgen.make_splits(manifest)
    manifest.save(out / "manifest.json")
    print(f"models: {report['models']}  records: {report['records']}  "
          f"excluded viewpoints: {len(report['excluded_viewpoints'])}  "
          f"mesh errors: {len(report['mesh_errors'])}")
    return EXIT_OK


# -- data loading -------------------------------------------------------------------


def _load_samples(root: Path, manifest: Manifest, task: str, part: str, seed: int,
                  limit: int | None = None):
    records = datasetgen.split_records(manifest, task, part)
    if limit:
        records = records[:limit]
    samples = []
    for rec, img_rec in datasetgen.pair_sampler(manifest, records, seed=seed):
        partial_path = rec.noisy_path if task == "denoising" else rec.partial_path
        partial = geometry.load_cloud_ply(root / partial_path, category=rec.category,
                                          model_id=rec.model_id)
        image = datasetgen.load_raster(root / img_rec.image_path)
        gt = geometry.load_cloud_ply(root / rec.complete_path, category=rec.category,
                                     model_id=rec.model_id)
        samples.append((partial, image, gt, rec))
    return samples


def _build_model(args, file_cfg: dict) -> DuInNet:
    profile = _resolve(args, "profile", file_cfg, "mini")
    n_img = _resolve(args, "n_img_blocks", file_cfg, cast=int)
    cfg = make_config(profile, **({} if n_img is None else {"n_img_blocks": n_img}))
    return DuInNet(cfg, seed=_resolve(args, "seed", file_cfg, 0, cast=int))


def _predict(model: DuInNet, samples) -> list[geometry.PointCloud]:
    """Each sample's eval-mode ``p_gen2`` as a float64 cloud, recording no graph."""
    model.eval()
    preds = []
    with T.no_grad():
        for partial, image, _, rec in samples:
            p_gen2 = model(partial.points, image)["p_gen2"].data
            preds.append(geometry.PointCloud(p_gen2.astype(np.float64), category=rec.category))
    return preds


# -- train ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    file_cfg = _load_file_cfg(args)
    root = _resolve(args, "data", file_cfg, cast=Path, required=True)
    out = _resolve(args, "out", file_cfg, "run", cast=Path)
    task = _resolve(args, "task", file_cfg, "supervised")
    seed = _resolve(args, "seed", file_cfg, 0, cast=int)
    steps = _resolve(args, "steps", file_cfg, 500, cast=int)
    lr = _resolve(args, "lr", file_cfg, 1e-4, cast=float)
    limit = _resolve(args, "limit", file_cfg, cast=int)
    if task not in ("supervised", "denoising", "zeroshot"):
        raise ConfigError(f"unknown task {task!r}")
    manifest = Manifest.load(root / "manifest.json")
    samples = _load_samples(root, manifest, task, "train", seed, limit)
    if not samples:
        raise ValueError("empty training split")
    model = _build_model(args, file_cfg)
    decay = _resolve(args, "decay_steps", file_cfg, "",
                     cast=lambda v: tuple(int(s) for s in str(v).split(",") if s))
    state = TrainState(model, lr=lr, decay_steps=decay)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.ckpt"
    resume = _resolve(args, "resume", file_cfg)
    if resume:
        arrays = T.load_checkpoint(resume)  # unreadable: ValueError, exit 3
        try:
            state.restore(arrays)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"cannot resume: {exc}") from exc
    mode = "denoising" if task == "denoising" else "standard"
    triples = [(p.points, img, gt.points) for p, img, gt, _ in samples]
    train_loop(state, triples, steps, mode=mode,
               curve_path=out / "loss_curve.tsv", checkpoint_path=ckpt,
               verbose=bool(getattr(args, "verbose", False)))
    print(f"trained {steps} steps; checkpoint at {ckpt}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    file_cfg = _load_file_cfg(args)
    root = _resolve(args, "data", file_cfg, cast=Path, required=True)
    out = _resolve(args, "out", file_cfg, "run", cast=Path)
    task = _resolve(args, "task", file_cfg, "supervised")
    seed = _resolve(args, "seed", file_cfg, 0, cast=int)
    limit = _resolve(args, "limit", file_cfg, cast=int)
    manifest = Manifest.load(root / "manifest.json")
    samples = _load_samples(root, manifest, task, "test", seed, limit)
    if not samples:
        raise ValueError("empty evaluation split")
    model = _build_model(args, file_cfg)
    ckpt = _resolve(args, "checkpoint", file_cfg)
    if ckpt:
        arrays = T.load_checkpoint(ckpt)
        try:
            model.load_state_dict(arrays)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"checkpoint mismatch: {exc}") from exc
    gts = [gt for _, _, gt, _ in samples]
    reports = [metrics.evaluate_pair(p, gt) for p, gt in zip(_predict(model, samples), gts)]
    cats = [metrics.category_of(gt) for gt in gts]
    report = metrics.summarize(reports, cats)
    extra = None
    if task == "zeroshot":
        unseen = set(manifest.splits["zeroshot"].get("unseen_categories", []))
        extra = {}
        for label, want in (("Mean(seen)", False), ("Mean(unseen)", True)):
            idxs = [i for i, gt in enumerate(gts) if (gt.category in unseen) == want]
            if idxs:
                r = metrics.summarize([reports[i] for i in idxs], [cats[i] for i in idxs])
                extra[label] = {"cd_l1": r.cd_l1, "cd_l2": r.cd_l2, "fscore": r.fscore}
    table = metrics.format_table(report, extra)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval_table.tsv").write_text(table + "\n")
    (out / "eval_report.json").write_text(json.dumps({
        "mean": {"cd_l1": report.cd_l1, "cd_l2": report.cd_l2, "fscore": report.fscore,
                 "precision": report.precision, "recall": report.recall},
        "per_category": report.per_category,
        "extra": extra,
        "threshold_d": report.threshold_d,
    }, indent=1, sort_keys=True) + "\n")
    print(table)
    return EXIT_OK


# -- ablate ----------------------------------------------------------------------


def cmd_ablate(args) -> int:
    file_cfg = _load_file_cfg(args)
    root = _resolve(args, "data", file_cfg, cast=Path, required=True)
    out = _resolve(args, "out", file_cfg, "ablation", cast=Path)
    seed = _resolve(args, "seed", file_cfg, 0, cast=int)
    steps = _resolve(args, "steps", file_cfg, 50, cast=int)
    limit = _resolve(args, "limit", file_cfg, cast=int) or 4
    partitions = _resolve(args, "partitions", file_cfg, "0/4,2/2,4/0",
                          cast=lambda v: [(int(a), int(b)) for a, b in
                                          (p.split("/") for p in str(v).split(","))])
    sums = {a + b for a, b in partitions}
    if len(sums) != 1:
        raise ConfigError(f"partitions disagree on total block count: {sorted(sums)}")
    n_blocks = sums.pop()
    base = mini_config()
    if base.N % n_blocks:
        raise ConfigError(f"{n_blocks} blocks do not divide N={base.N}")
    manifest = Manifest.load(root / "manifest.json")
    splits = {task: [_load_samples(root, manifest, task, part, seed, limit)
                     for part in ("train", "test")]
              for task in ("supervised", "denoising", "zeroshot")}
    if not all(all(parts) for parts in splits.values()):
        raise ValueError("empty split for ablation")
    rows = ["n_img\tn_pc\ttask\tCD-l1(x1e-3)\tCD-l2(x1e-3)\tFS"]
    for n_img, n_pc in partitions:
        for task, (train, test) in splits.items():
            cfg = mini_config(n_blocks=n_blocks, n_img_blocks=n_img,
                              block_points=base.N // n_blocks)
            model = DuInNet(cfg, seed=seed)
            state = TrainState(model, lr=1e-4)
            mode = "denoising" if task == "denoising" else "standard"
            triples = [(p.points, img, gt.points) for p, img, gt, _ in train]
            train_loop(state, triples, steps, mode=mode)
            rep = metrics.evaluate_batch(_predict(model, test), [gt for _, _, gt, _ in test])
            rows.append(f"{n_img}\t{n_pc}\t{task}\t{rep.cd_l1 * 1e3:.3f}\t"
                        f"{rep.cd_l2 * 1e3:.3f}\t{rep.fscore:.3f}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation_table.tsv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return EXIT_OK


# -- gradcheck ----------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(int(getattr(args, "seed", 0) or 0))
    failures = 0
    for name, err, tol in gradient_suite(rng):
        ok = err < tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: rel err {err:.2e} (tol {tol:g})")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# -- parser -----------------------------------------------------------------------


# subcommand: (help, handler, string flags, typed flags); "--n-points" sets args.n_points
_COMMANDS = {
    "gen": ("synthesize a dataset tree from CAD meshes", cmd_gen,
            ("--mesh-dir", "--out", "--config"),
            {"--seed": int, "--n-points": int, "--n-viewpoints": int, "--image-side": int,
             "--noise-sigma": float}),
    "train": ("train the completion model", cmd_train,
              ("--data", "--out", "--config", "--task", "--profile", "--resume", "--decay-steps"),
              {"--seed": int, "--steps": int, "--limit": int, "--lr": float,
               "--n-img-blocks": int}),
    "eval": ("evaluate a checkpoint on a test split", cmd_eval,
             ("--data", "--out", "--config", "--task", "--profile", "--checkpoint"),
             {"--seed": int, "--limit": int, "--n-img-blocks": int}),
    "ablate": ("sweep generator block partitions", cmd_ablate,
               ("--data", "--out", "--config", "--partitions"),
               {"--seed": int, "--steps": int, "--limit": int}),
    "gradcheck": ("finite-difference gradient verification", cmd_gradcheck, (), {"--seed": int}),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="duinnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, func, flags, typed) in _COMMANDS.items():
        c = sub.add_parser(name, help=help_text)
        for flag in flags:
            c.add_argument(flag)
        for flag, kind in typed.items():
            c.add_argument(flag, type=kind)
        if name == "train":
            c.add_argument("--verbose", action="store_true")
        c.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelConfigError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (geometry.GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
