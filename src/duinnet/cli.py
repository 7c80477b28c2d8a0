"""Command-line orchestration: gen / train / eval / ablate / gradcheck.

Option precedence is flag > DUINNET_* environment variable > config file >
built-in default. Exit codes: 0 success, 2 config error (bad or missing
option, config file or checkpoint layout), 3 data error (missing or malformed
dataset file, mesh, raster or checkpoint), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import datasetgen, geometry, metrics, tensor as T
from .datasetgen import ConfigError, GenConfig, Manifest
from .gradcheck import gradient_suite
from .model import DuInNet, make_config, mini_config
from .training import TrainState, train_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ENV_PREFIX = "DUINNET_"
REQUIRED = object()  # declared default of an option that has none


def resolve_options(command: str, flags: dict) -> dict:
    """Every option ``_COMMANDS`` declares for ``command``, resolved once.

    The value is the first one set by flag, ``DUINNET_<NAME>`` environment
    variable, config file or declared default, converted by the declared
    type. A missing required value or one that does not convert raises
    ``ConfigError`` naming the option.
    """
    values, file_cfg = {}, {}
    for name, (kind, default) in _COMMANDS[command][2].items():
        env = os.environ.get(ENV_PREFIX + name.upper())
        val = next((v for v in (flags.get(name), env, file_cfg.get(name)) if v is not None),
                   default)
        option = "--" + name.replace("_", "-")
        if val is REQUIRED:
            raise ConfigError(f"{option} is required")
        try:
            values[name] = None if val is None else kind(val)
        except (TypeError, ValueError, OSError) as exc:
            raise ConfigError(f"invalid {option} {val!r}: {exc}") from exc
        if name == "config":  # declared first: the file supplies the options after it
            file_cfg = values[name] or {}
    return values


def _given(opts, names) -> dict:
    """The options among ``names`` that are set; the rest keep the library's default."""
    return {n: getattr(opts, n) for n in names if getattr(opts, n, None) is not None}


# -- gen -------------------------------------------------------------------------


def _collect_meshes(mesh_dir: Path) -> dict[tuple[str, str], Path]:
    """ModelNet layout: <dir>/<category>/[train|test/]<model>.off (or .ply)."""
    out: dict[tuple[str, str], Path] = {}
    for cat_dir in sorted(p for p in mesh_dir.iterdir() if p.is_dir()):
        for f in sorted(cat_dir.rglob("*")):
            if f.suffix.lower() in (".off", ".ply") and f.is_file():
                out[(cat_dir.name, f.stem)] = f
    return out


def cmd_gen(o) -> int:
    cfg = GenConfig(**_given(o, [f.name for f in fields(GenConfig)]))
    meshes = _collect_meshes(o.mesh_dir)  # a missing directory raises OSError: exit 3
    if not meshes:
        raise ValueError(f"no OFF/PLY meshes under {o.mesh_dir}")
    manifest, report = datasetgen.generate_dataset(meshes, cfg, o.out)
    if not manifest.records:
        errors = report["mesh_errors"]
        why = f"{errors[0]['path']}: {errors[0]['error']}" if errors else "every view excluded"
        raise ValueError(f"no record written to {o.out}: {why}")
    datasetgen.make_splits(manifest)
    manifest.save(o.out / "manifest.json")
    print(f"models: {report['models']}  records: {report['records']}  "
          f"excluded viewpoints: {len(report['excluded_viewpoints'])}  "
          f"mesh errors: {len(report['mesh_errors'])}")
    return EXIT_OK


# -- data loading -------------------------------------------------------------------


def _load_samples(root: Path, manifest: Manifest, task: str, part: str, seed: int,
                  limit: int | None = None):
    """A split's (partial, image, gt, record) samples. A ``limit`` keeps that
    many records taken round-robin over categories, each in manifest order."""
    records = datasetgen.split_records(manifest, task, part)
    if limit:
        by_cat: dict[str, list] = {}
        for rec in records:
            by_cat.setdefault(rec.category, []).append(rec)
        rows = itertools.zip_longest(*by_cat.values())
        records = [rec for row in rows for rec in row if rec is not None][:limit]
    samples = []
    for rec, img_rec in datasetgen.pair_sampler(manifest, records, seed=seed):
        partial_path = rec.noisy_path if task == "denoising" else rec.partial_path
        partial = geometry.load_cloud_ply(root / partial_path, category=rec.category)
        image = datasetgen.load_raster(root / img_rec.image_path)
        gt = geometry.load_cloud_ply(root / rec.complete_path, category=rec.category)
        samples.append((partial, image, gt, rec))
    return samples


def _load_manifest(data: Path, image_side: int) -> Manifest:
    """The manifest of the dataset at ``data``; a dataset whose recorded raster
    side is not the model's ``image_side`` is a config error, found before any
    sample is read."""
    manifest = Manifest.load(data / "manifest.json")
    side = manifest.config.get("image_side", image_side)
    if side != image_side:
        raise ConfigError(f"dataset {data} has {side!r}-pixel images, "
                          f"but the model takes {image_side}-pixel images")
    return manifest


def _build_model(o) -> DuInNet:
    return DuInNet(make_config(o.profile, **_given(o, ["n_img_blocks"])), seed=o.seed)


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


def cmd_train(o) -> int:
    if o.task not in ("supervised", "denoising", "zeroshot"):
        raise ConfigError(f"unknown task {o.task!r}")
    manifest = _load_manifest(o.data, make_config(o.profile).image_side)
    samples = _load_samples(o.data, manifest, o.task, "train", o.seed, o.limit)
    if not samples:
        raise ValueError("empty training split")
    state = TrainState(_build_model(o), **_given(o, ["lr", "decay_steps"]))
    o.out.mkdir(parents=True, exist_ok=True)
    ckpt = o.out / "checkpoint.ckpt"
    if o.resume:
        arrays = T.load_checkpoint(o.resume)  # unreadable: ValueError, exit 3
        try:
            state.restore(arrays)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"cannot resume: {exc}") from exc
    mode = "denoising" if o.task == "denoising" else "standard"
    triples = [(p.points, img, gt.points) for p, img, gt, _ in samples]
    train_loop(state, triples, o.steps, mode=mode,
               curve_path=o.out / "loss_curve.tsv", checkpoint_path=ckpt, verbose=o.verbose)
    print(f"trained {o.steps} steps; checkpoint at {ckpt}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------------


def cmd_eval(o) -> int:
    manifest = _load_manifest(o.data, make_config(o.profile).image_side)
    samples = _load_samples(o.data, manifest, o.task, "test", o.seed, o.limit)
    if not samples:
        raise ValueError("empty evaluation split")
    model = _build_model(o)
    if o.checkpoint:
        arrays = T.load_checkpoint(o.checkpoint)
        try:
            model.load_state_dict(arrays)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"checkpoint mismatch: {exc}") from exc
    gts = [gt for _, _, gt, _ in samples]
    reports = [metrics.evaluate_pair(p, gt) for p, gt in zip(_predict(model, samples), gts)]
    cats = [metrics.category_of(gt) for gt in gts]
    report = metrics.summarize(reports, cats)
    extra = None
    if o.task == "zeroshot":
        unseen = set(manifest.splits["zeroshot"].get("unseen_categories", []))
        extra = {}
        for label, want in (("Mean(seen)", False), ("Mean(unseen)", True)):
            idxs = [i for i, gt in enumerate(gts) if (gt.category in unseen) == want]
            if idxs:
                r = metrics.summarize([reports[i] for i in idxs], [cats[i] for i in idxs])
                extra[label] = {"cd_l1": r.cd_l1, "cd_l2": r.cd_l2, "fscore": r.fscore}
    table = metrics.format_table(report, extra)
    o.out.mkdir(parents=True, exist_ok=True)
    (o.out / "eval_table.tsv").write_text(table + "\n")
    (o.out / "eval_report.json").write_text(json.dumps({
        "mean": {"cd_l1": report.cd_l1, "cd_l2": report.cd_l2, "fscore": report.fscore,
                 "precision": report.precision, "recall": report.recall},
        "per_category": report.per_category,
        "extra": extra,
        "threshold_d": report.threshold_d,
    }, indent=1, sort_keys=True) + "\n")
    print(table)
    return EXIT_OK


# -- ablate ----------------------------------------------------------------------


def cmd_ablate(o) -> int:
    sums = {a + b for a, b in o.partitions}
    if len(sums) != 1:
        raise ConfigError(f"partitions disagree on total block count: {sorted(sums)}")
    n_blocks = sums.pop()
    base = mini_config()
    if base.N % n_blocks:
        raise ConfigError(f"{n_blocks} blocks do not divide N={base.N}")
    manifest = _load_manifest(o.data, base.image_side)
    splits = {task: [_load_samples(o.data, manifest, task, part, o.seed, o.limit)
                     for part in ("train", "test")]
              for task in ("supervised", "denoising", "zeroshot")}
    if not all(all(parts) for parts in splits.values()):
        raise ValueError("empty split for ablation")
    rows = ["n_img\tn_pc\ttask\tCD-l1(x1e-3)\tCD-l2(x1e-3)\tFS"]
    for n_img, n_pc in o.partitions:
        for task, (train, test) in splits.items():
            cfg = mini_config(n_blocks=n_blocks, n_img_blocks=n_img,
                              block_points=base.N // n_blocks)
            model = DuInNet(cfg, seed=o.seed)
            state = TrainState(model)
            mode = "denoising" if task == "denoising" else "standard"
            triples = [(p.points, img, gt.points) for p, img, gt, _ in train]
            train_loop(state, triples, o.steps, mode=mode)
            rep = metrics.evaluate_batch(_predict(model, test), [gt for _, _, gt, _ in test])
            rows.append(f"{n_img}\t{n_pc}\t{task}\t{rep.cd_l1 * 1e3:.3f}\t"
                        f"{rep.cd_l2 * 1e3:.3f}\t{rep.fscore:.3f}")
    o.out.mkdir(parents=True, exist_ok=True)
    (o.out / "ablation_table.tsv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return EXIT_OK


# -- gradcheck ----------------------------------------------------------------------


def cmd_gradcheck(o) -> int:
    rng = np.random.default_rng(o.seed)
    failures = 0
    for name, err, tol in gradient_suite(rng):
        ok = err < tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: rel err {err:.2e} (tol {tol:g})")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# -- parser -----------------------------------------------------------------------


def _json_object(path) -> dict:
    """The JSON object in the file at ``path``, each key an option of some
    subcommand, so one file can serve several; an empty path names no file."""
    cfg = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(cfg, dict):
        raise ValueError("not a JSON object")
    unknown = sorted(set(cfg) - {n for _, _, options in _COMMANDS.values() for n in options})
    if unknown:
        raise ValueError(f"keys that name no option: {', '.join(unknown)}")
    return cfg


def _count(v) -> int:
    n = int(v)
    if n < 0:
        raise ValueError("must be a non-negative integer")
    return n


def _int_tuple(v) -> tuple[int, ...]:
    return tuple(int(s) for s in str(v).split(",") if s)


def _partitions(v) -> list[tuple[int, int]]:
    return [(int(a), int(b)) for a, b in (p.split("/") for p in str(v).split(","))]


# subcommand: (help, handler, {option: (type, default)}). Option "n_points" is
# the flag --n-points and the variable DUINNET_N_POINTS; a None default leaves
# the value to the library's own default. "config" comes first, because the
# JSON file it names supplies the options after it.
_COMMANDS = {
    "gen": ("synthesize a dataset tree from CAD meshes", cmd_gen, {
        "config": (_json_object, None), "mesh_dir": (Path, REQUIRED), "out": (Path, "dataset"),
        "seed": (_count, None), "n_points": (_count, None), "n_viewpoints": (_count, None),
        "image_side": (_count, None), "noise_sigma": (float, None)}),
    "train": ("train the completion model", cmd_train, {
        "config": (_json_object, None), "data": (Path, REQUIRED), "out": (Path, "run"),
        "task": (str, "supervised"), "profile": (str, "mini"), "resume": (str, None),
        "decay_steps": (_int_tuple, None), "seed": (_count, 0), "steps": (_count, 500),
        "limit": (_count, None), "lr": (float, None), "n_img_blocks": (_count, None)}),
    "eval": ("evaluate a checkpoint on a test split", cmd_eval, {
        "config": (_json_object, None), "data": (Path, REQUIRED), "out": (Path, "run"),
        "task": (str, "supervised"), "profile": (str, "mini"), "checkpoint": (str, None),
        "seed": (_count, 0), "limit": (_count, None), "n_img_blocks": (_count, None)}),
    "ablate": ("sweep generator block partitions", cmd_ablate, {
        "config": (_json_object, None), "data": (Path, REQUIRED), "out": (Path, "ablation"),
        "partitions": (_partitions, "0/4,2/2,4/0"), "seed": (_count, 0), "steps": (_count, 50),
        "limit": (_count, 4)}),
    "gradcheck": ("finite-difference gradient verification", cmd_gradcheck,
                  {"seed": (_count, 0)}),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="duinnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        c = sub.add_parser(name, help=help_text)
        for option in options:
            c.add_argument("--" + option.replace("_", "-"))
        if name == "train":
            c.add_argument("--verbose", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = resolve_options(args.command, vars(args))
        handler = _COMMANDS[args.command][1]
        return handler(argparse.Namespace(**opts, verbose=getattr(args, "verbose", False)))
    except ConfigError as exc:
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
