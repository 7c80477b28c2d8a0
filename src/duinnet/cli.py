"""Command-line orchestration: gen / train / eval / ablate / gradcheck.

Option precedence is flag > DUINNET_* environment variable > config file >
built-in default. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasetgen, geometry, metrics, tensor as T
from .datasetgen import GenConfig, Manifest
from .gradcheck import check_fn, check_module_params
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


def _resolve(args, key: str, file_cfg: dict, default=None, cast=None):
    val = getattr(args, key, None)
    if val is None:
        val = _env(key)
    if val is None:
        val = file_cfg.get(key)
    if val is None:
        val = default
    if val is not None and cast is not None and not isinstance(val, cast if isinstance(cast, type) else object):
        val = cast(val)
    return val


def _load_file_cfg(args) -> dict:
    path = getattr(args, "config", None) or _env("config")
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    return json.loads(p.read_text())


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
    mesh_dir = Path(_resolve(args, "mesh_dir", file_cfg))
    out = Path(_resolve(args, "out", file_cfg, "dataset"))
    cfg = GenConfig(
        n_points=int(_resolve(args, "n_points", file_cfg, 2048)),
        n_viewpoints=int(_resolve(args, "n_viewpoints", file_cfg, 32)),
        image_side=int(_resolve(args, "image_side", file_cfg, 224)),
        noise_sigma=float(_resolve(args, "noise_sigma", file_cfg, 0.01)),
        seed=int(_resolve(args, "seed", file_cfg, 0)),
    )
    if not mesh_dir.is_dir():
        print(f"error: mesh directory {mesh_dir} does not exist", file=sys.stderr)
        return EXIT_DATA
    meshes = _collect_meshes(mesh_dir)
    if not meshes:
        print(f"error: no OFF/PLY meshes under {mesh_dir}", file=sys.stderr)
        return EXIT_DATA
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
    overrides = {}
    n_img = _resolve(args, "n_img_blocks", file_cfg)
    if n_img is not None:
        overrides["n_img_blocks"] = int(n_img)
    cfg = make_config(profile, **overrides)
    return DuInNet(cfg, seed=int(_resolve(args, "seed", file_cfg, 0)))


# -- train ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    file_cfg = _load_file_cfg(args)
    root = Path(_resolve(args, "data", file_cfg))
    out = Path(_resolve(args, "out", file_cfg, "run"))
    task = _resolve(args, "task", file_cfg, "supervised")
    seed = int(_resolve(args, "seed", file_cfg, 0))
    steps = int(_resolve(args, "steps", file_cfg, 500))
    lr = float(_resolve(args, "lr", file_cfg, 1e-4))
    limit = _resolve(args, "limit", file_cfg)
    if task not in ("supervised", "denoising", "zeroshot"):
        print(f"error: unknown task {task!r}", file=sys.stderr)
        return EXIT_CONFIG
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        print(f"error: no manifest at {manifest_path}", file=sys.stderr)
        return EXIT_DATA
    manifest = Manifest.load(manifest_path)
    samples = _load_samples(root, manifest, task, "train", seed,
                            int(limit) if limit else None)
    if not samples:
        print("error: empty training split", file=sys.stderr)
        return EXIT_DATA
    model = _build_model(args, file_cfg)
    decay = tuple(int(s) for s in str(_resolve(args, "decay_steps", file_cfg, "")).split(",") if s)
    state = TrainState(model, lr=lr, decay_steps=decay)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.ckpt"
    resume = _resolve(args, "resume", file_cfg)
    if resume:
        arrays = T.load_checkpoint(resume)  # unreadable: ValueError, exit 3 in main
        try:
            state.restore(arrays)
        except (KeyError, ValueError) as exc:
            print(f"error: cannot resume: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    mode = "denoising" if task == "denoising" else "standard"
    triples = [(p.points, img, gt.points) for p, img, gt, _ in samples]
    try:
        train_loop(state, triples, steps, mode=mode,
                   curve_path=out / "loss_curve.tsv", checkpoint_path=ckpt,
                   verbose=bool(getattr(args, "verbose", False)))
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"trained {steps} steps; checkpoint at {ckpt}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    file_cfg = _load_file_cfg(args)
    root = Path(_resolve(args, "data", file_cfg))
    out = Path(_resolve(args, "out", file_cfg, "run"))
    task = _resolve(args, "task", file_cfg, "supervised")
    seed = int(_resolve(args, "seed", file_cfg, 0))
    limit = _resolve(args, "limit", file_cfg)
    manifest = Manifest.load(root / "manifest.json")
    samples = _load_samples(root, manifest, task, "test", seed,
                            int(limit) if limit else None)
    if not samples:
        print("error: empty evaluation split", file=sys.stderr)
        return EXIT_DATA
    model = _build_model(args, file_cfg)
    ckpt = _resolve(args, "checkpoint", file_cfg)
    if ckpt:
        arrays = T.load_checkpoint(ckpt)
        try:
            model.load_state_dict(arrays)
        except (KeyError, ValueError) as exc:
            print(f"error: checkpoint mismatch: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    model.eval()
    preds, gts = [], []
    for partial, image, gt, rec in samples:
        with T.no_grad():
            res = model(partial.points, image)
        preds.append(geometry.PointCloud(res["p_gen2"].data.astype(np.float64),
                                         category=rec.category))
        gts.append(gt)
    report = metrics.evaluate_batch(preds, gts)
    extra = None
    if task == "zeroshot":
        unseen_set = set(manifest.splits["zeroshot"]["unseen_categories"])
        seen_idx = [i for i, g in enumerate(gts) if g.category not in unseen_set]
        unseen_idx = [i for i, g in enumerate(gts) if g.category in unseen_set]
        extra = {}
        for label, idxs in (("Mean(seen)", seen_idx), ("Mean(unseen)", unseen_idx)):
            if idxs:
                r = metrics.evaluate_batch([preds[i] for i in idxs], [gts[i] for i in idxs])
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
    root = Path(_resolve(args, "data", file_cfg))
    out = Path(_resolve(args, "out", file_cfg, "ablation"))
    seed = int(_resolve(args, "seed", file_cfg, 0))
    steps = int(_resolve(args, "steps", file_cfg, 50))
    limit = _resolve(args, "limit", file_cfg)
    limit = int(limit) if limit else 4
    spec = _resolve(args, "partitions", file_cfg, "0/4,2/2,4/0")
    try:
        partitions = [tuple(int(x) for x in p.split("/")) for p in str(spec).split(",")]
    except ValueError:
        print(f"error: cannot parse partitions {spec!r}", file=sys.stderr)
        return EXIT_CONFIG
    sums = {a + b for a, b in partitions}
    if len(sums) != 1:
        print(f"error: partitions disagree on total block count: {sorted(sums)}",
              file=sys.stderr)
        return EXIT_CONFIG
    n_blocks = sums.pop()
    base = mini_config()
    if base.N % n_blocks:
        print(f"error: {n_blocks} blocks do not divide N={base.N}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = Manifest.load(root / "manifest.json")
    tasks = ("supervised", "denoising", "zeroshot")
    rows = ["n_img\tn_pc\ttask\tCD-l1(x1e-3)\tCD-l2(x1e-3)\tFS"]
    for n_img, n_pc in partitions:
        for task in tasks:
            cfg = mini_config(n_blocks=n_blocks, n_img_blocks=n_img,
                              block_points=base.N // n_blocks)
            model = DuInNet(cfg, seed=seed)
            train = _load_samples(root, manifest, task, "train", seed, limit)
            test = _load_samples(root, manifest, task, "test", seed, limit)
            if not train or not test:
                print("error: empty split for ablation", file=sys.stderr)
                return EXIT_DATA
            state = TrainState(model, lr=1e-4)
            mode = "denoising" if task == "denoising" else "standard"
            triples = [(p.points, img, gt.points) for p, img, gt, _ in train]
            try:
                train_loop(state, triples, steps, mode=mode)
            except FloatingPointError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_NUMERIC
            model.eval()
            preds, gts = [], []
            for partial, image, gt, rec in test:
                with T.no_grad():
                    res = model(partial.points, image)
                preds.append(geometry.PointCloud(res["p_gen2"].data.astype(np.float64),
                                                 category=rec.category))
                gts.append(gt)
            rep = metrics.evaluate_batch(preds, gts)
            rows.append(f"{n_img}\t{n_pc}\t{task}\t{rep.cd_l1 * 1e3:.3f}\t"
                        f"{rep.cd_l2 * 1e3:.3f}\t{rep.fscore:.3f}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation_table.tsv").write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
    return EXIT_OK


# -- gradcheck ----------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    from .model.attention import CrossAttentionBlock
    from .model.generator import GeneratorBlock
    from .model.network import completion_loss

    rng = np.random.default_rng(int(getattr(args, "seed", 0) or 0))
    T.set_default_dtype(np.float64)
    failures = 0
    try:
        checks = []

        def mk(name, fn, shapes, tol=1e-4):
            checks.append((name, fn, shapes, tol))

        mk("add", lambda a, b: T.reduce_sum(T.add(a, b)), [(3, 4), (3, 4)])
        mk("mul", lambda a, b: T.reduce_sum(T.mul(a, b)), [(3, 4), (3, 4)])
        mk("matmul", lambda a, b: T.reduce_sum(T.matmul(a, b)), [(5, 4), (4, 3)])
        mk("relu", lambda a: T.reduce_sum(T.relu(a)), [(4, 4)])
        mk("softmax", lambda a: T.reduce_sum(T.mul(a, T.softmax(a, axis=-1))), [(4, 7)])
        for name, fn, shapes, tol in checks:
            err = check_fn(fn, [rng.standard_normal(s) for s in shapes])
            ok = err < tol
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {name}: rel err {err:.2e} (tol {tol})")

        C, heads = 8, 2
        ca = CrossAttentionBlock(C, heads, np.random.default_rng(1))
        q0, kv0 = rng.standard_normal((5, C)), rng.standard_normal((7, C))
        err = check_module_params(ca, lambda: T.reduce_sum(ca(T.tensor(q0), T.tensor(kv0))))
        ok = err < 1e-4
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} cross_attention_block: rel err {err:.2e} (tol 1e-4)")

        blk = GeneratorBlock(8, 4, np.random.default_rng(2))
        blk.eval()
        f0 = rng.standard_normal((6, 8))
        err = check_module_params(blk, lambda: T.reduce_sum(blk(T.tensor(f0))))
        ok = err < 1e-4
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} generator_block: rel err {err:.2e} (tol 1e-4)")

        gen = rng.standard_normal((16, 3))
        gt = rng.standard_normal((16, 3))
        err = check_fn(lambda a: completion_loss(a, a, T.tensor(gt), "standard"), [gen])
        ok = err < 1e-3
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} completion_loss: rel err {err:.2e} (tol 1e-3)")
    finally:
        T.set_default_dtype(np.float32)
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="duinnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="synthesize a dataset tree from CAD meshes")
    g.add_argument("--mesh-dir", dest="mesh_dir")
    g.add_argument("--out")
    g.add_argument("--config")
    g.add_argument("--seed", type=int)
    g.add_argument("--n-points", dest="n_points", type=int)
    g.add_argument("--n-viewpoints", dest="n_viewpoints", type=int)
    g.add_argument("--image-side", dest="image_side", type=int)
    g.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train the completion model")
    for flag in ("--data", "--out", "--config", "--task", "--profile", "--resume"):
        t.add_argument(flag)
    t.add_argument("--seed", type=int)
    t.add_argument("--steps", type=int)
    t.add_argument("--limit", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--decay-steps", dest="decay_steps")
    t.add_argument("--n-img-blocks", dest="n_img_blocks", type=int)
    t.add_argument("--verbose", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    for flag in ("--data", "--out", "--config", "--task", "--profile", "--checkpoint"):
        e.add_argument(flag)
    e.add_argument("--seed", type=int)
    e.add_argument("--limit", type=int)
    e.add_argument("--n-img-blocks", dest="n_img_blocks", type=int)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="sweep generator block partitions")
    for flag in ("--data", "--out", "--config", "--partitions"):
        a.add_argument(flag)
    a.add_argument("--seed", type=int)
    a.add_argument("--steps", type=int)
    a.add_argument("--limit", type=int)
    a.set_defaults(func=cmd_ablate)

    c = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    c.add_argument("--seed", type=int)
    c.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelConfigError, datasetgen.ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (geometry.GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
