"""The ``synth``, ``mini`` and ``paper`` workloads, timed and traced.

Each workload interleaves work items and eval items until its time is up:

- ``synth``: work calls ``datasetgen.generate_dataset`` once per procedural
  mesh, in rounds, at the paper's generation sizes; eval reads the written
  records back and scores each partial against its complete cloud with
  ``metrics.evaluate_pair``.
- ``mini`` / ``paper``: work is ``TrainState.train_step`` (batch size 1);
  eval is an eval-mode forward scored with ``metrics.evaluate_pair``.

Every operation is checked; a workload returns how many it attempted and
how many failed. The traced run alternates untraced and traced units and
reports per-layer figures from the traced ones.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import inputs
import tracing
from duinnet import datasetgen, geometry, metrics
from duinnet.datasetgen import GenConfig
from duinnet.model import DuInNet, make_config, network
from duinnet.training import TrainState

SETUPS = 3        # set-up is repeated and its median reported
# Train steps whose loss is reported and after which eval_cd_l1 is taken.
SCORED_STEPS = {"mini": 100, "paper": 2}
TRAIN_INPUTS = 4
EVAL_INPUTS = {"mini": 8, "paper": 2}
SYNTH_CFG = dict(n_points=2048, n_viewpoints=8, image_side=224)
# Tolerances on the seed-0 reference losses, ~50x the drift that a
# one-ulp change of every initial weight causes (training is chaotic:
# by the third step that drift reaches 1e-3, by step 100 several percent).
LOSS_RTOL = (1e-4, 2e-2)
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())


def now() -> float:
    return time.perf_counter()


class Outcome:
    """Operation counts, timings and check failures of one run.

    ``work`` holds (seconds, items, traced) per timed work call and ``evals``
    (seconds, traced) per eval item; the end-to-end metrics use the untraced
    ones only.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work: list[tuple[float, int, bool]] = []
        self.evals: list[tuple[float, bool]] = []
        self.info: dict = {}

    def op(self, ok: bool, what: str, n: int = 1) -> None:
        """Count ``n`` attempted operations, all failed unless ``ok``."""
        self.attempted += n
        self.check(ok, what, n)

    def check(self, ok: bool, what: str, n: int) -> None:
        """Mark ``n`` already attempted operations failed unless ``ok``."""
        if not ok:
            self.failed = min(self.failed + n, self.attempted)
            self.problems.append(what)

    def work_s(self, traced: bool = False) -> list[float]:
        """Seconds per work item."""
        return [dt / n for dt, n, t in self.work if t == traced]

    def eval_s(self, traced: bool = False) -> list[float]:
        return [dt for dt, t in self.evals if t == traced]

    def metrics(self, setup_s: float) -> dict[str, float]:
        work = [(dt, n) for dt, n, traced in self.work if not traced]
        evals = self.eval_s()
        return {
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": sum(n for _, n in work) / sum(dt for dt, _ in work),
            "work_p50_s": statistics.median(self.work_s()),
            "eval_per_s": len(evals) / sum(evals),
            "eval_p50_s": statistics.median(evals),
        }

    def overhead(self) -> dict[str, float]:
        """Traced minus untraced median, per work item and per eval item."""
        med = statistics.median
        return {"trace.work_overhead_s": med(self.work_s(True)) - med(self.work_s()),
                "trace.eval_overhead_s": med(self.eval_s(True)) - med(self.eval_s())}


# -- model workloads -------------------------------------------------------------


def _state_arrays(state: TrainState) -> list[np.ndarray]:
    """Every array a train step updates in place."""
    return ([p.data for p in state.params] + state.opt.m + state.opt.v
            + [getattr(m, b) for m in state.model.modules()
               for b in ("running_mean", "running_var") if hasattr(m, b)])


def snapshot(state: TrainState):
    return [a.copy() for a in _state_arrays(state)], state.opt.t, state.step


def restore(state: TrainState, snap) -> None:
    copies, state.opt.t, state.step = snap
    for dst, src in zip(_state_arrays(state), copies):
        np.copyto(dst, src)


def _model_pass(out: Outcome, profile: str, state, train_set, eval_set, seconds: float,
                tr: tracing.Tracer | None) -> None:
    """Alternate train steps and eval samples until ``seconds`` have passed.

    After exactly the scored steps every eval input is evaluated once, which
    gives ``eval_cd_l1``; an eval-mode forward changes no model state, so
    the other eval samples leave the training run as it would be without
    them. With a tracer, every second train step and eval sample is traced.
    """
    n = state.model.cfg.N
    k = SCORED_STEPS[profile]
    t0 = now()
    losses, cds = [], []

    def train(x):
        traced = tr is not None and len(losses) % 2 == 1
        t = now()
        if traced:
            with tr.unit("train"):
                loss = tracing.train_step(tr, state, *x)
        else:
            loss = state.train_step(*x)
        out.work.append((now() - t, 1, traced))
        losses.append(loss)
        out.op(bool(np.isfinite(loss)), f"non-finite loss {loss} at step {state.step}")

    def evaluate(partial, image, gt) -> float:
        traced = tr is not None and len(out.evals) % 2 == 1
        state.model.eval()
        t = now()
        if traced:
            with tr.unit("eval"):
                pred = tracing.forward(tr, state.model, partial, image)[1].data
                rep = metrics.evaluate_pair(pred.astype(np.float64), gt)
        else:
            pred = state.model(partial, image)["p_gen2"].data
            rep = metrics.evaluate_pair(pred.astype(np.float64), gt)
        out.evals.append((now() - t, traced))
        out.op(pred.shape == (n, 3), f"eval output shape {pred.shape}, expected ({n}, 3)")
        return rep.cd_l1

    while len(losses) < k or now() - t0 < seconds:
        train(train_set[(len(losses) + 1) % len(train_set)])
        if len(losses) == k:
            cds = [evaluate(*x) for x in eval_set]
        else:
            evaluate(*eval_set[len(out.evals) % len(eval_set)])
    out.info.update(train_loss_first=losses[0], train_loss_final=losses[k - 1],
                    eval_cd_l1=float(np.mean(cds)))


def _setup_model(profile: str, seed: int, train_set, out: Outcome):
    """Build the model and run one warm-up step, ``SETUPS`` times."""
    cfg = make_config(profile)
    times, warm, state = [], [], None
    for _ in range(SETUPS):
        state = None  # free the previous model before building the next
        t = now()
        state = TrainState(DuInNet(cfg, seed=seed))
        warm.append(state.train_step(*train_set[0]))
        times.append(now() - t)
    out.info["warmup_loss"] = warm[0]
    out.op(len(set(warm)) == 1 and np.isfinite(warm[0]), f"warm-up losses differ: {warm}")
    return state, statistics.median(times)


def _check_reference(out: Outcome, workload: str, seed: int) -> None:
    """On seed 0 the first two losses must match the recorded ones."""
    if seed != 0:
        return
    got = (out.info["warmup_loss"], out.info["train_loss_first"])
    for value, ref, rtol in zip(got, REFERENCE[workload]["losses"], LOSS_RTOL):
        out.check(abs(value - ref) <= rtol * abs(ref), f"loss {value!r} vs reference {ref!r}",
                  n=1)


def model_workload(profile: str, seed: int, seconds: float, start: float, trace: bool):
    cfg = make_config(profile)
    train_set = inputs.triples(seed, 2, TRAIN_INPUTS, cfg.N, cfg.image_side)
    eval_set = inputs.triples(seed, 3, EVAL_INPUTS[profile], cfg.N, cfg.image_side)
    out = Outcome()
    setup_begin = now()
    state, setup_median = _setup_model(profile, seed, train_set, out)
    setup_s = setup_begin - start + setup_median
    if not trace:
        _model_pass(out, profile, state, train_set, eval_set, seconds, None)
        _check_reference(out, profile, seed)
        return out, out.metrics(setup_s), None

    # The composed step must be the same arithmetic as TrainState.train_step.
    snap = snapshot(state)
    expected = state.train_step(*train_set[1])
    restore(state, snap)
    got = tracing.train_step(tracing.Tracer(), state, *train_set[1])
    out.op(got == expected, f"composed step loss {got!r} != train_step loss {expected!r}")

    tr = tracing.Tracer()
    _model_pass(out, profile, state, train_set, eval_set, seconds, tr)
    layers = tr.per_layer()
    layers["tensor.loss_peak_mib"] = loss_peak_mib(state, *train_set[0])
    layers.update(out.overhead())
    return out, out.metrics(setup_s), (layers, tr)


def loss_peak_mib(state: TrainState, partial, image, gt) -> float:
    """Peak traced memory of the loss forward plus the whole backward pass."""
    state.model.train()
    state.opt.zero_grad()
    res = state.model(partial, image)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = network.completion_loss(res["p_gen1"], res["p_gen2"], gt)
        loss.backward()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


# -- synth -------------------------------------------------------------------------


def _digest(roots: list[Path]) -> str:
    """SHA-256 over the PLY and raster files (relative path, then bytes)."""
    h = hashlib.sha256()
    for root in roots:
        for f in sorted(root.rglob("*")):
            if f.suffix in (".ply", ".raster"):
                h.update(str(f.relative_to(root.parent)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def _generate(out: Outcome, cfg: GenConfig, model_id: str, path: Path, root: Path,
              tr: tracing.Tracer | None) -> list:
    """``generate_dataset`` for one mesh into ``root/model_id``; its records."""
    t = now()
    manifest, report = datasetgen.generate_dataset(
        {("synthetic", model_id): path}, cfg, root / model_id)
    views = len(manifest.records)
    out.work.append((now() - t, views, tr is not None))
    on_disk = len(list((root / model_id).rglob("image.raster")))
    out.op(views > 0 and not report["mesh_errors"] and views == report["records"] == on_disk,
           f"{model_id}: {views} records, {on_disk} rasters, "
           f"errors {report['mesh_errors']}", n=cfg.n_viewpoints)
    if tr:
        tr.count("datasetgen.views_written", views)
        tr.count("datasetgen.views_excluded", len(report["excluded_viewpoints"]))
    return manifest.records


def _read_back(out: Outcome, cfg: GenConfig, root: Path, rec, traced: bool) -> float:
    """Load one written record, check it, and score partial against complete."""
    t = now()
    complete = geometry.load_cloud_ply(root / rec.complete_path)
    partial = geometry.load_cloud_ply(root / rec.partial_path)
    image = datasetgen.load_raster(root / rec.image_path)
    rep = metrics.evaluate_pair(partial, complete)
    out.evals.append((now() - t, traced))
    ratio = len(partial) / cfg.n_points
    out.op(len(complete) == cfg.n_points and cfg.min_ratio <= ratio <= cfg.max_ratio
           and image.shape == (cfg.image_side, cfg.image_side, 3),
           f"{rec.record_id}: complete {len(complete)}, ratio {ratio}, image {image.shape}")
    return rep.cd_l1


def _synth_pass(out: Outcome, cfg: GenConfig, meshes: dict[str, Path], work: Path,
                seconds: float, tr: tracing.Tracer | None) -> None:
    """Generation rounds while one more fits in ``seconds``.

    After each ``generate_dataset`` call its records are read back, for at
    least one pass and about a ninth of the call's time, so reading is
    sampled across the run. With a tracer, every second round and read-back
    record is traced.
    """
    min_items = 2 if tr else 1  # a traced run needs an untraced and a traced one
    t0 = now()
    digests, cds = [], []
    last = 0.0
    while len(digests) < min_items or now() - t0 + last <= seconds:
        t_round = now()
        root = work / f"round{len(digests)}"
        for model_id, path in meshes.items():
            t = now()
            if tr and len(digests) % 2 == 1:
                with tr.unit("model"):
                    written = _generate(out, cfg, model_id, path, root, tr)
            else:
                written = _generate(out, cfg, model_id, path, root, None)
            t_read = now()
            budget = (t_read - t) / 9
            i = 0
            while written and (i < max(len(written), min_items) or now() - t_read < budget):
                rec = written[i % len(written)]
                if tr and len(out.evals) % 2 == 1:
                    with tr.unit("readback"):
                        cd = _read_back(out, cfg, root / model_id, rec, True)
                else:
                    cd = _read_back(out, cfg, root / model_id, rec, False)
                if not digests and i < len(written):
                    cds.append(cd)
                i += 1
        digests.append(_digest([root / m for m in meshes]))
        last = now() - t_round
    out.check(len(set(digests)) == 1, f"rounds are not byte-identical: {digests}",
              n=out.attempted)
    out.info.update(digest=digests[0], rounds=len(digests),
                    partial_cd_l1=float(np.mean(cds)))


def synth_workload(seed: int, seconds: float, start: float, trace: bool, work: Path):
    cfg = GenConfig(seed=seed, **SYNTH_CFG)
    warm_cfg = GenConfig(n_points=64, n_viewpoints=2, image_side=32, seed=seed)
    out = Outcome()
    setup_begin = now()
    times = []
    for i in range(SETUPS):
        t = now()
        mesh_dir = work / f"meshes{i}"
        mesh_dir.mkdir(parents=True)
        meshes = {}
        for model_id, (v, f) in inputs.synth_meshes(seed).items():
            meshes[model_id] = mesh_dir / f"{model_id}.off"
            inputs.write_off(meshes[model_id], v, f)
        datasetgen.generate_dataset({("synthetic", "box"): meshes["box"]}, warm_cfg,
                                    work / f"warmup{i}")
        times.append(now() - t)
    setup_s = setup_begin - start + statistics.median(times)

    tr = tracing.Tracer(max_ratio=cfg.max_ratio) if trace else None
    _synth_pass(out, cfg, meshes, work / "rounds", seconds, tr)
    if not trace:
        if seed == 0:
            out.check(out.info["digest"] == REFERENCE["synth"]["digest"],
                      f"digest {out.info['digest']} differs from the reference",
                      n=out.attempted)
        return out, out.metrics(setup_s), None
    # Traced generation units are single generate_dataset calls; report
    # per round, which is every second round of the run.
    layers = tr.per_layer({"model": out.info["rounds"] // 2})
    layers["datasetgen.views_written_ratio"] = (
        layers["datasetgen.views_written"] / (len(meshes) * cfg.n_viewpoints))
    layers.update(out.overhead())
    return out, out.metrics(setup_s), (layers, tr)
