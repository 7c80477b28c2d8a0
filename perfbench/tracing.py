"""Span tracing for the per-layer report, installed from outside the program.

The tracer rebinds public functions of ``duinnet`` modules to timing
wrappers, so calls made from inside the library are seen too (every module
calls them through their module attribute, e.g. ``geometry.fps`` or
``T.matmul``). A span is ``[name, start, end, parent, unit]``: ``parent`` is
the index of the enclosing span and ``unit`` the id shared by all spans of
one train step, eval sample, ``generate_dataset`` call or read-back record.
Spans stay in memory and
are written out when the run ends. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from duinnet import datasetgen, geometry, metrics
from duinnet import tensor as T
from duinnet.model import network

# Public tensor ops the model uses; each gets a ``tensor.<op>.s`` self time.
TENSOR_OPS = (
    "add", "sub", "mul", "relu", "sqrt_safe", "matmul", "transpose", "reshape",
    "concat", "gather", "reduce_sum", "reduce_mean", "reduce_max", "reduce_min",
    "softmax", "layer_norm", "batch_norm_1d", "conv2d",
)
TAPE_OPS = ("gather", "matmul", "conv2d")
SYNTH_MODELS = ("box", "sphere9024")
MODEL_LAYERS = ("point_encoder", "image_encoder", "dfi", "apg", "assemble_outputs",
                "completion_loss")

# (name, unit, better) of every per-layer metric, in report order. "s"
# metrics are seconds per unit of work: one train step plus one eval sample
# on the model workloads, one generation round over both meshes plus one
# read-back record on ``synth``. Layers a workload never runs report 0.
PER_LAYER = (
    [("geometry.poisson_disk_sample.s", "s", "lower"),
     ("geometry.hidden_point_removal.s", "s", "lower"),
     ("geometry.hpr_jittered", "count", "lower"),
     ("geometry.save_cloud_ply.s", "s", "lower"),
     ("geometry.fps.s", "s", "lower"),
     ("geometry.fps.calls", "count", "lower"),
     ("geometry.knn.s", "s", "lower"),
     ("geometry.knn.calls", "count", "lower"),
     ("datasetgen.render_depth_image.s", "s", "lower"),
     ("datasetgen.save_raster.s", "s", "lower")]
    + [(f"datasetgen.synthesize_model.{m}.{k}", "s", "lower")
       for m in SYNTH_MODELS for k in ("s", "self_s")]
    + [("datasetgen.views_written", "count", "higher"),
       ("datasetgen.views_clamped", "count", "lower"),
       ("datasetgen.views_excluded", "count", "lower"),
       ("datasetgen.views_written_ratio", "ratio", "higher")]
    + [(f"model.{m}.{k}", "s", "lower") for m in MODEL_LAYERS for k in ("s", "self_s")]
    + [("tensor.backward.s", "s", "lower"),
       ("tensor.tape_nodes", "count", "lower")]
    + [(f"tensor.tape_nodes.{op}", "count", "lower") for op in TAPE_OPS]
    + [(f"tensor.{op}.s", "s", "lower") for op in TENSOR_OPS]
    + [("tensor.loss_peak_mib", "MiB", "lower"),
       ("nn.adam_step.s", "s", "lower"),
       ("metrics.evaluate_pair.s", "s", "lower"),
       ("trace.work_overhead_s", "s", "lower"),
       ("trace.eval_overhead_s", "s", "lower")]
)

# Span names reported as inclusive time (".s") plus self time (".self_s");
# every other span reports its self time as ".s".
_COMPOSITE = tuple(f"model.{m}" for m in MODEL_LAYERS) + tuple(
    f"datasetgen.synthesize_model.{m}" for m in SYNTH_MODELS)


class Tracer:
    """Spans and counts of the traced units of one run.

    ``max_ratio`` is the generator's visible-ratio cap, above which a hidden
    point removal result counts as a clamped view.
    """

    def __init__(self, max_ratio: float = 1.0):
        self.max_ratio = max_ratio
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit_id = -1
        self.unit_phase: dict[int, str] = {}
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(i)

    @contextmanager
    def unit(self, phase: str):
        """Trace one unit of work in ``phase``: wrappers on, under one root span."""
        self.install()
        self.unit_id += 1
        self.unit_phase[self.unit_id] = phase
        i = self.begin(phase)
        try:
            yield
        finally:
            self.end(i)
            self.uninstall()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.unit_phase.get(self.unit_id, "")][name] += n

    # -- wrappers ------------------------------------------------------------

    def _rebind(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _timed(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        self._rebind(module, attr, lambda *a, **k: self.call(name, fn, *a, **k))

    def install(self) -> None:
        """Wrap every traced public function; ``uninstall`` undoes it."""
        for op in TENSOR_OPS:
            self._timed(T, op, f"tensor.{op}")
        for attr in ("fps", "knn", "poisson_disk_sample", "save_cloud_ply"):
            self._timed(geometry, attr, f"geometry.{attr}")
        for attr in ("render_depth_image", "save_raster"):
            self._timed(datasetgen, attr, f"datasetgen.{attr}")
        self._timed(metrics, "evaluate_pair", "metrics.evaluate_pair")

        hpr = geometry.hidden_point_removal

        def hidden_point_removal(cloud, *args, **kwargs):
            res = self.call("geometry.hidden_point_removal", hpr, cloud, *args, **kwargs)
            self.count("geometry.hpr_jittered", int(res.jittered))
            self.count("datasetgen.views_clamped",
                       int(len(res.indices) > self.max_ratio * len(cloud)))
            return res

        synth = datasetgen.synthesize_model

        def synthesize_model(mesh, model_id, *args, **kwargs):
            return self.call(f"datasetgen.synthesize_model.{model_id}", synth,
                             mesh, model_id, *args, **kwargs)

        self._rebind(geometry, "hidden_point_removal", hidden_point_removal)
        self._rebind(datasetgen, "synthesize_model", synthesize_model)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- report ----------------------------------------------------------------

    def per_layer(self, units: dict[str, int] | None = None) -> dict[str, float]:
        """Per-layer values: each phase's totals over its unit count, summed.

        ``units`` overrides the count of traced units for some phases.
        """
        ops_per_phase = {**Counter(self.unit_phase.values()), **(units or {})}
        child = np.zeros(len(self.spans))
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _, unit), c in zip(self.spans, child):
            n = ops_per_phase.get(self.unit_phase.get(unit, ""), 0)
            if not n:
                continue
            incl[name] += (t1 - t0) / n
            own[name] += (t1 - t0 - c) / n
            calls[name] += 1.0 / n
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        for name in incl:
            if name in _COMPOSITE:
                out[f"{name}.s"] = incl[name]
                out[f"{name}.self_s"] = own[name]
            elif f"{name}.s" in out:
                out[f"{name}.s"] = own[name]
        out["geometry.fps.calls"] = calls["geometry.fps"]
        out["geometry.knn.calls"] = calls["geometry.knn"]
        for phase, counter in self.counts.items():
            n = ops_per_phase.get(phase, 0)
            for name, v in counter.items():
                if n and name in out:
                    out[name] += v / n
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            json.dump({"phases": self.unit_phase, "spans": self.spans}, f)


# -- the traced model step, composed from the model's public submodules ------


def forward(tr: Tracer, model, partial, image):
    """The body of ``DuInNet.forward``, one span per submodule."""
    cfg = model.cfg
    pts = np.asarray(partial, dtype=np.float64)
    up = geometry.resample_to(geometry.PointCloud(pts), cfg.N).points
    f_pc = tr.call("model.point_encoder", model.point_encoder, up)
    f_img = tr.call("model.image_encoder", model.image_encoder, image)
    f_pc_fu, f_img_fu = tr.call("model.dfi", model.dfi, f_pc, f_img)
    p_gen1 = tr.call("model.apg", model.apg, f_pc_fu, f_img_fu)
    p_gen2 = tr.call("model.assemble_outputs", network.assemble_outputs,
                     p_gen1, pts.astype(p_gen1.data.dtype), cfg.N)
    return p_gen1, p_gen2


def train_step(tr: Tracer, state, partial, image, gt) -> float:
    """``TrainState.train_step`` (no learning-rate schedule), traced."""
    state.model.train()
    state.opt.zero_grad()
    p_gen1, p_gen2 = forward(tr, state.model, partial, image)
    loss = tr.call("model.completion_loss", network.completion_loss, p_gen1, p_gen2, gt)
    tape = tr.call("tensor.backward", loss.backward)
    tr.count("tensor.tape_nodes", len(tape))
    ops = Counter(node._op for node in tape.entries)
    for op in TAPE_OPS:
        tr.count(f"tensor.tape_nodes.{op}", ops[op])
    tr.call("nn.adam_step", state.opt.step)
    state.step += 1
    return float(loss.data)
