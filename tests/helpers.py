"""Shared fixtures-in-code: brute-force oracles and small mesh builders.

Oracles are deliberately written in the most literal way possible (double
loops, full sorts, step-by-step greedy replay) so they are independent of the
accelerated implementations they validate.
"""

from __future__ import annotations

import heapq
import threading

import numpy as np
from scipy.spatial import cKDTree

from duinnet import tensor as T
from duinnet.datasetgen import UNSEEN_CATEGORIES, Manifest, SampleRecord
from duinnet.geometry import PointCloud, TriMesh
from duinnet.metrics import MetricReport


# -- brute-force metric oracles ----------------------------------------------------


def chamfer_l1_oracle(p: np.ndarray, q: np.ndarray) -> float:
    """Half-mean Euclidean nearest-neighbor distance per direction, double loop."""
    def side(a, b):
        total = 0.0
        for x in a:
            best = min(float(np.sqrt(((x - y) ** 2).sum())) for y in b)
            total += best
        return total / len(a)
    return 0.5 * side(p, q) + 0.5 * side(q, p)


def chamfer_l2_oracle(p: np.ndarray, q: np.ndarray) -> float:
    """Mean squared nearest-neighbor distance per direction, no halving."""
    def side(a, b):
        total = 0.0
        for x in a:
            best = min(float(((x - y) ** 2).sum()) for y in b)
            total += best
        return total / len(a)
    return side(p, q) + side(q, p)


def fscore_oracle(p: np.ndarray, q: np.ndarray, d: float):
    """Precision/recall/F against a squared-distance threshold, double loop."""
    def frac_within(a, b):
        hits = 0
        for x in a:
            best = min(float(((x - y) ** 2).sum()) for y in b)
            hits += best < d
        return hits / len(a)
    prec = frac_within(p, q)
    rec = frac_within(q, p)
    f = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
    return prec, rec, f


def evaluate_pair_three_pass_oracle(pred, gt, d: float = 0.001):
    """The former ``metrics.evaluate_pair``: F-Score, l1 and l2 Chamfer each
    build two k-d trees and query both ways (6 builds, 6 queries a pair)."""
    def both_ways(p, q):
        pa = np.asarray(getattr(p, "points", p), dtype=np.float64)
        qa = np.asarray(getattr(q, "points", q), dtype=np.float64)
        dpq, _ = cKDTree(qa).query(pa, k=1)
        dqp, _ = cKDTree(pa).query(qa, k=1)
        return dpq * dpq, dqp * dqp

    dpq, dqp = both_ways(pred, gt)
    precision = float((dpq < d).mean())
    recall = float((dqp < d).mean())
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    dpq, dqp = both_ways(pred, gt)
    cd_l1 = 0.5 * np.sqrt(dpq).mean() + 0.5 * np.sqrt(dqp).mean()
    dpq, dqp = both_ways(pred, gt)
    cd_l2 = dpq.mean() + dqp.mean()
    return MetricReport(cd_l1=cd_l1, cd_l2=cd_l2, precision=precision, recall=recall,
                        fscore=f, threshold_d=d)


# -- greedy / sort oracles ------------------------------------------------------


def fps_replay_oracle(points: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Step-by-step greedy max-min replay starting from a given seed index."""
    n = len(points)
    chosen = [seed]
    for _ in range(m - 1):
        best_idx, best_d = -1, -1.0
        for i in range(n):
            di = min(float(np.linalg.norm(points[i] - points[j])) for j in chosen)
            if di > best_d:  # strict: ties keep the lowest index
                best_idx, best_d = i, di
        chosen.append(best_idx)
    return np.array(chosen, dtype=np.int64)


def knn_sort_oracle(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Full stable sort of all distances per query."""
    out = []
    for q in np.atleast_2d(queries):
        d = [float(((q - p) ** 2).sum()) for p in points]
        order = sorted(range(len(points)), key=lambda i: (d[i], i))
        out.append(order[:k])
    return np.array(out, dtype=np.int64)


def fps_norm_loop_oracle(points: np.ndarray, m: int, seed_rule: str = "first_index") -> np.ndarray:
    """The former ``geometry.fps``: an (n, 3) difference and ``np.linalg.norm``
    per step."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if not 1 <= m <= n:
        raise ValueError(f"fps: m={m} out of range for {n} points")
    if seed_rule == "first_index":
        seed = 0
    elif seed_rule == "farthest_from_centroid":
        d = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        seed = int(np.argmax(d))
    else:
        raise ValueError(f"unknown seed_rule {seed_rule!r}")
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = seed
    mind = np.linalg.norm(pts - pts[seed], axis=1)
    for i in range(1, m):
        nxt = int(np.argmax(mind))
        chosen[i] = nxt
        np.minimum(mind, np.linalg.norm(pts - pts[nxt], axis=1), out=mind)
    return chosen


def knn_argsort_oracle(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """The former ``geometry.knn``: an (m, n, 3) difference and a full stable
    argsort of every row."""
    pts = np.asarray(points, dtype=np.float64)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if k > len(pts):
        raise ValueError(f"knn: k={k} exceeds cloud size {len(pts)}")
    d2 = ((q[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def chamfer_dense_oracle(a: T.Tensor, b: T.Tensor):
    """The former ``network.chamfer_l1_t``: an (|a|, |b|, 3) difference on the
    tape and ``reduce_min`` both ways. Returns the loss and the chosen nearest
    indices (of ``b`` per point of ``a``, of ``a`` per point of ``b``)."""
    an = T.reshape(a, (a.shape[0], 1, 3))
    bn = T.reshape(b, (1, b.shape[0], 3))
    diff = T.sub(an, bn)
    d2 = T.reduce_sum(T.mul(diff, diff), axis=2)          # (|a|, |b|)
    dab, idx_ab = T.reduce_min(d2, axis=1)
    dba, idx_ba = T.reduce_min(d2, axis=0)
    half = T.tensor(0.5, dtype=a.dtype)
    loss = T.add(T.mul(T.reduce_mean(T.sqrt_safe(dab)), half),
                 T.mul(T.reduce_mean(T.sqrt_safe(dba)), half))
    return loss, idx_ab, idx_ba


def conv2d_im2col_oracle(x: T.Tensor, w: T.Tensor, b: T.Tensor | None, stride: int = 1,
                         padding: int = 0) -> T.Tensor:
    """The former ``tensor.conv2d``: an (Ho*Wo, kh*kw*Cin) im2col matrix, one
    GEMM, and col2im in backward."""
    H, W, Cin = x.shape
    kh, kw, wcin, Cout = w.shape
    if wcin != Cin:
        raise T.DimensionError(f"conv2d channel mismatch: input {x.shape}, weight {w.shape}")
    xp = np.pad(x.data, ((padding, padding), (padding, padding), (0, 0)))
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    cols = np.empty((Ho * Wo, kh * kw * Cin), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = xp[i : i + Ho * stride : stride, j : j + Wo * stride : stride, :]
            cols[:, (i * kw + j) * Cin : (i * kw + j + 1) * Cin] = patch.reshape(Ho * Wo, Cin)
    wmat = w.data.reshape(kh * kw * Cin, Cout)
    out_data = cols @ wmat
    if b is not None:
        out_data = out_data + b.data
    out_data = out_data.reshape(Ho, Wo, Cout)
    parents = (x, w) if b is None else (x, w, b)

    def bw(g):
        gmat = g.reshape(Ho * Wo, Cout)
        if b is not None and (b.requires_grad or b._parents):
            b._accumulate(gmat.sum(axis=0))
        if w.requires_grad or w._parents:
            w._accumulate((cols.T @ gmat).reshape(w.shape))
        if x.requires_grad or x._parents:
            dcols = gmat @ wmat.T
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[i : i + Ho * stride : stride, j : j + Wo * stride : stride, :] += dcols[
                        :, (i * kw + j) * Cin : (i * kw + j + 1) * Cin
                    ].reshape(Ho, Wo, Cin)
            if padding:
                dxp = dxp[padding:-padding, padding:-padding, :]
            x._accumulate(dxp)

    return T._make(out_data, "conv2d", parents, bw)


def gather_add_at_oracle(a: T.Tensor, indices, axis: int = 0) -> T.Tensor:
    """The former ``tensor.gather``: backward scatters with ``np.add.at``."""
    idx = np.asarray(indices, dtype=np.int64)

    def bw(g):
        acc = np.zeros_like(a.data)
        np.add.at(acc, tuple([slice(None)] * axis + [idx]), g)
        a._accumulate(acc)

    return T._make(np.take(a.data, idx, axis=axis), "gather", (a,), bw)


def reduce_select_add_at_oracle(a: T.Tensor, axis: int, argfn, valfn):
    """The former ``tensor._reduce_select`` (``reduce_max`` with ``np.argmax``
    and ``np.max``): backward scatters with ``np.add.at`` over an index grid."""
    idx = argfn(a.data, axis=axis)
    out_data = valfn(a.data, axis=axis)

    def bw(g):
        acc = np.zeros_like(a.data)
        grid = np.indices(idx.shape)
        sl = list(grid)
        sl.insert(axis, idx)
        np.add.at(acc, tuple(sl), g)
        a._accumulate(acc)

    return T._make(out_data, "reduce_select", (a,), bw), idx


def batch_norm_1d_stored_oracle(x: T.Tensor, gain: T.Tensor, bias: T.Tensor,
                                running_mean: np.ndarray, running_var: np.ndarray,
                                training: bool, momentum: float = 0.1,
                                eps: float = 1e-5) -> T.Tensor:
    """The former ``tensor.batch_norm_1d``: out-of-place arithmetic, and the
    closure keeps the normalized input ``xhat``."""
    if training:
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        n = x.shape[0]
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * (var * n / max(n - 1, 1))
    else:
        mu = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        if gain.requires_grad or gain._parents:
            gain._accumulate((g * xhat).sum(axis=0))
        if bias.requires_grad or bias._parents:
            bias._accumulate(g.sum(axis=0))
        if x.requires_grad or x._parents:
            gx = g * gain.data
            if training:
                t1 = gx.mean(axis=0)
                t2 = (gx * xhat).mean(axis=0)
                x._accumulate(inv * (gx - t1 - xhat * t2))
            else:
                x._accumulate(gx * inv)

    return T._make(out_data, "batch_norm_1d", (x, gain, bias), bw)


def linear_unfused_oracle(x: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """The former ``nn.Linear`` body: a matmul node, then a bias-add node."""
    return T.add(T.matmul(x, w), b)


def adam_per_array_oracle(params: list[T.Tensor], m: list[np.ndarray], v: list[np.ndarray],
                          t: int, lr: float) -> None:
    """The former ``nn.Adam.step`` at step ``t`` (counted from 1): one pass over
    each parameter's own arrays, skipping a parameter without a gradient."""
    b1, b2 = 0.9, 0.999
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for p, mi, vi in zip(params, m, v):
        if p.grad is None:
            continue
        g = p.grad
        mi *= b1
        mi += (1 - b1) * g
        vi *= b2
        vi += (1 - b2) * g * g
        p.data -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + 1e-8)


# -- synthesis oracles ---------------------------------------------------------


def eliminate_samples_oracle(pts: np.ndarray, n: int, r_max: float,
                             removed_weights: list | None = None) -> np.ndarray:
    """Weighted sample elimination as a per-neighbour loop with one heap push
    per weight update: the reference for ``geometry._eliminate_samples``.

    ``removed_weights``, when given, receives each removed sample's weight at
    its removal, in removal order."""
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r_max, output_type="ndarray")
    m = len(pts)
    neighbors: list[list[int]] = [[] for _ in range(m)]
    weights = np.zeros(m)
    if len(pairs):
        d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        w = (1.0 - d / r_max) ** 8
        for (i, j), wij in zip(pairs, w):
            neighbors[i].append(j)
            neighbors[j].append(i)
            weights[i] += wij
            weights[j] += wij
    alive = np.ones(m, dtype=bool)
    heap = [(-weights[i], i) for i in range(m)]
    heapq.heapify(heap)
    remaining = m
    while remaining > n:
        negw, i = heapq.heappop(heap)
        if not alive[i]:
            continue
        if -negw != weights[i]:  # stale entry
            heapq.heappush(heap, (-weights[i], i))
            continue
        alive[i] = False
        remaining -= 1
        if removed_weights is not None:
            removed_weights.append(weights[i])
        for j in neighbors[i]:
            if alive[j]:
                d = np.linalg.norm(pts[i] - pts[j])
                weights[j] -= (1.0 - d / r_max) ** 8
                heapq.heappush(heap, (-weights[j], j))
    return np.flatnonzero(alive)


def save_cloud_ply_oracle(path, cloud: PointCloud) -> None:
    """The former ``geometry.save_cloud_ply``: one f-string write per point."""
    pts = cloud.points.astype(np.float32)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("end_header\n")
        for x, y, z in pts:
            f.write(f"{x:.8g} {y:.8g} {z:.8g}\n")


def render_depth_oracle(mesh: TriMesh, vp, side: int = 224,
                        camera_distance: float = 1.5) -> np.ndarray:
    """Per-face loop z-buffer: the reference for ``datasetgen.render_depth_image``."""
    right, up, forward = vp.basis()
    cam = vp.position * camera_distance
    rel = mesh.vertices - cam
    xs = rel @ right
    ys = rel @ up
    zs = rel @ forward
    scale = side / 1.8
    px = xs * scale + side / 2.0
    py = side / 2.0 - ys * scale
    zbuf = np.full((side, side), np.inf)
    for f in mesh.faces:
        if np.all(zs[f] <= 0):
            continue
        tx, ty, tz = px[f], py[f], zs[f]
        x0, x1 = int(max(np.floor(tx.min()), 0)), int(min(np.ceil(tx.max()), side - 1))
        y0, y1 = int(max(np.floor(ty.min()), 0)), int(min(np.ceil(ty.max()), side - 1))
        if x1 < x0 or y1 < y0:
            continue
        det = (ty[1] - ty[2]) * (tx[0] - tx[2]) + (tx[2] - tx[1]) * (ty[0] - ty[2])
        if abs(det) < 1e-12:
            continue
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1) + 0.5, np.arange(y0, y1 + 1) + 0.5)
        w0 = ((ty[1] - ty[2]) * (gx - tx[2]) + (tx[2] - tx[1]) * (gy - ty[2])) / det
        w1 = ((ty[2] - ty[0]) * (gx - tx[2]) + (tx[0] - tx[2]) * (gy - ty[2])) / det
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            continue
        z = w0 * tz[0] + w1 * tz[1] + w2 * tz[2]
        inside &= z > 0
        sub = zbuf[y0 : y1 + 1, x0 : x1 + 1]
        better = inside & (z < sub)
        sub[better] = z[better]
    covered = np.isfinite(zbuf)
    img = np.zeros((side, side), dtype=np.float32)
    if covered.any():
        z = zbuf[covered]
        zmin, zmax = z.min(), z.max()
        span = max(zmax - zmin, 1e-9)
        img[covered] = (0.25 + 0.75 * (zmax - z) / span).astype(np.float32)
    return np.repeat(img[:, :, None], 3, axis=2)


# -- model oracles ---------------------------------------------------------------


def attention_per_head_oracle(blk, q_src, kv_src):
    """``blk``'s forward with one gather/matmul/softmax/matmul chain per head.

    Builds the graph on ``blk``'s own parameters, with the heads concatenated
    back along the channels. Returns (output tensor, list of per-head (M, L)
    weights).
    """
    q = blk.q_proj(q_src)
    k = blk.k_proj(kv_src)
    v = blk.v_proj(kv_src)
    dh = blk.C // blk.heads
    scale = 1.0 / np.sqrt(dh)
    head_outs, weights = [], []
    for h in range(blk.heads):
        cols = np.arange(h * dh, (h + 1) * dh)
        qh = T.gather(q, cols, axis=1)
        kh = T.gather(k, cols, axis=1)
        vh = T.gather(v, cols, axis=1)
        scores = T.mul(T.matmul(qh, T.transpose(kh)), T.tensor(scale, dtype=q.dtype))
        w = T.softmax(scores, axis=-1)
        weights.append(w.data.copy())
        head_outs.append(T.matmul(w, vh))
    attn = blk.out_proj(T.concat(head_outs, axis=1))
    x = blk.norm1(T.add(q, attn))
    ff = blk.ffn2(T.relu(blk.ffn1(x)))
    return blk.norm2(T.add(x, ff)), weights


# -- mesh builders --------------------------------------------------------------


def uv_sphere(rows: int = 12, cols: int = 24, radius: float = 1.0) -> TriMesh:
    """Latitude/longitude triangulated sphere with two pole vertices."""
    verts = [(0.0, 0.0, radius)]
    for i in range(1, rows):
        theta = np.pi * i / rows
        for j in range(cols):
            phi = 2 * np.pi * j / cols
            verts.append((radius * np.sin(theta) * np.cos(phi),
                          radius * np.sin(theta) * np.sin(phi),
                          radius * np.cos(theta)))
    verts.append((0.0, 0.0, -radius))
    south = len(verts) - 1
    faces = []
    ring = lambda i, j: 1 + (i - 1) * cols + (j % cols)
    for j in range(cols):
        faces.append((0, ring(1, j), ring(1, j + 1)))
        faces.append((south, ring(rows - 1, j + 1), ring(rows - 1, j)))
    for i in range(1, rows - 1):
        for j in range(cols):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append((a, c, d))
            faces.append((a, d, b))
    return TriMesh(np.array(verts), np.array(faces))


def box_mesh(dx: float = 1.0, dy: float = 0.7, dz: float = 0.5) -> TriMesh:
    h = np.array([dx, dy, dz]) / 2.0
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=np.float64) * h
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5),      # x faces
        (0, 4, 5, 1), (2, 3, 7, 6),      # y faces
        (0, 2, 6, 4), (1, 5, 7, 3),      # z faces
    ]
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return TriMesh(corners, np.array(faces))


def square_mesh() -> TriMesh:
    """Unit square in the z=0 plane, two triangles."""
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=np.float64)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(verts, faces)


def save_off(path, mesh: TriMesh) -> None:
    with open(path, "w") as f:
        f.write("OFF\n")
        f.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            f.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for face in mesh.faces:
            f.write(f"3 {face[0]} {face[1]} {face[2]}\n")


# -- synthetic manifests ---------------------------------------------------------

MODELNET40 = sorted(set(UNSEEN_CATEGORIES) | {
    "airplane", "bathtub", "bed", "bench", "bookshelf", "bottle", "car", "chair",
    "cone", "desk", "door", "dresser", "flower_pot", "glass_box", "guitar", "lamp",
    "laptop", "mantel", "monitor", "night_stand", "person", "piano", "plant",
    "range_hood", "sofa", "table", "toilet", "tv_stand", "vase", "xbox"})


def synthetic_manifest(categories, models_per_cat=2, n_viewpoints=32) -> Manifest:
    """An in-memory manifest with the given category/model structure (no files)."""
    records = []
    for cat in categories:
        for m in range(models_per_cat):
            mid = f"{cat}_{m:04d}"
            for v in range(n_viewpoints):
                records.append(SampleRecord(
                    model_id=mid, category=cat, viewpoint_id=v,
                    complete_path=f"{cat}/{mid}/complete.ply",
                    partial_path=f"{cat}/{mid}/vp_{v}/partial.ply",
                    noisy_path=f"{cat}/{mid}/vp_{v}/partial_noisy.ply",
                    image_path=f"{cat}/{mid}/vp_{v}/image.raster"))
    return Manifest(name="synthetic", config={}, config_hash="0" * 16,
                    categories=sorted(categories), records=records)


# -- fixture shapes for the overfit harness ---------------------------------------


def overfit_shapes(n_shapes: int = 8, n_points: int = 256, image_side: int = 32):
    """Deterministic (partial, image, complete) triples at the mini profile.

    Alternates squashed spherical shells (Fibonacci lattice points) and
    uniform boxes; the partial is the upper half by z, the image a flat
    intensity patch unique to each shape.
    """
    rng = np.random.default_rng(42)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    i = np.arange(n_points)
    z = 1.0 - (2.0 * i + 1.0) / n_points
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = 2.0 * np.pi * i / golden
    sphere = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    shapes = []
    for s in range(n_shapes):
        scale = rng.uniform(0.3, 0.5, size=3)
        if s % 2 == 0:
            pts = sphere * scale
        else:
            pts = rng.uniform(-0.5, 0.5, (n_points, 3)) * scale * 2
        pts = pts - pts.mean(axis=0)
        partial = pts[pts[:, 2] > np.median(pts[:, 2])]
        img = np.zeros((image_side, image_side, 3), dtype=np.float32)
        q = image_side // 4
        img[q:-q, q:-q] = s / n_shapes
        shapes.append((partial, img, pts))
    return shapes


def run_within(seconds: float, fn):
    """``fn()`` on a daemon thread: its result, or its error re-raised. A call
    still running after ``seconds`` (deadlocked, say) fails the test at once
    and is left behind."""
    out: dict = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the test's thread
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]
