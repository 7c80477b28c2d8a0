"""Shared fixtures-in-code: brute-force oracles and small mesh builders.

Oracles are deliberately written in the most literal way possible (double
loops, full sorts, step-by-step greedy replay) so they are independent of the
accelerated implementations they validate.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.spatial import cKDTree

from duinnet.datasetgen import UNSEEN_CATEGORIES, Manifest, SampleRecord
from duinnet.geometry import TriMesh


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


# -- synthesis oracles ---------------------------------------------------------


def eliminate_samples_oracle(pts: np.ndarray, n: int, r_max: float) -> np.ndarray:
    """Weighted sample elimination as a per-neighbour loop with one heap push
    per weight update: the reference for ``geometry._eliminate_samples``."""
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
        for j in neighbors[i]:
            if alive[j]:
                d = np.linalg.norm(pts[i] - pts[j])
                weights[j] -= (1.0 - d / r_max) ** 8
                heapq.heappush(heap, (-weights[j], j))
    return np.flatnonzero(alive)


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
