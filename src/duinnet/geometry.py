"""Deterministic point-set and mesh algorithms.

Covers the sampling and visibility machinery shared by the network (farthest
point sampling, k nearest neighbors) and the dataset pipeline (poisson disk
surface sampling, hidden point removal, noise injection, resampling), plus
OFF/PLY ingestion and PLY emission.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree


class GeometryError(Exception):
    """Degenerate geometric input (zero-area mesh, coincident points, ...)."""


@dataclass
class PointCloud:
    """An ordered set of 3D points, tagged with its category."""

    points: np.ndarray
    category: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(f"points must be (N>=1, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class TriMesh:
    """Indexed triangle mesh; quads are fan-triangulated on ingest."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        v, f = self.vertices, self.faces
        if v.ndim != 2 or v.shape[1] != 3 or f.ndim != 2 or f.shape[1] != 3:
            raise GeometryError(f"need (n, 3) vertices and (m, 3) faces, got {v.shape}, {f.shape}")
        if not np.isfinite(v).all():
            raise GeometryError("vertices contain non-finite coordinates")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise GeometryError("face index out of range")

    def face_areas(self) -> np.ndarray:
        v = self.vertices
        a, b, c = v[self.faces[:, 0]], v[self.faces[:, 1]], v[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def drop_degenerate_faces(self, eps: float = 1e-14) -> "TriMesh":
        areas = self.face_areas()
        return TriMesh(self.vertices, self.faces[areas > eps])

    def normalized(self) -> "TriMesh":
        """Center at the vertex centroid and scale the longest bbox axis to 1."""
        v = self.vertices - self.vertices.mean(axis=0)
        extent = v.max(axis=0) - v.min(axis=0)
        scale = extent.max()
        if scale <= 0:
            raise GeometryError("mesh has zero extent")
        return TriMesh(v / scale, self.faces)


@dataclass
class HPRConfig:
    """Spherical-flip radius parameter: R = max point norm x 10**radius_exponent."""

    radius_exponent: float = 2.0


@dataclass
class HPRResult:
    indices: np.ndarray
    jittered: bool = False


# -- sampling ----------------------------------------------------------------


def _sq_dist(q, xyz: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared distances from query coordinates ``q`` (three scalars, or three
    column vectors) to the points whose coordinate rows are ``xyz``, into ``out``.

    Summed as (dx*dx + dy*dy) + dz*dz, the order of ``((q - p) ** 2).sum(-1)``
    and of ``np.linalg.norm(p - q, axis=1)``, so the values are bit-equal to both.
    """
    np.subtract(q[0], xyz[0], out=out)
    np.multiply(out, out, out=out)
    for j in (1, 2):
        np.subtract(q[j], xyz[j], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(out, tmp, out=out)
    return out


def _sq_dist_blocks(pts: np.ndarray, q: np.ndarray, out: np.ndarray | None = None):
    """Yield ``(start, block)``: the squared distances of query rows
    ``start:start + len(block)`` to all points, in 256 KiB row blocks that keep
    the temporaries in cache. Blocks are views of ``out`` (queries, points)
    when given, else of one reused buffer.
    """
    m, n = len(q), len(pts)
    xyz, q_cols = np.ascontiguousarray(pts.T), q.T[:, :, None]
    rows = max(1, 262144 // (n * pts.dtype.itemsize))
    buf = np.empty((1 + (out is None), min(rows, m), n), dtype=pts.dtype)
    for s in range(0, m, rows):
        block = buf[1, :min(rows, m - s)] if out is None else out[s:s + rows]
        yield s, _sq_dist(q_cols[:, s:s + rows], xyz, block, buf[0, :len(block)])


def fps(points: np.ndarray, m: int, seed_rule: str = "first_index") -> np.ndarray:
    """Greedy farthest point sampling; returns m indices.

    Each selected index (after the seed) maximizes the minimum distance to the
    already-selected set; ties go to the lowest index. ``farthest_from_centroid``
    seeding is invariant to input permutation as a point set.
    """
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
    xyz = np.ascontiguousarray(pts.T)
    dist, tmp = np.empty(n), np.empty(n)
    mind = np.full(n, np.inf)
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = seed
    for i in range(1, m):
        _sq_dist(xyz[:, chosen[i - 1]], xyz, dist, tmp)
        np.sqrt(dist, out=dist)
        np.minimum(mind, dist, out=mind)
        chosen[i] = np.argmax(mind)
    return chosen


def knn(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points per query, ascending distance, ties by
    lowest index.

    Exact top-k: a partition finds each row's k-th smallest squared distance,
    and only the columns not above it are sorted, by (distance, index).
    """
    pts = np.asarray(points, dtype=np.float64)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    m, n = len(q), len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"knn: k={k} out of range for cloud size {n}")
    d2 = np.empty((m, n))
    for _ in _sq_dist_blocks(pts, q, d2):
        pass
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    # "not above" rather than "<=": NaN sorts last, so a NaN k-th value keeps its whole row
    row, col = np.divmod(np.flatnonzero(~(d2 > kth)), n)
    order = np.lexsort((d2[row, col], row))  # stable: equal distances stay in index order
    rank = np.arange(len(row)) - np.searchsorted(row, row)  # place within the row
    return col[order][rank < k].reshape(m, k)


def nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the nearest point for each query; ties go to the lowest index.

    Scans the squared distances in row blocks, in the inputs' own float dtype,
    and takes each row's ``argmin``, so the indices equal ``np.argmin`` over the
    dense (queries, points) distance matrix: NaN rows and columns included, and
    with points and queries swapped, since (b - a)**2 == (a - b)**2 bit for bit.
    """
    pts, q = np.asarray(points), np.atleast_2d(np.asarray(queries))
    if len(pts) == 0:
        raise ValueError("nearest: empty point set")
    dtype = np.result_type(pts, q, np.float32)
    idx = np.empty(len(q), dtype=np.int64)
    for s, block in _sq_dist_blocks(pts.astype(dtype, copy=False), q.astype(dtype, copy=False)):
        np.argmin(block, axis=1, out=idx[s:s + len(block)])
    return idx


def sample_on_mesh(mesh: TriMesh, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly by area over the mesh surface."""
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0 or len(mesh.faces) == 0:
        raise GeometryError("mesh has zero surface area")
    fid = rng.choice(len(mesh.faces), size=n, p=areas / total)
    u, v = rng.random(n), rng.random(n)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    tri = mesh.vertices[mesh.faces[fid]]
    return tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])


def poisson_disk_sample(mesh: TriMesh, n: int, seed: int = 0) -> PointCloud:
    """Exactly n blue-noise points on the mesh surface.

    Draws 10n samples uniformly by area, then greedily eliminates the most
    crowded samples until n survive (Yuksel 2015, "Sample Elimination for
    Generating Poisson Disk Sample Sets"; see ``_eliminate_samples``). The
    target separation is r = sqrt(area / (2*sqrt(3)*n)), the hex-packing radius.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = sample_on_mesh(mesh, 10 * n, rng)
    area = mesh.face_areas().sum()
    r_target = np.sqrt(area / (2 * np.sqrt(3.0) * n))
    keep = _eliminate_samples(pts, n, 2.0 * r_target)
    return PointCloud(pts[np.sort(keep)])


def _eliminate_samples(pts: np.ndarray, n: int, r_max: float) -> np.ndarray:
    """Indices (ascending) of the n samples that survive weighted elimination.

    Each pair closer than r_max adds (1 - d/r_max)**8 to both weights (Yuksel
    2015). The sample with the highest current weight is removed next, the
    lowest index on ties, and its weight is subtracted from its live
    neighbours. Weights only ever decrease, so a heap entry is never too low:
    a popped entry that no longer matches its sample's weight is pushed again
    with the current one, and the first matching pop is the true maximum.

    Neighbours are CSR arrays. The initial weights sum each sample's pairs in
    ``query_pairs`` order, and each decrement rounds exactly as the scalar
    ``(1 - np.linalg.norm(pts[i] - pts[j]) / r_max) ** 8``, so the removal
    order is bit-for-bit that of the per-neighbour loop the tests keep as an
    oracle.
    """
    m = len(pts)
    pairs = cKDTree(pts).query_pairs(r_max, output_type="ndarray")
    diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    w_init = (1.0 - np.linalg.norm(diff, axis=1) / r_max) ** 8
    weights = np.bincount(pairs.ravel(), weights=np.repeat(w_init, 2),
                          minlength=m).astype(np.float64)  # int64 when empty
    # A decrement must round like the scalar np.linalg.norm (a 1-D dot) and
    # the scalar libm pow; np.linalg.norm(axis=1) and array np.power can each
    # differ by an ulp.
    d_scalar = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).ravel())
    w_pair = np.array([x ** 8 for x in (1.0 - d_scalar / r_max).tolist()])

    src = pairs.ravel()
    order = np.argsort(src, kind="stable")
    nbr = pairs[:, ::-1].ravel()[order]
    w_edge = np.repeat(w_pair, 2)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=m))])

    alive = np.ones(m, dtype=bool)
    heap = list(zip((-weights).tolist(), range(m)))
    heapq.heapify(heap)
    remaining = m
    while remaining > n:
        negw, i = heapq.heappop(heap)
        if not alive[i]:
            continue
        w = float(weights[i])
        if -negw != w:  # stale entry
            heapq.heappush(heap, (-w, i))
            continue
        alive[i] = False
        remaining -= 1
        lo, hi = indptr[i], indptr[i + 1]
        js = nbr[lo:hi]
        live = alive[js]
        weights[js[live]] -= w_edge[lo:hi][live]
    return np.flatnonzero(alive)


# -- visibility ----------------------------------------------------------------


def hidden_point_removal(cloud: PointCloud, viewpoint, cfg: HPRConfig | None = None) -> HPRResult:
    """Visible-point indices via spherical flipping + convex hull.

    Points are re-centered on the viewpoint, reflected outward to radius
    R = max norm x 10**radius_exponent, and the hull of the flipped set plus
    the origin is taken; hull membership marks visibility. Coplanar inputs are
    jittered by 1e-9 and retried, flagged in the result; if the retry fails
    too (as it must for two points), GeometryError is raised.
    """
    cfg = cfg or HPRConfig()
    pts = cloud.points
    vp = np.asarray(viewpoint, dtype=np.float64)
    center = pts.mean(axis=0)
    if np.linalg.norm(vp - center) <= np.linalg.norm(pts - center, axis=1).max():
        raise GeometryError("viewpoint lies inside the cloud's bounding sphere")
    q = pts - vp
    norms = np.linalg.norm(q, axis=1)
    if norms.max() < 1e-12:
        raise GeometryError("all points coincident with the viewpoint")
    if len(pts) == 1:
        return HPRResult(np.array([0], dtype=np.int64))
    radius = norms.max() * (10.0 ** cfg.radius_exponent)
    flipped = q + 2.0 * (radius - norms)[:, None] * q / norms[:, None]
    aug = np.vstack([flipped, np.zeros(3)])
    try:
        hull = ConvexHull(aug)
        jittered = False
    except QhullError:
        rng = np.random.default_rng(0)
        aug = aug + rng.normal(scale=1e-9, size=aug.shape)
        try:
            hull = ConvexHull(aug)
        except QhullError as exc:
            raise GeometryError(f"no visibility hull even after jitter: {exc}") from exc
        jittered = True
    visible = np.array(sorted(i for i in hull.vertices if i < len(pts)), dtype=np.int64)
    return HPRResult(visible, jittered)


# -- perturbation / resampling ----------------------------------------------------


def add_gaussian_noise(cloud: PointCloud, sigma: float, seed: int = 0) -> PointCloud:
    """I.i.d. normal jitter with std = sigma x bounding-box diagonal."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return replace(cloud, points=cloud.points.copy())
    diag = np.linalg.norm(cloud.points.max(axis=0) - cloud.points.min(axis=0))
    rng = np.random.default_rng(seed)
    noise = rng.normal(scale=sigma * diag, size=cloud.points.shape)
    return replace(cloud, points=cloud.points + noise)


def resample_to(cloud: PointCloud, n: int) -> PointCloud:
    """FPS-subsample down to n, or pad by duplication (seed 0) up to n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = cloud.points
    if len(pts) == n:
        return replace(cloud, points=pts.copy())
    if len(pts) > n:
        return replace(cloud, points=pts[fps(pts, n)])
    extra = np.random.default_rng(0).integers(0, len(pts), size=n - len(pts))
    return replace(cloud, points=np.vstack([pts, pts[extra]]))


# -- file formats -------------------------------------------------------------------


def _fan_triangulate(polygons: list[list[int]], nv: int, path) -> np.ndarray:
    """(m, 3) triangles fanned from each polygon's first vertex index."""
    tris = [(idx[0], idx[j], idx[j + 1]) for idx in polygons for j in range(1, len(idx) - 1)]
    try:
        faces = np.array(tris, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        raise GeometryError(f"{path}: a face index does not fit in 64 bits") from None
    if faces.size and (faces.min() < 0 or faces.max() >= nv):
        raise GeometryError(f"{path}: a face has a vertex index outside [0, {nv})")
    return faces


def load_off(path) -> TriMesh:
    """Parse ASCII OFF (ModelNet native); tolerates counts glued to the header."""
    with open(path) as f:
        tokens: list[str] = []
        for line in f:
            line = line.split("#")[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens:
        raise GeometryError(f"{path}: empty OFF file")
    head = tokens.pop(0)
    if head != "OFF":
        if head.startswith("OFF"):
            tokens.insert(0, head[3:])  # 'OFF123 ...' variant
        else:
            raise GeometryError(f"{path}: missing OFF header")
    if len(tokens) < 3:
        raise GeometryError(f"{path}: truncated OFF counts line")
    nv, nf = int(tokens[0]), int(tokens[1])
    if nv < 0 or nf < 0:
        raise GeometryError(f"{path}: negative vertex or face count")
    pos = 3  # skip edge count
    if len(tokens) < pos + 3 * nv:
        raise GeometryError(f"{path}: declares {nv} vertices but the file ends early")
    verts = np.array(tokens[pos : pos + 3 * nv], dtype=np.float64).reshape(nv, 3)
    pos += 3 * nv
    polygons: list[list[int]] = []
    for k in range(nf):
        cnt = int(tokens[pos]) if pos < len(tokens) else 0
        if pos >= len(tokens) or cnt < 0 or pos + 1 + cnt > len(tokens):
            raise GeometryError(f"{path}: declares {nf} faces but face {k} is truncated")
        polygons.append([int(t) for t in tokens[pos + 1 : pos + 1 + cnt]])
        pos += 1 + cnt
    return TriMesh(verts, _fan_triangulate(polygons, nv, path)).drop_degenerate_faces()


def load_ply(path) -> TriMesh:
    """Parse ASCII PLY with vertex x/y/z (and optional triangular faces)."""
    with open(path) as f:
        lines = [ln.strip() for ln in f]
    if not lines or lines[0] != "ply":
        raise GeometryError(f"{path}: not a PLY file")
    counts = {"vertex": 0, "face": 0}
    i = 1
    while i < len(lines) and lines[i] != "end_header":
        parts = lines[i].split()
        if not parts:
            raise GeometryError(f"{path}: blank header line {i + 1}")
        if parts[0] == "element" and parts[1:2] in (["vertex"], ["face"]):
            if len(parts) < 3:
                raise GeometryError(f"{path}: header line {i + 1} has no element count")
            counts[parts[1]] = int(parts[2])
            if counts[parts[1]] < 0:
                raise GeometryError(f"{path}: header line {i + 1} has a negative count")
        elif parts[0] == "format" and parts[1:2] != ["ascii"]:
            raise GeometryError(f"{path}: only ascii PLY supported")
        i += 1
    nv, nf = counts["vertex"], counts["face"]
    body = [ln.split() for ln in lines[i + 1 :] if ln]
    if len(body) < nv + nf:
        raise GeometryError(f"{path}: declares {nv} vertices and {nf} faces "
                            f"but has {len(body)} rows")
    if any(len(row) < 3 for row in body[:nv]):
        raise GeometryError(f"{path}: a vertex row has fewer than 3 coordinates")
    verts = np.array([row[:3] for row in body[:nv]], dtype=np.float64).reshape(nv, 3)
    polygons: list[list[int]] = []
    for k, row in enumerate(body[nv : nv + nf]):
        cnt = int(row[0])
        if cnt < 0 or len(row) < 1 + cnt:
            raise GeometryError(f"{path}: face {k} lists fewer than its {cnt} indices")
        polygons.append([int(t) for t in row[1 : 1 + cnt]])
    mesh = TriMesh(verts, _fan_triangulate(polygons, nv, path))
    return mesh.drop_degenerate_faces() if nf else mesh


def save_cloud_ply(path, cloud: PointCloud) -> None:
    """Emit an ASCII PLY point cloud (x y z float32 properties)."""
    pts = cloud.points.astype(np.float32)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {len(pts)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("end_header\n")
        for x, y, z in pts:
            f.write(f"{x:.8g} {y:.8g} {z:.8g}\n")


def load_cloud_ply(path, **meta) -> PointCloud:
    mesh = load_ply(path)
    return PointCloud(mesh.vertices, **meta)
