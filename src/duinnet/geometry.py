"""Deterministic point-set and mesh algorithms.

Covers the sampling and visibility machinery shared by the network (farthest
point sampling, k nearest neighbors) and the dataset pipeline (poisson disk
surface sampling, hidden point removal, noise injection, resampling), plus
OFF/PLY ingestion and PLY emission.
"""

from __future__ import annotations

import heapq
import itertools
import math
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

    def drop_degenerate_faces(self) -> "TriMesh":
        """The mesh without faces of area 1e-14 or less."""
        return TriMesh(self.vertices, self.faces[self.face_areas() > 1e-14])

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


def _tree_neighbours(pts: np.ndarray, q: np.ndarray, k: int, extra: int):
    """``(candidates, settled)`` from a k-d tree (Bentley 1975; Friedman,
    Bentley & Finkel 1977) on exact float64 copies of float32 or float64
    inputs: each query's ``k + extra`` nearest points (all, if fewer), and
    the rows where the scan's ``k`` nearest are among them and rank before
    every other point. A scan value ``(dx*dx + dy*dy) + dz*dz`` lies within
    a relative 8u (u: the dtype's unit roundoff) plus a few smallest
    subnormals of the exact squared distance, and the tree's float64
    rounding adds a margin: a row is settled when its last candidate is
    farther than its k-th by both. None when a coordinate is non-finite or
    so large that a squared difference could overflow: the scan has its
    own rules there.
    """
    if pts.dtype not in (np.float32, np.float64):
        return None
    fi = np.finfo(pts.dtype)
    big = np.sqrt(fi.max) / 4
    if not (np.all(np.abs(pts) <= big) and np.all(np.abs(q) <= big)):  # NaN fails too
        return None
    m, kk = len(q), min(k + extra, len(pts))
    dist, cand = cKDTree(pts.astype(np.float64)).query(q.astype(np.float64), kk)
    dist, cand = dist.reshape(m, kk), cand.reshape(m, kk)
    r, a = 4 * fi.eps + 32 * np.finfo(np.float64).eps, 8 * fi.smallest_subnormal
    d_k, d_last = dist[:, k - 1] ** 2, dist[:, -1] ** 2
    return cand, (kk < k + extra) | (d_last * (1 - r) - a > d_k * (1 + r) + a)


def knn(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest points per query, ascending distance, ties by
    lowest index.

    Exact top-k: a partition finds each row's k-th smallest squared distance,
    and only the columns not above it are sorted, by (distance, index). When
    k is at least half the cloud, most columns would be sorted anyway, and one
    stable argsort of the whole rows is faster. From 2**16 query-point pairs
    a k-d tree first proposes ``k + 8`` candidates per query, re-ranked by
    (distance, index) with the scan's arithmetic; only rows it cannot settle
    (``_tree_neighbours``) are scanned. ``SetAbstraction``'s (2048, 512, 16)
    took 3.2 ms against the scan's 11.4, (512, 128, 16) 0.9 against 1.1, and
    ``mini``'s largest, (256, 64, 8), 0.35 against 0.18 (``BENCH_neighbours.json``).
    """
    pts = np.asarray(points, dtype=np.float64)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    m, n = len(q), len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"knn: k={k} out of range for cloud size {n}")
    return _knn(pts, q, k, tree=2 * k < n and m * n >= 2**16)


def _knn(pts: np.ndarray, q: np.ndarray, k: int, tree: bool) -> np.ndarray:
    found = _tree_neighbours(pts, q, k, 8) if tree else None
    if found is None:
        return _knn_scan(pts, q, k)
    cand, settled = found
    d2 = _sq_dist(q.T[:, :, None], pts[cand].transpose(2, 0, 1),
                  np.empty(cand.shape), np.empty(cand.shape))
    idx = np.take_along_axis(cand, np.lexsort((cand, d2), axis=1)[:, :k], axis=1)
    idx[~settled] = _knn_scan(pts, q[~settled], k)
    return idx


def _knn_scan(pts: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    m, n = len(q), len(pts)
    d2 = np.empty((m, n))
    for _ in _sq_dist_blocks(pts, q, d2):
        pass
    if 2 * k >= n:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
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
    From 2**18 query-point pairs a k-d tree answers each row whose two nearest
    points it tells apart (``_tree_neighbours``), and the scan the rest: 2048 x
    2048, the loss's size, took 2.1 ms against 10.3, 512 x 512 0.45 against
    0.58, and 256 x 256 (``mini``) 0.23 against 0.17 (``BENCH_neighbours.json``).
    """
    pts, q = np.asarray(points), np.atleast_2d(np.asarray(queries))
    if len(pts) == 0:
        raise ValueError("nearest: empty point set")
    dtype = np.result_type(pts, q, np.float32)
    pts, q = pts.astype(dtype, copy=False), q.astype(dtype, copy=False)
    return _nearest(pts, q, tree=len(pts) * len(q) >= 2**18)


def _nearest(pts: np.ndarray, q: np.ndarray, tree: bool) -> np.ndarray:
    found = _tree_neighbours(pts, q, 1, 1) if tree else None
    if found is None:
        return _nearest_scan(pts, q)
    cand, settled = found
    idx = cand[:, 0].copy()
    idx[~settled] = _nearest_scan(pts, q[~settled])
    return idx


def _nearest_scan(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    idx = np.empty(len(q), dtype=np.int64)
    for s, block in _sq_dist_blocks(pts, q):
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
    return PointCloud(pts[keep])


def _eliminate_samples(pts: np.ndarray, n: int, r_max: float) -> np.ndarray:
    """Indices (ascending) of the n samples that survive weighted elimination.

    Each pair closer than r_max adds (1 - d/r_max)**8 to both weights (Yuksel
    2015). The sample with the highest current weight is removed next, the
    lowest index on ties, and its weight is subtracted from its neighbours.
    Each live sample has one int heap key: its weight's float64 bits made
    order-preserving (a negative pattern maps to minus its magnitude, so -0.0
    ties +0.0 as floats do), negated and shifted above the index. Weights
    only decrease, so a key is never too low: a stale top key is replaced by
    the current one, and the first matching top is the true maximum. A dead
    sample has no key, so a removal decrements its neighbours without a mask.

    The initial weights sum each sample's pairs in ``query_pairs`` order, and
    each decrement rounds exactly as the scalar ``(1 - np.linalg.norm(pts[i]
    - pts[j]) / r_max) ** 8``, once per neighbour (a row's are distinct), so
    the removal order is bit-for-bit that of the oracle loop in the tests.
    """
    m = len(pts)
    pairs = cKDTree(pts).query_pairs(r_max, output_type="ndarray")
    diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    w_init = (1.0 - np.linalg.norm(diff, axis=1) / r_max) ** 8
    weights = np.bincount(pairs.ravel(), weights=np.repeat(w_init, 2),
                          minlength=m).astype(np.float64)  # int64 when empty
    # A decrement must round like the scalar np.linalg.norm (a 1-D dot) and libm
    # pow(x, 8.0) (x ** 8, math.pow); norm(axis=1) and np.power can differ by an ulp.
    d_scalar = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).ravel())
    w_pair = np.fromiter(map(math.pow, (1.0 - d_scalar / r_max).tolist(), itertools.repeat(8.0)),
                         np.float64, len(d_scalar))

    src = pairs.ravel()
    order = np.argsort(src)
    nbr = pairs[:, ::-1].ravel()[order]
    w_edge = np.repeat(w_pair, 2)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=m))]).tolist()

    bits, mag, shift = weights.view(np.int64), (1 << 63) - 1, m.bit_length()
    low = (1 << shift) - 1
    heap = [(b & mag if b < 0 else -b) << shift | i for i, b in enumerate(bits.tolist())]
    heapq.heapify(heap)
    for _ in range(m - n):
        while True:
            i = heap[0] & low
            b = bits.item(i)
            key = (b & mag if b < 0 else -b) << shift | i
            if key == heap[0]:
                break
            heapq.heapreplace(heap, key)  # stale: its weight fell
        heapq.heappop(heap)
        lo, hi = indptr[i], indptr[i + 1]
        weights[nbr[lo:hi]] -= w_edge[lo:hi]
    return np.sort(np.array([key & low for key in heap], dtype=np.int64))


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
    visible = np.sort(hull.vertices[hull.vertices < len(pts)]).astype(np.int64)
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
    """Parse ASCII PLY: a vertex element whose first properties are x, y, z, then
    an optional face element of index lists; any other element is an error."""
    with open(path) as f:
        lines = [ln.strip() for ln in f]
    if not lines or lines[0] != "ply":
        raise GeometryError(f"{path}: not a PLY file")
    counts: dict[str, int] = {}  # element name -> count, in header order
    vertex_props: list[str] = []
    i = 1
    while i < len(lines) and lines[i] != "end_header":
        parts = lines[i].split()
        if not parts:
            raise GeometryError(f"{path}: blank header line {i + 1}")
        if parts[0] == "element":
            if [*counts, *parts[1:2]] not in (["vertex"], ["vertex", "face"]):
                raise GeometryError(f"{path}: header line {i + 1}: expected vertex, then face")
            if len(parts) < 3:
                raise GeometryError(f"{path}: header line {i + 1} has no element count")
            counts[parts[1]] = int(parts[2])
            if counts[parts[1]] < 0:
                raise GeometryError(f"{path}: header line {i + 1} has a negative count")
        elif parts[0] == "property" and list(counts) == ["vertex"]:
            vertex_props.append(parts[-1])
        elif parts[0] == "format" and parts[1:2] != ["ascii"]:
            raise GeometryError(f"{path}: only ascii PLY supported")
        i += 1
    if vertex_props[:3] not in ([], ["x", "y", "z"]):
        raise GeometryError(f"{path}: vertex properties {vertex_props} do not begin x, y, z")
    nv, nf = counts.get("vertex", 0), counts.get("face", 0)
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
        f.write(("%.8g %.8g %.8g\n" * len(pts)) % tuple(pts.ravel().tolist()))


def load_cloud_ply(path) -> PointCloud:
    return PointCloud(load_ply(path).vertices)
