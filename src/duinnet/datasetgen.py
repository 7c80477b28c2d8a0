"""Synthetic multimodal completion benchmark pipeline.

For every CAD model: one 2048-point poisson-disk complete cloud, and per
viewpoint a hidden-point-removal partial (clamped into the 10-40% ratio
band), a Gaussian-noised copy, and a depth-shaded 224x224 rendering. Records
are indexed in a JSON manifest carrying the generator config hash; the whole
pipeline is deterministic, so regeneration under the same config is
byte-identical.

On-disk layout::

    root/<category>/<model_id>/complete.ply
    root/<category>/<model_id>/vp_<k>/partial.ply
    root/<category>/<model_id>/vp_<k>/partial_noisy.ply
    root/<category>/<model_id>/vp_<k>/image.raster
    root/manifest.json, root/generation_report.json

Raster byte layout: magic ``PCIMG1\\n`` | u32 LE side | three planes of
side*side unsigned bytes (row-major), one per channel.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import geometry
from .geometry import GeometryError, HPRConfig, PointCloud, TriMesh
from .model.config import ConfigError, check_image_side

UNSEEN_CATEGORIES = (
    "bowl", "cup", "curtain", "keyboard", "radio",
    "sink", "stairs", "stool", "tent", "wardrobe",
)

_RASTER_MAGIC = b"PCIMG1\n"


@dataclass
class Viewpoint:
    """Unit-sphere camera position looking at the origin."""

    id: int
    position: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        n = np.linalg.norm(self.position)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"viewpoint {self.id} not on the unit sphere (|p|={n})")

    def basis(self):
        """(right, up, forward) with forward pointing at the origin."""
        forward = -self.position
        up0 = np.array([0.0, 0.0, 1.0])
        if abs(forward @ up0) > 0.999:  # looking straight down an axis pole
            up0 = np.array([0.0, 1.0, 0.0])
        right = np.cross(forward, up0)
        right /= np.linalg.norm(right)
        up = np.cross(right, forward)
        return right, up, forward


def make_viewpoints(n: int) -> list[Viewpoint]:
    """Deterministic spherical Fibonacci lattice of n camera positions."""
    if n < 2:
        raise ValueError("need at least 2 viewpoints")
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = 2.0 * np.pi * i / golden
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return [Viewpoint(int(k), p) for k, p in enumerate(pts)]


@dataclass
class GenConfig:
    n_points: int = 2048
    n_viewpoints: int = 32
    image_side: int = 224
    noise_sigma: float = 0.01       # x bounding-box diagonal
    min_ratio: float = 0.10
    max_ratio: float = 0.40
    radius_exponent: float = 2.0
    camera_distance: float = 1.5    # camera radius in normalized-model units
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 3:
            raise ConfigError(f"n_points={self.n_points} must be >= 3")
        if self.n_viewpoints < 2:
            raise ConfigError(f"n_viewpoints={self.n_viewpoints} must be >= 2")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise_sigma={self.noise_sigma} must be finite and >= 0")
        check_image_side(self.image_side)

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class SampleRecord:
    model_id: str
    category: str
    viewpoint_id: int
    complete_path: str
    partial_path: str
    noisy_path: str
    image_path: str

    @property
    def record_id(self) -> str:
        return f"{self.category}/{self.model_id}/vp_{self.viewpoint_id}"


_RECORD_FIELDS = {f.name: (int if f.name == "viewpoint_id" else str)
                  for f in fields(SampleRecord)}


def _str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"malformed manifest: {what}")


@dataclass
class Manifest:
    name: str
    config: dict
    config_hash: str
    categories: list[str] = field(default_factory=list)
    records: list[SampleRecord] = field(default_factory=list)
    splits: dict = field(default_factory=dict)

    @property
    def pair_count(self) -> int:
        return len(self.records)

    def models(self) -> dict[tuple[str, str], list[SampleRecord]]:
        out: dict[tuple[str, str], list[SampleRecord]] = {}
        for r in self.records:
            out.setdefault((r.category, r.model_id), []).append(r)
        return out

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """Parse a manifest; any malformed part raises ``ValueError`` naming it."""
        doc = json.loads(text)
        _require(isinstance(doc, dict), "not a JSON object")
        doc.setdefault("splits", {})
        for key, kind in (("name", str), ("config", dict), ("config_hash", str),
                          ("categories", list), ("records", list), ("splits", dict)):
            _require(isinstance(doc.get(key), kind), f"{key!r} missing or not a {kind.__name__}")
        _require(_str_list(doc["categories"]), "'categories' must list strings")
        for task, parts in doc["splits"].items():
            _require(isinstance(parts, dict) and all(map(_str_list, parts.values())),
                     f"split {task!r} must map parts to lists of record ids")
        for i, r in enumerate(doc["records"]):
            _require(isinstance(r, dict) and set(r) == set(_RECORD_FIELDS),
                     f"record {i} must be an object with keys {sorted(_RECORD_FIELDS)}")
            for key, kind in _RECORD_FIELDS.items():
                _require(type(r[key]) is kind, f"record {i} {key!r} is not a {kind.__name__}")
        return cls(
            name=doc["name"], config=doc["config"], config_hash=doc["config_hash"],
            categories=doc["categories"], records=[SampleRecord(**r) for r in doc["records"]],
            splits=doc["splits"],
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "Manifest":
        return cls.from_json(Path(path).read_text())


# -- rendering -----------------------------------------------------------------


_RASTER_CHUNK = 1 << 16  # (face, pixel) candidates rasterized per step


def render_depth_image(mesh: TriMesh, vp: Viewpoint, side: int = 224,
                       camera_distance: float = 1.5) -> np.ndarray:
    """Orthographic z-buffer rasterization; intensity is normalized inverse depth.

    Returns (side, side, 3) float32 in [0, 1], background 0. Deterministic.

    Every face that is not wholly behind the camera and has a non-degenerate
    screen-space determinant contributes one (face, pixel) candidate per pixel
    centre of its clipped bounding box. Candidates are expanded in chunks of about
    ``_RASTER_CHUNK`` so memory stays flat for any face count, and each chunk
    writes its covered depths into a flat z-buffer with ``np.minimum.at``.
    The barycentric arithmetic is the per-face expression evaluated
    elementwise, and a minimum does not depend on the order of its writes
    (``z > 0`` keeps +-0 out), so the image is bit-identical to drawing the
    faces one at a time.
    """
    if len(mesh.faces) == 0:
        raise GeometryError("cannot render an empty mesh")
    right, up, forward = vp.basis()
    cam = vp.position * camera_distance
    rel = mesh.vertices - cam
    xs = rel @ right
    ys = rel @ up
    zs = rel @ forward
    scale = side / 1.8  # normalized models fit in a 0.9-halfwidth viewport
    tx = (xs * scale + side / 2.0)[mesh.faces]
    ty = (side / 2.0 - ys * scale)[mesh.faces]
    tz = zs[mesh.faces]
    if not (np.isfinite(tx).all() and np.isfinite(ty).all() and np.isfinite(tz).all()):
        raise GeometryError("cannot render a face with non-finite coordinates")
    # Clipped pixel bounding boxes; clipping before the int cast keeps far
    # off-screen faces empty instead of overflowing.
    x0 = np.clip(np.floor(tx.min(axis=1)), 0, side).astype(np.int64)
    x1 = np.clip(np.ceil(tx.max(axis=1)), -1, side - 1).astype(np.int64)
    y0 = np.clip(np.floor(ty.min(axis=1)), 0, side).astype(np.int64)
    y1 = np.clip(np.ceil(ty.max(axis=1)), -1, side - 1).astype(np.int64)
    a, b = ty[:, 1] - ty[:, 2], tx[:, 2] - tx[:, 1]
    c, d = ty[:, 2] - ty[:, 0], tx[:, 0] - tx[:, 2]
    det = a * d + b * (ty[:, 0] - ty[:, 2])
    keep = ~np.all(tz <= 0, axis=1) & (x1 >= x0) & (y1 >= y0) & (np.abs(det) >= 1e-12)
    # terms of the kept faces, one column per face
    corner = np.stack([x0, y0, x1 - x0 + 1])[:, keep]
    coef = np.stack([a, b, c, d, det, tx[:, 2], ty[:, 2], tz[:, 0], tz[:, 1], tz[:, 2]])[:, keep]
    ends = np.cumsum(corner[2] * (y1 - y0 + 1)[keep])
    zbuf = np.full(side * side, np.inf)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _RASTER_CHUNK, side="right")), start + 1)
        counts = np.diff(ends[start:stop], prepend=base)
        fx0, fy0, fw = np.repeat(corner[:, start:stop], counts, axis=1)
        fa, fb, fc, fd, fdet, tx2, ty2, tz0, tz1, tz2 = np.repeat(
            coef[:, start:stop], counts, axis=1)
        k = np.arange(ends[stop - 1] - base) - np.repeat(ends[start:stop] - counts - base, counts)
        row, col = np.divmod(k, fw)
        px, py = fx0 + col, fy0 + row
        dx, dy = (px + 0.5) - tx2, (py + 0.5) - ty2
        w0 = (fa * dx + fb * dy) / fdet
        w1 = (fc * dx + fd * dy) / fdet
        w2 = 1.0 - w0 - w1
        z = w0 * tz0 + w1 * tz1 + w2 * tz2
        hit = (w0 >= 0) & (w1 >= 0) & (w2 >= 0) & (z > 0)
        np.minimum.at(zbuf, py[hit] * side + px[hit], z[hit])
        start = stop
    zbuf = zbuf.reshape(side, side)
    covered = np.isfinite(zbuf)
    img = np.zeros((side, side), dtype=np.float32)
    if covered.any():
        z = zbuf[covered]
        zmin, zmax = z.min(), z.max()
        span = max(zmax - zmin, 1e-9)
        # nearest surface maps to 1, farthest to 0.25; background stays 0
        img[covered] = (0.25 + 0.75 * (zmax - z) / span).astype(np.float32)
    return np.repeat(img[:, :, None], 3, axis=2)


def save_raster(path, image: np.ndarray) -> None:
    """Quantize to 8 bits and write the documented 3-plane raster format."""
    side = image.shape[0]
    if image.shape != (side, side, 3):
        raise ValueError(f"expected square 3-channel image, got {image.shape}")
    u8 = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(_RASTER_MAGIC)
        f.write(struct.pack("<I", side))
        for c in range(3):
            f.write(u8[:, :, c].tobytes())


def load_raster(path) -> np.ndarray:
    """Read a raster as a (side, side, 3) float image in [0, 1]; a bad magic
    or a file too short for its side raises ValueError naming ``path``."""
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            if f.tell() + n > size:
                raise ValueError(f"{path}: truncated raster ({size} bytes)")
            return f.read(n)

        if f.read(len(_RASTER_MAGIC)) != _RASTER_MAGIC:
            raise ValueError(f"{path}: not a raster file")
        (side,) = struct.unpack("<I", read(4))
        planes = np.frombuffer(read(3 * side * side), dtype=np.uint8).reshape(3, side, side)
    return np.stack(planes, axis=2).astype(np.float32) / 255.0


# -- per-model synthesis ----------------------------------------------------------


def _stable_seed(*parts) -> int:
    blob = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def synthesize_model(mesh: TriMesh, model_id: str, category: str,
                     viewpoints: list[Viewpoint], cfg: GenConfig, root: Path):
    """Generate all per-viewpoint artifacts for one model.

    Returns (records, exclusions); viewpoints whose visible fraction falls
    below the minimum ratio are excluded and reported rather than written.
    """
    root = Path(root)
    mesh = mesh.normalized()
    complete = geometry.poisson_disk_sample(
        mesh, cfg.n_points, seed=_stable_seed(cfg.seed, model_id, "pds"))
    model_dir = root / category / model_id
    model_dir.mkdir(parents=True, exist_ok=True)
    complete_path = model_dir / "complete.ply"
    geometry.save_cloud_ply(complete_path, complete)

    records: list[SampleRecord] = []
    exclusions: list[dict] = []
    hpr_cfg = HPRConfig(cfg.radius_exponent)
    for vp in viewpoints:
        res = geometry.hidden_point_removal(
            complete, vp.position * cfg.camera_distance, hpr_cfg)
        visible = res.indices
        ratio = len(visible) / cfg.n_points
        if ratio < cfg.min_ratio:
            exclusions.append({
                "model_id": model_id, "category": category,
                "viewpoint_id": vp.id, "visible_ratio": ratio,
            })
            continue
        if ratio > cfg.max_ratio:
            rng = np.random.default_rng(_stable_seed(cfg.seed, model_id, vp.id, "ratio"))
            target = rng.uniform(cfg.min_ratio, cfg.max_ratio)
            m = max(int(round(target * cfg.n_points)), int(cfg.min_ratio * cfg.n_points), 1)
            sub = geometry.fps(complete.points[visible], m, seed_rule="first_index")
            visible = visible[np.sort(sub)]
        partial = PointCloud(complete.points[visible])
        noisy = geometry.add_gaussian_noise(
            partial, cfg.noise_sigma, seed=_stable_seed(cfg.seed, model_id, vp.id, "noise"))
        image = render_depth_image(mesh, vp, cfg.image_side, cfg.camera_distance)
        vp_dir = model_dir / f"vp_{vp.id}"
        vp_dir.mkdir(exist_ok=True)
        geometry.save_cloud_ply(vp_dir / "partial.ply", partial)
        geometry.save_cloud_ply(vp_dir / "partial_noisy.ply", noisy)
        save_raster(vp_dir / "image.raster", image)
        records.append(SampleRecord(
            model_id=model_id, category=category, viewpoint_id=vp.id,
            complete_path=str(complete_path.relative_to(root)),
            partial_path=str((vp_dir / "partial.ply").relative_to(root)),
            noisy_path=str((vp_dir / "partial_noisy.ply").relative_to(root)),
            image_path=str((vp_dir / "image.raster").relative_to(root)),
        ))
    return records, exclusions


def generate_dataset(mesh_paths: dict[tuple[str, str], Path], cfg: GenConfig, root: Path):
    """Run the full pipeline over (category, model_id) -> mesh path inputs.

    Returns (manifest, report), both written under ``root``, the manifest with
    its splits. Unreadable meshes are logged in the report and skipped;
    manifest assembly is ordered by model id for determinism.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    viewpoints = make_viewpoints(cfg.n_viewpoints)
    records: list[SampleRecord] = []
    exclusions: list[dict] = []
    errors: list[dict] = []
    for (category, model_id) in sorted(mesh_paths):
        path = Path(mesh_paths[(category, model_id)])
        try:
            mesh = geometry.load_off(path) if path.suffix.lower() == ".off" else geometry.load_ply(path)
            recs, excl = synthesize_model(mesh, model_id, category, viewpoints, cfg, root)
        except (GeometryError, ValueError, OSError) as exc:
            errors.append({"model_id": model_id, "category": category,
                           "path": str(path), "error": str(exc)})
            continue
        records.extend(recs)
        exclusions.extend(excl)
    manifest = make_splits(Manifest(
        name="dataset", config=asdict(cfg), config_hash=cfg.hash(),
        categories=sorted({c for c, _ in mesh_paths}), records=records,
    ))
    report = {"excluded_viewpoints": exclusions, "mesh_errors": errors,
              "models": len(mesh_paths), "records": len(records)}
    manifest.save(root / "manifest.json")
    (root / "generation_report.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    return manifest, report


# -- splits ----------------------------------------------------------------------


def make_splits(manifest: Manifest) -> Manifest:
    """Attach supervised / denoising / zero-shot split tags to a manifest.

    Supervised: per-category lexicographic model-id split, first half train.
    Denoising: the same partition (noisy partials are substituted at load time).
    Zero-shot: train on seen categories' training halves only; test on every
    category's test half, tagged seen/unseen. The unseen categories are the
    standard ten held-out ones that the dataset has records of.
    """
    by_cat: dict[str, list[str]] = {}
    for (cat, mid) in manifest.models():
        by_cat.setdefault(cat, []).append(mid)
    train_models = {(cat, m) for cat, mids in by_cat.items()
                    for m in sorted(mids)[:(len(mids) + 1) // 2]}
    unseen = [c for c in UNSEEN_CATEGORIES if c in manifest.categories and c in by_cat]
    sup: dict[str, list[str]] = {"train": [], "test": []}
    zs: dict[str, list[str]] = {"train": [], "test_seen": [], "test_unseen": []}
    for r in manifest.records:
        train = (r.category, r.model_id) in train_models
        sup["train" if train else "test"].append(r.record_id)
        if r.category not in unseen:
            zs["train" if train else "test_seen"].append(r.record_id)
        elif not train:
            zs["test_unseen"].append(r.record_id)
    manifest.splits = {"supervised": sup, "denoising": sup,
                       "zeroshot": {**zs, "unseen_categories": sorted(unseen)}}
    return manifest


def split_records(manifest: Manifest, task: str, part: str) -> list[SampleRecord]:
    """Resolve a split's record-id list back to records; a missing split is a ``ValueError``."""
    _require(task in manifest.splits, f"no '{task}' split")
    split = manifest.splits[task]
    parts = ("test_seen", "test_unseen") if part == "test" and task == "zeroshot" else (part,)
    for p in parts:
        _require(p in split, f"split '{task}' has no part '{p}'")
    ids = set().union(*(split[p] for p in parts))
    return [r for r in manifest.records if r.record_id in ids]


def pair_sampler(manifest: Manifest, records: list[SampleRecord], seed: int = 0):
    """Yield (partial record, image record) pairs.

    The image is drawn uniformly (seeded) from all of the same model's
    viewpoints, not necessarily the partial's own.
    """
    models = manifest.models()
    rng = np.random.default_rng(seed)
    for rec in records:
        pool = models[(rec.category, rec.model_id)]
        img_rec = pool[rng.integers(0, len(pool))]
        yield rec, img_rec
