"""Seeded procedural inputs for the benchmark workloads.

Real ModelNet40 meshes are not part of the repository, so every input is
generated here from the workload seed: triangle meshes written as OFF files
for ``synth``, and (partial, image, complete) triples at a model profile's
sizes for ``mini`` and ``paper``. The seed only perturbs shapes, so the cost
of an input does not depend on it.
"""

from __future__ import annotations

import numpy as np


def uv_sphere(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit latitude/longitude sphere: 2 * cols * (rows - 1) triangles."""
    theta = np.pi * np.arange(1, rows) / rows
    phi = 2 * np.pi * np.arange(cols) / cols
    ring = np.stack([
        np.outer(np.sin(theta), np.cos(phi)),
        np.outer(np.sin(theta), np.sin(phi)),
        np.outer(np.cos(theta), np.ones(cols)),
    ], axis=2).reshape(-1, 3)
    verts = np.vstack([[0.0, 0.0, 1.0], ring, [0.0, 0.0, -1.0]])
    south = len(verts) - 1
    j = np.arange(cols)
    jn = (j + 1) % cols

    def idx(i, jj):
        return 1 + (i - 1) * cols + jj

    faces = [np.stack([np.zeros(cols, int), idx(1, j), idx(1, jn)], axis=1),
             np.stack([np.full(cols, south), idx(rows - 1, jn), idx(rows - 1, j)], axis=1)]
    for i in range(1, rows - 1):
        a, b, c, d = idx(i, j), idx(i, jn), idx(i + 1, j), idx(i + 1, jn)
        faces.append(np.stack([a, c, d], axis=1))
        faces.append(np.stack([a, d, b], axis=1))
    return verts, np.vstack(faces)


def box() -> tuple[np.ndarray, np.ndarray]:
    """Unit cube centred at the origin: 12 triangles."""
    corners = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                        for z in (-0.5, 0.5)])
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    faces = [f for a, b, c, d in quads for f in ((a, b, c), (a, c, d))]
    return corners, np.array(faces)


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def synth_meshes(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The ``synth`` meshes by model id: a 12-face box and a 9,024-face sphere.

    Both get a seeded anisotropic scale and rotation; the sphere's vertices
    also get a small radial jitter.
    """
    rng = np.random.default_rng([seed, 1])
    out = {}
    v, f = box()
    out["box"] = (v * rng.uniform(0.6, 1.0, 3) @ _rotation(rng).T, f)
    v, f = uv_sphere(48, 96)
    v = v * (1.0 + 0.02 * rng.standard_normal((len(v), 1)))
    out["sphere9024"] = (v * rng.uniform(0.8, 1.0, 3) @ _rotation(rng).T, f)
    return out


def write_off(path, verts: np.ndarray, faces: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        f.writelines(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in verts)
        f.writelines(f"3 {a} {b} {c}\n" for a, b, c in faces)


def _surface_points(rng: np.random.Generator, n: int, kind: int) -> np.ndarray:
    """n points on a seeded ellipsoid (kind 0) or box surface (kind 1)."""
    scale = rng.uniform(0.3, 0.5, 3)
    if kind == 0:
        d = rng.standard_normal((n, 3))
        pts = d / np.linalg.norm(d, axis=1, keepdims=True)
    else:
        pts = rng.uniform(-1.0, 1.0, (n, 3))
        axis = rng.integers(0, 3, n)
        pts[np.arange(n), axis] = rng.choice([-1.0, 1.0], n)
    return (pts * scale) @ _rotation(rng).T


def _depth_image(pts: np.ndarray, view: np.ndarray, side: int) -> np.ndarray:
    """Orthographic point splat along ``view``; nearer points are brighter."""
    up0 = np.array([0.0, 0.0, 1.0]) if abs(view[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
    right = np.cross(view, up0)
    right /= np.linalg.norm(right)
    up = np.cross(right, view)
    scale = side / 1.8
    px = np.clip((pts @ right * scale + side / 2).astype(int), 0, side - 1)
    py = np.clip((side / 2 - pts @ up * scale).astype(int), 0, side - 1)
    depth = pts @ view
    zbuf = np.full((side, side), np.inf)
    np.minimum.at(zbuf, (py, px), depth)
    covered = np.isfinite(zbuf)
    img = np.zeros((side, side), dtype=np.float32)
    z = zbuf[covered]
    img[covered] = 0.25 + 0.75 * (z.max() - z) / max(z.max() - z.min(), 1e-9)
    return np.repeat(img[:, :, None], 3, axis=2)


def triples(seed: int, stream: int, count: int, n_points: int, image_side: int):
    """``count`` (partial, image, complete) triples at a profile's sizes.

    Different ``stream`` values give independent sets for one seed.
    The complete cloud has ``n_points`` points; the partial keeps the 15-35%
    of them nearest a seeded viewing direction; the image is a depth splat
    of the complete cloud from that direction.
    """
    rng = np.random.default_rng([seed, stream, n_points])
    out = []
    for i in range(count):
        complete = _surface_points(rng, n_points, i % 2)
        view = rng.standard_normal(3)
        view /= np.linalg.norm(view)
        keep = int(rng.uniform(0.15, 0.35) * n_points)
        order = np.argsort(-(complete @ view), kind="stable")
        partial = complete[np.sort(order[:keep])]
        out.append((partial, _depth_image(complete, -view, image_side), complete))
    return out
