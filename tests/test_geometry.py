"""Point-set and mesh algorithms: FPS, kNN, PDS, HPR, noise, resampling, IO."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from helpers import (box_mesh, eliminate_samples_oracle, fps_norm_loop_oracle,
                     fps_replay_oracle, knn_argsort_oracle, knn_sort_oracle, save_off,
                     square_mesh, uv_sphere)

from duinnet.geometry import (GeometryError, HPRConfig, PointCloud, TriMesh,
                              _eliminate_samples,
                              add_gaussian_noise, fps, hidden_point_removal, knn,
                              load_cloud_ply, load_off, load_ply, nearest,
                              poisson_disk_sample, resample_to, sample_on_mesh,
                              save_cloud_ply)


def _min_pairwise_dist(pts: np.ndarray) -> float:
    d, _ = cKDTree(pts).query(pts, k=2)
    return float(d[:, 1].min())


def _sphere_points(n: int, radius: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True) * radius


# -- fps ---------------------------------------------------------------------------


def test_fps_square_diagonal():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.float64)
    idx = fps(pts, 2, seed_rule="first_index")
    assert list(idx) == [0, 3]


def test_fps_exhaustion_returns_all_indices():
    pts = np.random.default_rng(0).standard_normal((17, 3))
    idx = fps(pts, 17)
    assert sorted(idx) == list(range(17))


def test_fps_m_out_of_range():
    pts = np.zeros((4, 3))
    with pytest.raises(ValueError):
        fps(pts, 5)
    with pytest.raises(ValueError):
        fps(pts, 0)


def test_fps_unknown_seed_rule():
    with pytest.raises(ValueError):
        fps(np.zeros((4, 3)), 2, seed_rule="bogus")


def test_fps_greedy_replay_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pts = rng.standard_normal((64, 3))
        m = int(rng.integers(2, 32))
        got = fps(pts, m, seed_rule="first_index")
        expect = fps_replay_oracle(pts, m, seed=0)
        np.testing.assert_array_equal(got, expect)


def test_fps_centroid_seed_permutation_invariant():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((48, 3))
    base = set(map(tuple, pts[fps(pts, 12, seed_rule="farthest_from_centroid")]))
    for _ in range(10):
        perm = rng.permutation(48)
        sel = set(map(tuple, pts[perm][fps(pts[perm], 12, seed_rule="farthest_from_centroid")]))
        assert sel == base


# -- knn ---------------------------------------------------------------------------


def test_knn_query_on_cloud_point():
    pts = np.random.default_rng(3).standard_normal((20, 3))
    idx = knn(pts, pts[7], 1)
    assert idx[0, 0] == 7


def test_knn_collinear_points():
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=np.float64)
    idx = knn(pts, pts[0], 2)
    assert list(idx[0]) == [0, 1]


def test_knn_k_too_large():
    with pytest.raises(ValueError):
        knn(np.zeros((3, 3)), np.zeros(3), 4)


@pytest.mark.parametrize("k", [0, -1])
def test_knn_rejects_k_below_one(k):
    with pytest.raises(ValueError):
        knn(np.zeros((3, 3)), np.zeros(3), k)


def test_knn_full_sort_oracle():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((128, 3))
    queries = rng.standard_normal((16, 3))
    np.testing.assert_array_equal(knn(pts, queries, 9), knn_sort_oracle(pts, queries, 9))


def test_knn_self_index_property():
    pts = np.random.default_rng(5).standard_normal((40, 3))
    idx = knn(pts, pts, 1)
    np.testing.assert_array_equal(idx[:, 0], np.arange(40))


# -- fps / knn against the former NumPy implementations ---------------------------


@st.composite
def _tied_clouds(draw, max_n=40):
    """Points on a coarse integer lattice (some perturbed to arbitrary floats),
    padded by duplicates as ``resample_to`` pads a partial cloud: equal
    distances and coincident points are the rule, not the exception."""
    n = draw(st.integers(1, max_n))
    coord = st.one_of(st.integers(-2, 2).map(float), st.floats(-2, 2))
    pts = draw(arrays(np.float64, (n, 3), elements=coord))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=max_n - n))
    return np.vstack([pts, pts[extra]])


@settings(max_examples=200, deadline=None)
@given(_tied_clouds(), st.data(), st.sampled_from(["first_index", "farthest_from_centroid"]))
def test_fps_matches_norm_loop_oracle(pts, data, seed_rule):
    n = len(pts)
    m = data.draw(st.one_of(st.just(n), st.just(1), st.integers(1, n)), label="m")
    np.testing.assert_array_equal(fps(pts, m, seed_rule=seed_rule),
                                  fps_norm_loop_oracle(pts, m, seed_rule=seed_rule))


@settings(max_examples=200, deadline=None)
@given(_tied_clouds(), st.data())
def test_knn_matches_argsort_oracle(pts, data):
    n = len(pts)
    k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
    queries = data.draw(st.one_of(
        st.just(pts),                                  # m == n: every point queries the cloud
        st.integers(0, n - 1).map(lambda i: pts[i]),   # a single (3,) query
        _tied_clouds(max_n=12)), label="queries")
    np.testing.assert_array_equal(knn(pts, queries, k), knn_argsort_oracle(pts, queries, k))


def test_fps_knn_match_oracles_on_padded_partial():
    # the encoder's calls on a 535-point partial padded to 2,048 by duplication
    rng = np.random.default_rng(7)
    pts = resample_to(PointCloud(rng.standard_normal((535, 3))), 2048).points
    idx = fps(pts, 512, seed_rule="farthest_from_centroid")
    np.testing.assert_array_equal(idx, fps_norm_loop_oracle(pts, 512, "farthest_from_centroid"))
    centers = pts[idx]
    np.testing.assert_array_equal(knn(pts, centers, 16), knn_argsort_oracle(pts, centers, 16))
    np.testing.assert_array_equal(knn(centers, centers, 16),
                                  knn_argsort_oracle(centers, centers, 16))


def test_fps_knn_keep_the_oracles_sum_order():
    # (a, b, c) and (c, b, a) are equally far from the origin in exact arithmetic,
    # but (a*a + b*b) + c*c and (c*c + b*b) + a*a can differ in the last bit
    rng = np.random.default_rng(9)
    half = rng.uniform(-2, 2, size=(200, 3))
    pts = np.vstack([np.zeros((1, 3)), half, half[:, ::-1]])
    np.testing.assert_array_equal(knn(pts, pts[0], len(pts)),
                                  knn_argsort_oracle(pts, pts[0], len(pts)))
    np.testing.assert_array_equal(fps(pts, 100), fps_norm_loop_oracle(pts, 100))


def test_fps_knn_match_oracles_with_nan_points():
    pts = np.random.default_rng(8).standard_normal((30, 3))
    pts[[2, 9, 10]] = np.nan
    np.testing.assert_array_equal(fps(pts, 12), fps_norm_loop_oracle(pts, 12))
    for k in (1, 5, 28, 30):
        np.testing.assert_array_equal(knn(pts, pts, k), knn_argsort_oracle(pts, pts, k))


# -- nearest -----------------------------------------------------------------------


def _dense_argmin(points, queries):
    """The index ``np.argmin`` picks in each row of the dense squared-distance matrix."""
    return ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


@settings(max_examples=200, deadline=None)
@given(_tied_clouds(), st.data(), st.sampled_from([np.float32, np.float64]))
def test_nearest_matches_dense_argmin(pts, data, dtype):
    queries = data.draw(st.one_of(st.just(pts), _tied_clouds(max_n=12)), label="queries")
    pts, queries = pts.astype(dtype), queries.astype(dtype)
    np.testing.assert_array_equal(nearest(pts, queries), _dense_argmin(pts, queries))
    np.testing.assert_array_equal(nearest(queries, pts), _dense_argmin(queries, pts))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nearest_across_row_blocks(dtype):
    # 700 points give row blocks of 46 or 93 queries; 1,000 queries leave a short last block
    rng = np.random.default_rng(10)
    pts = resample_to(PointCloud(rng.standard_normal((250, 3))), 700).points
    queries = np.vstack([pts[::3], rng.standard_normal((1000 - len(pts[::3]), 3))])
    pts, queries = pts.astype(dtype), queries.astype(dtype)
    np.testing.assert_array_equal(nearest(pts, queries), _dense_argmin(pts, queries))
    np.testing.assert_array_equal(nearest(pts, queries), knn(pts, queries, 1)[:, 0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nearest_keeps_the_dense_sum_order_and_nan_rule(dtype):
    rng = np.random.default_rng(11)
    half = rng.uniform(-2, 2, size=(200, 3))
    pts = np.vstack([half, half[:, ::-1]]).astype(dtype)   # mirrored: equal in exact arithmetic
    origin = np.zeros((1, 3), dtype=dtype)
    np.testing.assert_array_equal(nearest(pts, origin), _dense_argmin(pts, origin))
    pts[[5, 17]] = np.nan  # a NaN distance wins argmin, so NaN points are picked first
    queries = rng.standard_normal((30, 3)).astype(dtype)
    queries[3] = np.nan
    np.testing.assert_array_equal(nearest(pts, queries), _dense_argmin(pts, queries))
    np.testing.assert_array_equal(nearest(queries, pts), _dense_argmin(queries, pts))


def test_nearest_rejects_empty_point_set():
    with pytest.raises(ValueError):
        nearest(np.zeros((0, 3)), np.zeros((2, 3)))


# -- poisson disk sampling -------------------------------------------------------


def test_pds_single_point_on_surface():
    mesh = square_mesh()
    pc = poisson_disk_sample(mesh, 1, seed=0)
    p = pc.points[0]
    assert abs(p[2]) < 1e-12 and 0 <= p[0] <= 1 and 0 <= p[1] <= 1


def test_pds_square_separation_bound():
    pc = poisson_disk_sample(square_mesh(), 100, seed=0)
    assert len(pc) == 100
    bound = 0.8 * np.sqrt(1.0 / (2 * np.sqrt(3.0) * 100))
    assert _min_pairwise_dist(pc.points) >= bound


def test_pds_sphere_radii_and_blue_noise():
    """On a triangulated sphere, samples sit on the facets (slightly inside the
    true radius) and spread far better than uniform sampling."""
    mesh = uv_sphere(12, 24)
    pc = poisson_disk_sample(mesh, 256, seed=0)
    assert len(pc) == 256
    radii = np.linalg.norm(pc.points, axis=1)
    assert radii.max() <= 1 + 1e-9
    assert radii.min() >= 0.97  # facet sag of the 12x24 tessellation
    pds_sep = _min_pairwise_dist(pc.points)
    uniform_seps = []
    for s in range(20):
        up = sample_on_mesh(mesh, 256, np.random.default_rng(s))
        uniform_seps.append(_min_pairwise_dist(up))
    assert pds_sep > np.percentile(uniform_seps, 5)


def test_pds_points_lie_on_triangles():
    mesh = box_mesh()
    pc = poisson_disk_sample(mesh, 64, seed=1)
    tri = mesh.vertices[mesh.faces]
    for p in pc.points:
        # barycentric residual against the best-matching face
        best = np.inf
        for a, b, c in tri:
            n = np.cross(b - a, c - a)
            n = n / np.linalg.norm(n)
            best = min(best, abs(np.dot(p - a, n)))
        assert best < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("mesh", [box_mesh(), uv_sphere(12, 24)], ids=["box", "sphere"])
def test_eliminate_samples_matches_heap_oracle(mesh, seed):
    n = 256
    pts = sample_on_mesh(mesh, 10 * n, np.random.default_rng(seed))
    r_max = 2.0 * np.sqrt(mesh.face_areas().sum() / (2 * np.sqrt(3.0) * n))
    np.testing.assert_array_equal(_eliminate_samples(pts, n, r_max),
                                  eliminate_samples_oracle(pts, n, r_max))


def test_eliminate_samples_without_pairs_keeps_highest_indices():
    pts = np.arange(30, dtype=np.float64)[:, None] * np.array([1.0, 0.0, 0.0])
    # all weights are zero, so ties drop the lowest indices first
    keep = _eliminate_samples(pts, 12, 0.5)
    np.testing.assert_array_equal(keep, np.arange(18, 30))
    np.testing.assert_array_equal(keep, eliminate_samples_oracle(pts, 12, 0.5))


def test_eliminate_samples_single_removal():
    pts = np.random.default_rng(2).random((50, 3))
    keep = _eliminate_samples(pts, 49, 0.3)
    assert len(keep) == 49
    np.testing.assert_array_equal(keep, eliminate_samples_oracle(pts, 49, 0.3))


@pytest.mark.parametrize("n", [1, 7, 20, 35])
def test_eliminate_samples_exact_weight_ties(n):
    # a unit lattice: interior, edge and corner points share exactly equal weights
    g = np.arange(6, dtype=np.float64)
    pts = np.stack(np.meshgrid(g, g, [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
    np.testing.assert_array_equal(_eliminate_samples(pts, n, 1.5),
                                  eliminate_samples_oracle(pts, n, 1.5))


_lattice = st.integers(-3, 3).map(lambda k: k / 4.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40).flatmap(lambda m: st.tuples(
           arrays(np.float64, (m, 3), elements=st.one_of(_lattice, st.floats(-1, 1))),
           st.integers(1, m))),
       st.floats(0.05, 2.0))
def test_eliminate_samples_oracle_property(cloud, r_max):
    pts, n = cloud
    np.testing.assert_array_equal(_eliminate_samples(pts, n, r_max),
                                  eliminate_samples_oracle(pts, n, r_max))


def test_pds_degenerate_mesh_error():
    flat = TriMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(GeometryError):
        poisson_disk_sample(flat, 4)


# -- hidden point removal ----------------------------------------------------------


def test_hpr_single_point_visible():
    res = hidden_point_removal(PointCloud(np.array([[0.0, 0.0, 0.0]])), (0, 0, 3))
    assert list(res.indices) == [0]


def test_hpr_sphere_front_facing_oracle():
    pts = _sphere_points(500, radius=0.5)
    res = hidden_point_removal(PointCloud(pts), (0, 0, 3), HPRConfig(2.0))
    visible = np.zeros(500, dtype=bool)
    visible[res.indices] = True
    front = pts[:, 2] > 0  # dot(p - center, view direction)
    iou = (visible & front).sum() / (visible | front).sum()
    assert iou >= 0.9


def test_hpr_occluded_cluster_stays_hidden():
    rng = np.random.default_rng(1)
    near = np.column_stack([rng.uniform(-0.3, 0.3, (60, 2)), np.full(60, 0.5)])
    near = near[near[:, 0] ** 2 + near[:, 1] ** 2 <= 0.09]
    far = np.column_stack([rng.uniform(-0.1, 0.1, (60, 2)), np.full(60, -0.5)])
    far = far[far[:, 0] ** 2 + far[:, 1] ** 2 <= 0.01]
    res = hidden_point_removal(PointCloud(np.vstack([near, far])), (0, 0, 3))
    far_visible = (res.indices >= len(near)).sum()
    assert far_visible <= 0.1 * len(res.indices)


def test_hpr_visible_set_grows_with_radius():
    pts = _sphere_points(500, radius=0.5)
    cloud = PointCloud(pts)
    prev: set[int] = set()
    for gamma in (1.0, 2.0, 3.0):
        cur = set(hidden_point_removal(cloud, (0, 0, 3), HPRConfig(gamma)).indices.tolist())
        assert prev <= cur
        prev = cur


def test_hpr_output_is_index_subset():
    pts = np.random.default_rng(2).uniform(-0.5, 0.5, (100, 3))
    res = hidden_point_removal(PointCloud(pts), (0, 0, 4))
    assert len(set(res.indices)) == len(res.indices)
    assert res.indices.min() >= 0 and res.indices.max() < 100


def test_hpr_viewpoint_inside_bounding_sphere():
    pts = _sphere_points(50, radius=1.0)
    with pytest.raises(GeometryError):
        hidden_point_removal(PointCloud(pts), (0, 0, 0.5))


def test_hpr_failed_jitter_retry_raises_geometry_error():
    # two points give a three-point hull input, which no jitter can fix
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(GeometryError):
        hidden_point_removal(PointCloud(pts), (0, 0, 3))


def test_hpr_collinear_input_jitters_and_reports():
    pts = np.column_stack([np.linspace(-0.4, 0.4, 30), np.zeros(30), np.zeros(30)])
    res = hidden_point_removal(PointCloud(pts), (0, 0, 3))
    assert res.jittered
    assert len(res.indices) >= 1


# -- noise / resampling ------------------------------------------------------------


def test_noise_sigma_zero_is_identity():
    pts = np.random.default_rng(6).standard_normal((30, 3))
    out = add_gaussian_noise(PointCloud(pts), 0.0, seed=1)
    np.testing.assert_array_equal(out.points, pts)
    assert not np.shares_memory(out.points, pts)


def test_noise_std_matches_bbox_scale():
    pts = np.random.default_rng(7).uniform(0, 1, (2048, 3))
    diag = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
    out = add_gaussian_noise(PointCloud(pts), 0.01, seed=2)
    delta = out.points - pts
    for ax in range(3):
        assert abs(delta[:, ax].std() - 0.01 * diag) < 0.1 * 0.01 * diag


def test_noise_deterministic_under_seed():
    pts = np.random.default_rng(8).standard_normal((100, 3))
    a = add_gaussian_noise(PointCloud(pts), 0.05, seed=3).points
    b = add_gaussian_noise(PointCloud(pts), 0.05, seed=3).points
    assert np.array_equal(a, b)


def test_resample_identity_size():
    pts = np.random.default_rng(9).standard_normal((64, 3))
    out = resample_to(PointCloud(pts), 64)
    np.testing.assert_array_equal(out.points, pts)


def test_resample_upsample_duplicates_only():
    pts = np.random.default_rng(10).standard_normal((100, 3))
    out = resample_to(PointCloud(pts), 2048)
    assert len(out) == 2048
    source = set(map(tuple, pts))
    assert all(tuple(p) in source for p in out.points)


def test_resample_downsample_is_fps():
    pts = np.random.default_rng(11).standard_normal((96, 3))
    out = resample_to(PointCloud(pts), 24)
    expect = pts[fps_replay_oracle(pts, 24, seed=0)]
    np.testing.assert_array_equal(out.points, expect)


def test_resample_rejects_nonpositive():
    with pytest.raises(ValueError):
        resample_to(PointCloud(np.zeros((3, 3)) + np.eye(3)), 0)


# -- mesh / cloud IO ---------------------------------------------------------------


def test_off_roundtrip(tmp_path):
    mesh = box_mesh()
    path = tmp_path / "box.off"
    save_off(path, mesh)
    loaded = load_off(path)
    np.testing.assert_allclose(loaded.vertices, mesh.vertices)
    assert len(loaded.faces) == len(mesh.faces)


def test_off_glued_header(tmp_path):
    path = tmp_path / "glued.off"
    path.write_text("OFF4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n")
    mesh = load_off(path)
    assert len(mesh.vertices) == 4 and len(mesh.faces) == 1


def test_off_quad_fan_triangulation(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    mesh = load_off(path)
    assert len(mesh.faces) == 2


def test_off_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(GeometryError):
        load_off(path)


@pytest.mark.parametrize("text", [
    "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n",
    "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1\n",
    "OFF\n4 1 0\n0 0 0\n1 0 0\n",
    "OFF\n4\n",
], ids=["missing-face", "short-face", "missing-vertices", "short-counts"])
def test_off_truncated_raises_geometry_error(tmp_path, text):
    path = tmp_path / "truncated.off"
    path.write_text(text)
    with pytest.raises(GeometryError):
        load_off(path)


def test_ply_mesh_parse(tmp_path):
    path = tmp_path / "tri.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    mesh = load_ply(path)
    assert len(mesh.vertices) == 3 and len(mesh.faces) == 1


_PLY_HEAD = "ply\nformat ascii 1.0\nelement vertex 3\nelement face 1\nend_header\n"


@pytest.mark.parametrize("text", [
    _PLY_HEAD + "0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
    "ply\nformat ascii 1.0\n\nelement vertex 1\nend_header\n0 0 0\n",
    "ply\nformat ascii 1.0\nelement vertex\nend_header\n0 0 0\n",
    "ply\nformat\nelement vertex 1\nend_header\n0 0 0\n",
    _PLY_HEAD + "0 0 0\n1 0 0\n",
], ids=["short-face", "blank-header-line", "vertex-without-count", "bare-format",
        "missing-rows"])
def test_ply_malformed_raises_geometry_error(tmp_path, text):
    path = tmp_path / "bad.ply"
    path.write_text(text)
    with pytest.raises(GeometryError, match="bad.ply"):
        load_ply(path)


@pytest.mark.parametrize("loader,text", [
    (load_off, "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 -1 1 2\n"),
    (load_off, "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n"),
    (load_off, "OFF\n-1 0 0\n"),
    (load_off, "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n-1\n3 0 1 2\n"),
    (load_off, "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 nan\n3 0 1 2\n"),
    (load_ply, _PLY_HEAD + "0 0 0\n1 0 0\n0 1 0\n3 0 1 -2\n"),
    (load_ply, "ply\nformat ascii 1.0\nelement vertex -1\nend_header\n0 0 0\n"),
    (load_ply, "ply\nformat ascii 1.0\nelement vertex 2\nend_header\n0 0\n1 1\n"),
], ids=["off-negative-index", "off-huge-index", "off-negative-count", "off-negative-corners",
        "off-nan-vertex", "ply-negative-index", "ply-negative-count", "ply-two-coordinates"])
def test_mesh_loaders_reject_bad_values(tmp_path, loader, text):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(GeometryError):
        loader(path)


_MESH_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["0.5", "-0", "nan", "inf", "1e999", "x", "#", "99999999999999999999"]))
_MESH_BLOBS = st.one_of(
    st.binary(max_size=120),
    st.builds(lambda head, rows: (head + "\n".join(" ".join(r) for r in rows)).encode(),
              st.sampled_from(["OFF\n", "OFF3 ", _PLY_HEAD,
                               "ply\nformat ascii 1.0\nelement vertex 2\nend_header\n"]),
              st.lists(st.lists(_MESH_TOKENS, max_size=5), max_size=8)),
)


@settings(max_examples=300, deadline=None)
@given(blob=_MESH_BLOBS, loader=st.sampled_from([load_off, load_ply]))
def test_mesh_loaders_fuzz_raise_only_documented_errors(tmp_path_factory, blob, loader):
    path = tmp_path_factory.getbasetemp() / "fuzz.mesh"
    path.write_bytes(blob)
    try:
        mesh = loader(path)
    except (ValueError, GeometryError):
        return
    assert mesh.vertices.ndim == 2 and mesh.vertices.shape[1] == 3
    assert np.isfinite(mesh.vertices).all()
    assert mesh.faces.size == 0 or 0 <= mesh.faces.min() <= mesh.faces.max() < len(mesh.vertices)


def test_cloud_ply_roundtrip(tmp_path):
    pts = np.random.default_rng(13).standard_normal((50, 3))
    path = tmp_path / "cloud.ply"
    save_cloud_ply(path, PointCloud(pts))
    loaded = load_cloud_ply(path)
    assert len(loaded) == 50
    np.testing.assert_allclose(loaded.points, pts, atol=1e-6)  # float32 emission


def test_mesh_normalized_invariants():
    mesh = TriMesh(np.random.default_rng(14).uniform(-5, 5, (20, 3)) * 3,
                   np.array([[0, 1, 2], [3, 4, 5]]))
    norm = mesh.normalized()
    extent = norm.vertices.max(axis=0) - norm.vertices.min(axis=0)
    assert abs(extent.max() - 1.0) < 1e-12
    assert np.abs(norm.vertices.mean(axis=0)).max() < 1e-12


def test_point_cloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0, 0]]))
