"""Dataset synthesis: viewpoints, rendering, per-model records, splits, pairing."""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import ConvexHull

from helpers import (MODELNET40, box_mesh, render_depth_oracle, save_off, square_mesh,
                     synthetic_manifest, uv_sphere)

from duinnet import datasetgen, geometry
from duinnet.datasetgen import (UNSEEN_CATEGORIES, ConfigError, GenConfig, Manifest,
                                Viewpoint, load_raster, make_splits,
                                make_viewpoints, pair_sampler, render_depth_image,
                                save_raster, split_records, synthesize_model)

# Minimum pairwise angle of the 32-point Fibonacci lattice, frozen as a
# regression constant (exhaustive pairwise computation).
LATTICE_MIN_ANGLE_RAD = 0.5528319435738666

# SHA-256 of every cloud and raster in the two-model fixture's first tree, and
# of the float32 bytes of one 224-px render of the 9,024-face UV sphere, as the
# loop oracles in helpers.py produce them. Generated datasets are byte-identical
# across versions, so any change to these digests is a defect.
SYNTHESIS_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "synthesis_sha256.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- viewpoints ---------------------------------------------------------------------


def test_viewpoints_unit_norm():
    for vp in make_viewpoints(32):
        assert abs(np.linalg.norm(vp.position) - 1.0) < 1e-9


def test_viewpoints_minimum_angular_separation():
    pos = np.array([v.position for v in make_viewpoints(32)])
    cos = np.clip(pos @ pos.T, -1, 1)
    np.fill_diagonal(cos, -1)
    min_angle = np.arccos(cos.max())
    assert min_angle == pytest.approx(LATTICE_MIN_ANGLE_RAD, abs=1e-9)


def test_viewpoints_antipodal_balance():
    pos = np.array([v.position for v in make_viewpoints(32)])
    assert np.linalg.norm(pos.mean(axis=0)) < 0.1


def test_viewpoints_deterministic():
    a = np.array([v.position for v in make_viewpoints(32)])
    b = np.array([v.position for v in make_viewpoints(32)])
    assert np.array_equal(a, b)


def test_viewpoint_rejects_off_sphere_position():
    with pytest.raises(ValueError):
        Viewpoint(0, np.array([0.0, 0.0, 2.0]))


def test_viewpoint_pole_basis_fallback():
    right, up, forward = Viewpoint(0, np.array([0.0, 0.0, 1.0])).basis()
    for v in (right, up, forward):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert abs(np.dot(right, up)) < 1e-12 and abs(np.dot(right, forward)) < 1e-12


def test_viewpoints_need_at_least_two():
    with pytest.raises(ValueError):
        make_viewpoints(1)


# -- rendering ---------------------------------------------------------------------


def test_render_mesh_behind_camera_is_black():
    quad = square_mesh()
    # camera on +z looking at the origin; push the quad behind it
    mesh = geometry.TriMesh(quad.vertices + np.array([0, 0, 5.0]), quad.faces)
    vp = Viewpoint(0, np.array([0.0, 0.0, 1.0]))
    img = render_depth_image(mesh, vp, side=32, camera_distance=1.5)
    assert np.array_equal(img, np.zeros((32, 32, 3), np.float32))


def test_render_facing_quad_silhouette_area():
    quad = square_mesh().normalized()
    vp = Viewpoint(0, np.array([0.0, 0.0, 1.0]))
    side = 64
    img = render_depth_image(quad, vp, side=side, camera_distance=1.5)
    lit = img[:, :, 0] > 0
    # unit quad at the viewport scale side/1.8 projects to (side/1.8)^2 pixels
    expect = (side / 1.8) ** 2
    assert abs(lit.sum() - expect) / expect < 0.05
    ys, xs = np.nonzero(lit)
    center = np.array([ys.mean(), xs.mean()])
    assert np.abs(center - (side - 1) / 2).max() < 1.0


def test_render_deterministic():
    mesh = uv_sphere(8, 16).normalized()
    vp = make_viewpoints(32)[5]
    a = render_depth_image(mesh, vp, side=48)
    b = render_depth_image(mesh, vp, side=48)
    assert np.array_equal(a, b)


def test_render_empty_mesh_error():
    mesh = geometry.TriMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(geometry.GeometryError):
        render_depth_image(mesh, Viewpoint(0, np.array([0.0, 0.0, 1.0])))


def _assert_render_matches_oracle(mesh, vp, side, camera_distance=1.5):
    got = render_depth_image(mesh, vp, side=side, camera_distance=camera_distance)
    want = render_depth_oracle(mesh, vp, side=side, camera_distance=camera_distance)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", [1, 2, 17, 64])
@pytest.mark.parametrize("mesh", [box_mesh(), uv_sphere(8, 16), square_mesh()],
                         ids=["box", "sphere", "square"])
def test_render_matches_per_face_oracle(mesh, side):
    mesh = mesh.normalized()
    for vp in make_viewpoints(6):
        _assert_render_matches_oracle(mesh, vp, side)


def test_render_oracle_edge_cases():
    """Faces behind the camera, far off screen, with |det| < 1e-12, and a
    diagonal shared edge that runs through pixel centres, in one mesh."""
    quad = square_mesh().normalized()
    v = np.vstack([
        quad.vertices,                                   # 0-3: shared diagonal 0-2
        quad.vertices + [0.0, 0.0, 5.0],                 # 4-7: behind a +z camera
        quad.vertices + [1e6, 0.0, 0.0],                 # 8-11: far right
        quad.vertices - [0.0, 1e6, 0.0],                 # 12-15: far below
        [[0.1, 0.1, 0.0], [0.2, 0.2, 0.0], [0.3, 0.3, 0.0]],  # 16-18: collinear
    ])
    f = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [8, 9, 10], [12, 13, 14],
                  [16, 17, 18], [0, 0, 1]])
    mesh = geometry.TriMesh(v, f)
    for side in (1, 2, 9, 18, 36):
        _assert_render_matches_oracle(mesh, Viewpoint(0, np.array([0.0, 0.0, 1.0])), side)
        _assert_render_matches_oracle(mesh, make_viewpoints(8)[3], side)


def test_render_shared_edge_pixel_centres_are_drawn():
    # the anti-diagonal pixel centres lie exactly on the shared edge
    mesh = square_mesh().normalized()
    img = render_depth_image(mesh, Viewpoint(0, np.array([0.0, 0.0, 1.0])), side=18)
    lit = img[:, :, 0] > 0
    assert all(lit[j, 17 - j] for j in range(4, 14))


_unit = st.floats(-1, 1).filter(lambda x: abs(x) > 1e-3)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (6, 3), elements=st.one_of(
           st.floats(-1.2, 1.2), st.integers(-4, 4).map(lambda k: k / 4.0))),
       arrays(np.int64, st.tuples(st.integers(1, 8), st.just(3)),
              elements=st.integers(0, 5)),
       st.tuples(_unit, _unit, _unit),
       st.sampled_from([1, 2, 5, 16]),
       st.floats(0.3, 3.0))
def test_render_oracle_property(verts, faces, direction, side, camera_distance):
    pos = np.array(direction) / np.linalg.norm(direction)
    mesh = geometry.TriMesh(verts, faces)
    _assert_render_matches_oracle(mesh, Viewpoint(0, pos), side, camera_distance)


def test_render_non_finite_vertex_is_geometry_error():
    mesh = square_mesh()
    mesh.vertices[0, 0] = np.nan
    with pytest.raises(geometry.GeometryError):
        render_depth_image(mesh, Viewpoint(0, np.array([0.0, 0.0, 1.0])))


def test_raster_roundtrip(tmp_path):
    img = np.random.default_rng(0).random((16, 16, 3)).astype(np.float32)
    path = tmp_path / "img.raster"
    save_raster(path, img)
    assert path.read_bytes().startswith(b"PCIMG1\n")
    back = load_raster(path)
    assert back.shape == (16, 16, 3)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6  # 8-bit quantization


def test_raster_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        save_raster(tmp_path / "x.raster", np.zeros((8, 9, 3)))


@pytest.mark.parametrize("blob", [
    b"PCIMG1\n\x04\x00",                              # side field cut short
    b"PCIMG1\n" + struct.pack("<I", 4) + bytes(47),     # planes one byte short
    b"PCIMG1\n" + struct.pack("<I", 2**31) + bytes(8),  # side far beyond the file
    b"PCIMG",                                          # magic cut short
], ids=["side", "planes", "huge-side", "magic"])
def test_load_raster_bad_file_raises_value_error_naming_path(tmp_path, blob):
    path = tmp_path / "bad.raster"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="bad.raster"):
        load_raster(path)


_RASTER_BLOBS = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda side, body: b"PCIMG1\n" + struct.pack("<I", side) + body,
              st.one_of(st.integers(0, 5), st.integers(0, 2**32 - 1)), st.binary(max_size=80)),
)


@settings(max_examples=200, deadline=None)
@given(blob=_RASTER_BLOBS)
def test_load_raster_fuzz_raises_only_value_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.raster"
    path.write_bytes(blob)
    try:
        img = load_raster(path)
    except ValueError:
        return
    side = struct.unpack("<I", blob[7:11])[0]
    assert img.shape == (side, side, 3) and img.dtype == np.float32


# -- per-model synthesis ----------------------------------------------------------


def test_synthesize_convex_model(tmp_path):
    cfg = GenConfig(n_points=512, n_viewpoints=8, image_side=32, seed=3)
    records, exclusions = synthesize_model(
        uv_sphere(10, 20), "sphere_0001", "bowl", make_viewpoints(8), cfg, tmp_path)
    assert len(records) == 8 and not exclusions
    complete = geometry.load_cloud_ply(tmp_path / records[0].complete_path)
    assert len(complete) == 512
    for rec in records:
        partial = geometry.load_cloud_ply(tmp_path / rec.partial_path)
        noisy = geometry.load_cloud_ply(tmp_path / rec.noisy_path)
        ratio = len(partial) / 512
        # a convex shell is ~50% visible from anywhere, so every view clamps
        # into the configured band
        assert 0.10 <= ratio <= 0.40
        assert len(noisy) == len(partial)
        img = load_raster(tmp_path / rec.image_path)
        assert img.shape == (32, 32, 3) and img.max() > 0


def test_dataset_fixture_record_and_pair_arithmetic(two_model_dataset):
    _, _, manifest, report = two_model_dataset
    assert report["records"] == 64
    assert manifest.pair_count == 64
    assert manifest.pair_count == 32 * len(manifest.models())
    assert not report["mesh_errors"] and not report["excluded_viewpoints"]


def test_dataset_fixture_manifest_referential_integrity(two_model_dataset):
    root, _, manifest, _ = two_model_dataset
    for rec in manifest.records:
        for path in (rec.complete_path, rec.partial_path, rec.noisy_path, rec.image_path):
            assert (root / path).exists(), path
        complete = geometry.load_cloud_ply(root / rec.complete_path)
        assert len(complete) == 2048


def test_dataset_fixture_partials_subset_of_complete(two_model_dataset):
    root, _, manifest, _ = two_model_dataset
    for rec in manifest.records[::16]:
        complete = geometry.load_cloud_ply(root / rec.complete_path)
        partial = geometry.load_cloud_ply(root / rec.partial_path)
        pool = set(map(tuple, complete.points))
        assert all(tuple(p) in pool for p in partial.points)


def _generate_good_and_bad(tmp_path, write_bad, bad_name="bad.off"):
    """Generate a box as model "good" and whatever ``write_bad`` writes as "bad"."""
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    save_off(mesh_dir / "good.off", box_mesh())
    write_bad(mesh_dir / bad_name)
    cfg = GenConfig(n_points=64, n_viewpoints=2, image_side=32)
    return datasetgen.generate_dataset(
        {("chair", "good"): mesh_dir / "good.off",
         ("chair", "bad"): mesh_dir / bad_name}, cfg, tmp_path / "out")


def _assert_only_bad_failed(tmp_path, manifest, report):
    assert [e["model_id"] for e in report["mesh_errors"]] == ["bad"]
    assert {r.model_id for r in manifest.records} == {"good"}
    assert (tmp_path / "out" / "chair" / "good" / "complete.ply").exists()


def test_unreadable_mesh_is_reported_not_fatal(tmp_path):
    manifest, report = _generate_good_and_bad(
        tmp_path, lambda p: p.write_text("not a mesh\n"))
    _assert_only_bad_failed(tmp_path, manifest, report)


def test_truncated_off_is_reported_not_fatal(tmp_path):
    # declares two faces and has none
    manifest, report = _generate_good_and_bad(
        tmp_path, lambda p: p.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"))
    _assert_only_bad_failed(tmp_path, manifest, report)
    assert "truncated" in report["mesh_errors"][0]["error"]


def test_malformed_ply_is_reported_not_fatal(tmp_path):
    # the face row lists two of its three indices
    manifest, report = _generate_good_and_bad(
        tmp_path, lambda p: p.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\nelement face 1\nend_header\n"
            "0 0 0\n1 0 0\n0 1 0\n3 0 1\n"), bad_name="bad.ply")
    _assert_only_bad_failed(tmp_path, manifest, report)
    assert "bad.ply" in report["mesh_errors"][0]["error"]


def test_failed_hull_is_reported_not_fatal(tmp_path, monkeypatch):
    # "bad" sorts first, so the first two hulls (first try and jittered retry)
    # are its own; the good mesh then gets the real ConvexHull.
    calls = []

    def hull_failing_twice(points):
        calls.append(len(points))
        if len(calls) <= 2:
            raise geometry.QhullError("QH6154 initial simplex is flat")
        return ConvexHull(points)

    monkeypatch.setattr(geometry, "ConvexHull", hull_failing_twice)
    manifest, report = _generate_good_and_bad(tmp_path, lambda p: save_off(p, box_mesh()))
    _assert_only_bad_failed(tmp_path, manifest, report)
    assert "jitter" in report["mesh_errors"][0]["error"]


def test_dataset_fixture_bytes_pinned(two_model_dataset):
    root = two_model_dataset[0]
    digests = {p.relative_to(root).as_posix(): _sha256(p.read_bytes())
               for p in sorted(root.rglob("*")) if p.suffix in (".ply", ".raster")}
    assert digests == SYNTHESIS_SHA256["files"]


def test_render_9024_face_sphere_bytes_pinned():
    mesh = uv_sphere(48, 96).normalized()
    assert len(mesh.faces) == 9024
    img = render_depth_image(mesh, make_viewpoints(32)[5], side=224)
    assert _sha256(img.tobytes()) == SYNTHESIS_SHA256["render"]


def test_manifest_json_roundtrip(two_model_dataset):
    _, _, manifest, _ = two_model_dataset
    again = Manifest.from_json(manifest.to_json())
    assert again.config_hash == manifest.config_hash
    assert [r.record_id for r in again.records] == [r.record_id for r in manifest.records]


# -- splits ------------------------------------------------------------------------


def test_splits_zero_shot_excludes_the_ten_unseen_categories():
    manifest = make_splits(synthetic_manifest(MODELNET40))
    zs = manifest.splits["zeroshot"]
    assert sorted(zs["unseen_categories"]) == sorted(UNSEEN_CATEGORIES)
    train_cats = {r.category for r in split_records(manifest, "zeroshot", "train")}
    assert not train_cats & set(UNSEEN_CATEGORIES)
    assert len(train_cats) == 30
    test_cats = {r.category for r in split_records(manifest, "zeroshot", "test")}
    assert len(test_cats) == 40
    unseen_test = {r.category for r in split_records(manifest, "zeroshot", "test_unseen")}
    assert unseen_test == set(UNSEEN_CATEGORIES)


def test_splits_supervised_model_disjointness():
    manifest = make_splits(synthetic_manifest(["chair", "desk"], models_per_cat=5))
    train = {(r.category, r.model_id) for r in split_records(manifest, "supervised", "train")}
    test = {(r.category, r.model_id) for r in split_records(manifest, "supervised", "test")}
    assert not train & test
    # per-category lexicographic split, first (larger) half to train
    assert sum(1 for c, _ in train if c == "chair") == 3
    assert sum(1 for c, _ in test if c == "chair") == 2


def test_splits_denoising_shares_the_supervised_partition():
    manifest = make_splits(synthetic_manifest(["chair"], models_per_cat=4))
    assert manifest.splits["denoising"] == manifest.splits["supervised"]


def test_splits_unknown_unseen_category_rejected():
    manifest = synthetic_manifest(["chair", "desk"])
    with pytest.raises(ConfigError):
        make_splits(manifest, unseen=["spaceship"])


def test_splits_default_unseen_restricted_to_present_categories():
    manifest = make_splits(synthetic_manifest(["chair", "bowl"]))
    assert manifest.splits["zeroshot"]["unseen_categories"] == ["bowl"]


def test_split_records_unknown_task():
    manifest = make_splits(synthetic_manifest(["chair"]))
    with pytest.raises(ConfigError):
        split_records(manifest, "weakly_supervised", "train")


# -- pair sampler -------------------------------------------------------------------


def test_pair_sampler_deterministic_and_model_consistent():
    manifest = synthetic_manifest(["chair"], models_per_cat=3, n_viewpoints=8)
    records = manifest.records
    pairs1 = list(pair_sampler(manifest, records, seed=5))
    pairs2 = list(pair_sampler(manifest, records, seed=5))
    assert [(a.record_id, b.record_id) for a, b in pairs1] == \
           [(a.record_id, b.record_id) for a, b in pairs2]
    for rec, img_rec in pairs1:
        assert img_rec.model_id == rec.model_id


def test_pair_sampler_uniform_over_viewpoints():
    manifest = synthetic_manifest(["chair"], models_per_cat=1, n_viewpoints=32)
    records = manifest.records
    counts = np.zeros(32)
    draws = 0
    for seed in range(313):  # 313 * 32 = 10016 draws
        for _, img_rec in pair_sampler(manifest, records, seed=seed):
            counts[img_rec.viewpoint_id] += 1
            draws += 1
    expect = draws / 32
    sigma = np.sqrt(draws * (1 / 32) * (31 / 32))
    assert np.abs(counts - expect).max() < 3 * sigma
