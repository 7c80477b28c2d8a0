from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import box_mesh, save_off, uv_sphere  # noqa: E402

from duinnet.datasetgen import GenConfig, generate_dataset  # noqa: E402
from duinnet.model.network import _blas_threads  # noqa: E402


@pytest.fixture(autouse=True)
def _blas_threads_restored():
    """Fail a test that leaves NumPy's OpenBLAS on another thread count than
    it found (``cli.main`` pins one thread for model commands, then restores)."""
    before = _blas_threads()
    yield
    assert _blas_threads() == before, "the test left the BLAS thread count changed"


@pytest.fixture(scope="session")
def two_model_dataset(tmp_path_factory):
    """The standard 2-model synthesis fixture, generated twice under one seed.

    Returns (root, root_again, manifest, report); the duplicate tree backs the
    byte-identical-regeneration checks.
    """
    base = tmp_path_factory.mktemp("dataset_fixture")
    mesh_dir = base / "meshes"
    (mesh_dir / "airplane").mkdir(parents=True)
    (mesh_dir / "bowl").mkdir(parents=True)
    save_off(mesh_dir / "airplane" / "airplane_0001.off", box_mesh())
    save_off(mesh_dir / "bowl" / "bowl_0001.off", uv_sphere())
    meshes = {
        ("airplane", "airplane_0001"): mesh_dir / "airplane" / "airplane_0001.off",
        ("bowl", "bowl_0001"): mesh_dir / "bowl" / "bowl_0001.off",
    }
    cfg = GenConfig(image_side=32, seed=7)
    manifest, report = generate_dataset(meshes, cfg, base / "run1")
    generate_dataset(meshes, cfg, base / "run2")
    return base / "run1", base / "run2", manifest, report


_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if outcome == 'passed' else 'FAIL'}  {name}")
