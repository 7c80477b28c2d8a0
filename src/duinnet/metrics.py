"""Completion quality metrics: Chamfer distances, precision/recall, F-Score.

Every metric reads the same two arrays: each direction's nearest-neighbor
squared distances, found with one k-d tree per cloud (2 builds, 2 queries).
``evaluate_pair`` is the one place that finds them and applies each formula;
``chamfer_l1``, ``chamfer_l2`` and ``fscore`` read their fields from it. The
k-d tree path is validated against a brute-force double loop in the test
suite; both must agree to 1e-9 at 64-bit.

The l1 Chamfer distance averages Euclidean distances (halved per direction)
and the l2 variant averages squared distances, matching the
completion-benchmark literature. The F-Score threshold d is compared against
squared distances, so d=0.001 is meaningful on unit-normalized shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


def _pts(cloud) -> np.ndarray:
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("metric inputs must be nonempty point arrays")
    return pts


def nearest_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each point of a to its nearest neighbor in b."""
    d, _ = cKDTree(b).query(a, k=1)
    return d * d


@dataclass
class MetricReport:
    cd_l1: float
    cd_l2: float
    precision: float
    recall: float
    fscore: float
    threshold_d: float
    per_category: dict[str, dict[str, float]] = field(default_factory=dict)


def evaluate_pair(pred, gt, d: float = 0.001) -> MetricReport:
    """All five metrics of one pair, from one nearest-neighbor pass each way."""
    if not d > 0:  # NaN too
        raise ValueError("threshold d must be positive")
    pa, qa = _pts(pred), _pts(gt)
    dpq, dqp = nearest_sq_dists(pa, qa), nearest_sq_dists(qa, pa)
    precision = float((dpq < d).mean())
    recall = float((dqp < d).mean())
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricReport(
        cd_l1=0.5 * np.sqrt(dpq).mean() + 0.5 * np.sqrt(dqp).mean(),
        cd_l2=dpq.mean() + dqp.mean(),
        precision=precision, recall=recall, fscore=f, threshold_d=d,
    )


def chamfer_l1(p, q) -> float:
    """Symmetric mean nearest-neighbor distance, halved per direction."""
    return evaluate_pair(p, q).cd_l1


def chamfer_l2(p, q) -> float:
    """Symmetric mean nearest-neighbor distance on the squared scale (no halving)."""
    return evaluate_pair(p, q).cd_l2


def fscore(p, q, d: float) -> tuple[float, float, float]:
    """(precision, recall, F) at squared-distance threshold d; F = 0 when both sides miss."""
    rep = evaluate_pair(p, q, d)
    return rep.precision, rep.recall, rep.fscore


def summarize(reports: list[MetricReport], categories: list[str]) -> MetricReport:
    """Mean of per-pair reports, with a per-category breakdown in sorted order."""
    if not reports:
        raise ValueError("empty evaluation batch")

    def _mean(reps, attr):
        return float(np.mean([getattr(r, attr) for r in reps]))

    out = MetricReport(
        cd_l1=_mean(reports, "cd_l1"), cd_l2=_mean(reports, "cd_l2"),
        precision=_mean(reports, "precision"), recall=_mean(reports, "recall"),
        fscore=_mean(reports, "fscore"), threshold_d=reports[0].threshold_d,
    )
    by_cat: dict[str, list[MetricReport]] = {}
    for cat, rep in zip(categories, reports, strict=True):
        by_cat.setdefault(cat, []).append(rep)
    for cat in sorted(by_cat):
        reps = by_cat[cat]
        out.per_category[cat] = {
            "cd_l1": _mean(reps, "cd_l1"), "cd_l2": _mean(reps, "cd_l2"),
            "fscore": _mean(reps, "fscore"), "count": len(reps),
        }
    return out


def evaluate_batch(preds, gts, categories=None) -> MetricReport:
    """Mean metrics over pairs at ``evaluate_pair``'s threshold, with per-category breakdown.

    ``categories`` defaults to each ground-truth cloud's own category label,
    ``"all"`` when it has none.
    """
    if len(preds) != len(gts):
        raise ValueError(f"pred/gt length mismatch: {len(preds)} vs {len(gts)}")
    if categories is None:
        categories = [getattr(g, "category", "") or "all" for g in gts]
    return summarize([evaluate_pair(p, g) for p, g in zip(preds, gts)], categories)


def format_table(report: MetricReport, extra_rows: dict[str, dict[str, float]] | None = None) -> str:
    """Tab-separated table: per-category CD x 1e3 and FS, then the overall mean."""
    lines = ["category\tCD-l1(x1e-3)\tCD-l2(x1e-3)\tFS@%g" % report.threshold_d]
    for name, v in [*report.per_category.items(), *(extra_rows or {}).items(),
                    ("mean", vars(report))]:
        lines.append(f"{name}\t{v['cd_l1'] * 1e3:.3f}\t{v['cd_l2'] * 1e3:.3f}\t{v['fscore']:.3f}")
    return "\n".join(lines)
