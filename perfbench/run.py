"""DuInNet benchmark: run one workload and report its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload {synth,mini,paper} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S --trace {0,1}

The benchmark imports ``duinnet`` from ``src/`` of the same checkout. Each
workload runs in its own process with one BLAS thread; ``all``
runs the three workloads one after another, each in its own process, and
prints a table of every metric under its user-facing name.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The full result,
with run metadata, goes to ``.bench_out/result-<workload>-seed<N>-trace<T>.json``;
a traced run also writes its spans to ``.bench_out/spans-<workload>-seed<N>.json.gz``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # workload start: before numpy or duinnet is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth", "mini", "paper")
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mib": "MiB",
    "work_per_s": "1/s", "work_p50_s": "s",
    "eval_per_s": "1/s", "eval_p50_s": "s",
}
# The name each end-to-end metric has for a user of the workload.
LABELS = {
    "synth": {"work_per_s": "synth_views_per_s", "work_p50_s": "synth_view_p50_s",
              "eval_per_s": "readback_records_per_s", "eval_p50_s": "readback_record_p50_s"},
    "model": {"work_per_s": "train_samples_per_s", "work_p50_s": "train_step_p50_s",
              "eval_per_s": "eval_samples_per_s", "eval_p50_s": "eval_sample_p50_s"},
}
P90_MIN_SAMPLES = 100  # p90 is reported only with at least ten samples beyond it


def _pin_blas_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported.

    On a 2-core VM, two threads made mini step times spread 1.5x between
    runs against 1.2x with one: each parallel call waits for the slower core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _openblas() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    out = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def run_metadata() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": _openblas()}


def _percentiles(samples: list[float]) -> dict:
    import numpy as np

    out = {"p50": {"value": float(np.median(samples)), "samples": len(samples)}}
    if len(samples) >= P90_MIN_SAMPLES:
        out["p90"] = {"value": float(np.percentile(samples, 90)), "samples": len(samples)}
    return out


def run_one(args) -> int:
    _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import duinnet
    except ImportError as exc:
        print(f"error: cannot import duinnet from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(duinnet.__file__).resolve().parent != ROOT / "src" / "duinnet":
        print(f"error: duinnet imported from {duinnet.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        if args.workload == "synth":
            out, e2e, traced = workloads.synth_workload(args.seed, args.seconds, START,
                                                        trace, work)
        else:
            out, e2e, traced = workloads.model_workload(args.workload, args.seed,
                                                        args.seconds, START, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced:
        layers, tracer = traced
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit, _ in tracing.PER_LAYER}
    else:
        reported = {name: {"value": e2e[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()}
    labels = LABELS["synth" if args.workload == "synth" else "model"]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": out.failed == 0, "attempted": out.attempted,
        "failed": out.failed, "problems": out.problems[:20],
        "metrics": reported,
        "end_to_end": {labels.get(k, k): {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in e2e.items()},
        "percentiles": {"work_s": _percentiles(out.work_s()),
                        "eval_s": _percentiles(out.eval_s())},
        "outputs": out.info,
        "meta": run_metadata(),
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    for name, m in result["end_to_end"].items():
        print(f"{args.workload:6s} {name:26s} {m['value']:14.6g} {m['unit']}")
    p90 = result["percentiles"]["work_s"].get("p90")
    if p90 and args.workload != "synth":
        print(f"{args.workload:6s} {'train_step_p90_s':26s} {p90['value']:14.6g} s"
              f"  ({p90['samples']} samples)")
    for name, value in out.info.items():
        if isinstance(value, float):
            print(f"{args.workload:6s} {name:26s} {value:14.6g}")
    if traced:
        for name, m in reported.items():
            print(f"{args.workload:6s} {name:44s} {m['value']:14.6g} {m['unit']}")
    for problem in out.problems[:20]:
        print(f"{args.workload:6s} FAILED: {problem}")
    print(json.dumps({"correct": result["correct"], "attempted": out.attempted,
                      "failed": out.failed, "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; their tables, in order."""
    status = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines[-1].startswith("{") or not json.loads(lines[-1])["correct"]:
            print(f"{w:6s} FAILED (exit code {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
