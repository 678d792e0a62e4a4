"""Benchmark entry point: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload infograph-300 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each measurement happens in a fresh worker
process (``worker.py``) with BLAS pinned to one thread.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it trains the same
seeds once untraced and once traced and prints the per-layer metrics.  The
last line of standard output is one JSON object; the exit code is non-zero
when an output check fails.  A full report, and with tracing the spans,
are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_MS, scale  # noqa: E402
from workloads import EXPECTED_SPANS, WORKLOADS, train_seeds  # noqa: E402

# Every worker must end before this many seconds from the start of the run.
RUN_LIMIT_S = 170
STARTED = time.monotonic()
SETUP_SAMPLES = 5
# Percentiles tried for the tail, highest first.  The choice is made on the
# step count of the first ``min_seeds`` seeds, which every run trains, so a
# workload keeps one percentile however many seeds its time budget allows.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_records_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "eval_records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_acc": "share",
    "seed_ok_share": "share",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED_THREADS["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "python": platform.python_version(),
        "commit": commit,
        "workload_seed": seed,
    }


def run_worker(job: dict, run_dir: Path, tag: str) -> dict:
    job = dict(job, result_path=str(run_dir / f"{tag}.result.json"))
    job_path = run_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), str(job_path), repr(time.monotonic())]
    left = RUN_LIMIT_S - (time.monotonic() - STARTED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {tag} did not end within {RUN_LIMIT_S}s of the run start") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(Path(job["result_path"]).read_text(encoding="utf-8"))


def tail_percentile(head_steps: int) -> float:
    """Highest ladder percentile with at least ten of ``head_steps`` samples beyond it."""
    return next(p for p in TAIL_LADDER if head_steps * (1 - p / 100) >= 10 or p == TAIL_LADDER[-1])


def check_shape(found: dict, generated: dict | None) -> list[str]:
    if generated is None:
        return []
    return [f"input {k}: loaded {found[k]} != generated {v}" for k, v in generated.items() if found[k] != v]


def end_to_end(base_job: dict, seed: int, seconds: int, run_dir: Path, workload: dict) -> tuple[dict, dict]:
    """End-to-end metrics; every timing is brought to reference speed (see ``hostspeed.py``)."""
    setup_runs = [run_worker(dict(base_job, mode="setup"), run_dir, f"setup{i}")
                  for i in range(SETUP_SAMPLES - 1)]
    seeds = train_seeds(seed, 1000)
    res = run_worker(dict(base_job, mode="train", seeds=seeds,
                          min_seeds=workload["min_seeds"], budget_s=seconds), run_dir, "train")
    setup_runs.append(res)
    if not res["test_acc_head"]:
        raise BenchError(f"no always-trained seed finished: {res['failures']}")
    setups = [r["setup_s"] * REFERENCE_MS / statistics.median(r["setup_kernel_ms"]) for r in setup_runs]
    kernel = res["kernel"]
    epochs = res["epochs"]
    n_train = res["input_shape"]["split_sizes"]["train"]
    steps = [(t1 - t0) * 1e3 * scale(kernel, t0, t1) for e in epochs for t0, t1 in e["steps_at"]]
    epoch_s = [(e["t1"] - e["t0"] - e["kernel_s"]) * scale(kernel, e["t0"], e["t1"]) for e in epochs]
    eval_rates = [n / (sec * scale(kernel, t0, t1)) for n, sec, t0, t1 in res["eval_passes"]]
    head = set(seeds[: workload["min_seeds"]])
    tail_pct = tail_percentile(sum(len(e["steps_at"]) for e in epochs if e["seed"] in head))
    tail_ms = float(np.percentile(steps, tail_pct))
    attempted = len(res["seeds_run"])
    metrics = {
        "setup_s": statistics.median(setups),
        "train_records_per_s": n_train / statistics.median(epoch_s),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail_ms,
        "eval_records_per_s": statistics.median(eval_rates),
        "peak_rss_mb": res["peak_rss_mb"],
        "test_acc": statistics.fmean(res["test_acc_head"]),
        "seed_ok_share": (attempted - len(res["failures"])) / attempted,
    }
    detail = {
        "setup_samples_s": setups,
        "epochs": len(epochs),
        "step_ms_tail_percentile": tail_pct,
        "step_samples": len(steps),
        "steps_beyond_tail": sum(1 for ms in steps if ms > tail_ms),
        "kernel_ms_median": statistics.median(kernel["ms"]),
        "as_measured": {
            "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
            "train_records_per_s": res["train_records"] / res["train_s"],
            "step_ms_p50": statistics.median((t1 - t0) * 1e3 for e in epochs for t0, t1 in e["steps_at"]),
            "eval_records_per_s": sum(c[0] for c in res["eval_passes"]) / sum(c[1] for c in res["eval_passes"]),
        },
        "digest": res["digest"],
        "worker": res,
    }
    return metrics, detail


def per_layer(base_job: dict, seed: int, run_dir: Path, workload: dict, name: str) -> tuple[dict, dict]:
    seeds = train_seeds(seed, workload["trace_seeds"])
    job = dict(base_job, seeds=seeds, min_seeds=len(seeds), budget_s=0)
    plain = run_worker(dict(job, mode="train"), run_dir, "untraced")
    trace_path = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.npz"
    traced = run_worker(dict(job, mode="traced", trace_path=str(trace_path)), run_dir, "traced")
    if not plain["train_s"] or not traced["train_s"]:
        raise BenchError(f"no traced seed finished: {plain['failures']} {traced['failures']}")
    tr = traced["trace"]
    spans = tr["spans"]
    c = tr["counters"]

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def self_ms(span):
        return spans.get(span, {}).get("self_ms", 0.0)

    def total_ms(span):
        return spans.get(span, {}).get("total_ms", 0.0)

    metrics = {
        "autodiff.backward.self_ms": self_ms("autodiff.backward"),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.ops_per_step": tr["ops_train"] / max(tr["steps"], 1),
        "autodiff.ops_per_eval_record": tr["ops_eval"] / max(tr["eval_records"], 1),
    }
    for op in ("matmul", "segment_mean", "gather_rows"):
        metrics[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}")
        metrics[f"autodiff.{op}.self_ms"] = self_ms(f"autodiff.{op}")
    metrics["autodiff.gather_rows.bwd_bytes_computed"] = c["gather_rows.bwd_bytes"]
    metrics.update({
        "optim.adam_step.calls": calls("optim.adam_step"),
        "optim.adam_step.self_ms": self_ms("optim.adam_step"),
        "graph.khop_neighbors.calls": calls("graph.khop_neighbors"),
        "graph.khop_neighbors.self_ms": self_ms("graph.khop_neighbors"),
        "graph.khop_neighbors.neighbors_mean": c["khop.neighbors"] / max(calls("graph.khop_neighbors"), 1),
        "graph.induced_edges.calls": calls("graph.induced_edges"),
        "graph.induced_edges.self_ms": self_ms("graph.induced_edges"),
        "graph.GlobalGraph.init_ms": total_ms("graph.GlobalGraph.init"),
        "graph.induced_partial_subgraph.calls": calls("graph.induced_partial_subgraph"),
        "graph.induced_partial_subgraph.self_ms": self_ms("graph.induced_partial_subgraph"),
        "data.load_dataset.self_ms": self_ms("data.load_dataset"),
        "data.load_dataset.total_ms": total_ms("data.load_dataset"),
        "data.generate_synthetic.self_ms": self_ms("data.generate_synthetic"),
        "data.generate_synthetic.total_ms": total_ms("data.generate_synthetic"),
        "data.sample_observed.calls": calls("data.sample_observed"),
        "data.sample_observed.self_ms": self_ms("data.sample_observed"),
        "layers.encode.calls": calls("layers.encode"),
        "layers.encode.self_ms": self_ms("layers.encode"),
        "layers.encode.rows": c["encode.rows"],
        "layers.encode.edges": c["encode.edges"],
        "infomax.augment.calls": calls("infomax.augment"),
        "infomax.augment.self_ms": self_ms("infomax.augment"),
        "infomax.infonce_loss.self_ms": self_ms("infomax.infonce_loss"),
        "infomax.gd_loss.self_ms": self_ms("infomax.gd_loss"),
        "infomax.cross_subgraph_negatives.self_ms": self_ms("infomax.cross_subgraph_negatives"),
        "infomax.khop_loss.self_ms": self_ms("infomax.khop_loss"),
        "models.prepare_batch.calls": calls("models.prepare_batch"),
        "models.prepare_batch.self_ms": self_ms("models.prepare_batch"),
        "models.step.self_ms": self_ms("models.step"),
        "models.khop_forward.self_ms": self_ms("models.khop_forward"),
        "models.topk_softmax_pool.self_ms": self_ms("models.topk_softmax_pool"),
        "models.pool_precision": c["pool.in_subgraph"] / max(c["pool.selected"], 1),
        "train.evaluate.calls": calls("train.evaluate"),
        "train.evaluate.self_ms": self_ms("train.evaluate"),
        "train.train_single_seed.self_ms": self_ms("train.train_single_seed"),
        "trace.overhead": (traced["train_records"] / traced["train_s"])
        / (plain["train_records"] / plain["train_s"]),
    })
    expected = EXPECTED_SPANS[name]
    problems = [f"span {s} recorded no calls" for s in expected["called"] if calls(s) == 0]
    problems += [f"span {s} recorded {calls(s)} calls, expected none" for s in expected["silent"] if calls(s)]
    if plain["seed_digests"] != traced["seed_digests"]:
        problems.append(f"traced digests {traced['seed_digests']} != untraced {plain['seed_digests']}")
    detail = {
        "digest": plain["digest"],
        "traced_digest": traced["digest"],
        "span_problems": problems,
        "trace_path": str(trace_path.relative_to(ROOT)),
        "untraced": plain,
        "traced": traced,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "subgraph_infomax" / "__init__.py").is_file():
        print(f"error: the package source src/subgraph_infomax is missing under {ROOT}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        env = environment(args.seed)
        base_job = {"workload": args.workload, "source": workload["source"]}
        generated = None
        if workload["source"] == "files":
            from khop_input import write_khop_input

            made = write_khop_input(args.seed, run_dir / "input")
            base_job["paths"], generated = made["paths"], made["shape"]
        if args.trace:
            metrics, detail = per_layer(base_job, args.seed, run_dir, workload, args.workload)
            res = detail["untraced"], detail["traced"]
            problems = list(detail["span_problems"])
        else:
            metrics, detail = end_to_end(base_job, args.seed, args.seconds, run_dir, workload)
            res = (detail["worker"],)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(r["seeds_run"]) for r in res)
    failed = sum(len(r["failures"]) for r in res)
    for r in res:
        problems += check_shape(r["input_shape"], generated)
        problems += [f"seed {s}: {'; '.join(msgs)}" for s, msgs in r["failures"].items()]
    correct = not problems

    shape = res[0]["input_shape"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("input " + "  ".join(f"{k}={v}" for k, v in shape.items()))
    print(f"digest {detail['digest']}  seeds {res[0]['seeds_run']}")
    if not args.trace:
        print(f"step_ms_tail is p{detail['step_ms_tail_percentile']:g} of {detail['step_samples']} steps "
              f"in {detail['epochs']} epochs ({detail['steps_beyond_tail']} beyond)")
    units = END_TO_END_UNITS if not args.trace else {k: _layer_unit(k) for k in metrics}
    for key, value in metrics.items():
        print(f"{key:42s} {value:.6g} {units[key]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "generated_input": generated, "metrics": metrics, "problems": problems,
              "detail": detail}
    (work / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bwd_bytes_computed"):
        return "bytes"
    if name in ("models.pool_precision", "trace.overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
