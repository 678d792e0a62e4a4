"""One measured process: import the package, build the bundle, train, evaluate.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread:

    python3 perfbench/worker.py <job.json> <spawn-time>

``spawn-time`` is the orchestrator's ``time.monotonic()`` just before the
process was started, so set-up time covers interpreter start and package
import.  The job file names the workload, the mode (``setup``, ``train`` or
``traced``), the seeds and the time budget; the result is written as JSON to
the path the job names.  The package is reached only through public calls.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
import sys
import time

SPAWNED = float(sys.argv[2]) if len(sys.argv) > 2 else time.monotonic()

from hostspeed import HostSpeed  # noqa: E402
from workloads import COMMON, WORKLOADS  # noqa: E402

# Kernel samples taken right after set-up, to bring set-up time to reference speed.
SETUP_KERNEL_SAMPLES = 10


def _digest(results) -> str:
    """Digest of per-seed test accuracy and final loss-trace values, bit-exact."""
    payload = [
        [r.seed, float(r.test_accuracy).hex(),
         {key: float(trace[-1]).hex() for key, trace in sorted(r.loss_trace.items())}]
        for r in results
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def _build_bundle(pkg, job):
    if job["source"] == "synthetic":
        return pkg.generate_synthetic(pkg.SyntheticSpec())
    paths = job["paths"]
    return pkg.load_dataset(
        paths["edges.txt"], paths["subgraphs.tsv"],
        embeddings=paths["embeddings.txt"], split=paths["splits.tsv"],
    )


def _config(pkg, T, workload, job):
    files = None
    if job["source"] == "files":
        p = job["paths"]
        files = T.DatasetFiles(p["edges.txt"], p["subgraphs.tsv"], p["embeddings.txt"], p["splits.tsv"])
    return T.RunConfig(
        model=pkg.ModelConfig(variant=workload["variant"], hidden_dim=COMMON["hidden_dim"], **workload["model"]),
        protocol=pkg.ObservationProtocol(n_obs=COMMON["n_obs"]),
        synthetic=pkg.SyntheticSpec() if files is None else None,
        files=files,
        adam=pkg.AdamConfig(learning_rate=COMMON["learning_rate"]),
        epochs=workload["epochs"],
        batch_size=COMMON["batch_size"],
        embedding_trainable=True,
    )


def _seed_failures(result, bundle, eval_accuracies) -> list[str]:
    """Output checks of one seed run; an empty list means it passed."""
    failures = []
    if result.diverged:
        failures.append("diverged")
    traces = [v for trace in result.loss_trace.values() for v in trace] + list(result.val_accuracy)
    if not traces or not all(math.isfinite(v) for v in traces):
        failures.append("non-finite loss trace or validation curve")
    majority = bundle.majority_class_rate("test")
    if not result.test_accuracy >= majority:
        failures.append(f"test accuracy {result.test_accuracy} below majority rate {majority}")
    if any(acc != result.test_accuracy for acc in eval_accuracies):
        failures.append(f"re-evaluated test accuracy {eval_accuracies} != {result.test_accuracy}")
    return failures


class StepClock:
    """Times training steps and epochs from the package's own call boundaries.

    A step sample runs from the return of one ``adam_step`` to the return of
    the next; an interval that holds an ``evaluate`` call, or the start of a
    seed, is no sample.  An epoch runs from the seed start or the previous
    ``evaluate`` return to the return of its validation ``evaluate``.  After
    each step the host-speed kernel runs; the next step sample starts after
    it, and an epoch records the kernel time it holds (``kernel_s``).  Times are
    ``time.perf_counter`` values, brought to reference speed by ``run.py``.
    """

    def __init__(self, T, speed: HostSpeed):
        self.epochs: list[dict] = []
        self._last_step: float | None = None
        self._epoch_start = 0.0
        adam, evaluate = T.adam_step, T.evaluate
        clock = time.perf_counter

        def timed_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            now = clock()
            epoch = self.epochs[-1]
            if self._last_step is not None:
                epoch["steps_at"].append((self._last_step, now))
            epoch["steps"] += 1
            epoch["kernel_s"] += speed.sample()
            self._last_step = clock()
            return out

        def timed_evaluate(*args, **kwargs):
            out = evaluate(*args, **kwargs)
            now = clock()
            epoch = self.epochs[-1]
            if epoch["steps"]:
                epoch["t0"], epoch["t1"] = self._epoch_start, now
                self._open_epoch(epoch["seed"])
            self._epoch_start = now
            self._last_step = None
            return out

        T.adam_step, T.evaluate = timed_adam, timed_evaluate

    def _open_epoch(self, seed: int) -> None:
        self.epochs.append({"seed": seed, "steps": 0, "steps_at": [], "kernel_s": 0.0, "t1": None})

    def new_seed(self, seed: int) -> None:
        """Start a seed; the unfinished epoch of a seed that raised is dropped."""
        if self.epochs and self.epochs[-1]["t1"] is None:
            self.epochs.pop()
        self._open_epoch(seed)
        self._epoch_start = time.perf_counter()
        self._last_step = None

    def finished_epochs(self) -> list[dict]:
        return [e for e in self.epochs if e["t1"] is not None]


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    workload = WORKLOADS[job["workload"]]
    tracer = None
    if job["mode"] == "traced":
        from tracer import Tracer
        tracer = Tracer()

    pkg = importlib.import_module("subgraph_infomax")
    T = importlib.import_module("subgraph_infomax.train")
    if tracer is not None:
        tracer.install()
    bundle = _build_bundle(pkg, job)
    out = {"setup_s": time.monotonic() - SPAWNED}
    graph = bundle.graph
    out["input_shape"] = {
        "nodes": graph.num_nodes,
        "directed_edges": graph.num_edges,
        "mean_degree": graph.num_edges / graph.num_nodes,
        "records": len(bundle.records),
        "mean_record_size": sum(len(r.node_ids) for r in bundle.records) / len(bundle.records),
        "split_sizes": {s: len(bundle.indices(s)) for s in ("train", "val", "test")},
        "test_majority_rate": float(bundle.majority_class_rate("test")),
    }
    speed = None
    if tracer is None:
        speed = HostSpeed()
        for _ in range(SETUP_KERNEL_SAMPLES):
            speed.sample()
        out["setup_kernel_ms"] = list(speed.ms)
    if job["mode"] == "setup":
        _finish(job, out)
        return

    config = _config(pkg, T, workload, job)
    clock = StepClock(T, speed) if tracer is None else None
    n_train = len(bundle.indices("train"))
    seeds_run, failures, train_s, eval_passes, results = [], {}, 0.0, [], []
    began = time.perf_counter()
    for i, seed in enumerate(job["seeds"]):
        elapsed = time.perf_counter() - began
        if i >= job["min_seeds"] and elapsed * (i + 1) / i > job["budget_s"]:
            break
        if clock is not None:
            clock.new_seed(seed)
        t0 = time.perf_counter()
        try:
            result, model = T.train_single_seed(config, bundle, seed)
        except Exception as exc:  # a seed that raises is a failed seed run
            seeds_run.append(seed)
            failures[seed] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        train_s += time.perf_counter() - t0
        if clock is not None:
            train_s -= sum(e["kernel_s"] for e in clock.epochs if e["seed"] == seed)
        # Evaluation is deterministic, so an untraced run may let the clock set
        # the pass count; a traced run makes exactly two so its counts repeat.
        eval_accs, spent = [], 0.0
        min_s = workload["eval_min_s"] if tracer is None else 0.0
        n_eval = len(bundle.indices("val")) + len(bundle.indices("test"))
        while len(eval_accs) < 2 or spent < min_s:
            # One timed window per pass over val and test: the two splits'
            # calls differ in length, so a median over single calls would
            # fall between two groups.
            if speed is not None:
                speed.sample()
            t1 = time.perf_counter()
            for stage in ("val", "test"):
                acc = T.evaluate(model, bundle, config.protocol, stage)
            t2 = time.perf_counter()
            eval_passes.append((n_eval, t2 - t1, t1, t2))
            spent += t2 - t1
            eval_accs.append(acc)
        seeds_run.append(seed)
        results.append(result)
        bad = _seed_failures(result, bundle, eval_accs)
        if bad:
            failures[seed] = bad

    head = [r for r in results if r.seed in job["seeds"][: job["min_seeds"]]]
    out.update({
        "seeds_run": seeds_run,
        "failures": {str(k): v for k, v in failures.items()},
        "train_records": n_train * config.epochs * len(results),
        "train_s": train_s,
        "eval_passes": eval_passes,
        "test_accuracies": {str(r.seed): r.test_accuracy for r in results},
        "test_acc_head": [r.test_accuracy for r in head],
        "digest": _digest(head) if len(head) == job["min_seeds"] else None,
        "seed_digests": {str(r.seed): _digest([r]) for r in results},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if clock is not None:
        out["epochs"] = clock.finished_epochs()
        out["kernel"] = speed.series()
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.save(job["trace_path"])
    _finish(job, out)


def _finish(job, out) -> None:
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
