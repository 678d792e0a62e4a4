"""Workload definitions and the layer map shared by the orchestrator and the worker.

Plain data only: importing this module must not import the package under
test, because the worker's set-up time starts before that import.
"""

from __future__ import annotations

# Every workload trains with the acceptance-07 optimiser and batch settings.
COMMON = {
    "hidden_dim": 64,
    "batch_size": 16,
    "n_obs": 4,
    "learning_rate": 3e-3,
}

WORKLOADS = {
    # Tape-bound: backward and the per-record encode dominate; graph queries
    # are under 1%, so a graph-core change should leave it unchanged.
    "infograph-300": {
        "source": "synthetic",
        "variant": "ps-infograph",
        "model": {},
        "epochs": 10,
        "min_seeds": 3,
        "trace_seeds": 2,
        "eval_min_s": 0.3,
    },
    # Graph-bound: k-hop BFS and induced edges do real work on a 5,000-node
    # graph read from files, and the 5,000-row trainable table makes every
    # gather_rows backward allocate a dense gradient.
    "khop-5k": {
        "source": "files",
        "variant": "khop+ps-infograph",
        "model": {"k": 1, "pool_ratio": 0.25},
        "epochs": 5,
        "min_seeds": 2,
        "trace_seeds": 1,
        "eval_min_s": 3.0,
    },
    # Many tiny tape ops: B x (B-1) cosine calls and augmented views; the only
    # workload that runs infomax.augment and infonce_loss.
    "graphcl-300": {
        "source": "synthetic",
        "variant": "ps-graphcl",
        "model": {},
        "epochs": 5,
        "min_seeds": 4,
        "trace_seeds": 2,
        "eval_min_s": 0.3,
    },
}

# Spans the tracer must see at least once on a workload, and spans that must
# stay silent there.  A traced run fails when either expectation breaks, which
# catches a wrapper bound where no caller looks it up.
ALWAYS = (
    "autodiff.backward", "autodiff.matmul", "autodiff.gather_rows",
    "autodiff.segment_mean", "optim.adam_step", "graph.GlobalGraph.init",
    "graph.induced_edges", "graph.induced_partial_subgraph",
    "data.sample_observed", "layers.encode", "models.prepare_batch",
    "models.step", "train.evaluate", "train.train_single_seed",
)
EXPECTED_SPANS = {
    "infograph-300": {
        "called": ALWAYS + (
            "data.generate_synthetic", "infomax.gd_loss",
            "infomax.cross_subgraph_negatives",
        ),
        "silent": (
            "data.load_dataset", "graph.khop_neighbors", "models.khop_forward",
            "models.topk_softmax_pool", "infomax.khop_loss", "infomax.augment",
            "infomax.infonce_loss",
        ),
    },
    "khop-5k": {
        "called": ALWAYS + (
            "data.load_dataset", "graph.khop_neighbors", "models.khop_forward",
            "models.topk_softmax_pool", "infomax.khop_loss", "infomax.gd_loss",
            "infomax.cross_subgraph_negatives",
        ),
        "silent": ("data.generate_synthetic", "infomax.augment", "infomax.infonce_loss"),
    },
    "graphcl-300": {
        "called": ALWAYS + (
            "data.generate_synthetic", "infomax.augment", "infomax.infonce_loss",
        ),
        "silent": (
            "data.load_dataset", "graph.khop_neighbors", "models.khop_forward",
            "models.topk_softmax_pool", "infomax.khop_loss", "infomax.gd_loss",
            "infomax.cross_subgraph_negatives",
        ),
    },
}


def train_seeds(workload_seed: int, count: int) -> list[int]:
    """Training seeds of one run, in order.

    An untraced run always trains the first ``min_seeds`` and then more while
    its time budget lasts; a traced run trains the first ``trace_seeds``.
    """
    return [workload_seed * 1000 + i for i in range(count)]
