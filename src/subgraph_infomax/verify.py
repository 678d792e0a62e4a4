"""Property suites runnable outside pytest: gradient checks, oracle
equivalences, and the conditional divergence bound.

Shared by the ``verify`` CLI subcommand and the test suite.  Every check
returns a ``CheckResult`` so callers can print one pass/fail line each.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_diff_check
from .data import ObservationProtocol, SyntheticSpec, generate_synthetic
from .graph import (
    GlobalGraph, bernoulli_edges, bfs_khop_oracle, induced_partial_subgraph, khop_neighbors,
)
from .infomax import cgd_random_trials, gd_loss, infonce_loss, khop_loss
from .layers import GatedAttentionReadout
from .models import VARIANTS, ModelConfig, build_model
from .optim import ParameterStore
from .data import sample_observed


@dataclass
class CheckResult:
    name: str
    value: float
    limit: float
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.value:.3g} (limit {self.limit:.3g})"


GRADIENT_LIMIT = 1e-4


def _op_checks(rng: np.random.Generator) -> list[tuple[str, Callable[[], Tensor], list[Tensor]]]:
    """One scalar closure per public tape op, named after it, plus one per
    further axis of ``sum``, ``mean`` and ``concat``; random shapes <= 16x16."""

    def rand(rows, cols):
        return Tensor(rng.normal(0.0, 1.0, size=(rows, cols)), requires_grad=True)

    n, m, k = (int(rng.integers(2, 17)) for _ in range(3))
    a = rand(n, m)
    b = rand(m, k)
    c = rand(n, m)
    # Strictly positive inputs keep div/sqrt probes away from 0.
    pos = Tensor(np.abs(rng.normal(0.0, 1.0, size=(n, m))) + 0.5, requires_grad=True)
    bias = rand(1, m)
    col = rand(n, 1)
    seg_ids = rng.integers(0, 4, size=n)
    gather_idx = rng.integers(0, n, size=n + 2)
    dropout_seed = int(rng.integers(2**31))

    def dropped():
        # Re-seeded on every call so each finite-difference probe sees one mask.
        return ad.dropout(a, 0.3, np.random.default_rng(dropout_seed))

    checks = [
        ("matmul", lambda: ad.sum(ad.matmul(a, b)), [a, b]),
        ("add", lambda: ad.sum(ad.add(a, bias)), [a, bias]),
        ("mul", lambda: ad.sum(ad.mul(a, c)), [a, c]),
        ("div", lambda: ad.sum(ad.div(a, pos)), [a, pos]),
        ("scale", lambda: ad.sum(ad.scale(a, 1.7)), [a]),
        ("relu", lambda: ad.sum(ad.relu(a)), [a]),
        ("sigmoid", lambda: ad.sum(ad.sigmoid(a)), [a]),
        ("sqrt", lambda: ad.sum(ad.sqrt(pos)), [pos]),
        ("log_sigmoid", lambda: ad.sum(ad.log_sigmoid(a)), [a]),
        ("softmax_rows", lambda: ad.sum(ad.mul(ad.softmax_rows(a), c)), [a]),
        ("logsumexp_rows", lambda: ad.sum(ad.logsumexp_rows(a)), [a]),
        ("sum", lambda: ad.mul(ad.sum(a), ad.sum(ad.mul(a, c))), [a]),
        ("sum/0", lambda: ad.sum(ad.mul(ad.sum(a, 0), bias)), [a]),
        ("sum/1", lambda: ad.sum(ad.mul(ad.sum(a, 1), col)), [a]),
        ("mean", lambda: ad.mean(ad.mul(a, a)), [a]),
        ("mean/0", lambda: ad.sum(ad.mul(ad.mean(a, 0), bias)), [a]),
        ("mean/1", lambda: ad.sum(ad.mul(ad.mean(a, 1), col)), [a]),
        ("concat", lambda: ad.sum(ad.mul(ad.concat([a, c], 1), ad.concat([c, a], 1))), [a, c]),
        ("concat/0", lambda: ad.sum(ad.mul(ad.concat([a, c], 0), ad.concat([c, a], 0))), [a, c]),
        ("gather_rows", lambda: ad.sum(ad.mul(ad.gather_rows(a, gather_idx), ad.gather_rows(c, gather_idx))), [a]),
        ("segment_sum", lambda: ad.sum(ad.mul(ad.segment_sum(a, seg_ids, 4), ad.segment_sum(c, seg_ids, 4))), [a]),
        ("segment_mean", lambda: ad.sum(ad.mul(ad.segment_mean(a, seg_ids, 4), ad.segment_mean(c, seg_ids, 4))), [a]),
        ("transpose", lambda: ad.sum(ad.matmul(ad.transpose(a), c)), [a, c]),
        ("clip_min", lambda: ad.sum(ad.clip_min(a, 0.25)), [a]),
        ("dropout", lambda: ad.sum(ad.mul(dropped(), c)), [a]),
        ("gd_loss", lambda: gd_loss(col, ad.mul(col, col)), [col]),
        ("infonce_loss", lambda: infonce_loss(col, ad.concat([col, ad.mul(col, col)], 1)), [col]),
        ("khop_loss", lambda: khop_loss(col, ad.mul(col, col)), [col]),
    ]
    return checks


def _gradient_row(name: str, fn: Callable[[], Tensor], params: list[Tensor]) -> CheckResult:
    err = finite_diff_check(fn, params)
    return CheckResult(f"grad/{name}", err, GRADIENT_LIMIT, err < GRADIENT_LIMIT)


def gradient_op_report(seed: int = 0) -> list[CheckResult]:
    return [_gradient_row(*check) for check in _op_checks(np.random.default_rng(seed))]


def _toy_spec(seed: int) -> SyntheticSpec:
    return SyntheticSpec(
        num_nodes=14,
        communities=2,
        p_intra=0.6,
        p_inter=0.2,
        num_subgraphs=4,
        subgraph_size_min=4,
        subgraph_size_max=5,
        n_obs=2,
        feature_dim=3,
        feature_noise=0.2,
        community_leak=0.2,
        seed=seed,
    )


def _toy_model_config(variant: str) -> ModelConfig:
    return ModelConfig(
        variant=variant,
        hidden_dim=4,
        dropout=0.0,       # deterministic closures for finite differences
        p_d=0.0,
        pool_ratio=0.5,
        aug_p=0.2,
        ppr_top_t=4,
        temperature=0.5,
    )


def model_gradient_closure(variant: str, seed: int = 0, **overrides):
    """A deterministic scalar training objective for one model variant, with
    ``overrides`` applied to its toy ``ModelConfig``.

    Rebuilds the forward graph on every call with a fresh, identically
    seeded rng, so finite differences see a fixed function of the
    parameters.  Returns (closure, trainable parameter tensors).
    """
    bundle = generate_synthetic(_toy_spec(seed))
    protocol = ObservationProtocol(n_obs=2, train_jitter=False, eval_fixed_seed=seed)
    config = dataclasses.replace(_toy_model_config(variant), **overrides)
    model = build_model(config, bundle, np.random.default_rng(seed + 17))
    records = bundle.records[:3]
    sampler = np.random.default_rng(seed + 23)
    partials = [
        induced_partial_subgraph(rec, sample_observed(rec, protocol, "train", sampler))
        for rec in records
    ]

    def closure() -> Tensor:
        rng = np.random.default_rng(seed + 31)
        context = model.prepare_batch(records, rng)
        out = model.step(
            records[0], partials[0], batch=context.for_target(0), rng=rng, training=True
        )
        return out.objective

    return closure, model.store.trainable()


def gradient_model_report(seed: int = 0) -> list[CheckResult]:
    return [_gradient_row(f"model/{v}", *model_gradient_closure(v, seed)) for v in VARIANTS]


# Each non-default option path, on a variant that reads it.
OPTION_CHECKS = (
    ("ps-infograph", "bidirectional", True),
    ("khop+ps-dgi", "premixer", "none"),
    ("khop+ps-dgi", "use_positional_encoding", True),
    ("khop", "concat_observed_summary", True),
    ("khop", "include_observed_in_pool", False),
)


def gradient_option_report(seed: int = 0) -> list[CheckResult]:
    """One end-to-end check per option path.  The attention pre-mixer is
    checked on the readout alone: on the toy model its query and key
    gradients are 1e-8 or smaller, where the relative error's 1e-8 floor reads
    exact agreement as a large error."""
    results = [
        _gradient_row(
            f"model/{variant}/{option}={value}",
            *model_gradient_closure(variant, seed, **{option: value}),
        )
        for variant, option, value in OPTION_CHECKS
    ]
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    readout = GatedAttentionReadout(store, "readout", 8, rng, premixer="attention")
    h = Tensor(rng.normal(0.0, 1.0, size=(5, 8)), requires_grad=True)
    weights = Tensor(rng.normal(0.0, 1.0, size=(1, 8)))
    summary = lambda: ad.sum(ad.mul(readout(h), weights))
    return results + [_gradient_row("readout/premixer=attention", summary, [h, *store.trainable()])]


def _random_er_graph(rng: np.random.Generator, max_nodes: int = 200) -> GlobalGraph:
    n = int(rng.integers(5, max_nodes + 1))
    density = rng.uniform(0.01, 0.2)
    return GlobalGraph(n, bernoulli_edges(np.full((n, n), density), rng))


def khop_oracle_report(graphs: int = 100, seed: int = 0, max_nodes: int = 200) -> CheckResult:
    """Exact set equality of the neighborhood sampler against brute-force BFS."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(graphs):
        graph = _random_er_graph(rng, max_nodes)
        k = int(rng.integers(1, 4))
        n_obs = int(rng.integers(1, min(6, graph.num_nodes) + 1))
        observed = rng.choice(graph.num_nodes, size=n_obs, replace=False)
        fast = khop_neighbors(graph, observed, k, cap=None, p_d=0.0)
        slow = bfs_khop_oracle(graph, observed, k)
        if set(fast.neighbors) != set(slow):
            mismatches += 1
    return CheckResult("khop-vs-bfs-oracle", mismatches, 0.5, mismatches == 0)


def cgd_report(trials: int = 1000, seed: int = 0) -> CheckResult:
    violations = cgd_random_trials(trials, np.random.default_rng(seed))
    return CheckResult("conditional-gd-bound", violations, 0.5, violations == 0)


def loss_value_report() -> list[CheckResult]:
    """Closed-form loss values at degenerate scores."""
    k = 7
    cases = [
        ("gd-zero-scores", gd_loss(np.zeros(3), np.zeros(5)), 2 * math.log(2)),
        ("infonce-uniform", infonce_loss(np.zeros((2, 1)), np.zeros((2, k))), math.log(k + 1)),
        ("khop-balanced", khop_loss(np.zeros(2), np.zeros(2)), math.log(2)),
    ]
    return [
        CheckResult(name, abs(loss.item() - want), 1e-9, abs(loss.item() - want) < 1e-9)
        for name, loss, want in cases
    ]


def run_all(seed: int = 0, cgd_trials: int = 1000, oracle_graphs: int = 100) -> list[CheckResult]:
    return [
        *loss_value_report(),
        *gradient_op_report(seed),
        *gradient_model_report(seed),
        *gradient_option_report(seed),
        khop_oracle_report(graphs=oracle_graphs, seed=seed),
        cgd_report(trials=cgd_trials, seed=seed),
    ]
