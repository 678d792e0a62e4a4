#!/usr/bin/env python3
"""Train every model variant on the default synthetic bundle and print a
results table with significance against the plain encoder-readout baseline.

Usage:
    python3 scripts/run_synthetic_benchmark.py [--epochs 80] [--seeds 0,1,2,3,4]
"""

import argparse
import time

from subgraph_infomax.data import ObservationProtocol, SyntheticSpec
from subgraph_infomax.models import ModelConfig
from subgraph_infomax.optim import AdamConfig
from subgraph_infomax.train import RunConfig, load_bundle, train, unpaired_t_test
from subgraph_infomax.verify import ALL_VARIANTS

VARIANTS = ("baseline",) + ALL_VARIANTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=80)
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--n-obs", type=int, default=4)
    parser.add_argument("--learning-rate", type=float, default=3e-3)
    parser.add_argument("--variants", default=",".join(VARIANTS))
    args = parser.parse_args()
    seeds = tuple(int(s) for s in args.seeds.split(","))

    spec = SyntheticSpec()
    bundle = load_bundle(RunConfig(synthetic=spec, epochs=1))
    majority = bundle.majority_class_rate("test")
    print(f"dataset: {bundle.name} ({bundle.graph.num_nodes} nodes, "
          f"{len(bundle.records)} subgraphs, test majority rate {majority:.3f})")

    results = {}
    for variant in args.variants.split(","):
        extra = {"pool_ratio": 0.25} if "khop" in variant else {}
        config = RunConfig(
            model=ModelConfig(variant=variant, hidden_dim=64, **extra),
            protocol=ObservationProtocol(n_obs=args.n_obs),
            synthetic=spec,
            adam=AdamConfig(learning_rate=args.learning_rate),
            epochs=args.epochs,
            batch_size=16,
            seeds=seeds,
        )
        started = time.time()
        results[variant] = train(config, bundle=bundle)
        print(f"  trained {variant} in {time.time() - started:.0f}s")

    base = results.get("baseline")
    print(f"\n{'model':<20} {'accuracy':>16} {'p vs baseline':>14}")
    for variant, metrics in results.items():
        p_text = ""
        if base is not None and variant != "baseline":
            p_text = f"{unpaired_t_test(metrics.accuracies, base.accuracies):.4f}"
        print(f"{variant:<20} {metrics.mean:>8.4f} ± {metrics.std:<6.4f} {p_text:>13}")


if __name__ == "__main__":
    main()
