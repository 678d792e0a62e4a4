"""Bit-exact training digests for every variant.

The expected digests were recorded from the two-class model implementation
(``PsiModel`` and ``TwoStageModel`` with separate loss routines) before it
was folded into one step and one MI-loss routine; the fold must reproduce
them exactly.  A change that alters training numerics on purpose (a new rng
draw order, a batched forward) re-records them and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from subgraph_infomax.data import ObservationProtocol, SyntheticSpec
from subgraph_infomax.models import ModelConfig
from subgraph_infomax.optim import AdamConfig
from subgraph_infomax.train import RunConfig, load_bundle, train_single_seed

SPEC = SyntheticSpec(
    num_nodes=80,
    communities=2,
    p_intra=0.25,
    p_inter=0.03,
    num_subgraphs=24,
    subgraph_size_min=5,
    subgraph_size_max=8,
    n_obs=3,
    feature_dim=4,
    feature_noise=0.4,
    seed=13,
)

# 17 training records in batches of 6: no batch holds a single record.
GOLDEN = {
    "baseline": "64cced3b10fe7ffa",
    "ps-dgi": "11cad7e04af0e14f",
    "ps-infograph": "54d68355dcdc8566",
    "ps-mvgrl": "5e85bd47ca4e3171",
    "ps-graphcl": "58269141e41c051b",
    "khop": "07e36d6a2d6829ef",
    "khop+ps-dgi": "a9ea24bc8697fc5e",
    "khop+ps-infograph": "1199397ab126e70b",
}


def golden_config(variant: str) -> RunConfig:
    return RunConfig(
        model=ModelConfig(variant=variant, hidden_dim=8, p_d=0.1, neighbor_cap=20),
        protocol=ObservationProtocol(n_obs=3),
        synthetic=SPEC,
        adam=AdamConfig(learning_rate=3e-3),
        epochs=2,
        batch_size=6,
        seeds=(0,),
    )


def training_digest(variant: str) -> str:
    """Digest of test accuracy, the val curve, every loss-trace value (as float
    hex) and the bytes of the kept parameters in creation order."""
    config = golden_config(variant)
    result, model = train_single_seed(config, load_bundle(config), 0)
    params = hashlib.sha256()
    for name, tensor in model.store.items():
        params.update(name.encode())
        params.update(tensor.values.tobytes())
    payload = [
        params.hexdigest(),
        float(result.test_accuracy).hex(),
        result.best_epoch,
        [float(v).hex() for v in result.val_accuracy],
        {k: [float(v).hex() for v in trace] for k, trace in sorted(result.loss_trace.items())},
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_training_digest_is_unchanged(variant):
    assert training_digest(variant) == GOLDEN[variant]


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{training_digest(name)}",')
