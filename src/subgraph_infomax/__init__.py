"""Representation learning for partially observed subgraphs.

Learns classification-ready summaries of the observed portion of a subgraph
by maximizing mutual information between the partial-subgraph summary and
substructures of the full subgraph (nodes, full-subgraph summaries, k-hop
neighborhoods), with a k-hop reconstruction model and a two-stage
composition on top.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, backward, finite_diff_check
from .data import (
    DatasetBundle,
    ExpectedStats,
    ObservationProtocol,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    make_splits,
    sample_observed,
    save_bundle,
)
from .graph import (
    GlobalGraph,
    KhopPartition,
    SubgraphRecord,
    SubgraphView,
    bfs_khop_oracle,
    induced_partial_subgraph,
    khop_neighbors,
)
from .infomax import (
    augment,
    cgd_random_trials,
    cross_subgraph_negatives,
    gd_loss,
    infonce_loss,
    khop_loss,
    shuffle_negatives,
    verify_cgd_bound,
)
from .models import (
    BatchContext,
    ModelConfig,
    PsiModel,
    StepOutput,
    TwoStageModel,
    build_model,
    khop_forward,
    topk_softmax_pool,
)
from .optim import AdamConfig, ParameterStore, adam_step
from .train import (
    DatasetFiles,
    MetricsRecord,
    RunConfig,
    compare,
    evaluate,
    sweep_lambda,
    sweep_observed,
    unpaired_t_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
