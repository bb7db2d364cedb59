"""Trust-aware collaborative filtering.

Factor-model recommendation on a rating matrix plus a directed trust graph:
autoencoder-pretrained latent factors, node2vec-style trust embeddings,
propagated-trust smoothing, and community-leader regularization, with a
deterministic training and evaluation pipeline on top.

scipy is imported inside the functions that use it, never at module level,
so a command that calls none of them starts on numpy alone.
"""

from .autoencoder import AutoencoderConfig, AutoencoderModel, train_autoencoder
from .data import (
    DataFormatError,
    IdMap,
    RatingMatrix,
    SplitSpec,
    TrustGraph,
    global_mean,
    load_ratings,
    load_trust,
    split,
    subsample_top_trust_users,
)
from .embed import EmbeddingTable, WalkConfig, generate_walks, node_embeddings, train_embeddings
from .evaluation import EvalReport, evaluate, rmse, run_ablations
from .graph import (
    CommunityAssignment,
    LeaderTable,
    PropagatedTrust,
    community_leaders,
    louvain,
    modularity,
    pagerank,
    propagate_trust,
)
from .model import (
    HyperParams,
    ModelParams,
    TrainingContext,
    gradients,
    init_params,
    objective,
    predict,
    sgd_epoch,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AutoencoderConfig",
    "AutoencoderModel",
    "CommunityAssignment",
    "DataFormatError",
    "EmbeddingTable",
    "EvalReport",
    "HyperParams",
    "IdMap",
    "LeaderTable",
    "ModelParams",
    "PropagatedTrust",
    "RatingMatrix",
    "SplitSpec",
    "TrainingContext",
    "TrustGraph",
    "WalkConfig",
    "community_leaders",
    "evaluate",
    "generate_walks",
    "global_mean",
    "gradients",
    "init_params",
    "load_ratings",
    "load_trust",
    "louvain",
    "modularity",
    "node_embeddings",
    "objective",
    "pagerank",
    "predict",
    "propagate_trust",
    "rmse",
    "run_ablations",
    "sgd_epoch",
    "split",
    "subsample_top_trust_users",
    "train",
    "train_autoencoder",
    "train_embeddings",
]
