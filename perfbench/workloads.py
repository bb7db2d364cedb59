"""The benchmark's workloads: bundle make-up, stage config and commands.

Bundles come from ``trustrec.synth.social_bundle`` with the run's ``--seed``;
every stage seed in the config is fixed, so the seed alone picks the inputs.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    bundle: dict  # social_bundle keyword arguments, seed aside
    top_users: int  # cut to this many top-trust users; 0 keeps all
    config: dict  # CLI config keys, paths aside
    commands: tuple  # one argv tail per CLI command, run in order

    @property
    def ablate(self):
        return "--ablate" in self.commands[-1]


CRITERION_7_CONFIG = {
    "data.scale_min": 1.0,
    "data.scale_max": 5.0,
    "split.train_fraction": 0.8,
    "split.seed": 42,
    "autoencoder.seed": 42,
    "walks.dimensions": 10,
    "walks.p": 1.0,
    "walks.q": 0.5,
    "walks.window": 5,
    "walks.seed": 42,
    "graph.decay": 0.8,
    "graph.louvain_seed": 42,
    "model.k": 10,
    "model.learning_rate": 0.01,
    "model.lam_p": 0.1,
    "model.lam_q": 0.1,
    "model.lam_w": 0.1,
    "model.lam_t": 0.1,
    "model.lam_c": 0.1,
    "model.seed": 42,
}

# ROADMAP's S bundle (criterion 7's data) with criterion 7's stage settings,
# except fewer walks and epochs so one cold round fits the run budget; the
# per-walk, per-epoch and per-rating work is unchanged.
TRAIN_S = Workload(
    name="train-s",
    bundle=dict(
        num_users=2600,
        num_items=1500,
        num_communities=12,
        k=10,
        ratings_per_user=(4, 30),
        member_noise=0.25,
        rating_noise=0.25,
        trust_per_user=(2, 6),
        cross_community=0.05,
    ),
    top_users=2000,
    config={
        **CRITERION_7_CONFIG,
        "autoencoder.epochs": 5,
        "walks.num_walks": 1,
        "walks.walk_length": 40,
        "graph.max_depth": 2,
        "model.learning_rate": 0.04,
        "model.epochs": 6,
    },
    commands=(("prepare",), ("train",), ("evaluate",)),
)

# Trust-dense and item-narrow: many propagated partners per rating, so the
# SGD trust term, the propagated-trust representation and the ablation
# ladder's cache reads dominate, while walks and the autoencoder stay small.
ABLATE_DENSE = Workload(
    name="ablate-dense",
    bundle=dict(
        num_users=800,
        num_items=80,
        num_communities=6,
        k=10,
        ratings_per_user=(4, 20),
        member_noise=0.25,
        rating_noise=0.25,
        trust_per_user=(8, 20),
        cross_community=0.05,
    ),
    top_users=0,
    config={
        **CRITERION_7_CONFIG,
        "autoencoder.epochs": 5,
        "walks.num_walks": 1,
        "walks.walk_length": 20,
        "graph.max_depth": 3,
        "model.learning_rate": 0.05,
        "model.epochs": 5,
    },
    commands=(("prepare",), ("train",), ("evaluate", "--ablate", "--baseline-mean")),
)

WORKLOADS = {w.name: w for w in (TRAIN_S, ABLATE_DENSE)}
