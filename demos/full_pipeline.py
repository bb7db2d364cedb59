"""Every stage end to end on one synthetic corpus, finishing with the
ablation ladder: plain factorization, then each social term added in turn.
"""

from dataclasses import replace

from trustrec.autoencoder import AutoencoderConfig
from trustrec.data import SplitSpec, split, subsample_top_trust_users
from trustrec.embed import WalkConfig, node_embeddings
from trustrec.evaluation import autoencoder_inits, constant_baseline, run_ablations
from trustrec.graph import community_leaders, louvain, propagate_trust
from trustrec.model import HyperParams, TrainingContext
from trustrec.data import global_mean
from trustrec.synth import social_bundle


def main():
    bundle = social_bundle(num_users=400, num_items=300, num_communities=6, k=8,
                           ratings_per_user=(4, 20), member_noise=0.25, rating_noise=0.25,
                           trust_per_user=(2, 5), cross_community=0.05, seed=7)
    ratings, graph, _ = subsample_top_trust_users(bundle.ratings, bundle.trust, 300)
    train_ratings, test_ratings = split(ratings, SplitSpec(0.8, seed=7))
    print(f"{len(train_ratings)} train / {len(test_ratings)} test ratings, "
          f"{graph.num_edges} trust edges among {graph.num_users} kept users")

    communities = louvain(graph, seed=7)
    leaders = community_leaders(graph, communities)
    propagated = propagate_trust(graph, decay=0.8, max_depth=2)
    print(f"{communities.num_communities} communities, "
          f"{propagated.num_pairs} propagated trust pairs")

    embeddings = node_embeddings(graph, WalkConfig(
        dimensions=8, num_walks=8, walk_length=30, p=1.0, q=0.5, window=5, seed=7))

    config = AutoencoderConfig(hidden_sizes=(64, 32, 8, 32, 64), learning_rate=0.01,
                               batch_size=32, epochs=80, seed=7)
    ae_init = autoencoder_inits(train_ratings, 8, config, replace(config, seed=8))

    hp = HyperParams(k=8, learning_rate=0.02, lam_p=0.1, lam_q=0.1, lam_w=0.1,
                     lam_t=0.1, lam_c=0.1, epochs=40, seed=7)
    ctx = TrainingContext(train=train_ratings, trust=propagated,
                          embeddings=embeddings, leaders=leaders)
    reports = run_ablations(ctx, hp, test_ratings, ae_init=ae_init)
    reports.append(constant_baseline(global_mean(train_ratings), test_ratings, model_tag="mean"))

    print()
    print(f"{'variant':<22}rmse")
    for report in reports:
        print(f"{report.model_tag:<22}{report.rmse:.4f}")


if __name__ == "__main__":
    main()
