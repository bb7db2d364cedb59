"""Synthetic dataset generators for benchmarks, demos, and pipeline fixtures.

Two families: planted low-rank rating matrices for recovery benchmarks, and
community-structured social bundles (ratings plus a trust graph with hub
users) that exercise every pipeline stage.
"""

from dataclasses import dataclass

import numpy as np

from .data import RatingMatrix, TrustGraph


def planted_factors(num_users=100, num_items=100, k=10, density=0.2, noise=0.1, seed=0):
    """Low-rank ratings R = P*ᵀQ* + N(0, noise²) at the given density.

    Factor entries are scaled so rating values have unit variance before
    noise.  Returns (ratings, P_star, Q_star); the rating scale is set to the
    observed value range.
    """
    rng = np.random.default_rng(seed)
    scale = k ** -0.25
    p_star = rng.normal(0.0, scale, size=(k, num_users))
    q_star = rng.normal(0.0, scale, size=(k, num_items))
    count = int(round(density * num_users * num_items))
    chosen = rng.choice(num_users * num_items, size=count, replace=False)
    chosen.sort()
    users = chosen // num_items
    items = chosen % num_items
    values = (p_star[:, users] * q_star[:, items]).sum(axis=0)
    values += rng.normal(0.0, noise, size=count)
    ratings = RatingMatrix(
        num_users,
        num_items,
        users,
        items,
        values,
        r_min=float(np.floor(values.min())),
        r_max=float(np.ceil(values.max())),
    )
    return ratings.validate(), p_star, q_star


@dataclass
class SocialBundle:
    """A generated dataset with ground truth attached."""

    ratings: RatingMatrix
    trust: TrustGraph
    communities: np.ndarray
    hubs: np.ndarray


def social_bundle(
    num_users=300,
    num_items=400,
    num_communities=6,
    k=10,
    ratings_per_user=(4, 40),
    member_noise=0.25,
    rating_noise=0.25,
    trust_per_user=(2, 6),
    cross_community=0.05,
    seed=0,
):
    """Community-structured ratings and trust with hub users.

    Each community has a prototype preference vector; members perturb it by
    ``member_noise``, one hub per community sits almost exactly on it.  Users
    rate a uniformly drawn number of items in ``ratings_per_user`` (hubs use
    the upper end, so sparse members have informative neighbors), with raw
    affinities mapped affinely onto the 1..5 scale.  Trust edges mostly stay
    inside the community and point at the hub with elevated probability.
    """
    rng = np.random.default_rng(seed)
    labels = np.sort(rng.integers(0, num_communities, size=num_users))
    prototypes = rng.normal(0.0, 1.0, size=(k, num_communities))
    prefs = prototypes[:, labels] + rng.normal(0.0, member_noise, size=(k, num_users))
    hubs = np.zeros(num_communities, dtype=np.int64)
    for c in range(num_communities):
        members = np.flatnonzero(labels == c)
        hubs[c] = rng.choice(members)
        prefs[:, hubs[c]] = prototypes[:, c] + rng.normal(0.0, 0.02, size=k)

    item_vecs = rng.normal(0.0, 1.0 / np.sqrt(k), size=(k, num_items))
    raw = prefs.T @ item_vecs
    lo, hi = np.quantile(raw, [0.02, 0.98])
    span = hi - lo if hi > lo else 1.0

    lo_cnt, hi_cnt = ratings_per_user
    counts = rng.integers(lo_cnt, hi_cnt + 1, size=num_users)
    counts[hubs] = hi_cnt
    sizes = np.minimum(counts, num_items)
    items, values = [], []
    for u, size in enumerate(sizes):
        chosen = rng.choice(num_items, size=size, replace=False)
        noisy = raw[u, chosen] + rng.normal(0.0, rating_noise, size=size)
        items.append(chosen)
        values.append(np.clip(1.0 + 4.0 * (noisy - lo) / span, 1.0, 5.0))
    users = np.repeat(np.arange(num_users), sizes)
    ratings = RatingMatrix.from_triples(
        num_users, num_items, users, np.concatenate(items), np.concatenate(values)
    ).validate()

    edges = []
    lo_t, hi_t = trust_per_user
    for u in range(num_users):
        c = labels[u]
        members = np.flatnonzero(labels == c)
        budget = rng.integers(lo_t, hi_t + 1)
        for _ in range(budget):
            if rng.random() < cross_community:
                v = int(rng.integers(0, num_users))
            elif rng.random() < 0.5 and hubs[c] != u:
                v = int(hubs[c])
            else:
                v = int(rng.choice(members))
            if v == u:
                continue
            edges.append((u, v, float(rng.uniform(0.6, 1.0))))
    return SocialBundle(ratings, TrustGraph.from_edges(num_users, edges), labels, hubs)


def write_bundle(bundle, ratings_path, trust_path):
    """Write a bundle in the external text formats with identity ids."""
    with open(ratings_path, "w") as fh:
        for u, i, v in zip(bundle.ratings.users, bundle.ratings.items, bundle.ratings.values):
            fh.write(f"{u},{i},{float(v)!r}\n")
    with open(trust_path, "w") as fh:
        for u, v, t in bundle.trust.edges():
            fh.write(f"{u},{v},{float(t)!r}\n")


def toy_bundle(seed=0):
    """A 20-user fixture small enough for fast end-to-end pipeline runs."""
    return social_bundle(
        num_users=20,
        num_items=30,
        num_communities=3,
        k=4,
        ratings_per_user=(5, 15),
        trust_per_user=(1, 3),
        seed=seed,
    )
